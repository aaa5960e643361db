"""Critical-value table generation, CSV persistence, and keyed lookup.

A table is a named tuple of its cells, one per (method, n, n_f, q), and
the seed, N, R and versions that made them; ``generate_table`` and
``read_csv`` each build one whole.  The default grid covers n = 3..26 with
n_f = 0..max(3, floor(n/3)), matching the published layout.  Cell values are
canonicalized to six significant digits on creation so that serialization is
an identity: rewriting a parsed file reproduces it byte for byte, and
regeneration with the same seed is byte-identical regardless of worker count.
"""

from __future__ import annotations

import collections
import math

from . import __version__
from .estimation import EXACT, SIMULATED, QuantileEstimate, check_workers, simulate_cells
from .exact import UnsupportedExactError, exact_quantile, has_exact_quantile
from .methods import Method, MethodSpec, check_cell, parse_method
from .sampling import (
    DEFAULT_N_REPLICAS,
    DEFAULT_N_SAMPLES,
    DEFAULT_Q_LEVELS,
    DEFAULT_SEED,
    check_counts,
    check_seed,
    parse_seed,
)
from .special import ConvergenceError, DomainError, check_levels

__all__ = [
    "TableLookupError",
    "TableParseError",
    "TableGenerationError",
    "default_grid",
    "generate_table",
    "write_csv",
    "read_csv",
    "lookup",
    "resolve_quantiles",
]

_HEADER = "method,n,n_f,q,estimate,stderr,provenance"
TABLE = "table"  # provenance of a critical value read from a table file
# the metadata lines of a table file, in the order written, each with its parser
_META = {"seed": parse_seed, "N": int, "R": int, "version": str, "numpy": str}


class TableLookupError(KeyError):
    """Requested key is not in the table; no interpolation is attempted."""

    # KeyError's str is the repr of its key; this error's argument is a message
    __str__ = Exception.__str__


class TableParseError(ValueError):
    """Malformed CSV row or metadata line; carries the offending line number."""


class TableGenerationError(RuntimeError):
    """A table's one resolver call failed; names the failure once, then the
    cells it hit, and keeps an (n, n_f, msg) report a cell in ``failures``."""

    def __init__(self, msg, cells):
        self.failures = [(n, n_f, msg) for n, n_f in cells]
        at = ", ".join(f"(n={n}, n_f={n_f})" for n, n_f in cells)
        super().__init__(f"table generation failed for {len(self.failures)} cell(s): {msg} at {at}")


def _canonical(x: float | None) -> float | None:
    # six significant digits, one more than the published tables print
    return None if x is None else float(f"{x:.6g}")


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6g}"


# one critical value by its key, a plain record: ``generate_table`` builds
# cells from a checked request, and ``read_csv`` checks each row it reads
TableCell = collections.namedtuple("TableCell", "method n n_f q estimate stderr provenance")
# the cells by (method, n, n_f, q), then the metadata lines of its file
CriticalValueTable = collections.namedtuple("CriticalValueTable", "cells seed N R version numpy")


def default_grid(n_min: int = 3, n_max: int = 26):
    """(n, n_f) pairs of the published grid: n_f runs to max(3, floor(n/3)),
    never past n."""
    if n_min > n_max:
        raise DomainError("need n_min <= n_max")
    check_cell(n_min, 0)
    pairs = []
    for n in range(n_min, n_max + 1):
        cap = min(n, max(3, n // 3))
        pairs.extend((n, n_f) for n_f in range(cap + 1))
    return pairs


def resolve_quantiles(spec: MethodSpec, cells, q_list, *, use_exact: bool = True,
                      table: CriticalValueTable | None = None,
                      sim: tuple | None = None, workers: int = 1) -> list[list[QuantileEstimate]]:
    """Critical values at the increasing levels ``q_list`` for each (n, n_f) of
    ``cells``: from the exact law (unless ``use_exact`` is False), else the
    cells of ``table``, else one simulation with ``sim = (N, R, seed)`` of every
    level left in every cell, its replicas spread over ``workers`` processes.
    The whole request is checked before any source is consulted: a bad cell,
    level list, N, R or seed, or fewer than 1 worker, raises DomainError
    whatever the source.  A table miss re-raises its TableLookupError when
    ``sim`` is None; with no law and no source this raises
    UnsupportedExactError."""
    for n, n_f in cells:
        check_cell(n, n_f)
    check_levels(*q_list)
    if sim is not None:
        N, R, seed = sim
        check_counts(N=N, R=R)
        check_seed(seed)
    check_workers(workers)
    found = [{} for _ in cells]
    for (n, n_f), got in zip(cells, found):
        if use_exact and has_exact_quantile(spec, n, n_f):
            got.update((q, QuantileEstimate(q=q, estimate=exact_quantile(spec, n, n_f, q),
                                            stderr=None, provenance=EXACT))
                       for q in q_list)
        elif table is None and sim is None:
            raise UnsupportedExactError(
                f"no exact law for {spec.method.token} with n={n}, n_f={n_f}")
        elif table is not None:
            for q in q_list:
                try:
                    cell = lookup(table, spec.method, n, n_f, q)
                except TableLookupError:
                    if sim is None:
                        raise
                    continue  # off-grid keys fall through to simulation, never interpolation
                got[q] = QuantileEstimate(q=q, estimate=cell.estimate, stderr=cell.stderr,
                                          provenance=TABLE)
    # per-replica order statistics do not depend on the other levels or
    # cells, so one run gives each level the value a run of its own would
    todo = [(got, (n, n_f, tuple(q for q in q_list if q not in got)))
            for (n, n_f), got in zip(cells, found) if any(q not in got for q in q_list)]
    if todo:
        simulated = simulate_cells(spec, [cell for _, cell in todo], sim, workers)
        for (got, _), estimates in zip(todo, simulated):
            got.update((est.q, est) for est in estimates)
    return [[got[q] for q in q_list] for got in found]


# numeric and dead-worker failures; a refused request raises its DomainError
# before any cell, and anything else is a bug: both propagate
_CELL_FAILURES = (ConvergenceError, ArithmeticError, MemoryError, ChildProcessError)


def generate_table(
    spec: MethodSpec,
    n_min: int = 3,
    n_max: int = 26,
    N: int = DEFAULT_N_SAMPLES,
    R: int = DEFAULT_N_REPLICAS,
    seed: int = DEFAULT_SEED,
    q_list=DEFAULT_Q_LEVELS,
    use_exact: bool = True,
    workers: int = 1,
) -> CriticalValueTable:
    """Build the full critical-value grid for one method.

    Exact cells are used wherever available (unless ``use_exact`` is False);
    every other cell comes from one simulation of the whole grid, whose
    replicas are spread over ``workers`` processes.  The result is a pure
    function of the arguments: every cell reads its own prefix of the
    replica streams keyed by (seed, replica), so the worker count only
    affects wall time.  A failure is reported for every cell of the grid.
    """
    grid = default_grid(n_min, n_max)
    try:
        # Python floats, so write_csv prints each level as read_csv reads it
        resolved = resolve_quantiles(spec, grid, tuple(map(float, q_list)), use_exact=use_exact,
                                     sim=(N, R, seed), workers=workers)
    except _CELL_FAILURES as err:
        raise TableGenerationError(f"{type(err).__name__}: {err}", grid) from err

    import numpy  # for its version, which every generated table records
    m = spec.method
    cells = {(m, n, n_f, est.q): TableCell(m, n, n_f, est.q, _canonical(est.estimate),
                                           _canonical(est.stderr), est.provenance)
             for (n, n_f), estimates in zip(grid, resolved) for est in estimates}
    return CriticalValueTable(cells, seed, N, R, __version__, numpy.__version__)


def write_csv(table: CriticalValueTable, path):
    """Serialize with `#` metadata comments and canonical float formatting."""
    with open(path, "w", newline="") as f:
        for key in _META:
            f.write(f"# {key}={getattr(table, key)}\n")
        f.write(_HEADER + "\n")
        for c in sorted(table.cells.values(), key=lambda c: (c.method.token, c.n, c.n_f, c.q)):
            f.write(
                f"{c.method.token},{c.n},{c.n_f},{c.q!r},"
                f"{_fmt(c.estimate)},{_fmt(c.stderr)},{c.provenance}\n"
            )


def read_csv(path) -> CriticalValueTable:
    """Parse and check every line of a table written by ``write_csv``; the
    round trip is lossless, and a bad row or metadata line raises
    TableParseError."""
    # a metadata line left out keeps its default; one given reads once
    meta = dict(seed=DEFAULT_SEED, N=DEFAULT_N_SAMPLES, R=DEFAULT_N_REPLICAS, version="", numpy="")
    given = set()
    cells = {}
    methods = {}  # each distinct method token is parsed once per file
    rows = {}  # (method, n, n_f) -> the (q, estimate) pairs read so far
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, sep, val = (part.strip() for part in line[1:].partition("="))
                if not sep:
                    raise TableParseError(f"line {lineno}: malformed metadata {line!r}")
                try:
                    if key not in _META:
                        raise DomainError(f"unknown key {key!r}, not one of {', '.join(_META)}")
                    if key in given:
                        raise DomainError(f"key {key!r} given twice")
                    given.add(key)
                    meta[key] = _META[key](val)
                    # the others held already, so only this line's value can fail
                    check_counts(N=meta["N"], R=meta["R"])
                    check_seed(meta["seed"])
                except ValueError as err:  # a DomainError too
                    raise TableParseError(f"line {lineno}: bad metadata {line!r}: {err}") from err
                continue
            if line == _HEADER:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise TableParseError(f"line {lineno}: expected 7 fields, got {len(parts)}")
            token, n, n_f, q, estimate, stderr, provenance = parts
            try:
                method = methods.get(token)
                if method is None:
                    method = methods[token] = parse_method(token)
                n, n_f, q, estimate = int(n), int(n_f), float(q), float(estimate)
                stderr = float(stderr) if stderr else None
                # a key breaking the cell or level rule could never be looked up;
                # a nan or infinite critical value would decide every comparison
                # one way; only R = 1 leaves a simulated cell without a stderr,
                # and exact cells never carry one
                check_cell(n, n_f)
                check_levels(q)
                if provenance not in (EXACT, SIMULATED):
                    raise DomainError(f"unknown provenance {provenance!r}")
                if not math.isfinite(estimate):
                    raise DomainError(f"estimate must be finite, got {estimate!r}")
                if stderr is not None and not (math.isfinite(stderr) and stderr >= 0.0):
                    raise DomainError(f"stderr must be finite and >= 0, got {stderr!r}")
                if provenance == EXACT and stderr is not None:
                    raise DomainError("exact cells carry no standard error")
                size = len(cells)  # one hash of the key, whose Method hashes in Python
                cells.setdefault((method, n, n_f, q),
                                 TableCell(method, n, n_f, q, estimate, stderr, provenance))
                if len(cells) == size:
                    raise DomainError(f"duplicate table key ({method.token}, n={n}, "
                                      f"n_f={n_f}, q={q!r})")
                # a row's estimates never decrease as q grows, or a lower-tail
                # critical value could lie above an upper-tail one
                row = rows.setdefault((method, n, n_f), [])
                if any(q2 < q and e2 > estimate or q2 > q and e2 < estimate for q2, e2 in row):
                    raise DomainError(f"estimates must not decrease as q grows: {estimate!r} "
                                      f"at q={q!r} breaks the order of its row")
                row.append((q, estimate))
            except (ValueError, DomainError) as err:
                raise TableParseError(f"line {lineno}: {err}") from err
    return CriticalValueTable(cells, **meta)


def lookup(table: CriticalValueTable, method: Method, n: int, n_f: int, q: float) -> TableCell:
    """Exact key match only; a miss names the nearest available keys."""
    key = (method, int(n), int(n_f), float(q))
    try:
        return table.cells[key]
    except KeyError:
        pass
    rows = [k for k in table.cells if k[0] is method]
    if not rows:
        raise TableLookupError(f"table holds no cells for method {method.token!r}")
    ns = sorted({k[1] for k in rows})
    if n not in ns:
        raise TableLookupError(
            f"no cells for n={n} (method {method.token}); available n: {ns[0]}..{ns[-1]}"
        )
    nfs = sorted({k[2] for k in rows if k[1] == n})
    if n_f not in nfs:
        raise TableLookupError(
            f"no cells for n_f={n_f} at n={n}; available n_f: {nfs}"
        )
    qs = sorted({k[3] for k in rows if k[1] == n and k[2] == n_f})
    nearest = min(qs, key=lambda v: abs(v - q))
    raise TableLookupError(
        f"no cell at q={q!r} for (n={n}, n_f={n_f}); nearest tabulated q is {nearest!r} "
        f"of {', '.join(map(repr, qs))}"
    )

