"""Critical-value table generation, CSV persistence, and keyed lookup.

A table holds one cell per (method, n, n_f, q).  The default grid covers
n = 3..26 with n_f = 0..max(3, floor(n/3)), matching the published layout.
Cell values are canonicalized to six significant digits on creation so that
serialization is an identity: rewriting a parsed file reproduces it byte for
byte, and regeneration with the same seed is byte-identical regardless of
worker count.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .estimation import EXACT, SIMULATED, QuantileEstimate, simulate_cells
from .exact import UnsupportedExactError, exact_quantile, has_exact_quantile
from .methods import Method, MethodSpec, RankError, parse_method
from .sampling import (
    DEFAULT_N_REPLICAS,
    DEFAULT_N_SAMPLES,
    DEFAULT_Q_LEVELS,
    DEFAULT_SEED,
    SimConfig,
)
from .special import ConvergenceError, DomainError

__all__ = [
    "TableCell",
    "CriticalValueTable",
    "TableLookupError",
    "TableParseError",
    "TableGenerationError",
    "default_grid",
    "generate_table",
    "write_csv",
    "read_csv",
    "lookup",
    "resolve_quantiles",
    "render_text",
]

_HEADER = "method,n,n_f,q,estimate,stderr,provenance"
TABLE = "table"  # provenance of a critical value read from a table file
# metadata keys read back from a table file, each with its parser
_META = {"seed": lambda v: int(v, 0), "N": int, "R": int, "version": str, "numpy": str}


class TableLookupError(KeyError):
    """Requested key is not in the table; no interpolation is attempted."""


class TableParseError(ValueError):
    """Malformed CSV row or metadata line; carries the offending line number."""


class TableGenerationError(RuntimeError):
    """One or more grid cells failed; carries per-cell reports."""

    def __init__(self, failures):
        self.failures = list(failures)
        lines = "; ".join(f"(n={n}, n_f={n_f}): {msg}" for n, n_f, msg in self.failures)
        super().__init__(f"table generation failed for {len(self.failures)} cell(s): {lines}")


def _canonical(x: float | None) -> float | None:
    # six significant digits, one more than the published tables print
    return None if x is None else float(f"{x:.6g}")


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6g}"


@dataclass(frozen=True)
class TableCell:
    method: Method
    n: int
    n_f: int
    q: float
    estimate: float
    stderr: float | None
    provenance: str

    def __post_init__(self):
        # a nan or infinite critical value would decide every comparison one
        # way; simulated cells may lack a stderr only when R = 1, and exact
        # cells never carry one
        if self.provenance not in (EXACT, SIMULATED):
            raise DomainError(f"unknown provenance {self.provenance!r}")
        if not math.isfinite(self.estimate):
            raise DomainError(f"estimate must be finite, got {self.estimate!r}")
        if self.stderr is not None and not (math.isfinite(self.stderr) and self.stderr >= 0.0):
            raise DomainError(f"stderr must be finite and >= 0, got {self.stderr!r}")
        if self.provenance == EXACT and self.stderr is not None:
            raise DomainError("exact cells carry no standard error")


@dataclass
class CriticalValueTable:
    """Cells indexed by (method, n, n_f, q) plus generation metadata."""

    cells: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    N: int = DEFAULT_N_SAMPLES
    R: int = DEFAULT_N_REPLICAS
    version: str = __version__
    numpy: str = np.__version__  # simulated cells depend on numpy's generators

    def add(self, cell: TableCell):
        key = (cell.method, cell.n, cell.n_f, cell.q)
        if key in self.cells:
            raise DomainError(f"duplicate table key ({cell.method.token}, n={cell.n}, "
                              f"n_f={cell.n_f}, q={cell.q!r})")
        self.cells[key] = cell

    def sorted_cells(self):
        return sorted(
            self.cells.values(), key=lambda c: (c.method.token, c.n, c.n_f, c.q)
        )


def default_grid(n_min: int = 3, n_max: int = 26):
    """(n, n_f) pairs of the published grid: n_f runs to max(3, floor(n/3)),
    never past n."""
    if n_min > n_max:
        raise DomainError("need n_min <= n_max")
    if n_min < 1:
        raise DomainError("sample sizes start at 1")
    pairs = []
    for n in range(n_min, n_max + 1):
        cap = min(n, max(3, n // 3))
        pairs.extend((n, n_f) for n_f in range(cap + 1))
    return pairs


def resolve_quantiles(spec: MethodSpec, cells, q_list, *, use_exact: bool = True,
                      table: CriticalValueTable | None = None,
                      sim: tuple | None = None) -> list[list[QuantileEstimate]]:
    """Critical values at the increasing levels ``q_list`` for each (n, n_f) of
    ``cells``: from the exact law (unless ``use_exact`` is False), else the
    cells of ``table``, else one simulation with ``sim = (N, R, seed)`` of every
    level left in every cell.  A table miss re-raises its TableLookupError when
    ``sim`` is None; with no law and no source this raises UnsupportedExactError."""
    if sim is not None:  # reject a bad N, R or seed before any source is consulted
        SimConfig(1, 0, *sim)
    found = [{} for _ in cells]
    for (n, n_f), got in zip(cells, found):
        if use_exact and has_exact_quantile(spec, n, n_f):
            got.update((q, QuantileEstimate(q=q, estimate=exact_quantile(spec, n, n_f, q),
                                            stderr=None, replicas=0, provenance=EXACT))
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
                replicas = table.R if cell.provenance == SIMULATED else 0
                got[q] = QuantileEstimate(q=q, estimate=cell.estimate, stderr=cell.stderr,
                                          replicas=replicas, provenance=TABLE)
    # per-replica order statistics do not depend on the other levels or
    # cells, so one run gives each level the value a run of its own would
    todo = [(got, SimConfig(n, n_f, *sim, q_list=tuple(q for q in q_list if q not in got)))
            for (n, n_f), got in zip(cells, found) if any(q not in got for q in q_list)]
    if todo:
        simulated = simulate_cells(spec, [cfg for _, cfg in todo])
        for (got, cfg), estimates in zip(todo, simulated):
            got.update(zip(cfg.q_list, estimates))
    return [[got[q] for q in q_list] for got in found]


# numeric and domain failures of a job; anything else is a bug and propagates
_CELL_FAILURES = (DomainError, RankError, ConvergenceError, UnsupportedExactError,
                  ArithmeticError, MemoryError)


def _cells_worker(args):
    spec, cells, q_list, use_exact, sim = args
    try:
        return cells, resolve_quantiles(spec, cells, q_list, use_exact=use_exact, sim=sim), None
    except _CELL_FAILURES as err:  # reported for every cell of the job by the caller
        return cells, None, f"{type(err).__name__}: {err}"


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
    everything else runs one simulation per job.  The result is a pure
    function of the arguments: every cell reads its own prefix of the
    replica streams keyed by (seed, replica), so the worker count only
    affects wall time.
    """
    grid = default_grid(n_min, n_max)
    # validate N, R, seed and the q grid once, before fanning out cells
    SimConfig(n=1, n_f=0, N=N, R=R, seed=seed, q_list=q_list)
    if workers < 1:
        raise DomainError("workers must be >= 1")
    # more processes than cells or cores only adds fork and import cost; each
    # job is an interleaved group of cells, so jobs get like shares of work
    workers = max(1, min(workers, len(grid), os.cpu_count() or 1))
    jobs = [(spec, grid[i::workers], tuple(q_list), use_exact, (N, R, seed))
            for i in range(workers)]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_cells_worker, jobs))
    else:
        results = [_cells_worker(job) for job in jobs]

    failures = [(n, n_f, msg) for cells, _, msg in results if msg for n, n_f in cells]
    if failures:
        raise TableGenerationError(failures)

    table = CriticalValueTable(seed=seed, N=N, R=R)
    for cells, per_cell, _ in results:
        for (n, n_f), estimates in zip(cells, per_cell):
            for est in estimates:
                table.add(TableCell(spec.method, n, n_f, est.q, _canonical(est.estimate),
                                    _canonical(est.stderr), est.provenance))
    return table


def write_csv(table: CriticalValueTable, path):
    """Serialize with `#` metadata comments and canonical float formatting."""
    with open(path, "w", newline="") as f:
        f.write(f"# seed={table.seed}\n")
        f.write(f"# N={table.N}\n")
        f.write(f"# R={table.R}\n")
        f.write(f"# version={table.version}\n")
        f.write(f"# numpy={table.numpy}\n")
        f.write(_HEADER + "\n")
        for c in table.sorted_cells():
            f.write(
                f"{c.method.token},{c.n},{c.n_f},{c.q!r},"
                f"{_fmt(c.estimate)},{_fmt(c.stderr)},{c.provenance}\n"
            )


def read_csv(path) -> CriticalValueTable:
    """Parse a table written by ``write_csv``; the round trip is lossless."""
    table = CriticalValueTable(version="", numpy="")
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, sep, val = (part.strip() for part in line[1:].partition("="))
                if not sep:
                    raise TableParseError(f"line {lineno}: malformed metadata {line!r}")
                if key in _META:
                    try:
                        setattr(table, key, _META[key](val))
                    except ValueError as err:
                        raise TableParseError(f"line {lineno}: bad metadata {line!r}") from err
                continue
            if line == _HEADER:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise TableParseError(f"line {lineno}: expected 7 fields, got {len(parts)}")
            try:
                cell = TableCell(
                    method=parse_method(parts[0]),
                    n=int(parts[1]),
                    n_f=int(parts[2]),
                    q=float(parts[3]),
                    estimate=float(parts[4]),
                    stderr=float(parts[5]) if parts[5] else None,
                    provenance=parts[6],
                )
                table.add(cell)
            except (ValueError, DomainError) as err:
                raise TableParseError(f"line {lineno}: {err}") from err
    return table


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
        f"of {[repr(v) for v in qs]}"
    )


def render_text(table: CriticalValueTable) -> str:
    """Plain-text rendering in the published layout, `estimate (stderr)` per
    cell, for visual diffing."""
    out = []
    methods = sorted({k[0] for k in table.cells}, key=lambda m: m.token)
    for method in methods:
        cells = [c for c in table.sorted_cells() if c.method is method]
        qs = sorted({c.q for c in cells})
        out.append(f"method={method.token} seed={table.seed} N={table.N} R={table.R}")
        out.append("n n_f " + " ".join(f"{q:g}" for q in qs))
        by_row = {}
        for c in cells:
            by_row.setdefault((c.n, c.n_f), {})[c.q] = c
        for (n, n_f) in sorted(by_row):
            row = by_row[(n, n_f)]
            rendered = []
            for q in qs:
                c = row.get(q)
                if c is None:
                    rendered.append("-")
                elif c.stderr is None:
                    rendered.append(f"{c.estimate:g}")
                else:
                    rendered.append(f"{c.estimate:g} ({c.stderr:g})")
            out.append(f"{n} {n_f} " + " ".join(rendered))
        out.append("")
    return "\n".join(out)
