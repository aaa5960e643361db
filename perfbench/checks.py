"""Correctness checks, written without metacrit's own code.

Produced critical values are compared with the published tables frozen in
``tests/data/reference_tables/``.  An exact value must match an exact print
within one printed unit (1e-5 for Tippett, whose tables print five decimals,
else 1e-4).  When either side is simulated, the allowed gap is three combined
standard errors, 3 * sqrt(se^2 + se_ref^2).  The (n=3, n_f=3) row is left out
of every comparison: the source prints it as a copy of the (4, 3) row.

Combined statistics are recomputed from the same p-vector with numpy and the
standard library's normal quantile.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

REFERENCE_DIR = Path("tests") / "data" / "reference_tables"
EXCLUDED_ROW = (3, 3)
TABLE_HEADER = "method,n,n_f,q,estimate,stderr,provenance"


def _key_q(q) -> float:
    return round(float(q), 6)


def load_reference(root: Path, method: str) -> dict:
    """{(n, n_f, q): (printed estimate, stderr or None)}"""
    table = {}
    with open(root / REFERENCE_DIR / f"{method}.csv", newline="") as f:
        for row in csv.DictReader(f):
            se = float(row["stderr"]) if row["stderr"] else None
            table[(int(row["n"]), int(row["n_f"]), _key_q(row["q"]))] = (float(row["estimate"]), se)
    return table


def agrees(method: str, value: float, se, printed: float, se_ref) -> bool:
    if se is None and se_ref is None:
        tol = 1e-5 if method == "tippett" else 1e-4
    else:
        tol = 3.0 * math.sqrt((se or 0.0) ** 2 + (se_ref or 0.0) ** 2)
    return abs(value - printed) <= tol + 1e-12


class Agreement:
    """Running count of produced values compared with the reference."""

    def __init__(self):
        self.compared = 0
        self.agreed = 0
        self.misses = []

    def check(self, reference: dict, method: str, n: int, n_f: int, q, value: float, se):
        if (n, n_f) == EXCLUDED_ROW:
            return
        printed, se_ref = reference[(n, n_f, _key_q(q))]
        self.compared += 1
        if agrees(method, value, se, printed, se_ref):
            self.agreed += 1
        else:
            self.misses.append((method, n, n_f, float(q), value, se, printed, se_ref))

    @property
    def fraction(self) -> float:
        return self.agreed / self.compared if self.compared else 0.0


def read_table_csv(path, method: str, grid, q_levels) -> tuple[list, list]:
    """Parse a table CSV and check its structure.

    Returns (cells, problems): cells as (n, n_f, q, estimate, stderr,
    provenance) tuples, problems as messages.
    """
    problems = []
    cells = []
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    body = [line for line in lines if not line.startswith("#")]
    if not body or body[0] != TABLE_HEADER:
        return [], [f"{path}: missing header"]
    for line in body[1:]:
        parts = line.split(",")
        if len(parts) != 7 or parts[0] != method or parts[6] not in ("exact", "simulated"):
            problems.append(f"{path}: bad row {line!r}")
            continue
        se = float(parts[5]) if parts[5] else None
        if (parts[6] == "exact") != (se is None):
            problems.append(f"{path}: stderr does not match provenance in {line!r}")
        cells.append((int(parts[1]), int(parts[2]), float(parts[3]), float(parts[4]), se, parts[6]))
    expected = {(n, n_f, _key_q(q)) for n, n_f in grid for q in q_levels}
    got = [(n, n_f, _key_q(q)) for n, n_f, q, *_ in cells]
    if len(got) != len(set(got)) or set(got) != expected:
        problems.append(f"{path}: cells do not cover the grid exactly once")
    rows = {}
    for n, n_f, q, est, *_ in cells:
        rows.setdefault((n, n_f), []).append((q, est))
    for (n, n_f), row in rows.items():
        estimates = [est for _, est in sorted(row)]
        if any(b < a for a, b in zip(estimates, estimates[1:])):
            problems.append(f"{path}: row (n={n}, n_f={n_f}) is not monotone in q")
    return cells, problems


def statistic(method: str, p) -> float:
    """The combined statistic, recomputed independently of metacrit."""
    p = np.asarray(p, dtype=float)
    n = p.size
    if method == "tippett":
        return float(p.min())
    if method == "fisher":
        return float(-2.0 * np.log(p).sum())
    if method == "gm":
        return float(np.exp(np.log(p).mean()))
    if method == "min-gm":
        return float(min(np.exp(np.log(p).mean()), np.exp(np.log1p(-p).mean())))
    if method == "wilkinson":
        return float(np.sort(p)[-1])
    if method == "edgington":
        return float(p.mean())
    if method == "mg":
        return float((np.log1p(-p) - np.log(p)).sum())
    if method == "harmonic":
        return float(n / (1.0 / p).sum())
    z = np.array([NormalDist().inv_cdf(float(x)) for x in p])
    if method == "stouffer":
        return float(z.sum() / math.sqrt(n))
    if method == "chen":
        return float((z * z).sum())
    raise ValueError(f"unknown method {method!r}")


def same_statistic(ours: float, theirs: float) -> bool:
    return math.isclose(ours, theirs, rel_tol=1e-9, abs_tol=1e-12)


def decision_consistent(tail: str, stat: float, criticals: list, reject: bool) -> bool:
    values = [c["value"] for c in criticals]
    if tail == "lower":
        expected = stat <= values[0]
    elif tail == "upper":
        expected = stat >= values[0]
    else:
        expected = stat <= values[0] or stat >= values[1]
    return expected == reject
