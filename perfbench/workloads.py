"""Workload definitions and the inputs they generate from the workload seed.

table-sampler   the whole default grid of the Mudholkar-George table (mg):
                141 rows x 10 levels, every cell simulated.  The time sits in
                the sampler, the cheap statistic and the sort, with no probit.
table-probit    the Chen table on n = 3..8: 24 rows, the 6 with n_f = 0 exact
                and 18 simulated.  Nearly all of the time is the probit
                (normal quantile) inside the statistic.
cli-decide      one closed-loop client running a seeded list of
                ``metacrit combine --json`` commands, each in a fresh
                interpreter, over the exact, table and simulated resolution
                paths.  Its median is cold start, its tail simulation.

The smoke scale shrinks every workload to seconds, for the harness test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Q_LEVELS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.9, 0.95, 0.975, 0.99, 0.995)
PROBIT_METHODS = ("stouffer", "chen")


@dataclass(frozen=True)
class TableWorkload:
    method: str
    n_min: int
    n_max: int
    N: int
    R: int


@dataclass(frozen=True)
class CliWorkload:
    N: int           # --N and --R passed to simulated commands
    R: int
    table_N: int     # the --table CSV is prepared untimed at this size
    table_R: int
    groups: tuple    # (path, method, fakes, n range, count, extra args)


# (path, method, fakes, (n_lo, n_hi), count, extra args); fakes is "none"
# (n_f = 0), "any" (0..cap) or "some" (1..cap)
DECIDE_GROUPS = (
    ("exact", "tippett", "any", (3, 26), 4, ()),
    ("exact", "wilkinson", "any", (3, 26), 4, ()),
    ("exact", "fisher", "none", (3, 26), 3, ()),
    ("exact", "gm", "none", (3, 26), 3, ()),
    ("exact", "stouffer", "none", (3, 26), 3, ()),
    ("exact", "chen", "none", (3, 26), 3, ()),
    ("exact", "edgington", "none", (3, 12), 2, ()),
    ("table", "mg", "any", (3, 26), 12, ()),
    ("simulated", "harmonic", "any", (3, 26), 4, ()),
    ("simulated", "min-gm", "any", (3, 26), 4, ()),
    ("simulated", "fisher", "some", (3, 26), 2, ()),
    ("simulated", "gm", "some", (3, 26), 2, ()),
    ("simulated", "edgington", "some", (3, 26), 2, ()),
    ("simulated", "mg", "some", (3, 26), 2, ()),
    ("simulated", "stouffer", "some", (3, 26), 3, ()),
    ("simulated", "chen", "some", (3, 26), 3, ("--tail", "both")),
)

SMOKE_GROUPS = (
    ("exact", "tippett", "any", (3, 26), 1, ()),
    ("exact", "fisher", "none", (3, 26), 1, ()),
    ("table", "mg", "any", (3, 26), 2, ()),
    ("simulated", "harmonic", "some", (3, 26), 1, ()),
    ("simulated", "chen", "some", (3, 8), 1, ("--tail", "both")),
)

WORKLOADS = {
    "full": {
        "table-sampler": TableWorkload("mg", 3, 26, N=4999, R=50),
        "table-probit": TableWorkload("chen", 3, 8, N=4999, R=50),
        "cli-decide": CliWorkload(N=4999, R=50, table_N=999, table_R=8, groups=DECIDE_GROUPS),
    },
    "smoke": {
        "table-sampler": TableWorkload("mg", 3, 4, N=999, R=10),
        "table-probit": TableWorkload("chen", 3, 4, N=999, R=10),
        "cli-decide": CliWorkload(N=999, R=10, table_N=199, table_R=4, groups=SMOKE_GROUPS),
    },
}


def grid(n_min: int, n_max: int) -> list:
    """(n, n_f) rows of the published layout: n_f = 0..max(3, n // 3), at most n."""
    return [(n, n_f) for n in range(n_min, n_max + 1) for n_f in range(min(n, max(3, n // 3)) + 1)]


def master_seed(seed: int) -> int:
    """The --seed handed to metacrit, derived from the workload seed."""
    return int(np.random.SeedSequence(seed).generate_state(1, dtype=np.uint32)[0])


def _stratified(rng, lo: int, hi: int, count: int, fixed: bool) -> list:
    # one value from each of `count` equal slices of lo..hi, so that every
    # seed gets the same spread of sizes in a group: a draw, or with `fixed`
    # the middle of the slice
    edges = np.linspace(lo, hi + 1, count + 1)
    values = []
    for a, b in zip(edges, edges[1:]):
        a, b = int(a), max(int(b), int(a) + 1)
        values.append((a + b - 1) // 2 if fixed else int(rng.integers(a, b)))
    rng.shuffle(values)
    return values


def decide_plan(seed: int, groups) -> list:
    """The seeded list of combine commands, in the order they run.

    A simulated command's cost grows with n + n_f (and is ten times higher
    for the probit methods), so the simulated groups take the same sizes for
    every seed, n from the middle of each slice and n_f from the middle of
    its range, and the seed varies their p-values, levels, order and master
    seed; the exact and table groups, whose cost hardly depends on the
    size, draw n and n_f."""
    rng = np.random.default_rng([seed, 1])
    plan = []
    for path, method, fakes, (lo, hi), count, extra in groups:
        fixed = path == "simulated"
        for n in _stratified(rng, lo, hi, count, fixed):
            cap = min(n, max(3, n // 3))
            if fixed:
                n_f = {"none": 0, "any": cap // 2, "some": max(1, cap // 2)}[fakes]
            else:
                n_f = {"none": 0, "any": int(rng.integers(0, cap + 1)),
                       "some": int(rng.integers(1, cap + 1))}[fakes]
            if (n, n_f) == (3, 3):  # the published (3, 3) row is a copy of (4, 3)
                n_f = 2
            alpha = float(rng.choice([0.01, 0.05]))
            p = rng.uniform(1e-6, 1.0 - 1e-6, size=n).tolist()
            plan.append({"path": path, "method": method, "n": n, "n_f": n_f,
                         "alpha": alpha, "p": p, "extra": list(extra)})
    order = rng.permutation(len(plan))
    return [plan[i] for i in order]


def cell_counts(method: str, n: int, n_f: int, N: int, R: int) -> dict:
    """Work of one simulated (n, n_f) quantile set, computed from shapes.

    uniforms       R * N * (n + n_f): a fake consumes two uniforms
    probit_evals   R * N * n for the probit statistics, else 0
    sorted_elems   R * N statistic values (plus R * N * n for Wilkinson)
    sampler_bytes  per replica 8 bytes and 3 bytes of range masks per
                   uniform, 8 * N * n_f for the fake-pair minima and
                   8 * N * n for the joined matrix: 19 * N * (n + n_f)
    """
    draws = R * N * (n + n_f)
    return {
        "uniforms": draws,
        "probit_evals": R * N * n if method in PROBIT_METHODS else 0,
        "sorted_elems": R * N * (1 + (n if method == "wilkinson" else 0)),
        "sampler_bytes": 19 * draws,
    }


def add_counts(total: dict, part: dict):
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def tail_index(count: int) -> tuple[int, float]:
    """0-based index into sorted samples of the highest percentile with at
    least ten samples beyond it, and that percentile.  Below eleven samples
    it is the maximum."""
    if count <= 10:
        return count - 1, 100.0
    k = count - 10
    return k - 1, 100.0 * k / count

