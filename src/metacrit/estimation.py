"""Monte Carlo quantile estimation pipeline.

Per replica: draw N statistic values per cell from one draw of the stream,
sort them and read off the order-statistic plug-in estimate
t_{floor(q(N+1)):N} at every level q.  Across replicas: average the R
estimates and attach the standard error sqrt(sum (t_i - mean)^2 / (R(R-1))),
from which a normal confidence interval follows.  The replica is the unit of
parallel work: each is a pure function of (seed, replica index).

Memory: a replica holds its prefix of the stream, the scores and the fake
heads while it runs; the simulation keeps only one (R, total levels) array of
order statistics, filled a row per replica and read a column per level.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os

from .methods import MethodSpec
from .sampling import SimConfig, check_counts, replica_stream, sample_cells
from .special import DomainError, check_alpha, check_levels, normal_inv_cdf

__all__ = [
    "QuantileEstimate",
    "quantile_index",
    "check_workers",
    "run_replica",
    "aggregate",
    "simulate_cells",
    "simulate_quantiles",
    "confidence_interval",
]

EXACT = "exact"
SIMULATED = "simulated"

# Absorbs the binary representation error of decimal q levels: 0.99 * 5000
# evaluates to 4949.9999999999995, whose mathematical value is 4950.
_INDEX_GUARD = 1e-7


class QuantileEstimate(collections.namedtuple(
        "QuantileEstimate", "q estimate stderr replicas provenance", defaults=(SIMULATED,))):
    """One estimated (or exact) quantile.

    ``stderr`` is None when the value is exact or when R = 1 leaves the
    standard error unavailable.
    """

    __slots__ = ()


def quantile_index(N: int, q: float) -> int:
    """1-based order-statistic index floor(q(N+1)), clamped to 1..N."""
    check_counts(N=N)
    check_levels(q)
    idx = int(math.floor(q * (N + 1) + _INDEX_GUARD))
    return min(max(idx, 1), N)


def run_replica(spec: MethodSpec, cfgs, replica_index: int) -> list:
    """One replica's quantile estimates for each cell of ``cfgs`` (which share
    N, R and seed), one per level of its q_list.  Each cell's statistics are
    reduced to its order statistics before the next cell's are made."""
    first = cfgs[0]
    if not (0 <= replica_index < first.R):
        raise DomainError("replica index outside 0..R-1")
    stream = replica_stream(first.seed, replica_index)
    draws = sample_cells(spec, [(cfg.n, cfg.n_f) for cfg in cfgs], first.N, stream)
    estimates = []
    for cfg, stats in zip(cfgs, draws):
        stats.sort()  # in place: each yielded array is the cell's own
        estimates.append(stats[_ranks(first.N, cfg.q_list)])
    return estimates


@functools.lru_cache(maxsize=256)
def _ranks(N: int, q_list: tuple):
    # 0-based order-statistic positions of the levels, one read-only index
    # array that every replica of a cell reads
    import numpy as np
    ranks = np.array([quantile_index(N, q) - 1 for q in q_list], dtype=np.intp)
    ranks.flags.writeable = False
    return ranks


def aggregate(replica_values, q: float) -> QuantileEstimate:
    """Average one quantile's per-replica estimates and attach the standard
    error of the mean (None when R = 1)."""
    import numpy as np
    vals = np.asarray(replica_values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise DomainError("need at least one replica estimate")
    if not np.isfinite(vals).all():
        raise DomainError("replica estimates must be finite")
    # the bits of vals.mean() and np.sum(...), without their Python wrappers
    R = vals.size
    mean = float(np.add.reduce(vals)) / R
    if R == 1:
        return QuantileEstimate(q=q, estimate=mean, stderr=None, replicas=1)
    stderr = math.sqrt(float(np.add.reduce((vals - mean) ** 2)) / (R * (R - 1)))
    return QuantileEstimate(q=q, estimate=mean, stderr=stderr, replicas=R)


def check_workers(workers: int):
    """The one rule for a worker count: at least 1; raises DomainError."""
    if workers < 1:
        raise DomainError("workers must be >= 1")


def simulate_cells(spec: MethodSpec, cfgs, workers: int = 1) -> list[list[QuantileEstimate]]:
    """Full pipeline for (method, n, n_f) cells that share N, R and seed: R
    replicas, each drawing its stream once for all cells, aggregated per level.
    Every replica's estimates go, as they arrive, into one row of an
    (R, total levels) array, each cell's levels in one run of columns, so a
    simulation holds R floats per level and no per-replica arrays.
    ``workers`` > 1 runs contiguous blocks of replicas on min(workers, R, cores)
    processes, with the same result.  An empty list of cells gives an empty list."""
    import numpy as np
    check_workers(workers)
    if not cfgs:
        return []
    if len({(cfg.N, cfg.R, cfg.seed) for cfg in cfgs}) != 1:
        raise DomainError("cells simulated together must share N, R and seed")
    R = cfgs[0].R
    rows = np.empty((R, sum(len(cfg.q_list) for cfg in cfgs)))
    replica = functools.partial(run_replica, spec, cfgs)
    # more processes than replicas or cores only adds fork and import cost
    workers = min(workers, R, os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures  # deferred: its import costs every cold start
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                estimates = pool.map(replica, range(R), chunksize=-(-R // workers))
                for row, cells in zip(rows, estimates):
                    np.concatenate(cells, out=row)
        except concurrent.futures.BrokenExecutor as err:
            raise ChildProcessError(str(err)) from err
    else:
        for r, row in enumerate(rows):
            np.concatenate(replica(r), out=row)
    # a cell's levels are the columns at..at + len(q_list) - 1
    starts = itertools.accumulate((len(cfg.q_list) for cfg in cfgs), initial=0)
    return [[aggregate(rows[:, at + j], q) for j, q in enumerate(cfg.q_list)]
            for cfg, at in zip(cfgs, starts)]


def simulate_quantiles(spec: MethodSpec, cfg: SimConfig) -> list[QuantileEstimate]:
    """Full pipeline for one (method, n, n_f) cell: R independent replicas,
    aggregated per quantile level."""
    return simulate_cells(spec, [cfg])[0]


def confidence_interval(est: QuantileEstimate, alpha: float) -> tuple[float, float]:
    """Central-limit (1 - alpha) confidence interval for the quantile.

    Exact values and R = 1 estimates yield the degenerate interval
    (estimate, estimate).
    """
    check_alpha(alpha)
    if est.stderr is None or est.stderr == 0.0:
        return (est.estimate, est.estimate)
    z = normal_inv_cdf(1.0 - alpha / 2.0)
    half = z * est.stderr
    return (est.estimate - half, est.estimate + half)
