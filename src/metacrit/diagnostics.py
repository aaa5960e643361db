"""Goodness-of-fit and convergence diagnostics for the simulation pipeline.

Empirical CDF dumps for external plotting, Kolmogorov-Smirnov distances
against the exact laws where those exist, and an across-replica stability
measure (how far the R per-replica ECDFs spread at their widest point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import exact_cdf, has_exact_quantile
from .methods import MethodSpec
from .sampling import replica_stream, sample_statistic
from .special import DomainError

__all__ = [
    "EcdfDump",
    "ecdf",
    "ks_distance",
    "ks_critical_value",
    "ecdf_spread",
    "replica_stability",
    "write_ecdf_csv",
]

# asymptotic Kolmogorov critical multipliers (approximate)
_KS_MULTIPLIER = {0.05: 1.358, 0.01: 1.629}


@dataclass(frozen=True)
class EcdfDump:
    """Sorted statistic values with ECDF heights i/N plus provenance."""

    values: np.ndarray
    heights: np.ndarray
    spec: MethodSpec
    n: int
    n_f: int
    N: int
    seed: int
    replica: int


def ecdf(spec: MethodSpec, n: int, n_f: int, N: int, seed: int, replica: int = 0) -> EcdfDump:
    """One replica's empirical distribution of the combined statistic."""
    stream = replica_stream(seed, replica)
    stats = np.sort(sample_statistic(spec, n, n_f, N, stream))
    heights = np.arange(1, N + 1) / N
    return EcdfDump(values=stats, heights=heights, spec=spec, n=n, n_f=n_f,
                    N=N, seed=seed, replica=replica)


def ks_distance(dump: EcdfDump, cdf=None) -> float:
    """Kolmogorov-Smirnov distance between the dump and an exact CDF.

    Both one-sided gaps are taken at every jump.  When ``cdf`` is omitted
    the exact law for (method, n, n_f) is used and must exist.
    """
    if cdf is None:
        if not has_exact_quantile(dump.spec, dump.n, dump.n_f):
            raise DomainError(
                f"no exact distribution for {dump.spec.method.token} "
                f"with n={dump.n}, n_f={dump.n_f}"
            )
        theo = np.asarray(exact_cdf(dump.spec, dump.n, dump.n_f, dump.values), dtype=float)
    else:
        theo = np.asarray(cdf(dump.values), dtype=float)
    upper = np.max(dump.heights - theo)
    lower = np.max(theo - (dump.heights - 1.0 / dump.N))
    return float(max(upper, lower, 0.0))


def ks_critical_value(N: int, level: float = 0.01) -> float:
    """Asymptotic KS critical value c / sqrt(N) at the 5% or 1% level."""
    if level not in _KS_MULTIPLIER:
        raise DomainError("supported levels: 0.05 and 0.01")
    return _KS_MULTIPLIER[level] / np.sqrt(N)


def ecdf_spread(dumps, grid_size: int = 201) -> float:
    """Widest across-replica range of ECDF values over a fixed grid.

    The grid spans the pooled sample range; identical dumps give zero.
    """
    if len(dumps) < 1:
        raise DomainError("need at least one dump")
    lo = min(float(d.values[0]) for d in dumps)
    hi = max(float(d.values[-1]) for d in dumps)
    grid = np.linspace(lo, hi, grid_size)
    curves = np.empty((len(dumps), grid_size))
    for i, d in enumerate(dumps):
        curves[i] = np.searchsorted(d.values, grid, side="right") / d.N
    return float(np.max(curves.max(axis=0) - curves.min(axis=0)))


def replica_stability(spec: MethodSpec, n: int, n_f: int, N: int, R: int,
                      seed: int, grid_size: int = 201) -> float:
    """Spread of R independent replica ECDFs; small means the estimated
    distribution is stable at this N."""
    if R < 2:
        raise DomainError("stability needs R >= 2")
    dumps = [ecdf(spec, n, n_f, N, seed, replica=r) for r in range(R)]
    return ecdf_spread(dumps, grid_size=grid_size)


def write_ecdf_csv(dump: EcdfDump, path, include_exact: bool = False):
    """Dump `x,ecdf[,exact_cdf]` rows for external plotting."""
    exact = None
    if include_exact:
        exact = np.asarray(exact_cdf(dump.spec, dump.n, dump.n_f, dump.values), dtype=float)
    with open(path, "w", newline="") as f:
        f.write("x,ecdf,exact_cdf\n" if include_exact else "x,ecdf\n")
        for i in range(dump.N):
            row = f"{float(dump.values[i])!r},{float(dump.heights[i])!r}"
            if include_exact:
                row += f",{float(exact[i])!r}"
            f.write(row + "\n")
