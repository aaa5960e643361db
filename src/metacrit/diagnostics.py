"""Goodness-of-fit and convergence diagnostics for the simulation pipeline.

Empirical CDF dumps for external plotting and Kolmogorov-Smirnov distances
against the exact laws where those exist.
"""

from __future__ import annotations

import collections
import math

from .exact import exact_cdf
from .methods import MethodSpec
from .sampling import replica_stream, sample_cells
from .special import DomainError

__all__ = [
    "ecdf",
    "ks_distance",
    "ks_critical_value",
    "write_ecdf_csv",
]

# asymptotic Kolmogorov critical multipliers (approximate)
_KS_MULTIPLIER = {0.05: 1.358, 0.01: 1.629}


class EcdfDump(collections.namedtuple("EcdfDump", "values heights spec n n_f N seed")):
    """Sorted statistic values with ECDF heights i/N (arrays) plus provenance."""

    __slots__ = ()


def ecdf(spec: MethodSpec, n: int, n_f: int, N: int, seed: int) -> EcdfDump:
    """The empirical distribution of the combined statistic in the seed's
    first replica."""
    import numpy as np
    stats = np.sort(next(sample_cells(spec, [(n, n_f)], N, replica_stream(seed, 0))))
    heights = np.arange(1, N + 1) / N
    return EcdfDump(values=stats, heights=heights, spec=spec, n=n, n_f=n_f, N=N, seed=seed)


def ks_distance(dump: EcdfDump) -> float:
    """Kolmogorov-Smirnov distance between the dump and the exact law for
    (method, n, n_f); exact_cdf raises UnsupportedExactError when there is
    none.  Both one-sided gaps are taken at every jump."""
    import numpy as np
    theo = exact_cdf(dump.spec, dump.n, dump.n_f, dump.values)
    upper = np.max(dump.heights - theo)
    lower = np.max(theo - (dump.heights - 1.0 / dump.N))
    return float(max(upper, lower, 0.0))


def ks_critical_value(N: int, level: float = 0.01) -> float:
    """Asymptotic KS critical value c / sqrt(N) at the 5% or 1% level."""
    if level not in _KS_MULTIPLIER:
        raise DomainError("supported levels: 0.05 and 0.01")
    return _KS_MULTIPLIER[level] / math.sqrt(N)


def write_ecdf_csv(dump: EcdfDump, path, include_exact: bool = False):
    """Dump `x,ecdf[,exact_cdf]` rows for external plotting."""
    exact = None
    if include_exact:
        exact = exact_cdf(dump.spec, dump.n, dump.n_f, dump.values)
    with open(path, "w", newline="") as f:
        f.write("x,ecdf,exact_cdf\n" if include_exact else "x,ecdf\n")
        for i in range(dump.N):
            row = f"{float(dump.values[i])!r},{float(dump.heights[i])!r}"
            if include_exact:
                row += f",{float(exact[i])!r}"
            f.write(row + "\n")
