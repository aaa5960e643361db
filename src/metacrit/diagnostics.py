"""Goodness-of-fit and convergence diagnostics for the simulation pipeline.

Empirical CDF dumps for external plotting and Kolmogorov-Smirnov distances
against the exact laws where those exist.
"""

from __future__ import annotations

import collections
import math

from .exact import exact_cdf, has_exact_quantile
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


class EcdfDump(collections.namedtuple("EcdfDump", "values spec n n_f N seed")):
    """Sorted statistic values (an array) plus provenance; the ECDF height
    at the i-th value is i/N."""

    __slots__ = ()


def ecdf(spec: MethodSpec, n: int, n_f: int, N: int, seed: int) -> EcdfDump:
    """The empirical distribution of the combined statistic in the seed's
    first replica."""
    import numpy as np
    stats = np.sort(next(sample_cells(spec, [(n, n_f)], N, replica_stream(seed, 0))))
    return EcdfDump(values=stats, spec=spec, n=n, n_f=n_f, N=N, seed=seed)


def ks_distance(dump: EcdfDump) -> float:
    """Kolmogorov-Smirnov distance between the dump and the exact law for
    (method, n, n_f); exact_cdf raises UnsupportedExactError when there is
    none.  Both one-sided gaps are taken at every jump."""
    import numpy as np
    theo = exact_cdf(dump.spec, dump.n, dump.n_f, dump.values)
    heights = np.arange(1, dump.N + 1) / dump.N
    upper = np.max(heights - theo)
    lower = np.max(theo - (heights - 1.0 / dump.N))
    return float(max(upper, lower, 0.0))


def ks_critical_value(N: int, level: float = 0.01) -> float:
    """Asymptotic KS critical value c / sqrt(N) at the 5% or 1% level."""
    if level not in _KS_MULTIPLIER:
        raise DomainError("supported levels: 0.05 and 0.01")
    return _KS_MULTIPLIER[level] / math.sqrt(N)


def write_ecdf_csv(dump: EcdfDump, path):
    """Dump `x,ecdf` rows for external plotting, with an `exact_cdf` column
    when (method, n, n_f) has an exact law."""
    columns = [[float(x) for x in dump.values], [i / dump.N for i in range(1, dump.N + 1)]]
    header = "x,ecdf"
    if has_exact_quantile(dump.spec, dump.n, dump.n_f):
        columns.append([float(c) for c in exact_cdf(dump.spec, dump.n, dump.n_f, dump.values)])
        header += ",exact_cdf"
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for row in zip(*columns):
            f.write(",".join(map(repr, row)) + "\n")
