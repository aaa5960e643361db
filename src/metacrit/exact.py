"""Closed-form and semi-analytic null quantiles/CDFs where they exist.

Each exact law is one row of ``_LAWS``: where it applies, its quantile and
its CDF.  With n_f fakes Tippett's minimum is Beta(1, n + n_f) and
Wilkinson's maximum has CDF x^(n-n_f) (2x - x^2)^(n_f), for any n_f; with no
fakes Fisher's statistic is chi-square(2n), Chen's chi-square(n), Stouffer's
standard normal, the geometric mean a transformed Gamma(n, 1), and
Edgington's mean follows the Irwin-Hall law (kept to n <= 12, comfortably
before the alternating sum degrades).  A quantile without a closed form is
found by ``special.invert_cdf`` from the law's CDF.  Everything else has no
usable closed form and callers fall back to simulation.
"""

from __future__ import annotations

import math

import numpy as np

from .methods import Method, MethodSpec
from .special import (
    DomainError,
    chisq_quantile,
    gamma_quantile,
    invert_cdf,
    normal_cdf,
    normal_inv_cdf,
    reg_lower_gamma,
)

__all__ = [
    "UnsupportedExactError",
    "has_exact_quantile",
    "exact_quantile",
    "exact_cdf",
    "wilkinson_max_quantile",
    "edgington_quantile_genuine",
]

EDGINGTON_MAX_N = 12


class UnsupportedExactError(LookupError):
    """No exact law is available for the requested combination."""


def _check_grid(n: int, n_f: int):
    if n < 1:
        raise DomainError("sample size n must be >= 1")
    if not (0 <= n_f <= n):
        raise DomainError("fake count n_f must satisfy 0 <= n_f <= n")


def _wilkinson_cdf(n: int, n_f: int, x):
    # genuine uniforms below x times fake minima below x; asarray after clip
    # puts a scalar x on the array power, not numpy's scalar power, which can
    # differ in the last bit
    x = np.asarray(np.clip(x, 0.0, 1.0))
    return x ** (n - n_f) * (2.0 * x - x * x) ** n_f


def _irwin_hall_cdf(n: int, n_f: int, x):
    # CDF of the mean of n uniforms: the Irwin-Hall law of the sum at n*x
    s = np.atleast_1d(np.clip(x, 0.0, 1.0) * n)
    total = np.zeros_like(s)
    for j in range(n + 1):
        term = math.comb(n, j) * np.where(s >= j, (s - j) ** n, 0.0)
        total += term if j % 2 == 0 else -term
    out = np.clip(total / math.factorial(n), 0.0, 1.0)
    return float(out[0]) if np.ndim(x) == 0 else out


def _cdf_root(cdf, n: int, n_f: int, q: float) -> float:
    return invert_cdf(lambda x: float(cdf(n, n_f, x)), q, 0.0, 1.0)


def _gm_quantile(n: int, n_f: int, q: float) -> float:
    # -ln(prod P_k) is Gamma(n, 1) and the statistic exp(-G/n) falls as G
    # grows, so this needs the Gamma's 1 - q quantile; below q = 2^-54,
    # 1 - q rounds to 1 and the level is lost
    if 1.0 - q == 1.0:
        raise ArithmeticError(f"1 - q rounds to 1 at q={q:g}; the gm quantile is out of reach")
    return math.exp(-gamma_quantile(n, 1.0 - q) / n)


def _genuine_only(n, n_f):
    return n_f == 0


# Tippett and Wilkinson for any n_f; Fisher, Chen, Stouffer and the geometric
# mean only with n_f = 0; Edgington with n_f = 0 and n <= 12 (oracle-grade).
# The Wilkinson path with fakes is a derived closed form the published tables
# only simulate; provenance stays distinguishable through the table
# generator's metadata.  A method missing here has no exact law.
#
# method -> (supports(n, n_f), quantile(n, n_f, q), cdf(n, n_f, x)),
# where q is a checked float and the CDF receives x as a float array
_LAWS = {
    # 1 - (1 - q)^(1/(n + n_f)), by log1p and expm1 so no lower-tail q rounds away
    Method.TIPPETT: (lambda n, n_f: True,
                     lambda n, n_f, q: -math.expm1(math.log1p(-q) / (n + n_f)),
                     lambda n, n_f, x: 1.0 - (1.0 - np.clip(x, 0.0, 1.0)) ** (n + n_f)),
    Method.WILKINSON: (lambda n, n_f: True,
                       lambda n, n_f, q: (q ** (1.0 / n) if n_f == 0
                                          else _cdf_root(_wilkinson_cdf, n, n_f, q)),
                       _wilkinson_cdf),
    Method.FISHER: (_genuine_only, lambda n, n_f, q: chisq_quantile(2 * n, q),
                    lambda n, n_f, x: reg_lower_gamma(n, np.maximum(x, 0.0) / 2.0)),
    Method.CHEN: (_genuine_only, lambda n, n_f, q: chisq_quantile(n, q),
                  lambda n, n_f, x: reg_lower_gamma(n / 2.0, np.maximum(x, 0.0) / 2.0)),
    Method.STOUFFER: (_genuine_only, lambda n, n_f, q: normal_inv_cdf(q),
                      lambda n, n_f, x: normal_cdf(x)),
    Method.GEOMETRIC_MEAN: (
        _genuine_only, _gm_quantile,
        lambda n, n_f, x: 1.0 - reg_lower_gamma(n, -n * np.log(np.clip(x, 1e-300, 1.0)))),
    Method.EDGINGTON: (lambda n, n_f: n_f == 0 and 2 <= n <= EDGINGTON_MAX_N,
                       lambda n, n_f, q: _cdf_root(_irwin_hall_cdf, n, n_f, q),
                       _irwin_hall_cdf),
}


def has_exact_quantile(spec: MethodSpec, n: int, n_f: int) -> bool:
    """Whether an exact law exists for (method, n, n_f)."""
    _check_grid(n, n_f)
    law = _LAWS.get(spec.method)
    return law is not None and law[0](n, n_f)


def _law(spec: MethodSpec, n: int, n_f: int) -> tuple:
    if not has_exact_quantile(spec, n, n_f):
        raise UnsupportedExactError(f"no exact law for {spec.method.token} with n={n}, n_f={n_f}")
    return _LAWS[spec.method]


def exact_quantile(spec: MethodSpec, n: int, n_f: int, q: float) -> float:
    """Exact quantile; raises UnsupportedExactError when the combination has
    no closed form."""
    _, quantile, _ = _law(spec, n, n_f)
    q = float(q)
    if not (0.0 < q < 1.0):
        raise DomainError("quantile level must lie strictly inside (0, 1)")
    return quantile(n, n_f, q)


def exact_cdf(spec: MethodSpec, n: int, n_f: int, x):
    """Exact null CDF evaluated at x (vectorized) for supported combinations."""
    _, _, cdf = _law(spec, n, n_f)
    return cdf(n, n_f, np.asarray(x, dtype=float))


def wilkinson_max_quantile(n: int, n_f: int, q: float) -> float:
    """Quantile of Wilkinson's maximum statistic."""
    return exact_quantile(MethodSpec(Method.WILKINSON), n, n_f, q)


def edgington_quantile_genuine(n: int, q: float) -> float:
    """Quantile of the mean of n genuine p-values (Irwin-Hall, 2 <= n <= 12)."""
    return exact_quantile(MethodSpec(Method.EDGINGTON), n, 0, q)
