"""Closed-form and semi-analytic null quantiles/CDFs where they exist.

With n_f fakes the minimum is Beta(1, n + n_f) for any n_f, and the maximum
has CDF x^(n-n_f) (2x - x^2)^(n_f); with no fakes Fisher's statistic is
chi-square(2n), Chen's chi-square(n), Stouffer's standard normal, the
geometric mean a transformed Gamma(n, 1), and Edgington's mean follows the
Irwin-Hall law (kept to n <= 12, comfortably before the alternating sum
degrades).  Everything else has no usable closed form and callers fall back
to simulation.
"""

from __future__ import annotations

import math

import numpy as np

from .methods import Method, MethodSpec, validate_pvector
from .special import (
    DomainError,
    chisq_quantile,
    find_root_bracketed,
    gamma_quantile,
    normal_cdf,
    normal_inv_cdf,
    reg_lower_gamma,
)

__all__ = [
    "UnsupportedExactError",
    "has_exact_quantile",
    "exact_quantile",
    "exact_cdf",
    "tippett_quantile",
    "wilkinson_max_quantile",
    "fisher_quantile_genuine",
    "chen_quantile_genuine",
    "stouffer_quantile_genuine",
    "gm_quantile_genuine",
    "edgington_cdf_genuine",
    "edgington_quantile_genuine",
    "fake_fisher_transform_check",
]

EDGINGTON_MAX_N = 12


class UnsupportedExactError(LookupError):
    """No exact law is available for the requested combination."""


def _check_grid(n: int, n_f: int):
    if n < 1:
        raise DomainError("sample size n must be >= 1")
    if not (0 <= n_f <= n):
        raise DomainError("fake count n_f must satisfy 0 <= n_f <= n")


def _check_q(q: float) -> float:
    q = float(q)
    if not (0.0 < q < 1.0):
        raise DomainError("quantile level must lie strictly inside (0, 1)")
    return q


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------

def tippett_quantile(n: int, n_f: int, q: float) -> float:
    """Quantile of the minimum statistic: Beta(1, n + n_f) for any n_f."""
    _check_grid(n, n_f)
    q = _check_q(q)
    return 1.0 - (1.0 - q) ** (1.0 / (n + n_f))


def wilkinson_max_quantile(n: int, n_f: int, q: float) -> float:
    """Quantile of the maximum statistic.

    CDF is x^(n-n_f) (2x - x^2)^(n_f): independent genuine uniforms below x
    times fake minima below x.  q^(1/n) in closed form when n_f = 0,
    otherwise a bracketed root on (0, 1).
    """
    _check_grid(n, n_f)
    q = _check_q(q)
    if n_f == 0:
        return q ** (1.0 / n)

    def cdf_gap(x):
        return _wilkinson_cdf(n, n_f, x) - q

    return find_root_bracketed(cdf_gap, 0.0, 1.0, tol=1e-12)


def fisher_quantile_genuine(n: int, q: float) -> float:
    """Fisher statistic quantile for all-genuine samples: chi-square(2n)."""
    _check_grid(n, 0)
    return chisq_quantile(2 * n, _check_q(q))


def chen_quantile_genuine(n: int, q: float) -> float:
    """Chen statistic quantile for all-genuine samples: chi-square(n)."""
    _check_grid(n, 0)
    return chisq_quantile(n, _check_q(q))


def stouffer_quantile_genuine(q: float) -> float:
    """Stouffer statistic quantile for all-genuine samples: standard normal,
    independent of n."""
    return float(normal_inv_cdf(_check_q(q)))


def gm_quantile_genuine(n: int, q: float) -> float:
    """Geometric-mean statistic quantile for all-genuine samples.

    -ln(prod P_k) is Gamma(n, 1); the statistic exp(-G/n) decreases in G, so
    the q-quantile is exp(-gamma_quantile(n, 1-q) / n).
    """
    _check_grid(n, 0)
    q = _check_q(q)
    return math.exp(-gamma_quantile(n, 1.0 - q) / n)


def edgington_cdf_genuine(n: int, x) -> float:
    """CDF of the mean of n genuine p-values (Irwin-Hall law of the sum,
    evaluated at n*x).  Supported for 2 <= n <= 12."""
    if not (2 <= n <= EDGINGTON_MAX_N):
        raise UnsupportedExactError(
            f"Irwin-Hall evaluation supported for 2 <= n <= {EDGINGTON_MAX_N}"
        )
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("the mean statistic lives in [0, 1]")
    s = np.atleast_1d(arr * n)
    total = np.zeros_like(s)
    for j in range(n + 1):
        term = math.comb(n, j) * np.where(s >= j, (s - j) ** n, 0.0)
        total += term if j % 2 == 0 else -term
    out = np.clip(total / math.factorial(n), 0.0, 1.0)
    if arr.ndim == 0:
        return float(out[0])
    return out


def edgington_quantile_genuine(n: int, q: float) -> float:
    """Quantile of the mean statistic via root-finding on the Irwin-Hall CDF."""
    q = _check_q(q)
    return find_root_bracketed(lambda x: edgington_cdf_genuine(n, x) - q, 0.0, 1.0, tol=1e-12)


def fake_fisher_transform_check(p_fakes) -> float:
    """-4 sum ln(1 - p*) over fake p-values; chi-square(2 l) distributed when
    the fakes really are Beta(1,2).  Used only as a sampler diagnostic."""
    arr = validate_pvector(p_fakes)
    return float(-4.0 * np.sum(np.log1p(-arr)))


# ---------------------------------------------------------------------------
# the law table and its dispatch
# ---------------------------------------------------------------------------

def _wilkinson_cdf(n: int, n_f: int, x):
    x = np.asarray(x, dtype=float)
    return x ** (n - n_f) * (2.0 * x - x * x) ** n_f


def _genuine_only(spec, n, n_f):
    return n_f == 0


# Tippett and Wilkinson-with-k=n for any n_f; Fisher, Chen, Stouffer and the
# geometric mean only with n_f = 0; Edgington with n_f = 0 and n <= 12
# (oracle-grade).  The Wilkinson path with fakes is a derived closed form the
# published tables only simulate; provenance stays distinguishable through
# the table generator's metadata.  A method missing here has no exact law.
#
# method -> (supports(spec, n, n_f), quantile(n, n_f, q), cdf(n, n_f, x)),
# where the CDF receives x as a float array
_LAWS = {
    Method.TIPPETT: (lambda spec, n, n_f: True, tippett_quantile,
                     lambda n, n_f, x: 1.0 - (1.0 - np.clip(x, 0.0, 1.0)) ** (n + n_f)),
    Method.WILKINSON: (lambda spec, n, n_f: spec.resolve_k(n) == n, wilkinson_max_quantile,
                       lambda n, n_f, x: _wilkinson_cdf(n, n_f, np.clip(x, 0.0, 1.0))),
    Method.FISHER: (_genuine_only, lambda n, n_f, q: fisher_quantile_genuine(n, q),
                    lambda n, n_f, x: reg_lower_gamma(n, np.maximum(x, 0.0) / 2.0)),
    Method.CHEN: (_genuine_only, lambda n, n_f, q: chen_quantile_genuine(n, q),
                  lambda n, n_f, x: reg_lower_gamma(n / 2.0, np.maximum(x, 0.0) / 2.0)),
    Method.STOUFFER: (_genuine_only, lambda n, n_f, q: stouffer_quantile_genuine(q),
                      lambda n, n_f, x: normal_cdf(x)),
    Method.GEOMETRIC_MEAN: (
        _genuine_only, lambda n, n_f, q: gm_quantile_genuine(n, q),
        lambda n, n_f, x: 1.0 - reg_lower_gamma(n, -n * np.log(np.clip(x, 1e-300, 1.0)))),
    Method.EDGINGTON: (lambda spec, n, n_f: n_f == 0 and 2 <= n <= EDGINGTON_MAX_N,
                       lambda n, n_f, q: edgington_quantile_genuine(n, q),
                       lambda n, n_f, x: edgington_cdf_genuine(n, np.clip(x, 0.0, 1.0))),
}


def has_exact_quantile(spec: MethodSpec, n: int, n_f: int) -> bool:
    """Whether an exact law exists for (method, n, n_f)."""
    _check_grid(n, n_f)
    law = _LAWS.get(spec.method)
    return law is not None and law[0](spec, n, n_f)


def _law(spec: MethodSpec, n: int, n_f: int) -> tuple:
    if not has_exact_quantile(spec, n, n_f):
        raise UnsupportedExactError(f"no exact law for {spec.method.token} with n={n}, n_f={n_f}")
    return _LAWS[spec.method]


def exact_quantile(spec: MethodSpec, n: int, n_f: int, q: float) -> float:
    """Exact quantile; raises UnsupportedExactError when the combination has
    no closed form."""
    _, quantile, _ = _law(spec, n, n_f)
    return quantile(n, n_f, q)


def exact_cdf(spec: MethodSpec, n: int, n_f: int, x):
    """Exact null CDF evaluated at x (vectorized) for supported combinations."""
    _, _, cdf = _law(spec, n, n_f)
    return cdf(n, n_f, np.asarray(x, dtype=float))
