"""Closed-form and semi-analytic null quantiles/CDFs where they exist.

Each exact law is one ``Law`` row of ``_LAWS``: whether it takes fakes,
its CDF and, for Tippett, Stouffer and Wilkinson without fakes, its
closed-form quantile.
With n_f fakes Tippett's minimum is Beta(1, n + n_f) and Wilkinson's
maximum has CDF x^(n-n_f) (2x - x^2)^(n_f), for any n_f; with no fakes
Fisher's statistic is chi-square(2n), Chen's chi-square(n), Stouffer's
standard normal, the geometric mean a transformed Gamma(n, 1), and
Edgington's mean follows the Irwin-Hall law, summed in exact integers for
every n.  Every CDF is a function of one float, which ``exact_cdf`` maps
over an array; every other quantile is the CDF's root from [0, 1], found
by ``special.invert_cdf`` in ``exact_quantile``.  Other methods have no
usable closed form and callers fall back to simulation.
"""

from __future__ import annotations

import collections
import math
import sys

from .methods import Method, MethodSpec, check_cell
from .special import (
    _map,
    check_finite,
    check_levels,
    invert_cdf,
    normal_cdf,
    normal_inv_cdf,
    reg_lower_gamma,
    reg_upper_gamma,
)

__all__ = [
    "UnsupportedExactError",
    "has_exact_quantile",
    "exact_quantile",
    "exact_cdf",
    "wilkinson_max_quantile",
    "edgington_quantile_genuine",
]

class UnsupportedExactError(LookupError):
    """No exact law is available for the requested combination."""


def _wilkinson_cdf(n: int, n_f: int, x: float) -> float:
    # genuine uniforms below x times fake minima below x
    x = min(max(x, 0.0), 1.0)
    return x ** (n - n_f) * (2.0 * x - x * x) ** n_f


def _irwin_hall_cdf(n: int, n_f: int, x: float) -> float:
    # the mean of n uniforms is below x = a/b when their sum is below
    # s = n a / b: sum_{j <= s} (-1)^j C(n, j) (s - j)^n / n!, here over the
    # integers (n a - j b)^n and n! b^n, so one division rounds it, correctly
    a, b = min(max(x, 0.0), 1.0).as_integer_ratio()
    total = sum((-1) ** j * math.comb(n, j) * (n * a - j * b) ** n for j in range(n * a // b + 1))
    return total / (math.factorial(n) * b ** n)


def _chisq_cdf(k: int, x: float) -> float:
    # P(k/2, x/2).  Below twice the smallest normal double halving x rounds,
    # to 0 at the smallest double, so there P is its series' leading term
    # (x/2)^(k/2) / Gamma(k/2 + 1), taken from log x - log 2
    if 0.0 < x < 2.0 * sys.float_info.min:
        return math.exp(k / 2.0 * (math.log(x) - math.log(2.0)) - math.lgamma(k / 2.0 + 1.0))
    return reg_lower_gamma(k / 2.0, max(x, 0.0) / 2.0)


def _gm_cdf(n: int, n_f: int, x: float) -> float:
    # -ln(prod P_k) is G ~ Gamma(n, 1) and the statistic exp(-G/n) is at most
    # x when G >= -n ln x: an upper gamma tail, small in the statistic's lower tail
    return reg_upper_gamma(n, -n * math.log(min(x, 1.0))) if x > 0.0 else 0.0


# an exact law: whether it holds for any n_f (``fakes``) or only for n_f = 0,
# its cdf(n, n_f, x) of a finite float x, and its quantile(n, n_f, q) of a
# checked float q, or None; a None quantile (Wilkinson's with fakes too) is
# found as the CDF's root
Law = collections.namedtuple("Law", "fakes cdf quantile")
# Tippett and Wilkinson for any n_f (the published tables only simulate
# Wilkinson with fakes); Fisher, Chen, Stouffer, the geometric mean and
# Edgington only with n_f = 0.  A method missing here has no exact law.
_LAWS = {
    # 1 - (1 - q)^(1/(n + n_f)), by log1p and expm1 so no lower-tail q rounds away
    Method.TIPPETT: Law(True, lambda n, n_f, x: 1.0 - (1.0 - min(max(x, 0.0), 1.0)) ** (n + n_f),
                        lambda n, n_f, q: -math.expm1(math.log1p(-q) / (n + n_f))),
    Method.WILKINSON: Law(True, _wilkinson_cdf,
                          lambda n, n_f, q: q ** (1.0 / n) if n_f == 0 else None),
    Method.FISHER: Law(False, lambda n, n_f, x: _chisq_cdf(2 * n, x), None),
    Method.CHEN: Law(False, lambda n, n_f, x: _chisq_cdf(n, x), None),
    Method.STOUFFER: Law(False, lambda n, n_f, x: normal_cdf(x),
                         lambda n, n_f, q: normal_inv_cdf(q)),
    Method.GEOMETRIC_MEAN: Law(False, _gm_cdf, None),
    Method.EDGINGTON: Law(False, _irwin_hall_cdf, None),
}


def has_exact_quantile(spec: MethodSpec, n: int, n_f: int) -> bool:
    """Whether an exact law exists for (method, n, n_f)."""
    check_cell(n, n_f)
    law = _LAWS.get(spec.method)
    return law is not None and (law.fakes or n_f == 0)


def _law(spec: MethodSpec, n: int, n_f: int) -> Law:
    if not has_exact_quantile(spec, n, n_f):
        raise UnsupportedExactError(f"no exact law for {spec.method.token} with n={n}, n_f={n_f}")
    return _LAWS[spec.method]


def exact_quantile(spec: MethodSpec, n: int, n_f: int, q: float) -> float:
    """Exact quantile: the law's closed form where it has one, else the root
    of its CDF from [0, 1].  Raises UnsupportedExactError when the
    combination has no exact law."""
    law = _law(spec, n, n_f)
    q = float(q)
    check_levels(q)
    x = None if law.quantile is None else law.quantile(n, n_f, q)
    return invert_cdf(lambda v: law.cdf(n, n_f, v), q, 0.0, 1.0) if x is None else x


def exact_cdf(spec: MethodSpec, n: int, n_f: int, x):
    """Exact null CDF at x for supported combinations: a float for a scalar
    x, else an array of x's shape.  Raises DomainError for a non-finite x."""
    law = _law(spec, n, n_f)

    def point(v):
        check_finite(v)
        return law.cdf(n, n_f, v)

    return _map(point, x)


def wilkinson_max_quantile(n: int, n_f: int, q: float) -> float:
    """Quantile of Wilkinson's maximum statistic."""
    return exact_quantile(MethodSpec(Method.WILKINSON), n, n_f, q)


def edgington_quantile_genuine(n: int, q: float) -> float:
    """Quantile of the mean of n genuine p-values (Irwin-Hall, any n >= 1)."""
    return exact_quantile(MethodSpec(Method.EDGINGTON), n, 0, q)
