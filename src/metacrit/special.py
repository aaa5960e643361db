"""Numerical special functions: normal CDF/quantile, regularized lower and
upper incomplete gamma and the gamma quantile, and ``invert_cdf``, the one
solver that finds a quantile without a closed form as the root of its CDF.

Everything here is pure and reentrant, and each kernel is a function of
one float.  ``_map`` is the one helper that maps a kernel over an array, so
a scalar and an array give identical values: ``normal_inv_cdf`` takes the
arrays of probit scores, and ``exact.exact_cdf`` maps the exact laws; only
a value that is not a Python int or float makes it import numpy.  The normal
CDF and quantile come from the standard library (``math.erfc`` and
``statistics.NormalDist``, which is Wichura's AS 241 in C).  The incomplete
gamma's timed callers are the exact Fisher, Chen and geometric-mean CDFs,
which ``exact.exact_quantile`` inverts by ``invert_cdf``.  No runtime code
calls ``gamma_quantile``: it stays only because the benchmark's tracer
names it as a layer, and goes when the benchmark's layer list drops it.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "DomainError",
    "ConvergenceError",
    "check_levels",
    "check_alpha",
    "check_finite",
    "normal_cdf",
    "normal_inv_cdf",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "gamma_quantile",
    "invert_cdf",
]

_MAX_SERIES_ITER = 500
_MAX_CF_ITER = 500
# room for bisection alone to reach any positive double: 1074 halvings take
# a unit bracket down to the smallest subnormal
_MAX_INVERT_ITER = 1100
_TINY = 1e-300


class DomainError(ValueError):
    """Argument outside a function's mathematical domain."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its deterministic cap."""


def check_levels(*qs):
    """The one rule for a list of quantile levels, one level included: it is
    non-empty, each level lies strictly inside (0, 1), so nan never does,
    and they strictly increase; raises DomainError otherwise."""
    if not qs:
        raise DomainError("q_list must be non-empty")
    last = 0.0
    for q in qs:  # a loop, not all(): no generator on the per-cell path
        if not 0.0 < q < 1.0:
            raise DomainError("quantile levels must lie strictly inside (0, 1)")
        if q <= last:
            raise DomainError("quantile levels must be strictly increasing")
        last = q


def check_alpha(alpha):
    """The one rule for a test's level: 0 < alpha < 1; raises DomainError."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie strictly inside (0, 1)")


def check_finite(x):
    """The one rule for a CDF's argument: finite; raises DomainError."""
    if not math.isfinite(x):
        raise DomainError("x must be finite")


def _map(f, x):
    # a scalar or 0-d x gives a float; an array maps f over its elements and
    # keeps its shape.  A Python number needs no numpy, whose import is slow
    if isinstance(x, (int, float)):
        return f(float(x))
    import numpy as np
    if np.ndim(x) == 0:
        return f(float(x))
    arr = np.asarray(x, dtype=float)
    return np.array([f(v) for v in arr.ravel().tolist()], dtype=float).reshape(arr.shape)


# ---------------------------------------------------------------------------
# regularized incomplete gamma
# ---------------------------------------------------------------------------

def _lower_gamma_series(a, x):
    # P(a,x) = x^a e^-x / Gamma(a+1) * sum_k x^k / ((a+1)...(a+k)), x < a+1
    if x <= 0.0:
        return 0.0
    total = term = 1.0 / a
    denom = a
    for _ in range(_MAX_SERIES_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) <= abs(total) * 2e-16:
            return total * math.exp(a * math.log(x) - x - math.lgamma(a))
    raise ConvergenceError("incomplete gamma series did not converge")


def _upper_gamma_cf(a, x):
    # Q(a,x) via modified Lentz continued fraction, x >= a+1
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / (b if abs(b) > _TINY else _TINY)
    h = d
    for i in range(1, _MAX_CF_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h * math.exp(a * math.log(x) - x - math.lgamma(a))
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def _series_side(a, x):
    # whether P(a, x) is summed as a series (x < a + 1) rather than Q(a, x)
    # found by the continued fraction, for a > 0 and finite x >= 0
    if not (0.0 < a < math.inf):
        raise DomainError("shape parameter must be positive")
    check_finite(x)
    if x < 0.0:
        raise DomainError("x must be nonnegative")
    return x < a + 1.0


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) for a > 0 and finite x >= 0:
    the series below x = a + 1, the continued fraction above, for stability."""
    value = _lower_gamma_series(a, x) if _series_side(a, x) else 1.0 - _upper_gamma_cf(a, x)
    return min(max(value, 0.0), 1.0)


def reg_upper_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x), split as
    ``reg_lower_gamma`` is, so a small Q above x = a + 1 keeps its relative
    accuracy instead of cancelling in 1 - P."""
    value = 1.0 - _lower_gamma_series(a, x) if _series_side(a, x) else _upper_gamma_cf(a, x)
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# standard normal
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x):
    """Standard normal CDF at a finite x, from ``math.erfc`` so that the
    lower tail keeps full relative accuracy."""
    check_finite(x)
    return 0.5 * math.erfc(-x / _SQRT2)


@functools.cache
def _probit():
    # the quantile of one float, with one NormalDist for every call.  statistics
    # pulls in fractions and decimal, which only the probit paths need
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf

    def point(v):
        check_levels(v)  # Phi^-1(p) is the quantile at level p
        return inv_cdf(v)

    return point


def normal_inv_cdf(p):
    """Standard normal quantile for p strictly inside (0, 1).

    ``statistics.NormalDist.inv_cdf``: Wichura's AS 241 (PPND16, Appl.
    Statist. 37:477, 1988), relative error about 1e-15 down to p = 1e-300.
    A scalar ``p`` gives a float, and an array the same values via ``_map``.
    """
    return _map(_probit(), p)


# ---------------------------------------------------------------------------
# quantile inversion
# ---------------------------------------------------------------------------

def invert_cdf(cdf, q, lo, hi):
    """The x >= lo with cdf(x) = q, for a nondecreasing scalar ``cdf``.

    Returns ``lo`` when cdf(lo) >= q.  Otherwise ``hi`` doubles until
    cdf(hi) >= q, and [lo, hi] shrinks.  While lo is 0 it steps in log
    space.  While hi > 4 lo or cdf(hi) > 4 cdf(lo), it takes the secant of
    log cdf against log x, exact for a power law, or the geometric middle
    where cdf(lo) underflows to 0.  So a root far below hi, even a subnormal
    one, takes tens of evaluations, not one per binade.  A narrower bracket
    shrinks by Illinois regula falsi (Dowell & Jarratt, BIT 11:168, 1971);
    Illinois' halved weights serve the log secant too, and a step that
    rounds onto an end bisects.  It
    stops when |cdf(x) - q| <= 1e-12 * min(q, 1 - q), so lower tails keep
    relative accuracy, or when the bracket is 1e-15 of ``hi`` wide.  It
    raises ``ConvergenceError`` when the quantile underflows: cdf already
    reaches q at the smallest positive double, or the bracket is two
    adjacent subnormals, still wider than that.
    """
    tol = 1e-12 * min(q, 1.0 - q)
    clo = cdf(lo)
    if clo >= q:
        return lo
    chi = cdf(hi)
    for _ in range(_MAX_INVERT_ITER):
        if chi >= q:
            break
        lo, clo, hi = hi, chi, 2.0 * hi
        chi = cdf(hi)
    else:
        raise ConvergenceError("could not bracket the quantile")
    # refused at once, before regula falsi halves [0, hi] one binade a step
    if lo == 0.0 and cdf(math.ulp(0.0)) >= q:
        raise ConvergenceError(f"the quantile at q={q:g} underflows below the smallest double")
    # Illinois: an end kept twice in a row has its weight halved, so the
    # other end cannot stall
    wlo = whi = 1.0
    kept = 0  # the end kept by the last step: -1 lo, +1 hi
    for _ in range(_MAX_INVERT_ITER):
        flo, fhi = wlo * (clo - q), whi * (chi - q)
        if lo == 0.0:
            # in log space: hi times the secant's ratio, which cannot cancel to 0,
            # or else the middle binade between the smallest double and hi
            x = hi * (flo / (flo - fhi))
            if not 0.0 < x < hi:
                x = math.sqrt(math.ulp(0.0)) * math.sqrt(hi)
        elif hi <= 4.0 * lo and chi <= 4.0 * clo:
            x = hi - fhi * (hi - lo) / (fhi - flo)
        elif clo > 0.0:
            # across binades a step linear in x would climb them about one at a time
            log_q, log_hi = math.log(q), math.log(hi)
            glo, ghi = wlo * (math.log(clo) - log_q), whi * (math.log(chi) - log_q)
            x = math.exp(log_hi - ghi * (log_hi - math.log(lo)) / (ghi - glo))
        else:
            x = math.sqrt(lo) * math.sqrt(hi)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            # two adjacent doubles the width test cannot stop on: subnormals
            if not lo < x < hi and hi - lo > 1e-15 * hi:
                raise ConvergenceError(f"the quantile at q={q:g} underflows: no double lies "
                                       f"strictly between {lo:g} and {hi:g}")
        cx = cdf(x)
        if abs(cx - q) <= tol or hi - lo <= 1e-15 * hi:
            return x
        if cx > q:
            hi, chi, whi = x, cx, 1.0
            wlo = 0.5 * wlo if kept == -1 else wlo
            kept = -1
        else:
            lo, clo, wlo = x, cx, 1.0
            whi = 0.5 * whi if kept == 1 else whi
            kept = 1
    raise ConvergenceError("quantile inversion did not converge")


def gamma_quantile(shape, q):
    """Quantile of the Gamma(shape, 1) distribution: the root of its CDF
    from [0, 1], as ``exact.exact_quantile`` finds Fisher's and Chen's."""
    q = float(q)
    check_levels(q)
    return invert_cdf(lambda x: reg_lower_gamma(shape, x), q, 0.0, 1.0)

