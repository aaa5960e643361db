"""Numerical special functions: normal CDF/quantile, regularized incomplete
gamma, chi-square and gamma quantiles, and a bracketed root finder.

Everything here is pure and reentrant.  Each kernel is a scalar function,
and one helper maps it over the elements of an array argument, so a scalar
and an array give identical values.  The normal CDF and quantile come from
the standard library (``math.erfc`` and ``statistics.NormalDist``, which is
Wichura's AS 241 in C); their callers pass scalars and short vectors, since
the simulation draws normal scores directly.  The incomplete gamma's timed
callers are the quantile root loops, which pass scalars.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "BracketError",
    "normal_cdf",
    "normal_inv_cdf",
    "reg_lower_gamma",
    "gamma_quantile",
    "chisq_quantile",
    "find_root_bracketed",
]

_MAX_SERIES_ITER = 500
_MAX_CF_ITER = 500
_MAX_INVERT_ITER = 200
_TINY = 1e-300


class DomainError(ValueError):
    """Argument outside a function's mathematical domain."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its deterministic cap."""


class BracketError(ValueError):
    """Root finder called without a sign change on the bracket."""


def _map(f, x):
    # a scalar or 0-d x gives a float; an array maps f over its elements and
    # keeps its shape.  np.isscalar goes first: np.ndim on a Python float
    # builds an array, which would double the cost of the gamma root loops
    if np.isscalar(x) or np.ndim(x) == 0:
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


def _reg_lower_gamma_point(a, x):
    # series below x = a+1, continued fraction above: the standard regime
    # split for stability
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    if x < 0.0:
        raise DomainError("x must be nonnegative")
    value = _lower_gamma_series(a, x) if x < a + 1.0 else 1.0 - _upper_gamma_cf(a, x)
    return min(max(value, 0.0), 1.0)


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) for scalar a > 0.

    A scalar ``x`` returns a float; an array ``x`` maps the same scalar
    kernel over its elements, so both give identical values.
    """
    if not (np.isscalar(a) or np.ndim(a) == 0):
        raise DomainError("shape parameter must be scalar")
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError("shape parameter must be positive")
    return _map(lambda v: _reg_lower_gamma_point(a, v), x)


# ---------------------------------------------------------------------------
# standard normal
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _normal_cdf_point(x):
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_cdf(x):
    """Standard normal CDF, from ``math.erfc`` so that the lower tail keeps
    full relative accuracy.  Scalars and arrays as in ``reg_lower_gamma``."""
    return _map(_normal_cdf_point, x)


def normal_inv_cdf(p):
    """Standard normal quantile for p strictly inside (0, 1).

    ``statistics.NormalDist.inv_cdf``: Wichura's AS 241 (PPND16, Appl.
    Statist. 37:477, 1988), relative error about 1e-15 down to p = 1e-300.
    Scalars and arrays as in ``reg_lower_gamma``.
    """
    # imported here: statistics pulls in fractions and decimal, cold-start
    # cost that only the Stouffer, Chen and interval paths need
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf

    def point(v):
        if not 0.0 < v < 1.0:
            raise DomainError("p must lie strictly inside (0, 1)")
        return inv_cdf(v)

    return _map(point, p)


# ---------------------------------------------------------------------------
# quantile inversion
# ---------------------------------------------------------------------------

def gamma_quantile(shape, q):
    """Quantile of the Gamma(shape, 1) distribution.

    Bisection start with Newton polish; converges to 1e-12 on the
    probability scale with a deterministic iteration cap.
    """
    shape = float(shape)
    if shape <= 0.0:
        raise DomainError("shape parameter must be positive")
    q = float(q)
    if not (0.0 < q < 1.0):
        raise DomainError("quantile level must lie strictly inside (0, 1)")

    lo = 0.0
    hi = shape + 10.0 * math.sqrt(shape) + 10.0
    for _ in range(200):
        if reg_lower_gamma(shape, hi) >= q:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("could not bracket gamma quantile")

    x = 0.5 * (lo + hi)
    for _ in range(_MAX_INVERT_ITER):
        f = reg_lower_gamma(shape, x) - q
        if abs(f) <= 1e-12:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        pdf = math.exp((shape - 1.0) * math.log(x) - x - math.lgamma(shape)) if x > 0 else 0.0
        if pdf > 0.0:
            step = x - f / pdf
            x = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            x = 0.5 * (lo + hi)
        if hi - lo <= 1e-14 * max(1.0, hi):
            return x
    raise ConvergenceError("gamma quantile inversion did not converge")


def chisq_quantile(df, q):
    """Quantile of the chi-square distribution with ``df`` degrees of freedom.

    Exactly ``2 * gamma_quantile(df / 2, q)``.
    """
    df = float(df)
    if df < 1.0:
        raise DomainError("degrees of freedom must be >= 1")
    return 2.0 * gamma_quantile(df / 2.0, q)


def find_root_bracketed(f, lo, hi, tol=1e-12):
    """Deterministic bisection for a continuous f with a sign change on [lo, hi].

    Stops when |f(x)| <= tol or the bracket width falls below tol.
    """
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    lo = float(lo)
    hi = float(hi)
    if not (lo < hi):
        raise DomainError("need lo < hi")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError("no sign change on the bracket")
    for _ in range(_MAX_INVERT_ITER):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= tol or (hi - lo) <= tol:
            return mid
        if (fmid > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    raise ConvergenceError("bisection did not converge")
