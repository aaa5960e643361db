"""Numerical special functions: normal CDF/quantile, regularized incomplete
gamma, chi-square and gamma quantiles, and ``invert_cdf``, the one solver
that finds a quantile without a closed form as the root of its CDF.

Everything here is pure and reentrant.  Each kernel is a scalar function,
and one helper maps it over the elements of an array argument, so a scalar
and an array give identical values.  The normal CDF and quantile come from
the standard library (``math.erfc`` and ``statistics.NormalDist``, which is
Wichura's AS 241 in C); their callers pass scalars and short vectors, since
the simulation draws normal scores directly.  The incomplete gamma's timed
caller is ``invert_cdf`` inside ``gamma_quantile``, which passes scalars.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "normal_cdf",
    "normal_inv_cdf",
    "reg_lower_gamma",
    "gamma_quantile",
    "chisq_quantile",
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


def _map(f, x):
    # a scalar or 0-d x gives a float; an array maps f over its elements and
    # keeps its shape.  np.isscalar goes first: np.ndim on a Python float
    # builds an array, which would double the cost of a scalar call
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

def invert_cdf(cdf, q, lo, hi):
    """The x >= lo with cdf(x) = q, for a nondecreasing scalar ``cdf``.

    Returns ``lo`` when cdf(lo) >= q.  Otherwise ``hi`` doubles until
    cdf(hi) >= q, and Illinois regula falsi (Dowell & Jarratt, BIT 11:168,
    1971) shrinks [lo, hi], bisecting when a step rounds onto an end.  It
    stops when |cdf(x) - q| <= 1e-12 * min(q, 1 - q), so lower tails keep
    relative accuracy, or when the bracket is 1e-15 of ``hi`` wide.
    """
    tol = 1e-12 * min(q, 1.0 - q)
    flo = cdf(lo) - q
    if flo >= 0.0:
        return lo
    fhi = cdf(hi) - q
    for _ in range(_MAX_INVERT_ITER):
        if fhi >= 0.0:
            break
        lo, flo, hi = hi, fhi, 2.0 * hi
        fhi = cdf(hi) - q
    else:
        raise ConvergenceError("could not bracket the quantile")
    kept = 0  # the end kept by the last step: -1 lo, +1 hi
    for _ in range(_MAX_INVERT_ITER):
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = cdf(x) - q
        if abs(fx) <= tol or hi - lo <= 1e-15 * hi:
            return x
        # Illinois: an end kept twice in a row has its value halved, so the
        # other end cannot stall
        if fx > 0.0:
            hi, fhi = x, fx
            flo = 0.5 * flo if kept == -1 else flo
            kept = -1
        else:
            lo, flo = x, fx
            fhi = 0.5 * fhi if kept == 1 else fhi
            kept = 1
    raise ConvergenceError("quantile inversion did not converge")


def gamma_quantile(shape, q):
    """Quantile of the Gamma(shape, 1) distribution, by ``invert_cdf`` from
    a bracket that holds the central quantiles."""
    shape = float(shape)
    if shape <= 0.0:
        raise DomainError("shape parameter must be positive")
    q = float(q)
    if not (0.0 < q < 1.0):
        raise DomainError("quantile level must lie strictly inside (0, 1)")
    return invert_cdf(lambda x: _reg_lower_gamma_point(shape, x), q,
                      0.0, shape + 10.0 * math.sqrt(shape) + 10.0)


def chisq_quantile(df, q):
    """Quantile of the chi-square distribution with ``df`` degrees of freedom.

    Exactly ``2 * gamma_quantile(df / 2, q)``.
    """
    df = float(df)
    if df < 1.0:
        raise DomainError("degrees of freedom must be >= 1")
    return 2.0 * gamma_quantile(df / 2.0, q)
