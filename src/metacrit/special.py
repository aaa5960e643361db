"""Numerical special functions: normal CDF/quantile, regularized incomplete
gamma, chi-square and gamma quantiles, and a bracketed root finder.

Everything here is pure and reentrant.  Functions accept scalars or numpy
arrays and vectorize over the argument where it matters for performance
(the normal quantile is evaluated on whole sample matrices by the combined
test statistics).  The incomplete gamma has a single scalar kernel: its
timed callers are the quantile root loops, which pass scalars, and arrays
are mapped over the same kernel.
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
    "reg_upper_gamma",
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


def _as_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def _scalar_or_array(result, template):
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(result)
    return result


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


def _reg_gamma_point(a, x, upper):
    # series below x = a+1, continued fraction above: the standard regime
    # split for stability; each side gives its own tail directly
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    if x < 0.0:
        raise DomainError("x must be nonnegative")
    if x < a + 1.0:
        lower = _lower_gamma_series(a, x)
        value = 1.0 - lower if upper else lower
    else:
        tail = _upper_gamma_cf(a, x)
        value = tail if upper else 1.0 - tail
    return min(max(value, 0.0), 1.0)


def _reg_gamma(a, x, upper):
    if not (np.isscalar(a) or np.ndim(a) == 0):
        raise DomainError("shape parameter must be scalar")
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError("shape parameter must be positive")
    if np.isscalar(x) or np.ndim(x) == 0:
        return _reg_gamma_point(a, float(x), upper)
    arr = np.asarray(x, dtype=float)
    values = [_reg_gamma_point(a, v, upper) for v in arr.ravel().tolist()]
    return np.array(values, dtype=float).reshape(arr.shape)


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) for scalar a > 0.

    A scalar ``x`` returns a float; an array ``x`` maps the same scalar
    kernel over its elements, so both give identical values.
    """
    return _reg_gamma(a, x, upper=False)


def reg_upper_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Taken directly from the continued fraction in the right tail so tiny
    tail probabilities keep full relative accuracy.  Scalars and arrays are
    handled as in ``reg_lower_gamma``.
    """
    return _reg_gamma(a, x, upper=True)


# ---------------------------------------------------------------------------
# standard normal
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x):
    """Standard normal CDF.

    Built on the upper incomplete gamma so that the symmetry
    ``normal_cdf(x) + normal_cdf(-x) == 1`` holds exactly and both tails keep
    full relative accuracy.
    """
    arr = _as_array(x, "x")
    half_tail = 0.5 * reg_upper_gamma(0.5, (np.abs(arr) / _SQRT2) ** 2)
    return _scalar_or_array(np.where(arr < 0.0, half_tail, 1.0 - half_tail), x)


# Wichura's AS 241 (PPND16) rational approximations for the normal quantile.
_PPND_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2,
    1.9715909503065514427e3, 1.3731693765509461125e4,
    4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_PPND_B = (
    1.0, 4.2313330701600911252e1,
    6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_PPND_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0,
    5.76949722146069140550e0, 3.64784832476320460504e0,
    1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_PPND_D = (
    1.0, 2.05319162663775882187e0,
    1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9,
)
_PPND_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0,
    1.78482653991729133580e0, 2.96560571828504891230e-1,
    2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_PPND_F = (
    1.0, 5.99832206555887937690e-1,
    1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15,
)


def _ppnd_rational(num, den, r):
    # num(r) / den(r) by Horner, both polynomials in one in-place loop
    a = np.full_like(r, num[7])
    b = np.full_like(r, den[7])
    for cn, cd in zip(num[6::-1], den[6::-1]):
        a *= r
        a += cn
        b *= r
        b += cd
    a /= b
    return a


def normal_inv_cdf(p):
    """Standard normal quantile for p strictly inside (0, 1).

    Wichura's AS 241 (PPND16, Appl. Statist. 37:477, 1988): one rational
    approximation for |p - 0.5| <= 0.425 and two in r = sqrt(-log(min(p,
    1 - p))), split at r = 5.  Relative error is about 1e-15 down to
    p = 1e-300, so no refinement step follows.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("p must lie strictly inside (0, 1)")
    ps = np.atleast_1d(arr)

    q = ps - 0.5
    z = q * _ppnd_rational(_PPND_A, _PPND_B, 0.180625 - q * q)

    tail = np.abs(q) > 0.425
    if tail.any():
        pt = ps[tail]
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        zt = np.where(
            r <= 5.0,
            _ppnd_rational(_PPND_C, _PPND_D, r - 1.6),
            _ppnd_rational(_PPND_E, _PPND_F, r - 5.0),
        )
        z[tail] = np.copysign(zt, q[tail])

    return _scalar_or_array(z.reshape(arr.shape) if arr.shape else z[0], p)


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
