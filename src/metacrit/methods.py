"""The ten classical combined test statistics for meta-analysis of p-values.

Every statistic is a pure, permutation-invariant function of a vector of
p-values lying strictly inside (0, 1).  Each method carries a default
rejection tail: the direction in which small individual p-values push the
statistic.

Each statistic is written once (``_rows``): an elementwise score, None for
the identity, the binary op that folds a row's scores left to right, and the
finish of the folded total given the row's length n, all against a
namespace ``xp``.  On arrays ``xp`` is numpy (``_splits``, built on first
use: importing this module loads no numpy), and ``fold`` makes one ufunc
call per column of a (..., k) array into one new accumulator; ``reduce`` may
continue from ``start``, a row fold of earlier columns.  A row's
value is thus the same however its columns are split between a head and the
rest, or its rows into blocks, though for rows of eight or more values not
always the same in the last bits as numpy's ``np.sum``.  min-gm scores p as
the complex log p + i log(1 - p), so one fold sums both logs.

``evaluate_statistic`` reads the same rows with ``math`` for ``xp``, folding
one vector's Python floats with ``functools.reduce``, and imports no numpy:
it gives the bits of ``evaluate_batch``, or for Fisher, gm, min-gm and mg,
whose numpy logs and exp may differ from libm's in the last bit, agrees to
1e-13 relative.
"""

from __future__ import annotations

import collections
import enum
import functools
import math
import operator
import types

from .special import DomainError, _probit, normal_inv_cdf

__all__ = [
    "Method",
    "Tail",
    "MethodSpec",
    "parse_method",
    "check_cell",
    "evaluate_statistic",
    "evaluate_batch",
    "score",
    "fold",
    "reduce",
    "SCORE_STATISTICS",
]


class Method(enum.Enum):
    TIPPETT = "tippett"
    FISHER = "fisher"
    GEOMETRIC_MEAN = "gm"
    MIN_GEOMETRIC_MEANS = "min-gm"
    STOUFFER = "stouffer"
    WILKINSON = "wilkinson"
    EDGINGTON = "edgington"
    MUDHOLKAR_GEORGE = "mg"
    WILSON_HARMONIC = "harmonic"
    CHEN = "chen"

    @property
    def token(self) -> str:
        return self.value


class Tail(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"
    BOTH = "both"


# Small p-values shrink the location/minimum style statistics and grow the
# log-based ones; Chen's statistic is extreme in both tails.
DEFAULT_TAILS = {
    Method.TIPPETT: Tail.LOWER,
    Method.FISHER: Tail.UPPER,
    Method.GEOMETRIC_MEAN: Tail.LOWER,
    Method.MIN_GEOMETRIC_MEANS: Tail.LOWER,
    Method.STOUFFER: Tail.LOWER,
    Method.WILKINSON: Tail.LOWER,
    Method.EDGINGTON: Tail.LOWER,
    Method.MUDHOLKAR_GEORGE: Tail.UPPER,
    Method.WILSON_HARMONIC: Tail.LOWER,
    Method.CHEN: Tail.BOTH,
}

_TOKENS = {m.token: m for m in Method}


def parse_method(name: str) -> Method:
    """Parse a method token (case-insensitive): tippett|fisher|gm|min-gm|
    stouffer|wilkinson|edgington|mg|harmonic|chen."""
    token = name.strip().lower()
    if token not in _TOKENS:
        known = "|".join(m.token for m in Method)
        raise DomainError(f"unknown method {name!r}; expected one of {known}")
    return _TOKENS[token]


def check_cell(n: int, n_f: int):
    """The one rule for a cell: n >= 1 p-values, of which 0 <= n_f <= n are
    fake; raises DomainError naming both values otherwise."""
    if not (n >= 1 and 0 <= n_f <= n):
        raise DomainError(f"need n >= 1 and 0 <= n_f <= n; got n={n}, n_f={n_f}")


class MethodSpec(collections.namedtuple("MethodSpec", "method tail")):
    """A combined test: method id and rejection tail (the method's default
    tail when omitted)."""

    __slots__ = ()

    def __new__(cls, method: Method, tail: Tail | None = None):
        return tuple.__new__(cls, (method, DEFAULT_TAILS[method] if tail is None else tail))

    def levels(self, alpha: float) -> tuple:
        """The increasing quantile levels that bound a level-``alpha`` test."""
        return {Tail.LOWER: (alpha,), Tail.UPPER: (1.0 - alpha,),
                Tail.BOTH: (alpha / 2.0, 1.0 - alpha / 2.0)}[self.tail]

    def rejects(self, statistic: float, criticals) -> bool:
        """Whether ``statistic`` is at or beyond ``criticals``, the values at ``levels``."""
        return ((self.tail is not Tail.UPPER and statistic <= criticals[0])
                or (self.tail is not Tail.LOWER and statistic >= criticals[-1]))


# ``xp`` for Python floats; ``logs(p)`` is the complex log p + i log(1 - p)
_FLOATS = types.SimpleNamespace(log=math.log, log1p=math.log1p, exp=math.exp, add=operator.add,
                                minimum=min, maximum=max,
                                logs=lambda p: complex(math.log(p), math.log(1.0 - p)))


def _rows(xp) -> dict:
    # method -> (score of the drawn values: p, or z = Phi^-1(p) for Stouffer
    # and Chen, with None for the identity; the binary op that folds a row's
    # scores; the finish of the total of n values), written once against
    # ``xp``: numpy (``_splits``) or ``_FLOATS``
    def gm(total, n):
        # the geometric mean from the sum of logs: no underflow for any practical n
        return xp.exp(total / n)

    return {
        Method.TIPPETT: (None, xp.minimum, lambda acc, n: acc),
        Method.FISHER: (xp.log, xp.add, lambda acc, n: -2.0 * acc),
        Method.GEOMETRIC_MEAN: (xp.log, xp.add, gm),
        Method.MIN_GEOMETRIC_MEANS: (xp.logs, xp.add,
                                     lambda acc, n: xp.minimum(gm(acc.real, n), gm(acc.imag, n))),
        Method.STOUFFER: (None, xp.add, lambda acc, n: acc / math.sqrt(n)),
        Method.WILKINSON: (None, xp.maximum, lambda acc, n: acc),
        Method.EDGINGTON: (None, xp.add, lambda acc, n: acc / n),
        Method.MUDHOLKAR_GEORGE: (lambda p: xp.log1p(-p) - xp.log(p), xp.add, lambda acc, n: acc),
        Method.WILSON_HARMONIC: (lambda p: 1.0 / p, xp.add, lambda acc, n: n / acc),
        Method.CHEN: (lambda z: z * z, xp.add, lambda acc, n: acc),
    }


_FLOAT_ROWS = _rows(_FLOATS)


@functools.cache
def _splits() -> dict:
    # the rows on arrays
    import numpy as np

    def logs(p, out=None):
        # each log written straight into its channel: no complex temporaries
        out = np.empty(p.shape, complex) if out is None else out
        np.log(p, out=out.real)
        np.log(1.0 - p, out=out.imag)
        return out

    return _rows(types.SimpleNamespace(log=np.log, log1p=np.log1p, exp=np.exp, add=np.add,
                                       minimum=np.minimum, maximum=np.maximum, logs=logs))


def score(spec: MethodSpec, x, out=None):
    """The statistic's elementwise score of the drawn values ``x``, an array:
    ``x`` itself where the score is the identity, else ``out`` with the scores
    written into it where given (``x`` itself may be, unless the score changes
    the dtype as min-gm's complex one does), or else a new array."""
    f = _splits()[spec.method][0]
    if f is None:
        return x
    if out is None:
        return f(x)
    if spec.method is Method.MIN_GEOMETRIC_MEANS:
        return f(x, out)  # both logs straight into out's channels
    out[...] = f(x)
    return out


def _fold(op, x, start):
    # op(op(c0, c1), c2)... over the columns of x, or op(op(start, c0), c1)...
    k, j = x.shape[-1], 0
    if start is None:
        start, j = x[..., 0], 1
    if j == k:
        return start.copy()  # a lone column, or a head with no columns after it
    acc = op(start, x[..., j])[...]  # [...]: a 0-d total stays an array, not a scalar
    for i in range(j + 1, k):
        op(acc, x[..., i], out=acc)
    return acc


def fold(spec: MethodSpec, x):
    """The statistic's fold of each row of the (..., k) array ``x`` of scored
    values: op(op(c0, c1), c2)... left to right, written into one new array of
    the row shape (a lone column is copied).  ``reduce`` continues such a
    fold (a fake head) over later columns."""
    return _fold(_splits()[spec.method][1], x, None)


def reduce(spec: MethodSpec, x, n: int, start=None):
    """The statistic of each row of n scored values: the fold of ``x``'s
    columns, continued from ``start`` where given (see ``fold``), finished.  A
    new array."""
    _, op, finish = _splits()[spec.method]
    return finish(_fold(op, x, start), n)


# statistics of the normal scores z = Phi^-1(p), which the simulation draws
# directly
SCORE_STATISTICS = frozenset({Method.STOUFFER, Method.CHEN})


def evaluate_batch(spec: MethodSpec, pmatrix):
    """Evaluate the statistic over the last axis of a (..., n) array of
    p-values.  Input is assumed validated (used on sampler output)."""
    import numpy as np
    pmatrix = np.asarray(pmatrix, dtype=float)
    if pmatrix.shape[-1] < 1:
        raise DomainError("p-value vectors must be non-empty")
    if spec.method in SCORE_STATISTICS:
        pmatrix = normal_inv_cdf(pmatrix)
    return reduce(spec, score(spec, pmatrix), pmatrix.shape[-1])


def evaluate_statistic(spec: MethodSpec, p) -> float:
    """Evaluate one combined test statistic on a vector of p-values, each
    strictly inside (0, 1): values at exactly 0 or 1 are rejected, not
    clamped.  Computed in Python floats: numpy is not imported."""
    try:
        values = [float(v) for v in p] if getattr(p, "ndim", 1) == 1 else []
    except (TypeError, ValueError) as err:
        raise DomainError("p-value vector must be one-dimensional and numeric") from err
    if not values:
        raise DomainError("p-value vector must be one-dimensional and non-empty")
    if not all(0.0 < v < 1.0 for v in values):
        raise DomainError("every p-value must lie strictly inside (0, 1)")
    if spec.method in SCORE_STATISTICS:
        values = list(map(_probit(), values))
    f, op, finish = _FLOAT_ROWS[spec.method]
    return finish(functools.reduce(op, values if f is None else map(f, values)), len(values))
