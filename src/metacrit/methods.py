"""The ten classical combined test statistics for meta-analysis of p-values.

Every statistic is a pure, permutation-invariant function of a vector of
p-values lying strictly inside (0, 1).  Each method carries a default
rejection tail: the direction in which small individual p-values push the
statistic.

Each statistic is written once (``_rows``): an elementwise score, None for
the identity, and a row reduction, both against a namespace ``xp``.  On
arrays ``xp`` is numpy (``_splits``, built on first use: importing this
module loads no numpy), and a reduction folds a row's parts, (..., k) arrays
whose columns in turn make it up: one ufunc call per column, left to right,
into a single accumulator.  A row's value is thus the same however it is
split into parts or blocks of rows, though for rows of eight or more values
not always the same in the last bits as numpy's ``np.sum``.

``evaluate_statistic`` reads the same rows with ``math`` for ``xp``, each
Python float a one-value part, and imports no numpy: it gives the bits of
``evaluate_batch``, or for Fisher, gm, min-gm and mg, whose numpy logs and
exp may differ from libm's in the last bit, agrees to 1e-13 relative.
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
    "evaluate_statistic",
    "evaluate_batch",
    "score",
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


# ``xp`` for one vector of Python floats: each value a one-value part, folded
# left to right as the arrays' columns are (the builtin sum compensates from 3.12)
_FLOATS = types.SimpleNamespace(
    log=math.log, log1p=math.log1p, exp=math.exp, minimum=min, maximum=max,
    fold=lambda parts, op=operator.add: functools.reduce(op, parts))


def _rows(xp) -> dict:
    # method -> (score of the drawn values: p, or z = Phi^-1(p) for Stouffer
    # and Chen, with None for the identity; reduction of the rows ``parts``
    # make up), written once against ``xp``: numpy (``_splits``) or ``_FLOATS``
    def gm(logs, n):
        # the geometric mean from the parts' logs: no underflow for any practical n
        return xp.exp(xp.fold(logs) / n)

    return {
        Method.TIPPETT: (None, lambda parts, n: xp.fold(parts, xp.minimum)),
        Method.FISHER: (xp.log, lambda parts, n: -2.0 * xp.fold(parts)),
        Method.GEOMETRIC_MEAN: (xp.log, gm),
        Method.MIN_GEOMETRIC_MEANS: (None, lambda parts, n:
                                     xp.minimum(gm([xp.log(p) for p in parts], n),
                                                gm([xp.log(1.0 - p) for p in parts], n))),
        Method.STOUFFER: (None, lambda parts, n: xp.fold(parts) / math.sqrt(n)),
        Method.WILKINSON: (None, lambda parts, n: xp.fold(parts, xp.maximum)),
        Method.EDGINGTON: (None, lambda parts, n: xp.fold(parts) / n),
        Method.MUDHOLKAR_GEORGE: (lambda p: xp.log1p(-p) - xp.log(p),
                                  lambda parts, n: xp.fold(parts)),
        Method.WILSON_HARMONIC: (lambda p: 1.0 / p, lambda parts, n: n / xp.fold(parts)),
        Method.CHEN: (lambda z: z * z, lambda parts, n: xp.fold(parts)),
    }


_FLOAT_ROWS = _rows(_FLOATS)


@functools.cache
def _splits() -> dict:
    # the rows on arrays: a part is a (..., k) array, and the fold writes the
    # columns left to right, op(op(c0, c1), c2)..., into one accumulator of
    # the row shape in place, with no joined matrix
    import numpy as np

    def fold(parts, op=np.add):
        columns = (part[..., j] for part in parts for j in range(part.shape[-1]))
        acc = np.array(next(columns))  # a copy: the fold writes into it
        for column in columns:
            op(acc, column, out=acc)
        return acc

    return _rows(types.SimpleNamespace(log=np.log, log1p=np.log1p, exp=np.exp, minimum=np.minimum,
                                       maximum=np.maximum, fold=fold))


def score(spec: MethodSpec, x):
    """The statistic's elementwise score of the drawn values ``x``, an array:
    a new array, or ``x`` itself where the score is the identity."""
    f = _splits()[spec.method][0]
    return x if f is None else f(x)


def reduce(spec: MethodSpec, parts):
    """The statistic of each row of scored values, given as ``parts``: a
    tuple of (..., k) arrays whose columns, in turn, make up each row."""
    return _splits()[spec.method][1](parts, sum(part.shape[-1] for part in parts))


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
    return reduce(spec, (score(spec, pmatrix),))


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
    f, reduction = _FLOAT_ROWS[spec.method]
    return reduction(values if f is None else list(map(f, values)), len(values))
