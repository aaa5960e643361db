"""The ten classical combined test statistics for meta-analysis of p-values.

Every statistic is a pure, permutation-invariant function of a vector of
p-values lying strictly inside (0, 1).  Each method carries a default
rejection tail: the direction in which small individual p-values push the
statistic.

On arrays each statistic is an elementwise score and a row reduction
(``_splits``, a table built on first use: importing this module loads no
numpy).  A reduction reads a row as parts, (..., k) arrays whose columns in
turn make it up, and folds them: one ufunc call per column, left to right,
into a single accumulator.  A row's value is thus the same however it is
split into parts or blocks of rows, though for rows of eight or more values
not always the same in the last bits as numpy's ``np.sum``.

``evaluate_statistic`` folds one vector of Python floats in the same order
with ``math`` scores (``_SCALAR``), and imports no numpy: it gives the bits
of ``evaluate_batch``, or for Fisher, gm, min-gm and mg, whose numpy logs and
exp may differ from libm's in the last bit, agrees to 1e-13 relative.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass

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


@dataclass(frozen=True)
class MethodSpec:
    """A combined test: method id and rejection tail (the method's default
    tail when omitted)."""

    method: Method
    tail: Tail = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.tail is None:
            object.__setattr__(self, "tail", DEFAULT_TAILS[self.method])


@functools.cache
def _splits() -> dict:
    # method -> (score of the drawn values: p, or z = Phi^-1(p) for Stouffer
    # and Chen; reduction of the rows ``parts`` make up).  A score may write in
    # place (out=x), so the simulation scores each value of a stream prefix
    # once and every cell reduces two views of it: its fakes and its genuine values
    import numpy as np

    def mg_score(p, out=None):
        logp = np.log(p)  # read before an in-place out overwrites p
        out = np.negative(p, out=out)
        np.log1p(out, out=out)
        return np.subtract(out, logp, out=out)

    def fold(parts, op=np.add):
        # the columns of ``parts`` left to right, op(op(c0, c1), c2)..., into one
        # accumulator of the row shape written in place: no joined matrix
        columns = (part[..., j] for part in parts for j in range(part.shape[-1]))
        acc = np.array(next(columns))  # a copy: the fold writes into it
        for column in columns:
            op(acc, column, out=acc)
        return acc

    def gm(logs, n):
        # the geometric mean from the parts' logs: no underflow for any practical n
        return np.exp(fold(logs) / n)

    return {
        Method.TIPPETT: (np.positive, lambda parts, n: fold(parts, np.minimum)),
        Method.FISHER: (np.log, lambda parts, n: -2.0 * fold(parts)),
        Method.GEOMETRIC_MEAN: (np.log, gm),
        Method.MIN_GEOMETRIC_MEANS: (np.positive, lambda parts, n:
                                     np.minimum(gm([np.log(p) for p in parts], n),
                                                gm([np.log(1.0 - p) for p in parts], n))),
        Method.STOUFFER: (np.positive, lambda parts, n: fold(parts) / np.sqrt(n)),
        Method.WILKINSON: (np.positive, lambda parts, n: fold(parts, np.maximum)),
        Method.EDGINGTON: (np.positive, lambda parts, n: fold(parts) / n),
        Method.MUDHOLKAR_GEORGE: (mg_score, lambda parts, n: fold(parts)),
        Method.WILSON_HARMONIC: (lambda p, out=None: np.divide(1.0, p, out=out),
                                 lambda parts, n: n / fold(parts)),
        Method.CHEN: (lambda z, out=None: np.multiply(z, z, out=out), lambda parts, n: fold(parts)),
    }


def score(spec: MethodSpec, x, out=None):
    """The statistic's elementwise score of the drawn values ``x``, an array,
    written to ``out`` when given (``out=x`` scores in place)."""
    return _splits()[spec.method][0](x, out=out)


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


def _sum(values):
    # left to right as ``fold`` adds columns: the builtin sum compensates from 3.12
    return functools.reduce(operator.add, values)


def _gm(logs, n):
    return math.exp(_sum(logs) / n)


# each statistic of one vector of Python floats (its normal scores for
# Stouffer and Chen) and its length n
_SCALAR = {
    Method.TIPPETT: lambda p, n: min(p),
    Method.FISHER: lambda p, n: -2.0 * _sum(map(math.log, p)),
    Method.GEOMETRIC_MEAN: lambda p, n: _gm(map(math.log, p), n),
    Method.MIN_GEOMETRIC_MEANS: lambda p, n: min(_gm(map(math.log, p), n),
                                                 _gm([math.log(1.0 - v) for v in p], n)),
    Method.STOUFFER: lambda z, n: _sum(z) / math.sqrt(n),
    Method.WILKINSON: lambda p, n: max(p),
    Method.EDGINGTON: lambda p, n: _sum(p) / n,
    Method.MUDHOLKAR_GEORGE: lambda p, n: _sum([math.log1p(-v) - math.log(v) for v in p]),
    Method.WILSON_HARMONIC: lambda p, n: n / _sum([1.0 / v for v in p]),
    Method.CHEN: lambda z, n: _sum([v * v for v in z]),
}


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
    return _SCALAR[spec.method](values, len(values))
