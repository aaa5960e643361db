"""The ten classical combined test statistics for meta-analysis of p-values.

Every statistic is a pure, permutation-invariant function of a vector of
p-values lying strictly inside (0, 1).  Each method carries a default
rejection tail: the direction in which small individual p-values push the
statistic.

Each statistic is an elementwise score and a row reduction (``_SPLITS``).
A reduction reads a row as parts, (..., k) arrays whose columns in turn make
it up, and sums or minimises them with ``_fold``: one ufunc call per column,
left to right, into a single accumulator.  A row's value is thus the same
however it is split into parts or blocks of rows, though for rows of eight or
more values not always the same in the last bits as numpy's ``np.sum``.  For
one vector of n p-values that is n calls: O(n) Python overhead, about 7 ms
at n = 10 000.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .special import DomainError, normal_inv_cdf

__all__ = [
    "Method",
    "Tail",
    "MethodSpec",
    "RankError",
    "parse_method",
    "evaluate_statistic",
    "evaluate_batch",
    "score",
    "reduce",
    "SCORE_STATISTICS",
    "validate_pvector",
]


class RankError(ValueError):
    """Order-statistic rank outside 1..n."""


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
    """A combined test: method id, rejection tail, and (Wilkinson only) the
    order-statistic rank k.  ``k=None`` for Wilkinson means k = n at
    evaluation time, the tabulated maximum statistic."""

    method: Method
    tail: Tail = None  # type: ignore[assignment]
    k: int | None = None

    def __post_init__(self):
        if self.tail is None:
            object.__setattr__(self, "tail", DEFAULT_TAILS[self.method])
        if self.k is not None:
            if self.method is not Method.WILKINSON:
                raise RankError("rank k only applies to the Wilkinson method")
            if int(self.k) < 1:
                raise RankError("rank k must be a positive integer")
            object.__setattr__(self, "k", int(self.k))

    def resolve_k(self, n: int) -> int:
        k = n if self.k is None else self.k
        if not (1 <= k <= n):
            raise RankError(f"rank k={k} outside 1..{n}")
        return k


def validate_pvector(p) -> np.ndarray:
    """Return p as a float vector after checking every entry is strictly
    inside (0, 1).  Values at exactly 0 or 1 are rejected, not clamped."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError("p-value vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("every p-value must lie strictly inside (0, 1)")
    return arr


def _mg_score(p, out=None):
    logp = np.log(p)  # read before an in-place out overwrites p
    out = np.negative(p, out=out)
    np.log1p(out, out=out)
    return np.subtract(out, logp, out=out)


def _reciprocal(p, out=None):
    return np.divide(1.0, p, out=out)


def _square(z, out=None):
    return np.multiply(z, z, out=out)


def _fold(parts, op=np.add):
    """Combine the columns of ``parts``, (..., k) arrays whose columns in turn
    make up each row, left to right with the binary ufunc ``op``:
    op(op(c0, c1), c2)...  One accumulator of the row shape is written in
    place; no joined matrix is made."""
    columns = (part[..., j] for part in parts for j in range(part.shape[-1]))
    acc = np.array(next(columns))  # a copy: the fold writes into it
    for column in columns:
        op(acc, column, out=acc)
    return acc


def _gm(logs, n):
    # the geometric mean from the parts' logs: no underflow for any practical n
    return np.exp(_fold(logs) / n)


# Every statistic is an elementwise score of the drawn values (p, or the
# normal scores z = Phi^-1(p) for Stouffer and Chen) followed by a reduction
# of the rows that ``parts`` make up.  A score may write in place (out=x), so
# the simulation scores each value of a stream prefix once and every cell
# reduces two views of it: its fakes and its genuine values.
_SPLITS = {
    Method.TIPPETT: (np.positive, lambda parts, n, spec: _fold(parts, np.minimum)),
    Method.FISHER: (np.log, lambda parts, n, spec: -2.0 * _fold(parts)),
    Method.GEOMETRIC_MEAN: (np.log, lambda parts, n, spec: _gm(parts, n)),
    Method.MIN_GEOMETRIC_MEANS: (np.positive, lambda parts, n, spec:
                                 np.minimum(_gm([np.log(p) for p in parts], n),
                                            _gm([np.log(1.0 - p) for p in parts], n))),
    Method.STOUFFER: (np.positive, lambda parts, n, spec: _fold(parts) / np.sqrt(n)),
    # the order statistic needs the whole row
    Method.WILKINSON: (np.positive, lambda parts, n, spec:
                       np.sort(np.concatenate(parts, axis=-1))[..., spec.resolve_k(n) - 1]),
    Method.EDGINGTON: (np.positive, lambda parts, n, spec: _fold(parts) / n),
    Method.MUDHOLKAR_GEORGE: (_mg_score, lambda parts, n, spec: _fold(parts)),
    Method.WILSON_HARMONIC: (_reciprocal, lambda parts, n, spec: n / _fold(parts)),
    Method.CHEN: (_square, lambda parts, n, spec: _fold(parts)),
}


def score(spec: MethodSpec, x: np.ndarray, out=None) -> np.ndarray:
    """The statistic's elementwise score of the drawn values ``x``, written to
    ``out`` when given (``out=x`` scores in place)."""
    return _SPLITS[spec.method][0](x, out=out)


def reduce(spec: MethodSpec, parts) -> np.ndarray:
    """The statistic of each row of scored values, given as ``parts``: a
    tuple of (..., k) arrays whose columns, in turn, make up each row."""
    return _SPLITS[spec.method][1](parts, sum(part.shape[-1] for part in parts), spec)


# statistics of the normal scores z = Phi^-1(p), which the simulation draws
# directly
SCORE_STATISTICS = frozenset({Method.STOUFFER, Method.CHEN})


def evaluate_batch(spec: MethodSpec, pmatrix: np.ndarray) -> np.ndarray:
    """Evaluate the statistic over the last axis of a (..., n) array of
    p-values.  Input is assumed validated (used on sampler output)."""
    pmatrix = np.asarray(pmatrix, dtype=float)
    if pmatrix.shape[-1] < 1:
        raise DomainError("p-value vectors must be non-empty")
    if spec.method in SCORE_STATISTICS:
        pmatrix = normal_inv_cdf(pmatrix)
    return reduce(spec, (score(spec, pmatrix),))


def evaluate_statistic(spec: MethodSpec, p) -> float:
    """Evaluate one combined test statistic on a vector of p-values."""
    arr = validate_pvector(p)
    return float(evaluate_batch(spec, arr))
