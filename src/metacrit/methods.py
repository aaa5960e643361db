"""The ten classical combined test statistics for meta-analysis of p-values.

Every statistic is a pure, permutation-invariant function of a vector of
p-values lying strictly inside (0, 1).  Each method carries a default
rejection tail: the direction in which small individual p-values push the
statistic.
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


def _stat_tippett(p):
    return np.min(p, axis=-1)


def _stat_fisher(p):
    return -2.0 * np.sum(np.log(p), axis=-1)


def _stat_gm(p):
    # product via sum of logs; no underflow for any practical n
    return np.exp(np.mean(np.log(p), axis=-1))


def _stat_min_gm(p):
    return np.minimum(_stat_gm(p), _stat_gm(1.0 - p))


def _stat_edgington(p):
    return np.mean(p, axis=-1)


def _stat_mg(p):
    return np.sum(np.log1p(-p) - np.log(p), axis=-1)


def _stat_harmonic(p):
    n = p.shape[-1]
    return n / np.sum(1.0 / p, axis=-1)


def _score_stouffer(z):
    return np.sum(z, axis=-1) / np.sqrt(z.shape[-1])


def _score_chen(z):
    return np.sum(z * z, axis=-1)


_STATS = {
    Method.TIPPETT: _stat_tippett,
    Method.FISHER: _stat_fisher,
    Method.GEOMETRIC_MEAN: _stat_gm,
    Method.MIN_GEOMETRIC_MEANS: _stat_min_gm,
    Method.EDGINGTON: _stat_edgington,
    Method.MUDHOLKAR_GEORGE: _stat_mg,
    Method.WILSON_HARMONIC: _stat_harmonic,
}

# statistics of the normal scores z = Phi^-1(p), which the simulation draws
# directly
SCORE_STATISTICS = {
    Method.STOUFFER: _score_stouffer,
    Method.CHEN: _score_chen,
}


def evaluate_batch(spec: MethodSpec, pmatrix: np.ndarray) -> np.ndarray:
    """Evaluate the statistic over the last axis of a (..., n) array of
    p-values.  Input is assumed validated (used on sampler output)."""
    pmatrix = np.asarray(pmatrix, dtype=float)
    n = pmatrix.shape[-1]
    if n < 1:
        raise DomainError("p-value vectors must be non-empty")
    if spec.method is Method.WILKINSON:
        k = spec.resolve_k(n)
        return np.sort(pmatrix, axis=-1)[..., k - 1]
    if spec.method in SCORE_STATISTICS:
        return SCORE_STATISTICS[spec.method](normal_inv_cdf(pmatrix))
    return _STATS[spec.method](pmatrix)


def evaluate_statistic(spec: MethodSpec, p) -> float:
    """Evaluate one combined test statistic on a vector of p-values."""
    arr = validate_pvector(p)
    return float(evaluate_batch(spec, arr))
