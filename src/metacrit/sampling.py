"""Reproducible generation of mixed samples of genuine and fake p-values.

Genuine p-values are Uniform(0,1).  A fake p-value is the smaller of two
independent uniforms -- the report of a hidden repeated experiment -- and is
therefore Beta(1,2) distributed.  Fake draws consume exactly two base draws
each, mirroring that generative story.

Stouffer and Chen see p only through the normal scores Phi^-1(p), an
increasing map, so their simulations draw the scores directly in the same
layout: a genuine score is standard normal, a fake one the smaller of two.

Randomness comes from counter-based Philox streams keyed by
(seed, replica_index) through numpy's SeedSequence hash, so every replica's
sequence is a pure function of those two integers no matter how work is
scheduled across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .methods import SCORE_STATISTICS, MethodSpec, evaluate_batch
from .special import DomainError

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_Q_LEVELS",
    "SimConfig",
    "replica_stream",
    "sample_pmatrix",
    "sample_statistic",
]

DEFAULT_SEED = 20240101
DEFAULT_Q_LEVELS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.9, 0.95, 0.975, 0.99, 0.995)
DEFAULT_N_SAMPLES = 4999
DEFAULT_N_REPLICAS = 50


@dataclass(frozen=True)
class SimConfig:
    """Descriptor of one simulation experiment.

    n        sample size (number of p-values combined)
    n_f      how many of the n are fake, 0 <= n_f <= n
    N        statistic draws per replica
    R        replicas
    seed     64-bit master seed
    q_list   quantile levels, strictly increasing inside (0, 1)
    """

    n: int
    n_f: int
    N: int = DEFAULT_N_SAMPLES
    R: int = DEFAULT_N_REPLICAS
    seed: int = DEFAULT_SEED
    q_list: tuple = field(default=DEFAULT_Q_LEVELS)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("sample size n must be >= 1")
        if not (0 <= self.n_f <= self.n):
            raise DomainError("fake count n_f must satisfy 0 <= n_f <= n")
        if self.N < 1 or self.R < 1:
            raise DomainError("N and R must be >= 1")
        qs = tuple(float(q) for q in self.q_list)
        if len(qs) == 0:
            raise DomainError("q_list must be non-empty")
        if any(not (0.0 < q < 1.0) for q in qs):
            raise DomainError("quantile levels must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(qs, qs[1:])):
            raise DomainError("quantile levels must be strictly increasing")
        object.__setattr__(self, "q_list", qs)


def replica_stream(seed: int, replica_index: int) -> np.random.Generator:
    """Deterministic substream for one replica.

    Identical (seed, replica_index) always yields the identical sequence,
    independent of thread or process scheduling.
    """
    if seed < 0 or replica_index < 0:
        raise DomainError("seed and replica index must be nonnegative")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(replica_index)))))


def _draw(stream: np.random.Generator, shape, scores: bool) -> np.ndarray:
    """Base draws of one block: standard normal scores, or uniforms strictly
    inside (0, 1)."""
    try:
        x = stream.standard_normal(shape) if scores else stream.random(shape)
    except (MemoryError, ValueError) as err:
        # numpy refuses an impossible size with "array is too big" before
        # allocating anything; both mean the request cannot be met
        dims = " x ".join(map(str, shape))
        raise MemoryError(f"cannot allocate {dims} draws: {err}") from err
    if scores:
        return x
    # numpy's random() lives in [0, 1); an exact 0.0 is a probability-zero
    # event that would break the log-based statistics, so redraw it.
    while True:
        bad = (x <= 0.0) | (x >= 1.0)
        if not bad.any():
            return x
        x[bad] = stream.random(int(bad.sum()))


def _sample(n: int, n_f: int, N: int, stream: np.random.Generator, scores: bool) -> np.ndarray:
    if n < 1:
        raise DomainError("sample size n must be >= 1")
    if not (0 <= n_f <= n):
        raise DomainError("fake count n_f must satisfy 0 <= n_f <= n")
    if N < 1:
        raise DomainError("N must be >= 1")
    parts = []
    if n_f:
        pairs = _draw(stream, (N, n_f, 2), scores)
        parts.append(np.minimum(pairs[..., 0], pairs[..., 1]))
    if n - n_f:
        parts.append(_draw(stream, (N, n - n_f), scores))
    return np.concatenate(parts, axis=1)


def sample_pmatrix(n: int, n_f: int, N: int, stream: np.random.Generator) -> np.ndarray:
    """N samples of n p-values as an (N, n) matrix: in each row the n_f
    fakes come first, then the n - n_f genuine values.

    Every statistic downstream is permutation invariant, so the placement
    is only a convention.
    """
    return _sample(n, n_f, N, stream, scores=False)


def sample_statistic(spec: MethodSpec, n: int, n_f: int, N: int,
                     stream: np.random.Generator) -> np.ndarray:
    """N simulated values of the statistic for n p-values, n_f of them fake.
    Score statistics (Stouffer, Chen) get their scores drawn directly in the
    ``sample_pmatrix`` layout, so no probit runs."""
    score = SCORE_STATISTICS.get(spec.method)
    if score is None:
        return evaluate_batch(spec, sample_pmatrix(n, n_f, N, stream))
    return score(_sample(n, n_f, N, stream, scores=True))
