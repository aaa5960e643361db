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
sequence is a pure function of those two integers whichever process draws
it: the replica is the unit of parallel work.  Cell (n, n_f) reads the first
N(n + n_f) values, so a table draws each replica's stream once at any worker
count and each cell reads its own prefix: what a stream of its own gives.

Every statistic is an elementwise score, a left-to-right fold of a row's
scores and a finish (see ``methods``).  A table therefore scores its prefix
once as well: the fake pairs' minima, then every value that some cell reads
as genuine, a block at a time, each block's scores written back over it
(min-gm's two logs straight into the channels of one new complex buffer for
the values read); an identity score (Tippett, Stouffer, Wilkinson,
Edgington) leaves the prefix as drawn.  Every cell with n_f fakes reads the
same first N·n_f pair minima, first in each row, so each fake count's
columns are folded once, into a head, and each cell continues that fold
over its genuine (N, n - n_f) view, sliced straight from the scored prefix,
with no joined matrix.
A score depends on nothing but its element, and the fold takes a row's
columns left to right whatever views hold them, so each statistic is bit
for bit the one a cell of its own computes.
"""

from __future__ import annotations

import collections

from .methods import SCORE_STATISTICS, MethodSpec, check_cell, fold, reduce, score
from .special import DomainError, check_levels

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_Q_LEVELS",
    "check_counts",
    "check_seed",
    "parse_seed",
    "SimConfig",
    "replica_stream",
    "sample_pmatrix",
    "sample_cells",
]

DEFAULT_SEED = 20240101
DEFAULT_Q_LEVELS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.9, 0.95, 0.975, 0.99, 0.995)
DEFAULT_N_SAMPLES = 4999
DEFAULT_N_REPLICAS = 50
_BLOCK = 16384  # values scored at a time: a score's temporaries hold up to three floats a value


def check_counts(**counts):
    """The one rule for the counts N and R, by name: each >= 1, else DomainError."""
    for name, count in counts.items():
        if count < 1:
            raise DomainError(f"need {name} >= 1; got {name}={count}")


def check_seed(seed: int):
    """The one rule for a master seed: nonnegative; raises DomainError."""
    if seed < 0:
        raise DomainError("seed must be nonnegative")


def parse_seed(text: str) -> int:
    """The one syntax for a seed: decimal, a leading 0 included, or 0x-hex (no
    0b or 0o); raises DomainError."""
    try:
        return int(text, 16 if "0x" in text.lower() else 10)
    except ValueError:
        raise DomainError(f"seed {text!r} is not a decimal or 0x-hex integer") from None


class SimConfig(collections.namedtuple("SimConfig", "n n_f N R seed q_list")):
    """Descriptor of one simulation experiment.

    n        sample size (number of p-values combined)
    n_f      how many of the n are fake, 0 <= n_f <= n
    N        statistic draws per replica
    R        replicas
    seed     master seed: any nonnegative integer, of any size; the same
             seed always gives the same streams
    q_list   quantile levels, strictly increasing inside (0, 1)
    """

    __slots__ = ()

    def __new__(cls, n: int, n_f: int, N: int = DEFAULT_N_SAMPLES, R: int = DEFAULT_N_REPLICAS,
                seed: int = DEFAULT_SEED, q_list: tuple = DEFAULT_Q_LEVELS):
        check_cell(n, n_f)
        check_counts(N=N, R=R)
        check_seed(seed)
        qs = tuple(float(q) for q in q_list)
        check_levels(*qs)
        return tuple.__new__(cls, (n, n_f, N, R, seed, qs))


def replica_stream(seed: int, replica_index: int):
    """Deterministic substream for one replica, a numpy ``Generator``.

    Identical (seed, replica_index) always yields the identical sequence,
    independent of thread or process scheduling.
    """
    check_seed(seed)
    if replica_index < 0:
        raise DomainError("replica index must be nonnegative")
    import numpy as np  # loaded by the first simulation, not on import
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(replica_index)))))


def _draw(stream, size: int, scores: bool):
    """``size`` base draws in stream order: standard normal scores, or
    uniforms strictly inside (0, 1)."""
    try:
        x = stream.standard_normal(size) if scores else stream.random(size)
    except (MemoryError, ValueError) as err:
        # numpy refuses an impossible size with "array is too big" before
        # allocating anything; both mean the request cannot be met
        raise MemoryError(f"cannot allocate {size} draws: {err}") from err
    # random() is k * 2**-53: a 0.0 would break the log statistics, so it takes
    # 2**-54, the middle of the [0, 2**-53) it stands for (a redraw shifts the stream)
    if not (scores or x.min() > 0.0):
        x[x == 0.0] = 2.0 ** -54
    return x


def _prefix(cells, N: int, stream, scores: bool):
    """Check the (n, n_f) cells, draw the longest stream prefix they read, and
    return it with the minima of its fake pairs, N·max n_f of them."""
    import numpy as np
    check_counts(N=N)
    for n, n_f in cells:
        check_cell(n, n_f)
    base = _draw(stream, N * max(n + n_f for n, n_f in cells), scores)
    pairs = base[:2 * N * max(n_f for _, n_f in cells)]
    return base, np.minimum(pairs[0::2], pairs[1::2])


def sample_pmatrix(n: int, n_f: int, N: int, stream):
    """N samples of n p-values as an (N, n) matrix: in each row the n_f
    fakes come first, then the n - n_f genuine values.

    Every statistic downstream is permutation invariant, so the placement
    is only a convention.
    """
    import numpy as np
    base, minima = _prefix([(n, n_f)], N, stream, scores=False)
    return np.concatenate([minima.reshape(N, n_f), base[2 * N * n_f:].reshape(N, n - n_f)], axis=1)


def _scored(spec: MethodSpec, values):
    """The scores of ``values``, written a block at a time over ``values``
    itself, or into one new buffer where the score changes the dtype (min-gm's
    are complex); an identity score leaves ``values`` as drawn."""
    import numpy as np
    dtype = score(spec, values[:0]).dtype
    out = values if dtype == values.dtype else np.empty(values.shape, dtype)
    for a in range(0, values.size, _BLOCK):
        score(spec, values[a:a + _BLOCK], out[a:a + _BLOCK])
    return out


def sample_cells(spec: MethodSpec, cells, N: int, stream):
    """Yield N values of the statistic for each (n, n_f) of ``cells`` in turn,
    all read from one draw of the stream, scored once.  Stouffer and Chen get
    their normal scores drawn directly in the ``sample_pmatrix`` layout: no
    probit runs.  Each yielded array is new: it shares no memory with the
    prefix or with another.  An empty list of cells draws and yields nothing."""
    if not cells:
        return
    base, minima = _prefix(cells, N, stream, scores=spec.method in SCORE_STATISTICS)
    # score each value some cell reads once: the pair minima, and the prefix
    # from 2N·min n_f on (no cell reads a genuine value before that); for one
    # cell that is exactly its N·n values.  In blocks, because temporaries as
    # large as the prefix would raise peak memory.
    start = 2 * N * min(n_f for _, n_f in cells)
    values, minima = _scored(spec, base[start:]), _scored(spec, minima)
    # each fake count's columns are folded once, into a head: every cell with
    # n_f fakes continues the fold from it over its genuine (N, n - n_f) view,
    # the values that follow its N·n_f pairs in the stream
    heads = {}
    for n, n_f in cells:
        if n_f and n_f not in heads:
            heads[n_f] = fold(spec, minima[:N * n_f].reshape(N, n_f))
        genuine = values[2 * N * n_f - start:N * (n + n_f) - start].reshape(N, n - n_f)
        yield reduce(spec, genuine, n, heads.get(n_f))
