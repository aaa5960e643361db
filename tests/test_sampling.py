"""Sampler: distributional checks on large draws, determinism, substream
behavior, and config validation."""

import math

import numpy as np
import pytest

import metacrit.sampling as sampling
from metacrit.estimation import simulate_cells
from metacrit.methods import (SCORE_STATISTICS, Method, MethodSpec, evaluate_batch, reduce,
                              score)
from metacrit.sampling import SimConfig, replica_stream, sample_cells, sample_pmatrix
from metacrit.special import DomainError


class TestGenuine:
    def test_mean(self):
        stream = replica_stream(1, 0)
        draws = sample_pmatrix(1, 0, 1_000_000, stream).ravel()
        assert draws.mean() == pytest.approx(0.5, abs=0.002)

    def test_cdf_quarter(self):
        stream = replica_stream(2, 0)
        draws = sample_pmatrix(1, 0, 1_000_000, stream).ravel()
        assert (draws <= 0.25).mean() == pytest.approx(0.25, abs=0.0015)

    def test_determinism(self):
        a = sample_pmatrix(4, 1, 50, replica_stream(1, 0))
        b = sample_pmatrix(4, 1, 50, replica_stream(1, 0))
        assert np.array_equal(a, b)

    def test_open_interval(self):
        stream = replica_stream(3, 0)
        draws = sample_pmatrix(5, 2, 20_000, stream)
        assert np.all(draws > 0.0) and np.all(draws < 1.0)


class TestFake:
    def test_mean_is_one_third(self):
        stream = replica_stream(4, 0)
        draws = sample_pmatrix(1, 1, 1_000_000, stream).ravel()
        assert draws.mean() == pytest.approx(1.0 / 3.0, abs=0.001)

    def test_cdf_points(self):
        # Beta(1,2): F(x) = 1 - (1-x)^2
        stream = replica_stream(5, 0)
        draws = sample_pmatrix(1, 1, 1_000_000, stream).ravel()
        assert (draws <= 0.5).mean() == pytest.approx(0.75, abs=0.0015)
        assert (draws <= 0.1).mean() == pytest.approx(0.19, abs=0.0013)


class TestZeroDraw:
    def test_zero_becomes_half_ulp_in_place(self):
        # numpy's random() can return an exact 0.0; it is replaced where it
        # stands, so no later value of the stream moves
        class ZeroStream:
            def random(self, size):
                return np.array([0.0, 0.25, 0.0, 0.75])[:size]

        drawn = sampling._draw(ZeroStream(), 4, scores=False)
        assert drawn.tolist() == [2.0 ** -54, 0.25, 2.0 ** -54, 0.75]


class TestFakeScores:
    def test_skew_normal_moments(self):
        # min(Z1, Z2) is skew-normal with alpha = -1: mean -1/sqrt(pi),
        # variance 1 - 1/pi; Stouffer at n = n_f = 1 is the score itself
        N = 200_000
        z = next(sample_cells(MethodSpec(Method.STOUFFER), [(1, 1)], N, replica_stream(6, 0)))
        mean, var = z.mean(), z.var()
        assert abs(mean + 1 / math.sqrt(math.pi)) < 4 * math.sqrt(var / N)
        se_var = math.sqrt(np.var((z - mean) ** 2) / N)
        assert abs(var - (1 - 1 / math.pi)) < 4 * se_var


class TestPvector:
    def test_rejects_bad_counts(self):
        stream = replica_stream(8, 0)
        with pytest.raises(DomainError):
            sample_pmatrix(3, 4, 10, stream)
        with pytest.raises(DomainError):
            sample_pmatrix(3, 1, 0, stream)

    def test_matrix_shape(self):
        stream = replica_stream(9, 0)
        m = sample_pmatrix(5, 2, 100, stream)
        assert m.shape == (100, 5)


class TestStreams:
    def test_replica_streams_differ(self):
        a = replica_stream(1, 0).random(1000)
        b = replica_stream(1, 1).random(1000)
        assert not np.array_equal(a, b)

    def test_substream_correlation(self):
        a = replica_stream(123, 0).random(100_000)
        b = replica_stream(123, 1).random(100_000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_stream_is_scheduling_independent(self):
        # creating other streams in between must not affect a stream's output
        s1 = replica_stream(5, 2)
        _ = replica_stream(5, 3).random(998)
        s2 = replica_stream(5, 2)
        assert np.array_equal(s1.random(100), s2.random(100))

    @pytest.mark.parametrize("n, n_f", [(5, 2), (4, 4), (3, 0)])
    def test_pmatrix_stream_layout_pinned(self, n, n_f):
        # fakes take (N, n_f, 2) uniforms reduced pairwise, then the genuine
        # (N, n - n_f) block; a change here changes every simulated table
        N = 4999
        drawn = sample_pmatrix(n, n_f, N, replica_stream(17, 3))
        twin = replica_stream(17, 3)
        fakes = twin.random((N, n_f, 2)).min(axis=2)
        genuine = twin.random((N, n - n_f))
        assert np.array_equal(drawn, np.concatenate([fakes, genuine], axis=1))

    @pytest.mark.parametrize("n, n_f", [(5, 2), (4, 4), (3, 0)])
    def test_score_stream_layout_pinned(self, n, n_f):
        # Stouffer and Chen draw normal scores in the pmatrix layout: fakes as
        # (N, n_f, 2) normals reduced pairwise, then the genuine (N, n - n_f)
        N = 4999
        twin = replica_stream(17, 3)
        fakes = twin.standard_normal((N, n_f, 2)).min(axis=2)
        z = np.concatenate([fakes, twin.standard_normal((N, n - n_f))], axis=1)
        expected = {Method.STOUFFER: np.sum(z, axis=-1) / np.sqrt(n),
                    Method.CHEN: np.sum(z * z, axis=-1)}
        for method, want in expected.items():
            drawn = next(sample_cells(MethodSpec(method), [(n, n_f)], N, replica_stream(17, 3)))
            assert np.array_equal(drawn, want)

    @pytest.mark.parametrize("method", list(Method))
    def test_row_blocks_equal_whole_matrix(self, method):
        # (26, 8) at N = 4999 is scored in blocks and its genuine view folded
        # on from the fakes' head; the statistic of the joined matrix at
        # once must agree float for float
        n, n_f, N = 26, 8, 4999
        spec = MethodSpec(method)
        drawn = next(sample_cells(spec, [(n, n_f)], N, replica_stream(17, 3)))
        twin = replica_stream(17, 3)
        if method in SCORE_STATISTICS:
            fakes = twin.standard_normal((N, n_f, 2)).min(axis=2)
            z = np.concatenate([fakes, twin.standard_normal((N, n - n_f))], axis=1)
            whole = reduce(spec, score(spec, z), n)
        else:
            whole = evaluate_batch(spec, sample_pmatrix(n, n_f, N, twin))
        assert np.array_equal(drawn, whole)

    @pytest.mark.parametrize("method", [Method.MUDHOLKAR_GEORGE, Method.CHEN, Method.TIPPETT])
    def test_each_value_scored_once_per_replica(self, method, monkeypatch):
        # the pair minima of the longest fake region, then the prefix from the
        # first value any cell reads as genuine; a lone cell scores its N·n values
        seen = []

        def counting_score(spec, x, out=None):
            seen.append(x.size)
            return score(spec, x, out)

        monkeypatch.setattr(sampling, "score", counting_score)
        spec, N, R = MethodSpec(method), 199, 2
        cells = [(n, n_f) for n in range(3, 10) for n_f in range(min(n, 3) + 1)]
        simulate_cells(spec, [SimConfig(n, n_f, N=N, R=R) for n, n_f in cells])
        max_nf, min_nf = max(f for _, f in cells), min(f for _, f in cells)
        per_replica = N * max_nf + N * max(n + f for n, f in cells) - 2 * N * min_nf
        assert sum(seen) == R * per_replica
        for n, n_f in [(9, 3), (5, 0), (4, 4)]:
            seen.clear()
            simulate_cells(spec, [SimConfig(n, n_f, N=N, R=R)])
            assert sum(seen) == R * N * n

    @pytest.mark.parametrize("method", [Method.TIPPETT, Method.MUDHOLKAR_GEORGE])
    def test_identity_score_leaves_the_prefix_unwritten(self, method, monkeypatch):
        # Tippett scores by the identity, so its drawn prefix is read, never
        # written: a read-only draw gives the statistic of a writable one,
        # while a method with a score must write its scores back
        draw = sampling._draw

        def read_only_draw(stream, size, scores):
            drawn = draw(stream, size, scores)
            drawn.flags.writeable = False
            return drawn

        spec, cells, N = MethodSpec(method), [(5, 2), (3, 0), (4, 4)], 999
        want = list(sample_cells(spec, cells, N, replica_stream(17, 3)))
        monkeypatch.setattr(sampling, "_draw", read_only_draw)
        if method is Method.TIPPETT:
            got = list(sample_cells(spec, cells, N, replica_stream(17, 3)))
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        else:
            with pytest.raises(ValueError, match="read-only"):
                list(sample_cells(spec, cells, N, replica_stream(17, 3)))

    # cells that repeat a fake count, n = n_f and n = 1 cells, and n_f = 0 cells
    SHARED = [(1, 0), (1, 1), (3, 0), (5, 2), (7, 2), (8, 3), (12, 4), (26, 8)]

    @pytest.mark.parametrize("method", list(Method))
    def test_cells_sharing_fakes_equal_cells_alone(self, method):
        # cells with the same n_f continue one fold of their fakes, the head;
        # each is sorted in place as it comes, as run_replica does, so a cell
        # that wrote into a head, or was one, would change a later cell's bits
        spec, N = MethodSpec(method), 999
        got = []
        for stats in sample_cells(spec, self.SHARED, N, replica_stream(17, 3)):
            got.append((stats.dtype, stats.shape, stats.tobytes()))
            stats.sort()
        for cell, bits in zip(self.SHARED, got, strict=True):
            alone = next(sample_cells(spec, [cell], N, replica_stream(17, 3)))
            assert (alone.dtype, alone.shape, alone.tobytes()) == bits, cell

    @pytest.mark.parametrize("method", list(Method))
    def test_yielded_arrays_share_no_memory(self, method, monkeypatch):
        # the precondition of run_replica's in-place sort: no yielded array
        # shares memory with another, with the drawn prefix or its pair
        # minima, or with the scores made of them, n = 1 cells (a one-column
        # fold) included
        held = []

        def keep(f):
            def kept(*args, **kwargs):
                out = f(*args, **kwargs)
                held.extend(out if isinstance(out, tuple) else (out,))
                return out
            return kept

        monkeypatch.setattr(sampling, "_prefix", keep(sampling._prefix))
        monkeypatch.setattr(sampling, "_scored", keep(sampling._scored))
        yielded = list(sample_cells(MethodSpec(method), self.SHARED, 999, replica_stream(17, 3)))
        assert len(yielded) == len(self.SHARED) and len(held) == 4
        for i, stats in enumerate(yielded):
            for other in held + yielded[:i]:
                assert not np.shares_memory(stats, other), self.SHARED[i]

    def test_no_cells_draw_nothing(self):
        stream = replica_stream(17, 3)
        assert list(sampling.sample_cells(MethodSpec(Method.CHEN), [], 4999, stream)) == []
        assert np.array_equal(stream.random(5), replica_stream(17, 3).random(5))

    def test_rejects_negative_keys(self):
        with pytest.raises(DomainError):
            replica_stream(-1, 0)
        with pytest.raises(DomainError):
            replica_stream(0, -2)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(n=3, n_f=0)
        assert cfg.N == 4999
        assert cfg.R == 50
        assert cfg.seed == 20240101
        assert cfg.q_list == (0.005, 0.01, 0.025, 0.05, 0.1, 0.9, 0.95, 0.975, 0.99, 0.995)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=0, n_f=0),
            dict(n=3, n_f=4),
            dict(n=3, n_f=-1),
            dict(n=3, n_f=0, N=0),
            dict(n=3, n_f=0, R=0),
            dict(n=3, n_f=0, q_list=(0.5, 0.5)),
            dict(n=3, n_f=0, q_list=(0.9, 0.1)),
            dict(n=3, n_f=0, q_list=(0.0, 0.5)),
            dict(n=3, n_f=0, q_list=()),
            dict(n=3, n_f=0, seed=-1),
        ],
    )
    def test_rejects_bad_configs(self, kw):
        with pytest.raises(DomainError):
            SimConfig(**kw)
