"""Order-statistic quantile estimator, replica aggregation, and the CLT
confidence interval."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from metacrit import estimation
from metacrit.estimation import (
    QuantileEstimate,
    aggregate,
    confidence_interval,
    quantile_index,
    run_replica,
    simulate_cells,
    simulate_quantiles,
)
from metacrit.exact import exact_quantile
from metacrit.methods import Method, MethodSpec
from metacrit.sampling import DEFAULT_Q_LEVELS, SimConfig, replica_stream
from metacrit.special import DomainError
from metacrit.tables import default_grid


class TestQuantileIndex:
    def test_default_levels_at_standard_size(self):
        idx = [quantile_index(4999, q) for q in DEFAULT_Q_LEVELS]
        assert idx == [25, 50, 125, 250, 500, 4500, 4750, 4875, 4950, 4975]

    def test_clamping(self):
        assert quantile_index(10, 0.001) == 1
        assert quantile_index(10, 0.9999) == 10

    def test_median_of_nine(self):
        assert quantile_index(9, 0.5) == 5


class TestAggregate:
    def test_hand_computed_triple(self):
        est = aggregate([1.0, 1.2, 1.4], 0.5)
        assert est.estimate == pytest.approx(1.2, abs=1e-15)
        assert est.stderr == pytest.approx(0.115470054, abs=1e-9)

    def test_constant_replicas(self):
        est = aggregate([2.5] * 7, 0.9)
        assert est.estimate == 2.5
        assert est.stderr == 0.0

    def test_two_replicas(self):
        est = aggregate([0.0, 1.0], 0.5)
        assert est.estimate == 0.5
        assert est.stderr == pytest.approx(0.5, abs=1e-15)

    def test_single_replica_has_no_stderr(self):
        est = aggregate([3.0], 0.5)
        assert est.estimate == 3.0
        assert est.stderr is None
        assert est.replicas == 1

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=50)
        a = aggregate(vals, 0.5)
        b = aggregate(rng.permutation(vals), 0.5)
        assert a.estimate == pytest.approx(b.estimate, abs=1e-14)
        assert a.stderr == pytest.approx(b.stderr, abs=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            aggregate([], 0.5)

    @pytest.mark.parametrize("R", [2, 7, 8, 50])
    def test_textbook_bits(self, R):
        # the bits of vals.mean() and np.sum((vals - mean) ** 2), for a
        # contiguous vector and for a strided column of an (R, L) array, the
        # view simulate_cells passes; neither input is written
        rows = np.random.default_rng(R).normal(3.0, 0.01, size=(R, 10))
        for vals in (rows[:, 0].copy(), rows[:, 7]):
            before = vals.copy()
            est = aggregate(vals, 0.5)
            mean = vals.mean()
            assert est.estimate == mean
            assert est.stderr == math.sqrt(np.sum((vals - mean) ** 2) / (R * (R - 1)))
            assert np.array_equal(vals, before)


class TestConfidenceInterval:
    def test_reference_interval(self):
        est = QuantileEstimate(q=0.5, estimate=1.2, stderr=0.11547, replicas=3)
        lo, hi = confidence_interval(est, 0.05)
        assert lo == pytest.approx(0.97368, abs=5e-5)
        assert hi == pytest.approx(1.42632, abs=5e-5)

    def test_unit_stderr(self):
        est = QuantileEstimate(q=0.5, estimate=0.0, stderr=1.0, replicas=10)
        lo, hi = confidence_interval(est, 0.05)
        assert hi == pytest.approx(1.95996, abs=1e-5)
        assert lo == pytest.approx(-hi, abs=1e-12)

    def test_degenerate_for_exact(self):
        est = QuantileEstimate(q=0.5, estimate=7.0, stderr=None, replicas=0, provenance="exact")
        assert confidence_interval(est, 0.05) == (7.0, 7.0)

    def test_symmetric_and_contains_estimate(self):
        est = QuantileEstimate(q=0.5, estimate=2.0, stderr=0.3, replicas=8)
        lo, hi = confidence_interval(est, 0.1)
        assert lo < est.estimate < hi
        assert hi - est.estimate == pytest.approx(est.estimate - lo, abs=1e-12)


class TestRunReplica:
    def test_degenerate_single_draw(self):
        spec = MethodSpec(Method.TIPPETT)
        cfg = SimConfig(n=1, n_f=0, N=1, R=1, seed=99, q_list=(0.5,))
        [vals] = run_replica(spec, [cfg], 0)
        expected = replica_stream(99, 0).random(1)[0]
        assert vals[0] == expected

    def test_edgington_median_of_two(self):
        # mean of two uniforms has median 1/2
        spec = MethodSpec(Method.EDGINGTON)
        cfg = SimConfig(n=2, n_f=0, N=4999, R=1, seed=11, q_list=(0.5,))
        assert run_replica(spec, [cfg], 0)[0][0] == pytest.approx(0.5, abs=0.02)

    def test_fisher_upper_quantile(self):
        spec = MethodSpec(Method.FISHER)
        cfg = SimConfig(n=3, n_f=0, N=4999, R=1, seed=123, q_list=(0.95,))
        assert run_replica(spec, [cfg], 0)[0][0] == pytest.approx(12.59, abs=0.35)

    def test_estimates_nondecreasing_in_q(self):
        spec = MethodSpec(Method.FISHER)
        cfg = SimConfig(n=5, n_f=2, N=999, R=1, seed=7)
        [vals] = run_replica(spec, [cfg], 0)
        assert np.all(np.diff(vals) >= 0)

    def test_ranks_are_one_read_only_index(self):
        # every replica of a cell reads its order statistics through one
        # cached index array, which no caller can write
        ranks = estimation._ranks(4999, DEFAULT_Q_LEVELS)
        assert ranks.dtype == np.intp
        assert ranks.tolist() == [24, 49, 124, 249, 499, 4499, 4749, 4874, 4949, 4974]
        assert estimation._ranks(4999, DEFAULT_Q_LEVELS) is ranks
        with pytest.raises(ValueError, match="read-only"):
            ranks[0] = 0

    def test_replica_index_bounds(self):
        spec = MethodSpec(Method.FISHER)
        cfg = SimConfig(n=3, n_f=0, N=10, R=2, seed=1)
        with pytest.raises(DomainError):
            run_replica(spec, [cfg], 2)


class TestSimulateQuantiles:
    def test_tippett_against_exact_law(self):
        spec = MethodSpec(Method.TIPPETT)
        cfg = SimConfig(n=4, n_f=1, N=4999, R=50, seed=314159)
        estimates = simulate_quantiles(spec, cfg)
        for est in estimates:
            exact = exact_quantile(spec, 4, 1, est.q)
            assert abs(est.estimate - exact) <= 3 * est.stderr

    @pytest.mark.parametrize("other", [dict(N=501), dict(R=3), dict(seed=7)])
    def test_cells_must_share_one_stream(self, other):
        # cells read prefixes of the same replica streams, so N, R and seed agree
        spec = MethodSpec(Method.WILSON_HARMONIC)
        base = dict(N=500, R=4, seed=2024)
        cfgs = [SimConfig(n=3, n_f=1, **base), SimConfig(n=4, n_f=0, **{**base, **other})]
        with pytest.raises(DomainError, match="share"):
            simulate_cells(spec, cfgs)

    def test_no_cells_simulate_nothing(self):
        assert simulate_cells(MethodSpec(Method.WILSON_HARMONIC), []) == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(DomainError, match="workers must be >= 1"):
            simulate_cells(MethodSpec(Method.WILSON_HARMONIC), [], workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_with_their_own_levels_equal_cell_alone(self, monkeypatch, workers):
        # levels of different counts in one call: each cell reads its own run
        # of columns of the shared estimates
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = MethodSpec(Method.MUDHOLKAR_GEORGE)
        sim = dict(N=199, R=5, seed=11)
        cfgs = [SimConfig(n=6, n_f=2, q_list=(0.95,), **sim),
                SimConfig(n=5, n_f=1, **sim),
                SimConfig(n=4, n_f=0, q_list=(0.01, 0.5, 0.99), **sim),
                SimConfig(n=3, n_f=3, q_list=(0.05, 0.975), **sim)]
        got = simulate_cells(spec, cfgs, workers=workers)
        assert [len(estimates) for estimates in got] == [1, 10, 3, 2]
        for cfg, estimates in zip(cfgs, got):
            assert estimates == simulate_quantiles(spec, cfg)

    def test_memory_is_one_float_per_replica_and_level(self):
        # the traced peak of a default mg grid stays near the R x levels
        # floats it must keep, with no per-replica arrays held to the end
        spec = MethodSpec(Method.MUDHOLKAR_GEORGE)
        R = 400
        cfgs = [SimConfig(n, n_f, N=99, R=R) for n, n_f in default_grid()]
        simulate_cells(spec, cfgs[:2])  # imports and caches outside the trace
        tracemalloc.start()
        try:
            simulate_cells(spec, cfgs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * R * sum(len(cfg.q_list) for cfg in cfgs) * 8

    def test_deterministic(self):
        spec = MethodSpec(Method.WILSON_HARMONIC)
        cfg = SimConfig(n=3, n_f=1, N=500, R=4, seed=2024)
        a = simulate_quantiles(spec, cfg)
        b = simulate_quantiles(spec, cfg)
        assert a == b
