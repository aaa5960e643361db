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
        est = QuantileEstimate(q=0.5, estimate=1.2, stderr=0.11547)
        lo, hi = confidence_interval(est, 0.05)
        assert lo == pytest.approx(0.97368, abs=5e-5)
        assert hi == pytest.approx(1.42632, abs=5e-5)

    def test_unit_stderr(self):
        est = QuantileEstimate(q=0.5, estimate=0.0, stderr=1.0)
        lo, hi = confidence_interval(est, 0.05)
        assert hi == pytest.approx(1.95996, abs=1e-5)
        assert lo == pytest.approx(-hi, abs=1e-12)

    def test_degenerate_for_exact(self):
        est = QuantileEstimate(q=0.5, estimate=7.0, stderr=None, provenance="exact")
        assert confidence_interval(est, 0.05) == (7.0, 7.0)

    def test_symmetric_and_contains_estimate(self):
        est = QuantileEstimate(q=0.5, estimate=2.0, stderr=0.3)
        lo, hi = confidence_interval(est, 0.1)
        assert lo < est.estimate < hi
        assert hi - est.estimate == pytest.approx(est.estimate - lo, abs=1e-12)


class TestRunReplica:
    def test_degenerate_single_draw(self):
        spec = MethodSpec(Method.TIPPETT)
        [vals] = run_replica(spec, [(1, 0, (0.5,))], (1, 1, 99), 0)
        expected = replica_stream(99, 0).random(1)[0]
        assert vals[0] == expected

    def test_edgington_median_of_two(self):
        # mean of two uniforms has median 1/2
        spec = MethodSpec(Method.EDGINGTON)
        [[val]] = run_replica(spec, [(2, 0, (0.5,))], (4999, 1, 11), 0)
        assert val == pytest.approx(0.5, abs=0.02)

    def test_fisher_upper_quantile(self):
        spec = MethodSpec(Method.FISHER)
        [[val]] = run_replica(spec, [(3, 0, (0.95,))], (4999, 1, 123), 0)
        assert val == pytest.approx(12.59, abs=0.35)

    def test_estimates_nondecreasing_in_q(self):
        spec = MethodSpec(Method.FISHER)
        [vals] = run_replica(spec, [(5, 2, DEFAULT_Q_LEVELS)], (999, 1, 7), 0)
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
        for index in (-1, 2):
            with pytest.raises(DomainError, match="replica index outside 0..R-1"):
                run_replica(spec, [(3, 0, DEFAULT_Q_LEVELS)], (10, 2, 1), index)


class TestSimulateQuantiles:
    def test_tippett_against_exact_law(self):
        spec = MethodSpec(Method.TIPPETT)
        cfg = SimConfig(n=4, n_f=1, N=4999, R=50, seed=314159)
        estimates = simulate_quantiles(spec, cfg)
        for est in estimates:
            exact = exact_quantile(spec, 4, 1, est.q)
            assert abs(est.estimate - exact) <= 3 * est.stderr

    def test_no_cells_simulate_nothing(self):
        assert simulate_cells(MethodSpec(Method.WILSON_HARMONIC), [], (99, 2, 5)) == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(DomainError, match="workers must be >= 1"):
            simulate_cells(MethodSpec(Method.WILSON_HARMONIC), [], (99, 2, 5), workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_with_their_own_levels_equal_cell_alone(self, monkeypatch, workers):
        # levels of different counts in one call: each cell reads its own run
        # of columns of the shared estimates
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = MethodSpec(Method.MUDHOLKAR_GEORGE)
        sim = (199, 5, 11)
        cells = [(6, 2, (0.95,)), (5, 1, DEFAULT_Q_LEVELS), (4, 0, (0.01, 0.5, 0.99)),
                 (3, 3, (0.05, 0.975))]
        got = simulate_cells(spec, cells, sim, workers=workers)
        assert [len(estimates) for estimates in got] == [1, 10, 3, 2]
        for (n, n_f, q_list), estimates in zip(cells, got):
            cfg = SimConfig(n, n_f, *sim, q_list=q_list)
            assert estimates == simulate_quantiles(spec, cfg)

    def test_memory_is_one_float_per_replica_and_level(self):
        # the traced peak of a default mg grid stays near the R x levels
        # floats it must keep, with no per-replica arrays held to the end
        spec = MethodSpec(Method.MUDHOLKAR_GEORGE)
        R = 400
        sim = (99, R, 20240101)
        cells = [(n, n_f, DEFAULT_Q_LEVELS) for n, n_f in default_grid()]
        simulate_cells(spec, cells[:2], sim)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            simulate_cells(spec, cells, sim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * R * len(cells) * len(DEFAULT_Q_LEVELS) * 8

    def test_deterministic(self):
        spec = MethodSpec(Method.WILSON_HARMONIC)
        cfg = SimConfig(n=3, n_f=1, N=500, R=4, seed=2024)
        a = simulate_quantiles(spec, cfg)
        b = simulate_quantiles(spec, cfg)
        assert a == b
