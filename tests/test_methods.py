"""The ten combined statistics: pinned values, algebraic identities, and
permutation invariance on random vectors."""

import math

import numpy as np
import pytest

from metacrit.methods import (
    DEFAULT_TAILS,
    SCORE_STATISTICS,
    Method,
    MethodSpec,
    Tail,
    evaluate_batch,
    evaluate_statistic,
    fold,
    parse_method,
    reduce,
    score,
)
from metacrit.special import DomainError, normal_inv_cdf


def spec(method):
    return MethodSpec(method)


class TestPinnedValues:
    def test_fisher_unit_logs(self):
        assert evaluate_statistic(spec(Method.FISHER), [math.e**-1] * 3) == pytest.approx(6.0)

    def test_fisher_small_ps(self):
        assert evaluate_statistic(spec(Method.FISHER), [0.05, 0.05]) == pytest.approx(
            -4 * math.log(0.05), abs=1e-10
        )
        assert -4 * math.log(0.05) == pytest.approx(11.98293, abs=5e-6)

    def test_stouffer_at_half(self):
        assert evaluate_statistic(spec(Method.STOUFFER), [0.5] * 4) == 0.0

    def test_edgington_is_mean(self):
        assert evaluate_statistic(spec(Method.EDGINGTON), [0.2, 0.4, 0.6]) == pytest.approx(0.4)

    def test_tippett_is_min(self):
        assert evaluate_statistic(spec(Method.TIPPETT), [0.3, 0.1, 0.7]) == 0.1

    def test_gm_all_equal(self):
        assert evaluate_statistic(spec(Method.GEOMETRIC_MEAN), [0.2] * 3) == pytest.approx(0.2)

    def test_min_gm(self):
        assert evaluate_statistic(spec(Method.MIN_GEOMETRIC_MEANS), [0.2, 0.2]) == pytest.approx(0.2)

    def test_mg_at_half(self):
        assert evaluate_statistic(spec(Method.MUDHOLKAR_GEORGE), [0.5] * 3) == 0.0

    def test_chen_at_half(self):
        assert evaluate_statistic(spec(Method.CHEN), [0.5, 0.5]) == 0.0

    def test_harmonic(self):
        assert evaluate_statistic(spec(Method.WILSON_HARMONIC), [0.5, 0.25]) == pytest.approx(
            1.0 / 3.0, abs=1e-15
        )

    def test_wilkinson_default_is_max(self):
        assert evaluate_statistic(spec(Method.WILKINSON), [0.3, 0.9, 0.2]) == 0.9


def random_pvectors(count, rng, nmax=26):
    for _ in range(count):
        n = rng.integers(1, nmax + 1)
        yield rng.uniform(1e-6, 1 - 1e-6, size=n)


class TestProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(42)
        specs = [spec(m) for m in Method]
        for p in random_pvectors(100, rng):
            perm = rng.permutation(p)
            for s in specs:
                a = evaluate_statistic(s, p)
                b = evaluate_statistic(s, perm)
                assert a == pytest.approx(b, rel=1e-10, abs=1e-12), s.method

    def test_mean_inequality_chain(self):
        rng = np.random.default_rng(7)
        for p in random_pvectors(200, rng):
            h = evaluate_statistic(spec(Method.WILSON_HARMONIC), p)
            g = evaluate_statistic(spec(Method.GEOMETRIC_MEAN), p)
            a = evaluate_statistic(spec(Method.EDGINGTON), p)
            assert h <= g + 1e-12
            assert g <= a + 1e-12

    def test_mg_antisymmetry(self):
        rng = np.random.default_rng(11)
        for p in random_pvectors(200, rng):
            left = evaluate_statistic(spec(Method.MUDHOLKAR_GEORGE), p)
            right = evaluate_statistic(spec(Method.MUDHOLKAR_GEORGE), 1.0 - p)
            assert abs(left + right) <= 1e-12 * max(1.0, abs(left))

    def test_min_gm_symmetry(self):
        rng = np.random.default_rng(13)
        for p in random_pvectors(200, rng):
            a = evaluate_statistic(spec(Method.MIN_GEOMETRIC_MEANS), p)
            b = evaluate_statistic(spec(Method.MIN_GEOMETRIC_MEANS), 1.0 - p)
            assert a == pytest.approx(b, abs=1e-14)

    def test_stouffer_antisymmetry(self):
        rng = np.random.default_rng(17)
        for p in random_pvectors(200, rng):
            a = evaluate_statistic(spec(Method.STOUFFER), p)
            b = evaluate_statistic(spec(Method.STOUFFER), 1.0 - p)
            assert abs(a + b) <= 1e-12 * max(1.0, abs(a))

    def test_bounds(self):
        rng = np.random.default_rng(19)
        unit = (Method.TIPPETT, Method.WILKINSON, Method.GEOMETRIC_MEAN,
                Method.MIN_GEOMETRIC_MEANS, Method.EDGINGTON, Method.WILSON_HARMONIC)
        for p in random_pvectors(100, rng):
            for m in unit:
                v = evaluate_statistic(spec(m), p)
                assert 0.0 < v < 1.0, m
            assert evaluate_statistic(spec(Method.FISHER), p) >= 0.0
            assert evaluate_statistic(spec(Method.CHEN), p) >= 0.0
            assert (
                evaluate_statistic(spec(Method.MIN_GEOMETRIC_MEANS), p)
                <= evaluate_statistic(spec(Method.GEOMETRIC_MEAN), p) + 1e-15
            )

    def test_fisher_gm_identity(self):
        rng = np.random.default_rng(23)
        for p in random_pvectors(100, rng):
            n = len(p)
            fisher = evaluate_statistic(spec(Method.FISHER), p)
            gm = evaluate_statistic(spec(Method.GEOMETRIC_MEAN), p)
            assert fisher == pytest.approx(-2 * n * math.log(gm), rel=1e-10, abs=1e-10)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(29)
        pm = rng.uniform(1e-6, 1 - 1e-6, size=(40, 7))
        for m in Method:
            batch = evaluate_batch(spec(m), pm)
            single = np.array([evaluate_statistic(spec(m), row) for row in pm])
            assert np.allclose(batch, single, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 7, 9, 26])
    def test_score_then_reduce_is_the_textbook_formula(self, n):
        # every statistic is an elementwise score and a row reduction; the
        # split must round exactly as the formula written in one piece
        P = np.random.default_rng(37 + n).uniform(1e-9, 1 - 1e-9, size=(257, n))
        Z = normal_inv_cdf(P)

        def colsum(x):
            # left to right over the columns: ((x0 + x1) + x2) + ...
            return sum(x[:, 1:].T, x[:, 0])

        def gm(p):
            return np.exp(colsum(np.log(p)) / n)

        textbook = {
            spec(Method.TIPPETT): np.min(P, axis=-1),
            spec(Method.FISHER): -2.0 * colsum(np.log(P)),
            spec(Method.GEOMETRIC_MEAN): gm(P),
            spec(Method.MIN_GEOMETRIC_MEANS): np.minimum(gm(P), gm(1.0 - P)),
            spec(Method.STOUFFER): colsum(Z) / np.sqrt(n),
            spec(Method.WILKINSON): np.sort(P, axis=-1)[..., n - 1],
            spec(Method.EDGINGTON): colsum(P) / n,
            spec(Method.MUDHOLKAR_GEORGE): colsum(np.log1p(-P) - np.log(P)),
            spec(Method.WILSON_HARMONIC): n / colsum(1.0 / P),
            spec(Method.CHEN): colsum(Z * Z),
        }
        assert {s.method for s in textbook} == set(Method)
        for s, want in textbook.items():
            assert np.array_equal(evaluate_batch(s, P), want), s

    SPECS = [spec(m) for m in Method]

    @pytest.mark.parametrize("s", SPECS, ids=[s.method.token for s in SPECS])
    def test_reduction_ignores_how_rows_are_split(self, s):
        # a cell continues the fold of its fakes over its genuine values: any
        # split of the columns, and any blocks of rows, give the same bits
        for n in (2, 9, 26):
            P = np.random.default_rng(41 + n).uniform(1e-9, 1 - 1e-9, size=(257, n))
            A = score(s, normal_inv_cdf(P) if s.method in SCORE_STATISTICS else P)
            whole = reduce(s, A, n)
            for k in range(n + 1):
                head = fold(s, A[:, :k]) if k else None
                assert np.array_equal(reduce(s, A[:, k:], n, head), whole), (n, k)
            blocks = np.concatenate([reduce(s, A[a:a + 50], n) for a in range(0, len(A), 50)])
            assert np.array_equal(blocks, whole)

    @pytest.mark.parametrize("method", [Method.STOUFFER, Method.CHEN])
    def test_score_statistic_on_probits(self, method):
        # the simulation applies the same function to drawn scores
        pm = np.random.default_rng(31).uniform(1e-9, 1 - 1e-9, size=(200, 6))
        s = spec(method)
        assert np.array_equal(evaluate_batch(s, pm),
                              reduce(s, score(s, normal_inv_cdf(pm)), 6))


class TestScalarStatistic:
    # evaluate_statistic folds Python floats in evaluate_batch's order; only
    # numpy's vectorised log, log1p and exp may differ from libm's, in the last bit
    SAME_BITS = {Method.TIPPETT, Method.WILKINSON, Method.EDGINGTON, Method.STOUFFER,
                 Method.WILSON_HARMONIC, Method.CHEN}

    @pytest.mark.parametrize("n", [1, 2, 7, 9, 26])
    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.token)
    def test_matches_batch(self, method, n):
        P = np.random.default_rng(43 + n).uniform(1e-9, 1 - 1e-9, size=(257, n))
        batch = evaluate_batch(spec(method), P)
        # a lone (n,) vector is a batch of one row: its row's bits, 0-d
        vectors = [evaluate_batch(spec(method), row) for row in P[:16]]
        assert all(np.ndim(v) == 0 for v in vectors)
        assert np.array_equal(np.array(vectors), batch[:16])
        single = np.array([evaluate_statistic(spec(method), row) for row in P])
        if method in self.SAME_BITS:
            assert np.array_equal(single, batch)
        else:
            assert np.allclose(single, batch, rtol=1e-13, atol=0.0)


class TestTailRule:
    # the levels a level-alpha test reads and its rejection region, shared by
    # combine and the demos; a statistic equal to a critical value rejects
    @pytest.mark.parametrize("tail, levels", [(Tail.LOWER, (0.05,)), (Tail.UPPER, (0.95,)),
                                              (Tail.BOTH, (0.025, 0.975))],
                             ids=lambda v: getattr(v, "value", None))
    def test_levels(self, tail, levels):
        assert MethodSpec(Method.CHEN, tail).levels(0.05) == levels

    def test_lower_tail(self):
        s = MethodSpec(Method.FISHER, Tail.LOWER)
        assert s.rejects(1.0, [1.0]) and s.rejects(0.5, [1.0])
        assert not s.rejects(math.nextafter(1.0, 2.0), [1.0])

    def test_upper_tail(self):
        s = MethodSpec(Method.FISHER, Tail.UPPER)
        assert s.rejects(1.0, [1.0]) and s.rejects(2.0, [1.0])
        assert not s.rejects(math.nextafter(1.0, 0.0), [1.0])

    def test_both_tails(self):
        s = MethodSpec(Method.CHEN, Tail.BOTH)
        for t in (-1.0, 1.0, -5.0, 5.0):
            assert s.rejects(t, [-1.0, 1.0])
        for t in (math.nextafter(-1.0, 0.0), 0.0, math.nextafter(1.0, 0.0)):
            assert not s.rejects(t, [-1.0, 1.0])


class TestValidation:
    @pytest.mark.parametrize("bad", [[], [0.0, 0.5], [0.5, 1.0], [0.5, np.nan], [-0.1]])
    def test_rejects_bad_vectors(self, bad):
        with pytest.raises(DomainError):
            evaluate_statistic(spec(Method.FISHER), bad)

    def test_parse_tokens(self):
        for m in Method:
            assert parse_method(m.token) is m
            assert parse_method(m.token.upper()) is m
        with pytest.raises(DomainError):
            parse_method("pearson")

    def test_default_tails(self):
        assert DEFAULT_TAILS[Method.FISHER] is Tail.UPPER
        assert DEFAULT_TAILS[Method.MUDHOLKAR_GEORGE] is Tail.UPPER
        assert DEFAULT_TAILS[Method.CHEN] is Tail.BOTH
        for m in (Method.TIPPETT, Method.GEOMETRIC_MEAN, Method.MIN_GEOMETRIC_MEANS,
                  Method.STOUFFER, Method.WILKINSON, Method.EDGINGTON,
                  Method.WILSON_HARMONIC):
            assert DEFAULT_TAILS[m] is Tail.LOWER
        assert MethodSpec(Method.FISHER).tail is Tail.UPPER
