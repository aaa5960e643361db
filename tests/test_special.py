"""Special-function kernel against scipy oracles and its own invariants.

``normal_cdf`` and ``reg_lower_gamma`` take one float; the tests that sweep
them over arrays map them with ``_map``, the map ``exact.exact_cdf`` uses.
"""

import math
from functools import partial

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

import metacrit.exact as exact
from metacrit.methods import Method, MethodSpec
from metacrit.sampling import DEFAULT_Q_LEVELS
from metacrit.special import (
    ConvergenceError,
    DomainError,
    _map,
    gamma_quantile,
    invert_cdf,
    normal_cdf,
    normal_inv_cdf,
    reg_lower_gamma,
    reg_upper_gamma,
)
from metacrit.tables import default_grid


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_printed_reference_points(self):
        assert normal_cdf(1.9600) == pytest.approx(0.975, abs=5e-5)
        assert normal_cdf(-2.5758) == pytest.approx(0.005, abs=5e-5)

    def test_against_scipy(self):
        x = np.linspace(-10, 10, 4001)
        assert np.abs(_map(normal_cdf, x) - stats.norm.cdf(x)).max() < 1e-14

    def test_symmetry_exact(self):
        x = np.linspace(-37, 37, 999)
        assert np.abs(_map(normal_cdf, x) + _map(normal_cdf, -x) - 1.0).max() <= 1e-14

    def test_strictly_increasing(self):
        # strict within +-6 where increments stay above one ulp of 1.0
        x = np.linspace(-6, 6, 1001)
        assert np.all(np.diff(_map(normal_cdf, x)) > 0)
        wide = np.linspace(-12, 12, 1001)
        assert np.all(np.diff(_map(normal_cdf, wide)) >= 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            normal_cdf(np.nan)
        with pytest.raises(DomainError):
            normal_cdf(np.inf)


class TestNormalInvCdf:
    def test_median(self):
        assert normal_inv_cdf(0.5) == 0.0

    def test_printed_reference_points(self):
        assert normal_inv_cdf(0.975) == pytest.approx(1.9600, abs=5e-5)
        assert normal_inv_cdf(0.1) == pytest.approx(-1.281552, abs=5e-7)

    def test_round_trip(self):
        p = np.linspace(1e-10, 1 - 1e-10, 20011)
        assert np.abs(_map(normal_cdf, normal_inv_cdf(p)) - p).max() <= 1e-12

    def test_odd_symmetry(self):
        # 1 - p is exact to ~1e-16 here, so the identity holds to 1e-12
        p = np.linspace(0.001, 0.5, 5001)
        assert np.abs(normal_inv_cdf(p) + normal_inv_cdf(1 - p)).max() < 1e-12
        # deeper in the tail the rounding of 1 - p dominates: bounded by
        # ulp(1)/2 / pdf(z), about 1.6e-8 at p = 1e-9
        deep = np.geomspace(1e-9, 1e-3, 200)
        assert np.abs(normal_inv_cdf(deep) + normal_inv_cdf(1 - deep)).max() < 2e-8

    def test_against_scipy(self):
        p = np.linspace(1e-12, 1 - 1e-12, 9001)
        assert np.abs(normal_inv_cdf(p) - stats.norm.ppf(p)).max() < 1e-11

    def test_relative_error_against_ndtri(self):
        rng = np.random.default_rng(241)
        tails = np.geomspace(1e-300, 0.4, 20001)
        grids = {
            "uniform": rng.random(200_000),
            "central": np.linspace(0.075, 0.925, 20001),
            "tails": np.concatenate([tails, 1.0 - tails]),
        }
        for name, p in grids.items():
            p = p[(p > 0.0) & (p < 1.0)]
            ref = sp.ndtri(p)
            nonzero = ref != 0.0
            rel = np.abs(normal_inv_cdf(p)[nonzero] - ref[nonzero]) / np.abs(ref[nonzero])
            assert rel.max() <= 2e-15, name

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_endpoints(self, p):
        with pytest.raises(DomainError):
            normal_inv_cdf(p)


class TestIncompleteGamma:
    def test_anchors(self):
        assert reg_lower_gamma(1, 0.0) == 0.0
        assert reg_lower_gamma(1, np.log(2)) == pytest.approx(0.5, abs=1e-14)
        # chi-square(6) 0.995 quantile halved
        assert reg_lower_gamma(3, 9.2738) == pytest.approx(0.995, abs=5e-5)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0, 13.0, 50.0, 123.0])
    def test_against_scipy(self, a):
        x = np.linspace(0.0, 6 * a + 30, 3001)
        assert np.abs(_map(partial(reg_lower_gamma, a), x) - sp.gammainc(a, x)).max() < 2e-13

    def test_monotone_and_limits(self):
        x = np.linspace(0, 200, 2001)
        p = _map(partial(reg_lower_gamma, 4.0), x)
        assert np.all(np.diff(p) >= 0)
        assert p[0] == 0.0
        assert p[-1] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0, 26.0, 123.0])
    def test_upper_against_scipy(self, a):
        # Q = 1 - P keeps its relative accuracy far above x = a + 1, where
        # 1 - reg_lower_gamma cancels to 0
        x = np.concatenate([np.linspace(0.0, 6 * a + 30, 301), np.geomspace(a + 1.0, 600.0, 200)])
        want = sp.gammaincc(a, x)
        got = _map(partial(reg_upper_gamma, a), x)
        assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-15)
        assert got[-1] > 0.0

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_lower_gamma(-1.0, 1.0)

    # one map serves every kernel: an array is the scalar path mapped over its
    # elements, here on both sides of the gamma's x = a + 1 regime split and
    # for the two normal kernels; normal_inv_cdf maps itself
    @pytest.mark.parametrize("f, x", [
        *[pytest.param(partial(_map, partial(reg_lower_gamma, a)),
                       np.linspace(0.0, 6 * a + 30, 401).reshape(401, 1), id=f"{a}")
          for a in (0.5, 2.5, 13.0, 123.0)],
        pytest.param(partial(_map, normal_cdf), np.linspace(-40.0, 40.0, 401).reshape(401, 1),
                     id="normal_cdf"),
        pytest.param(normal_inv_cdf, np.concatenate(
            [np.geomspace(1e-300, 0.4, 200), np.linspace(0.01, 0.99, 201)]).reshape(1, 401),
                     id="normal_inv_cdf"),
    ])
    def test_array_equals_pointwise(self, f, x):
        arr = f(x)
        assert arr.shape == x.shape
        pointwise = np.array([f(float(v)) for v in x.ravel()]).reshape(x.shape)
        assert np.array_equal(arr, pointwise)

    @pytest.mark.parametrize("f, bad", [
        *[pytest.param(partial(_map, partial(reg_lower_gamma, 2.5)), bad, id=f"{bad}")
          for bad in (-1e-3, np.nan, np.inf)],
        *[pytest.param(partial(_map, normal_cdf), bad, id=f"normal_cdf-{bad}")
          for bad in (np.nan, np.inf)],
        *[pytest.param(normal_inv_cdf, bad, id=f"normal_inv_cdf-{bad}")
          for bad in (np.nan, 0.0, np.inf)],
    ])
    def test_array_rejects_bad_entries(self, f, bad):
        with pytest.raises(DomainError):
            f(np.array([0.25, 0.5, bad, 0.75]))


def chisq(df, q):
    # the chi-square quantile as the exact Fisher and Chen laws compute it
    return 2 * gamma_quantile(df / 2, q)


class TestQuantiles:
    def test_printed_reference_points(self):
        assert chisq(6, 0.005) == pytest.approx(0.6757, abs=5e-5)
        assert chisq(10, 0.995) == pytest.approx(25.1882, abs=5e-5)
        assert chisq(2, 0.5) == pytest.approx(2 * np.log(2), abs=1e-10)
        assert gamma_quantile(1, 0.5) == pytest.approx(np.log(2), abs=1e-12)
        assert gamma_quantile(3, 0.005) == pytest.approx(0.33786, abs=5e-5)
        assert gamma_quantile(3, 0.995) == pytest.approx(stats.chi2.ppf(0.995, 6) / 2, abs=1e-10)

    @pytest.mark.parametrize("df", [1, 2, 6, 20, 52])
    def test_round_trip(self, df):
        for q in np.linspace(0.01, 0.99, 25):
            x = chisq(df, q)
            assert reg_lower_gamma(df / 2, x / 2) == pytest.approx(q, abs=1e-10)

    def test_chisq_gamma_relation(self):
        for n in (1, 2, 5, 13):
            for q in (0.005, 0.1, 0.5, 0.9, 0.995):
                assert 2 * gamma_quantile(n, q) == pytest.approx(
                    stats.chi2.ppf(q, 2 * n), abs=1e-10
                )

    def test_strictly_increasing_over_grid(self):
        qs = np.linspace(0.01, 0.99, 99)
        for f in (lambda q: chisq(7, q), lambda q: gamma_quantile(2.5, q)):
            vals = [f(q) for q in qs]
            assert np.all(np.diff(vals) > 0)

    def test_against_scipy(self):
        for df in (1, 4, 20, 52):
            for q in (0.005, 0.05, 0.5, 0.95, 0.995):
                assert chisq(df, q) == pytest.approx(stats.chi2.ppf(q, df), rel=1e-10)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_rejects_endpoint_levels(self, q):
        with pytest.raises(DomainError):
            gamma_quantile(2, q)


class TestRootFinder:
    def test_linear(self):
        assert invert_cdf(lambda x: x, 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)

    def test_sqrt2(self):
        # x^2 / 4 is a CDF on [0, 2] with median sqrt(2)
        root = invert_cdf(lambda x: x * x / 4.0, 0.5, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_max_statistic_cell(self):
        # x^3 (2 - x) is the n=3, n_f=1 maximum-statistic CDF
        root = invert_cdf(lambda x: x**3 * (2 - x), 0.9, 0.0, 1.0)
        assert abs(root - 0.95001) <= 3 * 0.00031

    def test_no_sign_change(self):
        # a CDF that never reaches q leaves no bracket to shrink
        with pytest.raises(ConvergenceError):
            invert_cdf(lambda x: 0.5, 0.9, 0.0, 1.0)

    def test_underflow_is_refused_with_its_level(self):
        # sqrt(x) = 1e-300 at x = 1e-600, below the smallest double; at
        # q = 2.5e-162 the root lies between the two smallest subnormals,
        # and the bracket ends on them, which no midpoint splits
        with pytest.raises(ConvergenceError, match=r"q=1e-300 underflows"):
            invert_cdf(math.sqrt, 1e-300, 0.0, 1.0)
        with pytest.raises(ConvergenceError, match=r"q=2.5e-162 underflows"):
            invert_cdf(math.sqrt, 2.5e-162, 0.0, 1.0)

    def test_underflow_is_refused_at_once(self):
        # cdf(5e-324) already reaches q, so no bracket is shrunk: cdf(lo),
        # cdf(hi) and cdf at the smallest double
        calls = []

        def cdf(x):
            calls.append(x)
            return math.sqrt(x)

        with pytest.raises(ConvergenceError, match=r"q=1e-300 underflows"):
            invert_cdf(cdf, 1e-300, 0.0, 1.0)
        assert len(calls) <= 5

    @pytest.mark.parametrize("cdf, q, root", [
        (math.sqrt, 1e-100, 1e-200),
        (lambda x: x * (2.0 - x), 1e-50, 5e-51),  # Wilkinson n = n_f = 1
        (lambda x: reg_lower_gamma(0.5, x), 1e-50, math.pi / 4 * 1e-100),  # Chen n = 1, halved
    ], ids=["sqrt", "wilkinson-1-1", "gamma-half"])
    def test_root_near_zero_in_few_evaluations(self, cdf, q, root):
        # from lo = 0 the steps go in log space: halving [0, 1] took one
        # evaluation per binade, 675 for sqrt at q = 1e-100
        calls = []

        def counted(x):
            calls.append(x)
            return cdf(x)

        assert invert_cdf(counted, q, 0.0, 1.0) == pytest.approx(root, rel=1e-11)
        assert len(calls) <= 100

    @pytest.mark.parametrize("q", [1e-100, 1e-300])
    def test_wide_positive_bracket_in_few_evaluations(self, q):
        # x^26 underflows below x = 1.4e-13: the first step from lo = 0 lands
        # where the CDF is 0, and steps linear in x then climbed about one
        # binade each (54 evaluations at q = 1e-100, 78 at 1e-300)
        calls = []

        def counted(x):
            calls.append(x)
            return x**26

        assert invert_cdf(counted, q, 0.0, 1.0) == pytest.approx(q ** (1 / 26), rel=1e-12)
        assert len(calls) <= 25

    @pytest.mark.parametrize("q", [1e-160, 2.5e-162])
    def test_subnormal_root_refused_in_few_evaluations(self, q):
        # sqrt's root q^2 lies strictly between two adjacent subnormals
        calls = []

        def counted(x):
            calls.append(x)
            return math.sqrt(x)

        with pytest.raises(ConvergenceError, match=rf"q={q:g} underflows: no double lies"):
            invert_cdf(counted, q, 0.0, 1.0)
        assert len(calls) <= 100

    def test_grows_bracket(self):
        # 1 - e^-x reaches 0.999 only at x = ln 1000, past three doublings of hi
        root = invert_cdf(lambda x: -math.expm1(-x), 0.999, 0.0, 1.0)
        assert root == pytest.approx(math.log(1000.0), rel=1e-12)

    def test_returns_lo_when_already_reached(self):
        seen = []

        def cdf(x):
            seen.append(x)
            return x

        assert invert_cdf(cdf, 0.3, 0.5, 1.0) == 0.5
        assert seen == [0.5]

    @pytest.mark.parametrize("method", [Method.WILKINSON, Method.EDGINGTON,
                                        Method.GEOMETRIC_MEAN], ids=lambda m: m.token)
    def test_cdf_evaluations_per_quantile(self, method, monkeypatch):
        # the exact rows found as a root, Wilkinson with fakes, Edgington and
        # the geometric mean, on the default grid: bisection took 42-43 CDF
        # evaluations each
        counts = []

        def counting(cdf, q, lo, hi):
            def counted(x):
                counts[-1] += 1
                return cdf(x)

            counts.append(0)
            return invert_cdf(counted, q, lo, hi)

        monkeypatch.setattr(exact, "invert_cdf", counting)
        s = MethodSpec(method)
        for n, n_f in default_grid():
            if exact.has_exact_quantile(s, n, n_f):
                for q in DEFAULT_Q_LEVELS:
                    exact.exact_quantile(s, n, n_f, q)
        assert counts and max(counts) <= 30
