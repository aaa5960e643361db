"""Closed-form quantiles/CDFs: support matrix, reference values, cross-law
identities, and a sampler check through the fake-sample Fisher transform."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize, stats
from scipy import special as sp

from metacrit.exact import (
    _LAWS,
    UnsupportedExactError,
    edgington_quantile_genuine,
    exact_cdf,
    exact_quantile,
    has_exact_quantile,
    wilkinson_max_quantile,
)
from metacrit.methods import Method, MethodSpec
from metacrit.sampling import DEFAULT_Q_LEVELS, replica_stream, sample_pmatrix
from metacrit.special import DomainError


def spec(method):
    return MethodSpec(method)


def quantile(method, n, n_f, q):
    return exact_quantile(spec(method), n, n_f, q)


def cdf(method, n, n_f, x):
    return exact_cdf(spec(method), n, n_f, x)


class TestSupportMatrix:
    def test_any_fake_count(self):
        for n_f in range(0, 4):
            assert has_exact_quantile(spec(Method.TIPPETT), 5, n_f)
            assert has_exact_quantile(spec(Method.WILKINSON), 5, n_f)

    def test_genuine_only(self):
        for m in (Method.FISHER, Method.CHEN, Method.STOUFFER, Method.GEOMETRIC_MEAN):
            assert has_exact_quantile(spec(m), 7, 0)
            assert not has_exact_quantile(spec(m), 7, 1)

    def test_edgington_range(self):
        # the Irwin-Hall sum is exact for every n, and only without fakes
        for n in range(1, 27):
            assert has_exact_quantile(spec(Method.EDGINGTON), n, 0)
            assert not any(has_exact_quantile(spec(Method.EDGINGTON), n, n_f)
                           for n_f in range(1, n + 1))

    def test_never_exact(self):
        for m in (Method.MUDHOLKAR_GEORGE, Method.MIN_GEOMETRIC_MEANS, Method.WILSON_HARMONIC):
            assert not has_exact_quantile(spec(m), 5, 0)

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.token)
    def test_law_table_agrees_with_itself(self, method):
        # the support predicate, the quantile and the CDF come from one
        # entry, and the quantile inverts the CDF to 1e-11 of the nearer tail
        s = spec(method)
        for n in range(1, 27):
            for n_f in range(n + 1):
                if has_exact_quantile(s, n, n_f):
                    assert 0.0 <= exact_cdf(s, n, n_f, 0.5) <= 1.0
                    for q in DEFAULT_Q_LEVELS:
                        x = exact_quantile(s, n, n_f, q)
                        assert math.isfinite(x)
                        err = abs(float(exact_cdf(s, n, n_f, x)) - q)
                        assert err <= 1e-11 * min(q, 1.0 - q), (n, n_f, q)
                    continue
                with pytest.raises(UnsupportedExactError):
                    exact_quantile(s, n, n_f, 0.5)
                with pytest.raises(UnsupportedExactError):
                    exact_cdf(s, n, n_f, 0.5)

    def test_dispatch_raises_when_unsupported(self):
        with pytest.raises(UnsupportedExactError):
            exact_quantile(spec(Method.FISHER), 3, 1, 0.95)
        with pytest.raises(UnsupportedExactError):
            exact_cdf(spec(Method.WILSON_HARMONIC), 3, 0, 0.5)


class TestTippett:
    def test_reference_cells(self):
        assert quantile(Method.TIPPETT, 3, 0, 0.005) == pytest.approx(0.00167, abs=5e-6)
        assert quantile(Method.TIPPETT, 5, 3, 0.900) == pytest.approx(0.25011, abs=5e-6)

    def test_single_uniform_identity(self):
        for q in (0.1, 0.5, 0.9):
            assert quantile(Method.TIPPETT, 1, 0, q) == pytest.approx(q, abs=1e-14)

    def test_matches_beta_law(self):
        for n, n_f in ((3, 0), (5, 3), (26, 8)):
            for q in (0.005, 0.5, 0.995):
                assert quantile(Method.TIPPETT, n, n_f, q) == pytest.approx(
                    stats.beta.ppf(q, 1, n + n_f), rel=1e-12
                )


class TestWilkinson:
    def test_closed_form_no_fakes(self):
        assert wilkinson_max_quantile(4, 0, 0.05) == pytest.approx(0.47287, abs=5e-6)
        for n in (1, 5, 26):
            for q in (0.1, 0.9):
                assert wilkinson_max_quantile(n, 0, q) == pytest.approx(
                    q ** (1 / n), abs=1e-12
                )

    def test_root_against_published_cell(self):
        assert abs(wilkinson_max_quantile(3, 1, 0.900) - 0.95001) <= 3 * 0.00031

    def test_single_fake_is_beta12(self):
        assert wilkinson_max_quantile(1, 1, 0.75) == pytest.approx(0.5, abs=1e-10)

    def test_root_satisfies_cdf(self):
        for n, n_f in ((3, 1), (7, 2), (26, 8)):
            for q in (0.01, 0.5, 0.99):
                x = wilkinson_max_quantile(n, n_f, q)
                cdf = x ** (n - n_f) * (2 * x - x * x) ** n_f
                assert cdf == pytest.approx(q, abs=1e-9)


class TestGenuineOnlyLaws:
    def test_fisher(self):
        assert quantile(Method.FISHER, 3, 0, 0.995) == pytest.approx(18.5476, abs=5e-5)
        assert quantile(Method.FISHER, 13, 0, 0.005) == pytest.approx(11.1602, abs=5e-5)
        assert quantile(Method.FISHER, 1, 0, 0.5) == pytest.approx(2 * math.log(2), abs=1e-10)

    def test_chen(self):
        assert quantile(Method.CHEN, 10, 0, 0.995) == pytest.approx(25.1882, abs=5e-5)
        assert quantile(Method.CHEN, 10, 0, 0.900) == pytest.approx(15.9872, abs=5e-5)
        assert quantile(Method.CHEN, 2, 0, 1 - math.e**-1) == pytest.approx(2.0, abs=1e-10)

    def test_stouffer(self):
        assert quantile(Method.STOUFFER, 4, 0, 0.025) == pytest.approx(-1.9600, abs=5e-5)
        assert quantile(Method.STOUFFER, 4, 0, 0.5) == 0.0
        assert quantile(Method.STOUFFER, 4, 0, 0.995) == pytest.approx(2.5758, abs=5e-5)

    def test_gm(self):
        assert quantile(Method.GEOMETRIC_MEAN, 3, 0, 0.005) == pytest.approx(0.04544, abs=5e-5)
        assert quantile(Method.GEOMETRIC_MEAN, 3, 0, 0.995) == pytest.approx(0.89349, abs=5e-5)
        for q in (0.2, 0.7):
            assert quantile(Method.GEOMETRIC_MEAN, 1, 0, q) == pytest.approx(q, abs=1e-10)

    def test_fisher_gm_tail_flip(self):
        for n in (2, 5, 13):
            for q in (0.05, 0.5, 0.95):
                assert quantile(Method.FISHER, n, 0, q) == pytest.approx(
                    -2 * n * math.log(quantile(Method.GEOMETRIC_MEAN, n, 0, 1 - q)), abs=1e-8
                )

    def test_all_strictly_increasing(self):
        qs = np.linspace(0.01, 0.99, 99)
        funcs = [
            lambda q: quantile(Method.TIPPETT, 4, 2, q),
            lambda q: wilkinson_max_quantile(4, 2, q),
            lambda q: quantile(Method.FISHER, 4, 0, q),
            lambda q: quantile(Method.CHEN, 4, 0, q),
            lambda q: quantile(Method.STOUFFER, 4, 0, q),
            lambda q: quantile(Method.GEOMETRIC_MEAN, 4, 0, q),
            lambda q: edgington_quantile_genuine(4, q),
        ]
        for f in funcs:
            vals = [f(q) for q in qs]
            assert np.all(np.diff(vals) > 0)


def _wilkinson_5_2(q):
    return optimize.brentq(lambda x: x**3 * (2 * x - x * x) ** 2 - q, 0.0, 1.0,
                           xtol=1e-300, rtol=1e-15)


# law, n, n_f and an independent oracle of the quantile at level q
_ORACLES = {
    "fisher-3": (Method.FISHER, 3, 0, lambda q: stats.chi2.ppf(q, 6)),
    "chen-1": (Method.CHEN, 1, 0, lambda q: stats.chi2.ppf(q, 1)),
    "chen-4": (Method.CHEN, 4, 0, lambda q: stats.chi2.ppf(q, 4)),
    "wilkinson-5-2": (Method.WILKINSON, 5, 2, _wilkinson_5_2),
    "edgington-5": (Method.EDGINGTON, 5, 0, lambda q: (120 * q) ** (1 / 5) / 5),
    "gm-5": (Method.GEOMETRIC_MEAN, 5, 0, lambda q: math.exp(-stats.gamma.isf(q, 5) / 5)),
    "gm-26": (Method.GEOMETRIC_MEAN, 26, 0, lambda q: math.exp(-stats.gamma.isf(q, 26) / 26)),
}


class TestTails:
    # lower tails keep relative accuracy down to q = 1e-50.  Edgington's
    # oracle is its lower-tail closed form, so it is checked on one side
    # only; at 1 - 1e-7 the oracles see the same rounded q
    @pytest.mark.parametrize("case, q", [
        *[(case, q) for case in ("fisher-3", "chen-1", "chen-4", "wilkinson-5-2", "edgington-5",
                                 "gm-5", "gm-26")
          for q in (1e-7, 1e-10, 1e-50)],
        *[(case, 1 - 1e-7) for case in ("fisher-3", "chen-1", "chen-4", "wilkinson-5-2", "gm-26")],
    ])
    def test_against_oracle(self, case, q):
        method, n, n_f, oracle = _ORACLES[case]
        assert quantile(method, n, n_f, q) == pytest.approx(oracle(q), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", [1, 5, 10, 26])
    def test_gm_cdf_lower_tail(self, n):
        # the statistic exp(-G/n) is at most x with probability Q(n, -n ln x),
        # which keeps its relative accuracy where 1 - P(n, -n ln x) is 0.0
        for t in (0.1, 1.0, 5.0, 20.0, 50.0, 100.0, 300.0, 600.0):
            x = math.exp(-t / n)
            want = sp.gammaincc(n, -n * math.log(x))
            assert cdf(Method.GEOMETRIC_MEAN, n, 0, x) == pytest.approx(want, rel=1e-9, abs=0.0)
        assert cdf(Method.GEOMETRIC_MEAN, 10, 0, 1e-3) == pytest.approx(1.132013361816164e-19,
                                                                      rel=1e-9)

    @pytest.mark.parametrize("method, n, n_f", [
        (Method.TIPPETT, 5, 0), (Method.TIPPETT, 5, 2), (Method.WILKINSON, 5, 0),
        (Method.WILKINSON, 5, 2), (Method.FISHER, 5, 0), (Method.CHEN, 5, 0),
        (Method.CHEN, 1, 0), (Method.STOUFFER, 5, 0), (Method.GEOMETRIC_MEAN, 5, 0),
        (Method.EDGINGTON, 5, 0),
    ], ids=lambda v: v.token if isinstance(v, Method) else str(v))
    def test_extreme_level_is_answered_or_refused(self, method, n, n_f):
        # q = 1e-300 ends in a nonzero finite value (exit 0), negative only
        # for Stouffer's normal quantile, or in a numeric failure (exit 1)
        # that names the level, which only Chen's n = 1 quantile, about
        # 1.6e-600, takes as it underflows
        proc = subprocess.run(
            [sys.executable, "-m", "metacrit.cli", "critical", "--method", method.token,
             "--n", str(n), "--nf", str(n_f), "--q", "1e-300", "--exact"],
            capture_output=True, text=True)
        assert "Traceback" not in proc.stderr
        if proc.returncode == 1:
            assert "q=1e-300" in proc.stderr
        else:
            assert proc.returncode == 0, proc.stderr
            value = float(proc.stdout.split()[0])
            assert math.isfinite(value) and value != 0.0
            assert (value < 0.0) == (method is Method.STOUFFER)

    @pytest.mark.parametrize("q", [1e-300, 1e-10, 1e-7, 0.005])
    @pytest.mark.parametrize("n, n_f", [(1, 0), (5, 0), (5, 2), (26, 26)])
    def test_tippett_lower_tail(self, n, n_f, q):
        # the minimum is Beta(1, n + n_f): no lower-tail q rounds away in 1 - q
        want = stats.beta.ppf(q, 1, n + n_f)
        assert quantile(Method.TIPPETT, n, n_f, q) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestEdgington:
    def test_symmetry_points(self):
        assert cdf(Method.EDGINGTON, 2, 0, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert cdf(Method.EDGINGTON, 3, 0, 0.5) == pytest.approx(0.5, abs=1e-12)
        # F(x) + F(1 - x) = 1 for every n; on [0.5, 1] the 1 - x is exact, and
        # two correctly rounded terms leave at most one ulp of 1 between them
        for n in range(1, 27):
            for x in np.linspace(0.5, 1.0, 101):
                total = cdf(Method.EDGINGTON, n, 0, x) + cdf(Method.EDGINGTON, n, 0, 1.0 - x)
                assert abs(total - 1.0) <= math.ulp(1.0), (n, x)

    def test_lower_tail_closed_form(self):
        # below x = 1/n the CDF is (n x)^n / n!; in exact rationals, rounded
        # once, it is what the integer sum rounds to, down to a subnormal x
        x = (0.6) ** (1 / 3) / 3
        assert cdf(Method.EDGINGTON, 3, 0, x) == pytest.approx(0.1, abs=1e-12)
        for n in (3, 13, 26):
            for x in [*np.linspace(0.0, 1.0 / n, 41)[:-1], 1e-10, 5e-324]:
                want = float(Fraction(float(x)) ** n * n ** n / math.factorial(n))
                assert cdf(Method.EDGINGTON, n, 0, x) == want, (n, x)

    def test_against_scipy_irwin_hall(self):
        for n in (2, 5, 12, 13, 20, 26):
            x = np.linspace(0.01, 0.99, 37)
            ours = cdf(Method.EDGINGTON, n, 0, x)
            ref = stats.irwinhall.cdf(n * x, n)
            assert np.abs(ours - ref).max() < 1e-15, n

    def test_quantile_round_trip(self):
        for n in (2, 7, 12):
            for q in (0.005, 0.1, 0.9, 0.995):
                x = edgington_quantile_genuine(n, q)
                assert cdf(Method.EDGINGTON, n, 0, x) == pytest.approx(q, abs=1e-9)

    def test_out_of_range_n(self):
        # every n has the law; a fake p-value takes it away
        for n in (1, 13, 26):
            assert cdf(Method.EDGINGTON, n, 0, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert cdf(Method.EDGINGTON, 1, 0, 0.25) == 0.25
        with pytest.raises(UnsupportedExactError):
            cdf(Method.EDGINGTON, 5, 1, 0.5)

    def test_published_cells_without_fakes(self, reference_tables):
        # all 240 published n_f = 0 cells are simulated; z = (published - ours)
        # / published stderr should look standard normal: at least 95% inside
        # 3 sd and the largest |z| under the Bonferroni bound over the cells
        ref = reference_tables["edgington"]
        z = np.array([(printed - edgington_quantile_genuine(n, q)) / se
                      for (n, n_f, q), (printed, se) in ref.items() if n_f == 0])
        assert z.size == 240
        assert np.mean(np.abs(z) <= 3.0) >= 0.95
        assert np.abs(z).max() < stats.norm.isf(0.05 / z.size)


class TestFakeFisherTransform:
    def test_ks_against_chi2(self):
        # transform of genuine fake draws is chi-square with 2 dof per fake
        stream = replica_stream(777, 0)
        fakes = sample_pmatrix(1, 1, 4999, stream)
        vals = np.sort(-4.0 * np.log1p(-fakes).sum(axis=1))
        heights = np.arange(1, 5000) / 4999
        theo = stats.chi2.cdf(vals, 2)
        dist = max(np.max(heights - theo), np.max(theo - (heights - 1 / 4999)))
        assert dist <= 1.63 / math.sqrt(4999)


class TestExactCdf:
    @pytest.mark.parametrize("method", list(_LAWS), ids=lambda m: m.token)
    def test_array_equals_pointwise(self, method):
        # each law is a function of one float, mapped in one place: an array
        # gives the scalar values bit for bit, in its own shape, clamps too
        s = spec(method)
        n, n_f = (5, 2) if has_exact_quantile(s, 5, 2) else (5, 0)
        x = np.concatenate([np.linspace(-3.0, 3.0, 121), np.linspace(0.0, 1.0, 101),
                            np.geomspace(1e-300, 60.0, 101), [5e-324]]).reshape(2, 3, 54)
        arr = exact_cdf(s, n, n_f, x)
        assert arr.shape == x.shape and arr.dtype == np.float64
        pointwise = [exact_cdf(s, n, n_f, float(v)) for v in x.ravel()]
        assert all(type(v) is float for v in pointwise)
        assert np.array_equal(arr.ravel(), pointwise)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("method", list(_LAWS), ids=lambda m: m.token)
    def test_non_finite_x_is_a_domain_error(self, method, bad):
        s = spec(method)
        with pytest.raises(DomainError, match="finite"):
            exact_cdf(s, 5, 0, bad)
        with pytest.raises(DomainError, match="finite"):
            exact_cdf(s, 5, 0, np.array([0.25, 0.5, bad, 0.75]))

    def test_matches_quantiles(self):
        cases = [
            (spec(Method.TIPPETT), 5, 3),
            (spec(Method.WILKINSON), 5, 3),
            (spec(Method.FISHER), 6, 0),
            (spec(Method.CHEN), 9, 0),
            (spec(Method.STOUFFER), 4, 0),
            (spec(Method.GEOMETRIC_MEAN), 6, 0),
            (spec(Method.EDGINGTON), 6, 0),
        ]
        for s, n, n_f in cases:
            for q in (0.01, 0.3, 0.75, 0.99):
                x = exact_quantile(s, n, n_f, q)
                assert exact_cdf(s, n, n_f, x) == pytest.approx(q, abs=1e-8), s.method
