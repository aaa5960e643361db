"""ECDF dumps and KS distances against exact laws."""

import numpy as np
import pytest

from metacrit.diagnostics import (
    EcdfDump,
    ecdf,
    ks_critical_value,
    ks_distance,
    write_ecdf_csv,
)
from metacrit.exact import UnsupportedExactError, exact_quantile
from metacrit.methods import Method, MethodSpec
from metacrit.special import DomainError


class TestEcdf:
    def test_heights_are_i_over_n(self, tmp_path):
        # the written ecdf column is i/N against the sorted values
        dump = ecdf(MethodSpec(Method.TIPPETT), 3, 0, 100, seed=1)
        path = tmp_path / "ecdf.csv"
        write_ecdf_csv(dump, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], dump.values)
        assert np.array_equal(rows[:, 1], np.arange(1, 101) / 100)
        assert np.all(np.diff(dump.values) >= 0)

    def test_single_draw(self, tmp_path):
        dump = ecdf(MethodSpec(Method.TIPPETT), 3, 0, 1, seed=2)
        assert dump.values.shape == (1,)
        path = tmp_path / "ecdf.csv"
        write_ecdf_csv(dump, path)
        assert path.read_text().splitlines()[1].split(",")[1] == "1.0"


class TestKsDistance:
    def test_plug_in_grid_is_tight(self):
        # evaluating the exact quantile grid against its own CDF leaves at
        # most one ECDF step of discrepancy
        N = 500
        qs = (np.arange(1, N + 1) - 0.5) / N
        vals = np.array([exact_quantile(MethodSpec(Method.TIPPETT), 5, 3, q) for q in qs])
        dump = EcdfDump(values=vals, spec=MethodSpec(Method.TIPPETT), n=5, n_f=3, N=N, seed=0)
        assert ks_distance(dump) <= 1.0 / N

    def test_simulated_tippett_fits_beta(self):
        dump = ecdf(MethodSpec(Method.TIPPETT), 5, 3, 4999, seed=42)
        assert ks_distance(dump) <= ks_critical_value(4999, 0.01)

    def test_degenerate_median_point(self):
        # single point at the null median (z = 0): ECDF jumps 0 -> 1 across
        # CDF = 0.5
        dump = EcdfDump(values=np.array([0.0]), spec=MethodSpec(Method.STOUFFER), n=3, n_f=0,
                        N=1, seed=0)
        assert ks_distance(dump) == pytest.approx(0.5, abs=1e-12)

    def test_unsupported_law(self):
        dump = ecdf(MethodSpec(Method.MUDHOLKAR_GEORGE), 3, 0, 10, seed=3)
        with pytest.raises(UnsupportedExactError):
            ks_distance(dump)

    def test_critical_levels(self):
        assert ks_critical_value(4999, 0.01) == pytest.approx(1.629 / np.sqrt(4999), abs=1e-12)
        with pytest.raises(DomainError):
            ks_critical_value(4999, 0.2)


class TestCsvDump:
    def test_row_count_and_columns(self, tmp_path):
        dump = ecdf(MethodSpec(Method.CHEN), 10, 0, 250, seed=9)
        path = tmp_path / "ecdf.csv"
        write_ecdf_csv(dump, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,ecdf,exact_cdf"
        assert len(lines) == 251
        x, h, c = map(float, lines[1].split(","))
        assert h == pytest.approx(1 / 250)
        assert 0.0 <= c <= 1.0

    def test_without_exact_column(self, tmp_path):
        dump = ecdf(MethodSpec(Method.MUDHOLKAR_GEORGE), 4, 1, 50, seed=10)
        path = tmp_path / "plain.csv"
        write_ecdf_csv(dump, path)
        assert path.read_text().splitlines()[0] == "x,ecdf"

    @pytest.mark.parametrize("method, n_f, header", [
        (Method.TIPPETT, 2, "x,ecdf,exact_cdf"),
        (Method.FISHER, 1, "x,ecdf"),
    ], ids=["law-with-fakes", "law-only-without-fakes"])
    def test_exact_column_exactly_when_a_law_exists(self, method, n_f, header, tmp_path):
        path = tmp_path / "ecdf.csv"
        write_ecdf_csv(ecdf(MethodSpec(method), 4, n_f, 20, seed=4), path)
        lines = path.read_text().splitlines()
        assert lines[0] == header
        assert all(len(ln.split(",")) == header.count(",") + 1 for ln in lines)
