"""Command-line surface: flags, outputs, exit codes, and decision semantics."""

import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

import metacrit.cli as cli
import metacrit.sampling as sampling
import metacrit.tables as tables
from metacrit.cli import main
from metacrit.estimation import simulate_cells, simulate_quantiles
from metacrit.methods import Method, MethodSpec
from metacrit.sampling import SimConfig
from metacrit.tables import generate_table, read_csv, write_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def source_flags(source, tmp_path, capsys):
    # the flags that pick one source of `critical`; --table names a small mg table
    if source != "--table":
        return [source]
    path = tmp_path / "mg.csv"
    run(capsys, "gen-table", "--method", "mg", "--n-max", "4",
        "--N", "99", "--R", "2", "--out", str(path))
    return [source, str(path)]


class TestGenTable:
    def test_exact_tippett_matches_published(self, tmp_path, capsys, reference_tables):
        out = tmp_path / "t.csv"
        code, _, _ = run(capsys, "gen-table", "--method", "tippett", "--n-max", "5",
                         "--out", str(out))
        assert code == 0
        table = read_csv(out)
        ref = reference_tables["tippett"]
        for cell in table.cells.values():
            printed, _ = ref[(cell.n, cell.n_f, cell.q)]
            assert abs(cell.estimate - printed) <= 5.5e-6

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "gen-table", "--method", "fisher",
                             "--n-min", "3", "--n-max", "3", "--seed", "7",
                             "--N", "199", "--R", "3", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_off_grid_q_is_accepted(self, tmp_path, capsys):
        # any q inside (0, 1) works: exact where a law exists, simulated
        # elsewhere
        out = tmp_path / "q.csv"
        code, _, _ = run(capsys, "gen-table", "--method", "fisher",
                         "--n-min", "3", "--n-max", "3", "--N", "99", "--R", "2",
                         "--q-list", "0.007", "--out", str(out))
        assert code == 0
        table = read_csv(out)
        assert all(c.q == 0.007 for c in table.cells.values())
        assert all(c.provenance == ("exact" if c.n_f == 0 else "simulated")
                   for c in table.cells.values())

    def test_q_outside_unit_interval_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-table", "--method", "fisher",
                           "--q-list", "1.5", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "strictly inside" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_rejected(self, workers, tmp_path, capsys):
        code, _, err = run(capsys, "gen-table", "--method", "tippett", "--n-max", "3",
                           "--workers", workers, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "error: workers must be >= 1" in err


class TestCritical:
    def test_stouffer_exact(self, capsys):
        code, out, _ = run(capsys, "critical", "--method", "stouffer", "--n", "20",
                           "--nf", "0", "--q", "0.975", "--exact")
        assert code == 0
        assert abs(float(out.split()[0]) - 1.9600) <= 5e-5
        assert "(exact)" in out

    def test_gm_exact(self, capsys):
        code, out, _ = run(capsys, "critical", "--method", "gm", "--n", "3",
                           "--nf", "0", "--q", "0.9", "--exact")
        assert code == 0
        assert abs(float(out.split()[0]) - 0.69256) <= 5e-5

    def test_edgington_exact_past_twelve(self, capsys):
        code, out, _ = run(capsys, "critical", "--method", "edgington", "--n", "26",
                           "--nf", "0", "--q", "0.05", "--exact")
        assert code == 0
        assert out.strip() == "0.406825 (exact)"

    def test_exact_unsupported_suggests_simulate(self, capsys):
        code, _, err = run(capsys, "critical", "--method", "fisher", "--n", "3",
                           "--nf", "1", "--q", "0.95", "--exact")
        assert code == 3
        assert "--simulate" in err

    def test_simulate(self, capsys):
        code, out, _ = run(capsys, "critical", "--method", "fisher", "--n", "3",
                           "--nf", "1", "--q", "0.95", "--simulate",
                           "--N", "999", "--R", "5", "--seed", "3")
        assert code == 0
        assert "(simulated)" in out and "stderr=" in out
        assert abs(float(out.split()[0]) - 13.8175) < 0.5

    def test_table_lookup_and_miss(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        run(capsys, "gen-table", "--method", "fisher", "--n-min", "3", "--n-max", "3",
            "--N", "99", "--R", "2", "--out", str(path))
        code, out, _ = run(capsys, "critical", "--method", "fisher", "--n", "3",
                           "--nf", "0", "--q", "0.005", "--table", str(path))
        assert code == 0
        assert abs(float(out.split()[0]) - 0.6757) <= 5e-5
        code, _, err = run(capsys, "critical", "--method", "fisher", "--n", "9",
                           "--nf", "0", "--q", "0.005", "--table", str(path))
        assert code == 3
        assert "available n" in err

    @pytest.mark.parametrize("key, line", [
        (("--n", "30", "--nf", "0", "--q", "0.95"),
         "error: no cells for n=30 (method mg); available n: 3..4"),
        (("--n", "3", "--nf", "1", "--q", "0.97"),
         "error: no cell at q=0.97 for (n=3, n_f=1); nearest tabulated q is 0.975 of "
         "0.005, 0.01, 0.025, 0.05, 0.1, 0.9, 0.95, 0.975, 0.99, 0.995"),
    ], ids=["n", "q"])
    def test_table_miss_message_is_plain(self, key, line, tmp_path, capsys):
        # the lookup error's own words, unquoted, and the levels as numbers
        path = tmp_path / "mg.csv"
        run(capsys, "gen-table", "--method", "mg", "--n-max", "4",
            "--N", "99", "--R", "2", "--out", str(path))
        code, out, err = run(capsys, "critical", "--method", "mg", *key, "--table", str(path))
        assert (code, out, err) == (3, "", line + "\n")

    @pytest.mark.parametrize("q", ["1.5", "nan", "0"])
    @pytest.mark.parametrize("source", ["--exact", "--table", "--simulate"])
    def test_impossible_level_is_usage_error(self, source, q, tmp_path, capsys):
        # one check before any source: never a table miss or a missing law
        code, out, err = run(capsys, "critical", "--method", "mg", "--n", "3", "--nf", "1",
                             "--q", q, *source_flags(source, tmp_path, capsys),
                             "--N", "99", "--R", "2")
        assert (code, out) == (2, "")
        assert err == "error: quantile levels must lie strictly inside (0, 1)\n"

    def test_requires_exactly_one_source(self, capsys):
        # argparse's required group: its usage error, as for a bad --seed;
        # no source given, then two
        for sources in [(), ("--exact", "--simulate")]:
            with pytest.raises(SystemExit) as exc:
                main(["critical", "--method", "fisher", "--n", "3", "--nf", "0", "--q", "0.95",
                      *sources])
            assert exc.value.code == 2

    @pytest.mark.parametrize("n, nf", [("3", "5"), ("0", "0"), ("3", "-1")])
    @pytest.mark.parametrize("source", ["--exact", "--table", "--simulate"])
    def test_impossible_cell_is_usage_error(self, source, n, nf, tmp_path, capsys):
        # one check before any source: never a table miss
        code, out, err = run(capsys, "critical", "--method", "mg", "--n", n, "--nf", nf,
                             "--q", "0.95", *source_flags(source, tmp_path, capsys),
                             "--N", "99", "--R", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"n={n}" in err and f"n_f={nf}" in err


class TestCombine:
    def test_tippett_reject(self, capsys):
        code, out, _ = run(capsys, "combine", "--method", "tippett", "--nf", "0",
                           "--alpha", "0.05", "--p", "0.012,0.8,0.6")
        assert code == 0
        assert "statistic = 0.012" in out
        assert "0.0169524" in out
        assert "decision: reject" in out

    def test_fisher_retain(self, capsys):
        code, out, _ = run(capsys, "combine", "--method", "fisher", "--nf", "0",
                           "--alpha", "0.05", "--p", "0.5,0.5,0.5")
        assert code == 0
        assert "statistic = 4.15888" in out
        assert "12.5916" in out
        assert "decision: retain" in out

    def test_stouffer_retain(self, capsys):
        code, out, _ = run(capsys, "combine", "--method", "stouffer", "--nf", "0",
                           "--alpha", "0.05", "--p", "0.5,0.5")
        assert code == 0
        assert "statistic = 0" in out
        assert "decision: retain" in out

    def test_level_label(self, capsys):
        # 1 - 1e-7 keeps its digits; complements such as 1 - 0.07 print short
        code, out, _ = run(capsys, "combine", "--method", "fisher", "--nf", "0",
                           "--alpha", "1e-7", "--p", "0.5,0.5,0.5")
        assert code == 0
        assert "critical[q=0.9999999] = " in out
        code, out, _ = run(capsys, "combine", "--method", "chen", "--nf", "0",
                           "--alpha", "0.14", "--p", "0.5,0.5,0.5")
        assert code == 0
        assert "critical[q=0.07] = " in out
        assert "critical[q=0.93] = " in out

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "combine", "--method", "chen", "--nf", "0",
                           "--alpha", "0.05", "--p", "0.2,0.7,0.4", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == "chen"
        assert rec["tail"] == "both"
        assert len(rec["criticals"]) == 2
        assert rec["criticals"][0]["source"] == "exact"
        assert rec["reject"] is False

    def test_edgington_twenty_pvalues_exact(self, capsys):
        p = ",".join(f"{0.05 * k:.2f}" for k in range(1, 20)) + ",0.5"
        code, out, _ = run(capsys, "combine", "--method", "edgington", "--nf", "0",
                           "--alpha", "0.05", "--p", p, "--json")
        assert code == 0
        rec = json.loads(out)
        assert [c["source"] for c in rec["criticals"]] == ["exact"]
        assert rec["reject"] is False

    def test_tail_both_simulates_once(self, capsys, monkeypatch):
        calls = []

        def counting(spec, cells, sim, workers=1):
            calls.extend(q_list for _, _, q_list in cells)
            return simulate_cells(spec, cells, sim, workers)

        monkeypatch.setattr(tables, "simulate_cells", counting)
        code, out, _ = run(capsys, "combine", "--method", "chen", "--nf", "1",
                           "--tail", "both", "--alpha", "0.05", "--p", "0.2,0.7,0.4",
                           "--N", "499", "--R", "4", "--seed", "21", "--json")
        assert code == 0
        assert calls == [(0.025, 0.975)]
        rec = json.loads(out)
        for crit in rec["criticals"]:
            cfg = SimConfig(n=3, n_f=1, N=499, R=4, seed=21, q_list=(crit["q"],))
            alone = simulate_quantiles(MethodSpec(Method.CHEN), cfg)[0]
            assert crit["source"] == "simulated"
            assert crit["value"] == alone.estimate
            assert crit["stderr"] == alone.stderr

    def test_simulated_record_replays(self, capsys):
        code, out, _ = run(capsys, "combine", "--method", "stouffer", "--nf", "1",
                           "--alpha", "0.05", "--p", "0.2,0.7,0.4,0.1",
                           "--N", "299", "--R", "3", "--seed", "0x51", "--json")
        assert code == 0
        crit = json.loads(out)["criticals"][0]
        assert (crit["source"], crit["seed"], crit["N"], crit["R"]) == ("simulated", 0x51, 299, 3)
        cfg = SimConfig(n=4, n_f=1, N=crit["N"], R=crit["R"], seed=crit["seed"],
                        q_list=(crit["q"],))
        assert simulate_quantiles(MethodSpec(Method.STOUFFER), cfg)[0].estimate == crit["value"]
        code, out, _ = run(capsys, "critical", "--method", "stouffer", "--n", "4", "--nf", "1",
                           "--q", repr(crit["q"]), "--simulate", "--seed", str(crit["seed"]),
                           "--N", str(crit["N"]), "--R", str(crit["R"]))
        assert code == 0
        assert out.split()[0] == f"{crit['value']:.6g}"

    @pytest.mark.parametrize("nf, sim", [("0", {}), ("1", {"seed": 7, "N": 99, "R": 3})],
                             ids=["exact", "simulated"])
    def test_exact_record_keys(self, nf, sim, capsys):
        # the keys and their order are fixed; only a simulated critical value
        # carries the seed, N and R that reproduce it
        code, out, _ = run(capsys, "combine", "--method", "fisher", "--nf", nf,
                           "--alpha", "0.05", "--p", "0.2,0.7,0.4",
                           "--N", "99", "--R", "3", "--seed", "7", "--json")
        assert code == 0
        rec = json.loads(out)
        assert list(rec) == ["method", "tail", "n", "n_f", "alpha", "statistic", "criticals",
                             "reject"]
        [crit] = rec["criticals"]
        assert list(crit) == ["q", "value", "source", "stderr", *sim]
        assert {key: crit[key] for key in sim} == sim

    def test_tail_both_reads_table_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "chen.csv"
        assert main(["gen-table", "--method", "chen", "--n-min", "3", "--n-max", "3",
                     "--N", "199", "--R", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        reads = []

        def counting(table_path):
            reads.append(table_path)
            return read_csv(table_path)

        monkeypatch.setattr(cli, "read_csv", counting)
        monkeypatch.setattr(tables, "simulate_cells", None)  # any call fails
        code, out, _ = run(capsys, "combine", "--method", "chen", "--nf", "1",
                           "--alpha", "0.05", "--p", "0.2,0.7,0.4",
                           "--table", str(path), "--json")
        assert code == 0
        assert reads == [str(path)]
        assert [c["source"] for c in json.loads(out)["criticals"]] == ["table", "table"]

    def test_permutation_invariant_decision(self, capsys):
        _, out_a, _ = run(capsys, "combine", "--method", "mg", "--nf", "1",
                          "--alpha", "0.1", "--p", "0.02,0.9,0.33",
                          "--N", "499", "--R", "3", "--seed", "11", "--json")
        _, out_b, _ = run(capsys, "combine", "--method", "mg", "--nf", "1",
                          "--alpha", "0.1", "--p", "0.33,0.02,0.9",
                          "--N", "499", "--R", "3", "--seed", "11", "--json")
        ra, rb = json.loads(out_a), json.loads(out_b)
        assert ra["reject"] == rb["reject"]
        assert ra["statistic"] == pytest.approx(rb["statistic"], rel=1e-12)

    def test_tail_override(self, capsys):
        code, out, _ = run(capsys, "combine", "--method", "fisher", "--nf", "0",
                           "--alpha", "0.05", "--p", "0.5,0.5,0.5",
                           "--tail", "lower", "--json")
        assert code == 0
        assert json.loads(out)["tail"] == "lower"

    def test_p_file(self, tmp_path, capsys):
        pfile = tmp_path / "pvals.txt"
        pfile.write_text("0.012\n0.8\n0.6\n")
        code, out, _ = run(capsys, "combine", "--method", "tippett", "--nf", "0",
                           "--alpha", "0.05", "--p-file", str(pfile))
        assert code == 0
        assert "decision: reject" in out

    def test_fisher_exact_at_twenty_thousand_pvalues(self, tmp_path, capsys):
        # the exact law holds at any n: a large n is no numeric failure
        pfile = tmp_path / "pvals.txt"
        pfile.write_text("".join(f"{(i + 0.5) / 20000!r}\n" for i in range(20000)))
        code, out, err = run(capsys, "combine", "--method", "fisher", "--nf", "0",
                             "--alpha", "0.05", "--p-file", str(pfile))
        assert (code, err) == (0, "")
        assert "(exact)" in out
        assert "decision: retain" in out

    def test_bad_pvalue_rejected(self, capsys):
        code, _, err = run(capsys, "combine", "--method", "fisher", "--nf", "0",
                           "--alpha", "0.05", "--p", "0.5,1.0")
        assert code == 2

    def test_nf_larger_than_n_rejected(self, capsys):
        code, _, _ = run(capsys, "combine", "--method", "fisher", "--nf", "4",
                         "--alpha", "0.05", "--p", "0.5,0.5")
        assert code == 2

    @pytest.mark.parametrize("pvalues", [(), ("--p", "0.5,0.5", "--p-file", "p.txt")],
                             ids=["none", "both"])
    def test_requires_exactly_one_pvalue_source(self, pvalues):
        with pytest.raises(SystemExit) as exc:
            main(["combine", "--method", "fisher", "--nf", "0", "--alpha", "0.05", *pvalues])
        assert exc.value.code == 2


class TestSourceUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("combine", "--method", "mg", "--nf", "1", "--alpha", "0.05", "--p", "0.1,0.2,0.3"),
        ("critical", "--method", "mg", "--n", "3", "--nf", "1", "--q", "0.95"),
        # an exact law does not make a named table unread
        ("combine", "--method", "tippett", "--nf", "0", "--alpha", "0.05", "--p", "0.1,0.2"),
    ], ids=["combine", "critical", "combine-exact"])
    def test_missing_table_file_is_usage_error(self, argv, tmp_path):
        # like a missing --p-file: the command line names a file that is not there
        proc = subprocess.run([sys.executable, "-m", "metacrit.cli", *argv,
                               "--table", str(tmp_path / "absent.csv")],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv,flag", [
        (("critical", "--method", "mg", "--n", "3", "--nf", "1", "--q", "0.95"), "--table"),
        (("combine", "--method", "mg", "--nf", "1", "--alpha", "0.05"), "--p-file"),
    ], ids=lambda a: a if isinstance(a, str) else a[0])
    def test_non_utf8_file_is_usage_error(self, argv, flag, tmp_path):
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfe\x00\x81binary")
        proc = subprocess.run([sys.executable, "-m", "metacrit.cli", *argv, flag, str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert f"error: cannot read {path}:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("gen-table", "--method", "mg", "--n-max", "4", "--N", "99", "--R", "2"),
        ("ecdf", "--method", "mg", "--n", "3", "--nf", "1", "--N", "99"),
    ], ids=lambda a: a[0])
    def test_unwritable_out_is_usage_error(self, argv, tmp_path):
        # refused before any work: no table or ECDF is computed first
        path = tmp_path / "absent" / "x.csv"
        proc = subprocess.run([sys.executable, "-m", "metacrit.cli", *argv, "--out", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert f"error: cannot write {path}:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_writable_out_check_leaves_no_file(self, tmp_path, capsys):
        # the check creates the file only to remove it again; a later failure
        # leaves nothing behind
        path = tmp_path / "x.csv"
        code, _, _ = run(capsys, "gen-table", "--method", "mg", "--n-max", "4", "--N", "0",
                         "--out", str(path))
        assert code == 2
        assert not path.exists()

    @pytest.mark.parametrize("meta", ["seed=abc", "N=", "R=1.5",
                                      "seed=0b101", "seed=-5", "N=0", "R=0",
                                      "sede=7", "n=99", "version=0.1.0"])
    def test_bad_table_metadata_is_usage_error(self, meta, tmp_path):
        path = tmp_path / "fisher.csv"
        path.write_text(f"# version=0.1.0\n# {meta}\nmethod,n,n_f,q,estimate,stderr,provenance\n")
        proc = subprocess.run([sys.executable, "-m", "metacrit.cli", "combine", "--method",
                               "fisher", "--nf", "1", "--alpha", "0.05", "--p", "0.1,0.2,0.3",
                               "--table", str(path)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "error: line 2: bad metadata" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_leading_zero_seed_metadata_is_decimal(self, tmp_path, capsys):
        # the table header takes the --seed syntax: 010 is ten
        path = tmp_path / "mg.csv"
        assert main(["gen-table", "--method", "mg", "--n-min", "3", "--n-max", "3",
                     "--N", "99", "--R", "2", "--seed", "10", "--out", str(path)]) == 0
        capsys.readouterr()
        path.write_text(path.read_text().replace("# seed=10\n", "# seed=010\n"))
        code, out, err = run(capsys, "combine", "--method", "mg", "--nf", "1", "--alpha", "0.05",
                             "--p", "0.1,0.2,0.3", "--table", str(path), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["criticals"][0]["source"] == "table"

    def test_row_decreasing_in_q_is_usage_error(self, tmp_path, capsys):
        # a lower critical value above the upper one would decide against both
        path = tmp_path / "mg.csv"
        path.write_text("method,n,n_f,q,estimate,stderr,provenance\n"
                        "mg,3,1,0.05,12.0,0.1,simulated\nmg,3,1,0.95,10.0,,simulated\n")
        code, out, err = run(capsys, "combine", "--method", "mg", "--nf", "1", "--alpha", "0.1",
                             "--tail", "both", "--p", "0.1,0.2,0.3", "--table", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 3: estimates must not decrease as q grows")

    # a nan critical would retain and a -inf one reject; a duplicate row is
    # ambiguous
    @pytest.mark.parametrize("row", ["fisher,3,1,0.95,nan,0.1,simulated",
                                     "fisher,3,1,0.95,-inf,0.1,simulated",
                                     "fisher,3,0,0.95,12.5916,,exact"],
                             ids=["nan", "-inf", "duplicate"])
    def test_bad_table_row_is_usage_error(self, row, tmp_path):
        path = tmp_path / "fisher.csv"
        path.write_text(f"method,n,n_f,q,estimate,stderr,provenance\n"
                        f"fisher,3,0,0.95,12.5916,,exact\n{row}\n")
        proc = subprocess.run([sys.executable, "-m", "metacrit.cli", "combine", "--method",
                               "fisher", "--nf", "1", "--alpha", "0.05", "--p", "0.01,0.02,0.03",
                               "--table", str(path)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "error: line 3: " in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--N", "--R"])
    def test_bad_sim_size_rejected_on_table_hit(self, flag, tmp_path, capsys):
        path = tmp_path / "mg.csv"
        assert main(["gen-table", "--method", "mg", "--n-min", "3", "--n-max", "3",
                     "--N", "99", "--R", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        argv = ("combine", "--method", "mg", "--nf", "1", "--alpha", "0.05",
                "--p", "0.2,0.7,0.4", "--table", str(path), "--json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["criticals"][0]["source"] == "table"
        code, _, err = run(capsys, *argv, flag, "0")
        assert code == 2
        assert "error:" in err


# one command of each kind that may simulate; {out} is a file in tmp_path
SIM_ARGV = {
    "gen-table": ("gen-table", "--method", "mg", "--n-max", "3", "--out", "{out}"),
    "critical": ("critical", "--method", "mg", "--n", "3", "--nf", "1", "--q", "0.95",
                 "--simulate"),
    "combine": ("combine", "--method", "mg", "--nf", "1", "--alpha", "0.05",
                "--p", "0.2,0.7,0.4"),
    "validate": ("validate", "--method", "tippett", "--n", "3", "--nf", "0"),
    "ecdf": ("ecdf", "--method", "tippett", "--n", "3", "--nf", "0", "--out", "{out}"),
}
BAD_SIM_VALUES = (
    [(command, flag, value) for command in SIM_ARGV
     for flag, value in (("--N", "0"), ("--R", "0"), ("--seed", "-1"))
     if flag != "--R" or command not in ("validate", "ecdf")]  # these two take no --R
    + [("gen-table", "--workers", "0"), ("gen-table", "--q-list", ","),
       ("gen-table", "--q-list", ""), ("gen-table", "--n-min", "0"),
       ("combine", "--alpha", "1.5")]
)


class TestSimulationParameters:
    @pytest.mark.parametrize("command, flag, value", BAD_SIM_VALUES,
                             ids=[" ".join(case) for case in BAD_SIM_VALUES])
    def test_bad_value_is_one_line_usage_error(self, command, flag, value, tmp_path, capsys):
        # each rule raises DomainError from its one owner: exit 2, one line
        argv = [arg.format(out=tmp_path / "x.csv") for arg in SIM_ARGV[command]]
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


class TestValidateAndEcdf:
    def test_validate_tippett(self, capsys):
        code, out, _ = run(capsys, "validate", "--method", "tippett", "--n", "5",
                           "--nf", "3", "--seed", "42")
        assert code == 0
        ks = float(out.split("ks_distance = ")[1].split()[0])
        assert ks <= 1.63 / 4999**0.5

    def test_validate_edgington_past_twelve(self, capsys):
        code, out, _ = run(capsys, "validate", "--method", "edgington", "--n", "20",
                           "--nf", "0")
        assert code == 0
        assert "fit at the 1% level: consistent" in out

    def test_validate_unsupported(self, capsys):
        code, _, err = run(capsys, "validate", "--method", "mg", "--n", "3", "--nf", "0")
        assert code == 3

    def test_ecdf_row_count(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code, _, _ = run(capsys, "ecdf", "--method", "chen", "--n", "10", "--nf", "0",
                         "--N", "4999", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 5000

    @pytest.mark.parametrize("method", ["mg", "chen"])
    def test_empty_sample_is_usage_error(self, method, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "metacrit.cli", "ecdf",
                               "--method", method, "--n", "0", "--nf", "0",
                               "--out", str(tmp_path / "x.csv")],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_method_is_usage_error(self, capsys):
        code, _, err = run(capsys, "validate", "--method", "pearson", "--n", "3", "--nf", "0")
        assert code == 2


class TestMemoryFailure:
    def test_absurd_N_is_numeric_failure(self):
        # numpy rejects this size before allocating anything
        proc = subprocess.run([sys.executable, "-m", "metacrit.cli", "critical",
                               "--method", "mg", "--n", "5", "--nf", "0", "--q", "0.5",
                               "--simulate", "--N", "4000000000000000000", "--R", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "numeric failure" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_absurd_N_of_normal_scores_is_numeric_failure(self):
        # chen draws normal scores, not uniforms
        proc = subprocess.run([sys.executable, "-m", "metacrit.cli", "critical",
                               "--method", "chen", "--n", "5", "--nf", "1", "--q", "0.5",
                               "--simulate", "--N", "4000000000000000000", "--R", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "numeric failure" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("combine", "--method", "mg", "--alpha", "0.05", "--nf", "1", "--p", "0.1,0.2,0.3"),
        ("validate", "--method", "tippett", "--n", "5", "--nf", "0"),
        ("ecdf", "--method", "chen", "--n", "5", "--nf", "0", "--out", "unused.csv"),
    ], ids=lambda a: a[0])
    def test_sampler_memory_error_exits_1(self, argv, capsys, monkeypatch, tmp_path):
        def exhausted(stream, shape, scores):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(sampling, "_draw", exhausted)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "numeric failure" in err

    def test_dead_worker_exits_1(self, tmp_path, capsys, monkeypatch):
        # a stand-in pool whose worker dies, as one killed by the OOM killer
        class DyingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                raise BrokenProcessPool("worker killed")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, _, err = run(capsys, "gen-table", "--method", "mg", "--n-min", "3",
                           "--n-max", "3", "--N", "99", "--R", "2", "--workers", "2",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err.startswith("numeric failure: table generation failed for 4 cell(s)")
        assert "ChildProcessError: worker killed" in err
        assert err.count("\n") == 1


class TestSeedHandling:
    def test_hex_seed(self, tmp_path, capsys):
        # 0x-hex, or decimal even with a leading zero
        out = tmp_path / "h.csv"
        for text, seed in (("0x4D2", 1234), ("010", 10)):
            code, _, _ = run(capsys, "gen-table", "--method", "harmonic",
                             "--n-min", "3", "--n-max", "3", "--N", "99", "--R", "2",
                             "--seed", text, "--out", str(out))
            assert code == 0
            assert read_csv(out).seed == seed

    def test_bad_seed_is_usage_error(self, capsys):
        # a binary or octal prefix is no seed syntax
        for text in ("xyz", "0b101"):
            with pytest.raises(SystemExit) as exc:
                main(["validate", "--method", "tippett", "--n", "3", "--nf", "0",
                      "--seed", text])
            assert exc.value.code == 2, text

    def test_seed_variable_is_ignored(self, tmp_path, capsys, monkeypatch):
        # the seed comes from --seed or its default, never the environment
        monkeypatch.setenv("METACRIT_SEED", "999")
        out = tmp_path / "d.csv"
        code, _, _ = run(capsys, "gen-table", "--method", "harmonic",
                         "--n-min", "3", "--n-max", "3", "--N", "99", "--R", "2",
                         "--out", str(out))
        assert code == 0
        assert "# seed=20240101\n" in out.read_text()

    @pytest.mark.parametrize("flags", [("--seed", "-1")], ids=["negative-flag"])
    def test_seed_is_ignored_where_nothing_simulates(self, flags, capsys):
        # an exact answer reads no seed, so --seed is not checked
        code, out, err = run(capsys, "critical", "--method", "fisher", "--n", "3", "--nf", "0",
                             "--q", "0.95", "--exact", *flags)
        assert (code, err) == (0, "")
        assert out.endswith("(exact)\n")


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "metacrit.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-table" in proc.stdout

    def test_cold_start_imports_no_heavy_module(self):
        # numpy loads with the first simulation, concurrent.futures (and the
        # logging it pulls in) where a pool starts, and the records need no
        # dataclasses (nor the inspect it pulls in); what the interpreter
        # loaded before, a site hook's imports included, does not count
        script = ("import sys; before = set(sys.modules); import metacrit.cli; "
                  "print(*sorted(set(sys.modules) - before), sep='\\n')")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert "metacrit.cli" in added
        assert not added & {"dataclasses", "inspect", "numpy", "concurrent.futures"}
        assert "metacrit.diagnostics" not in added

    @pytest.mark.parametrize("statement, loads", [
        ("import metacrit", set()),
        ("from metacrit import exact_quantile",
         {"metacrit.exact", "metacrit.methods", "metacrit.special"}),
    ], ids=["package", "exact_quantile"])
    def test_a_name_loads_only_its_modules(self, statement, loads):
        # the package namespace is lazy: a name imports the module that
        # defines it, and that module's own imports, on first use
        script = (f"import sys; before = set(sys.modules); {statement}; "
                  "print(*sorted(set(sys.modules) - before), sep='\\n')")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert {m for m in added if m.startswith("metacrit.")} == loads

    def test_lazy_namespace(self):
        # a submodule still imports by name, an unknown name is an
        # AttributeError, and dir() lists every public name before it loads
        script = ("import metacrit\n"
                  "names = set(dir(metacrit))\n"
                  "from metacrit import cli\n"
                  "assert cli.main is metacrit.cli.main\n"
                  "try:\n"
                  "    metacrit.no_such_name\n"
                  "except AttributeError as exc:\n"
                  "    assert 'no_such_name' in str(exc)\n"
                  "else:\n"
                  "    raise SystemExit('no AttributeError')\n"
                  "missing = set(metacrit.__all__) - names\n"
                  "assert not missing, missing\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_exact_and_table_paths_import_no_numpy(self, tmp_path):
        # numpy loads with the first simulation: an exact or --table decision,
        # from a cold start, never imports it
        table = tmp_path / "mg.csv"
        write_csv(generate_table(MethodSpec(Method.MUDHOLKAR_GEORGE), n_min=3, n_max=3,
                                 N=99, R=2), table)
        p = ["--alpha", "0.05", "--p", "0.01,0.2,0.3"]
        runs = [["combine", "--method", "fisher", "--nf", "0", *p],
                ["combine", "--method", "stouffer", "--nf", "0", *p],
                ["combine", "--method", "tippett", "--nf", "2", *p],
                ["combine", "--method", "mg", "--nf", "2", "--table", str(table), *p],
                ["critical", "--method", "wilkinson", "--n", "5", "--nf", "2", "--q", "0.05",
                 "--exact"],
                ["combine", "--method", "mg", "--nf", "1", "--N", "99", "--R", "2", *p]]
        script = ("import json, sys, metacrit, metacrit.cli, metacrit.diagnostics\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    print(metacrit.cli.main(argv), 'numpy' in sys.modules, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # the last run simulates, and that alone loads numpy
        assert proc.stderr.splitlines() == ["0 False"] * 5 + ["0 True"]

    def test_unknown_flag_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "metacrit.cli", "combine",
                               "--frobnicate"], capture_output=True, text=True)
        assert proc.returncode == 2
