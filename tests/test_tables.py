"""Grid layout, table generation, CSV round-trips, and lookup behavior."""

import concurrent.futures
import hashlib
import os

import numpy as np
import pytest

import metacrit.estimation as estimation
import metacrit.tables as tables
from metacrit.estimation import simulate_cells, simulate_quantiles
from metacrit.exact import UnsupportedExactError, exact_quantile
from metacrit.methods import Method, MethodSpec, parse_method
from metacrit.sampling import SimConfig, replica_stream
from metacrit.special import DomainError
from metacrit.tables import (
    CriticalValueTable,
    TableCell,
    TableGenerationError,
    TableLookupError,
    TableParseError,
    default_grid,
    generate_table,
    lookup,
    read_csv,
    resolve_quantiles,
    write_csv,
)


class TestDefaultGrid:
    def test_small_n_carry_three_fakes(self):
        pairs = dict()
        for n, n_f in default_grid():
            pairs.setdefault(n, []).append(n_f)
        assert pairs[3] == [0, 1, 2, 3]
        assert pairs[11] == [0, 1, 2, 3]
        assert pairs[12] == [0, 1, 2, 3, 4]
        assert pairs[26] == list(range(9))

    def test_pair_count_by_enumeration(self):
        # brute-force the published layout: n_f up to max(3, n // 3)
        expected = sum(
            1 for n in range(3, 27) for n_f in range(max(3, n // 3) + 1)
        )
        assert expected == 141
        assert len(default_grid()) == expected

    def test_cap_never_exceeds_n(self):
        for n, n_f in default_grid(n_min=1, n_max=4):
            assert n_f <= n

    def test_rejects_bad_range(self):
        with pytest.raises(DomainError):
            default_grid(5, 4)


class TestGenerateExact:
    def test_tippett_cells_match_beta_quantiles(self, reference_tables):
        spec = MethodSpec(Method.TIPPETT)
        table = generate_table(spec, n_min=3, n_max=6)
        ref = reference_tables["tippett"]
        for cell in table.cells.values():
            assert cell.provenance == "exact"
            assert cell.stderr is None
            # cells are the exact law canonicalized to six significant digits
            assert cell.estimate == pytest.approx(
                exact_quantile(spec, cell.n, cell.n_f, cell.q), abs=5e-7
            )
            printed, _ = ref[(cell.n, cell.n_f, cell.q)]
            assert cell.estimate == pytest.approx(printed, abs=5.5e-6)

    def test_stouffer_genuine_rows_constant_in_n(self):
        table = generate_table(MethodSpec(Method.STOUFFER), n_min=3, n_max=8,
                               N=99, R=2, seed=1)
        by_q = {}
        for cell in table.cells.values():
            if cell.n_f == 0:
                by_q.setdefault(cell.q, set()).add(cell.estimate)
        assert by_q and all(len(vals) == 1 for vals in by_q.values())

    def test_no_exact_flag_simulates_everything(self):
        table = generate_table(MethodSpec(Method.TIPPETT), n_min=3, n_max=3,
                               N=499, R=3, seed=5, use_exact=False)
        assert all(c.provenance == "simulated" for c in table.cells.values())
        assert all(c.stderr is not None for c in table.cells.values())

    def test_rows_nondecreasing_in_q(self):
        table = generate_table(MethodSpec(Method.FISHER), n_min=3, n_max=6,
                               N=999, R=3, seed=9)
        rows = {}
        for c in table.cells.values():
            rows.setdefault((c.n, c.n_f), []).append((c.q, c.estimate))
        for cells in rows.values():
            ests = [e for _, e in sorted(cells)]
            assert all(b >= a for a, b in zip(ests, ests[1:]))


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        spec = MethodSpec(Method.FISHER)
        paths = []
        for run in range(2):
            table = generate_table(spec, n_min=3, n_max=4, N=199, R=3, seed=7)
            path = tmp_path / f"run{run}.csv"
            write_csv(table, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        for method in Method:
            blobs = []
            for workers in (1, 2):
                table = generate_table(MethodSpec(method), n_min=3, n_max=4, N=199, R=3,
                                       seed=11, use_exact=False, workers=workers)
                path = tmp_path / f"{method.token}-w{workers}.csv"
                write_csv(table, path)
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1], method.token

    @pytest.fixture
    def recorded(self, monkeypatch):
        # a serial stand-in for the pool: no process is started, and the
        # max_workers of every pool built is recorded
        recorded = []

        class SerialPool:
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return recorded

    # n = 1 has two (n, n_f) rows, n = 3 has four
    @pytest.mark.parametrize("n, cores", [(1, 16), (3, 2)])
    def test_workers_clamped_to_jobs_and_cores(self, monkeypatch, recorded, n, cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        table = generate_table(MethodSpec(Method.MUDHOLKAR_GEORGE), n_min=n, n_max=n,
                               N=99, R=2, seed=5, workers=64)
        assert recorded == [2]
        assert len(table.cells) == len(default_grid(n, n)) * 10

    def test_workers_clamped_to_replicas_not_rows(self, monkeypatch, recorded):
        # n = 1 has two (n, n_f) rows but five replicas to share out
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        generate_table(MethodSpec(Method.MUDHOLKAR_GEORGE), n_min=1, n_max=1,
                       N=99, R=5, seed=5, workers=64)
        assert recorded == [5]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_replica_drawn_once(self, monkeypatch, recorded, workers):
        drawn = []

        def counting(seed, replica_index):
            drawn.append(replica_index)
            return replica_stream(seed, replica_index)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(estimation, "replica_stream", counting)
        generate_table(MethodSpec(Method.MUDHOLKAR_GEORGE), n_min=3, n_max=5,
                       N=99, R=4, seed=5, workers=workers)
        assert sorted(drawn) == [0, 1, 2, 3]
        assert recorded == ([2] if workers == 2 else [])

    # an all-exact grid has no replica to share out, and one replica no one
    # to share it with
    @pytest.mark.parametrize("method, n_max, R", [(Method.TIPPETT, 26, 50),
                                                  (Method.MUDHOLKAR_GEORGE, 4, 1)],
                             ids=["all-exact", "one-replica"])
    def test_starts_no_pool(self, monkeypatch, recorded, method, n_max, R):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        generate_table(MethodSpec(method), n_min=3, n_max=n_max, N=99, R=R, seed=5, workers=4)
        assert recorded == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(DomainError, match="workers must be >= 1"):
            generate_table(MethodSpec(Method.TIPPETT), n_min=3, n_max=3, workers=workers)

    @pytest.mark.parametrize("method", [Method.TIPPETT, Method.MUDHOLKAR_GEORGE],
                             ids=lambda m: m.token)
    def test_negative_seed_rejected(self, method):
        # refused before any cell, on an all-exact grid as on a simulated one
        with pytest.raises(DomainError, match="seed must be nonnegative"):
            generate_table(MethodSpec(method), n_min=3, n_max=3, seed=-1)


class TestCsv:
    def test_round_trip_identity(self, tmp_path):
        table = generate_table(MethodSpec(Method.CHEN), n_min=3, n_max=4,
                               N=199, R=3, seed=3)
        path = tmp_path / "chen.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert back == table
        path2 = tmp_path / "rewrite.csv"
        write_csv(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(CriticalValueTable(), path)
        lines = path.read_text().splitlines()
        assert lines[-1] == "method,n,n_f,q,estimate,stderr,provenance"
        assert all(ln.startswith("#") for ln in lines[:-1])

    def test_exact_cell_has_empty_stderr_field(self, tmp_path):
        table = CriticalValueTable()
        table.add(TableCell(Method.FISHER, 3, 0, 0.95, 12.5916, None, "exact"))
        path = tmp_path / "one.csv"
        write_csv(table, path)
        row = path.read_text().splitlines()[-1]
        assert row == "fisher,3,0,0.95,12.5916,,exact"

    def test_metadata_round_trip(self, tmp_path):
        table = generate_table(MethodSpec(Method.TIPPETT), n_min=3, n_max=3,
                               N=777, R=9, seed=0xBEEF)
        path = tmp_path / "meta.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert (back.seed, back.N, back.R) == (0xBEEF, 777, 9)
        assert back.version == table.version

    def test_numpy_version_recorded(self, tmp_path):
        path = tmp_path / "np.csv"
        write_csv(generate_table(MethodSpec(Method.TIPPETT), n_min=3, n_max=3), path)
        assert f"# numpy={np.__version__}" in path.read_text().splitlines()
        assert read_csv(path).numpy == np.__version__

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,n,n_f,q,estimate,stderr,provenance\nfisher,3,0\n")
        with pytest.raises(TableParseError, match="line 2"):
            read_csv(path)

    @pytest.mark.parametrize("meta", ["seed=abc", "N=4999.0", "R="])
    def test_bad_metadata_names_line(self, meta, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"# version=0.1.0\n# {meta}\nmethod,n,n_f,q,estimate,stderr,provenance\n")
        with pytest.raises(TableParseError, match="line 2: bad metadata"):
            read_csv(path)

    # each bad row with the message read_csv gives for it
    BAD_ROWS = [
        ("fisher,3,1,0.95,14.0,0.1,table", "unknown provenance 'table'"),
        ("fisher,3,0,0.95,nan,,exact", "estimate must be finite, got nan"),
        ("fisher,3,0,0.95,inf,,exact", "estimate must be finite, got inf"),
        ("fisher,3,1,0.95,-inf,0.1,simulated", "estimate must be finite, got -inf"),
        ("fisher,3,1,0.95,14.0,-0.1,simulated", "stderr must be finite and >= 0, got -0.1"),
        ("fisher,3,1,0.95,14.0,nan,simulated", "stderr must be finite and >= 0, got nan"),
        ("fisher,3,1,0.95,14.0,inf,simulated", "stderr must be finite and >= 0, got inf"),
        ("fisher,3,1,0.95,14.0,0.1,exact", "exact cells carry no standard error"),
        ("fisher,3,0,0.95,12.5916,,exact", r"duplicate table key \(fisher, n=3"),  # line 2
        # keys that break the cell or level rule could never be looked up
        ("fisher,3,5,0.95,14.0,0.1,simulated", "need n >= 1 and 0 <= n_f <= n; got n=3, n_f=5"),
        ("fisher,0,0,0.95,12.5916,,exact", "need n >= 1 and 0 <= n_f <= n; got n=0, n_f=0"),
        ("fisher,3,0,1.5,12.5916,,exact", r"quantile levels must lie strictly inside \(0, 1\)"),
        ("fisher,3,0,nan,12.5916,,exact", r"quantile levels must lie strictly inside \(0, 1\)"),
    ]

    @pytest.mark.parametrize("row, match", BAD_ROWS, ids=[row for row, _ in BAD_ROWS])
    def test_bad_row_names_line(self, row, match, tmp_path):
        # read_csv is the one way a table comes in, so it checks every row
        path = tmp_path / "bad.csv"
        path.write_text(f"method,n,n_f,q,estimate,stderr,provenance\n"
                        f"fisher,3,0,0.95,12.5916,,exact\n{row}\n")
        with pytest.raises(TableParseError, match=f"^line 3: {match}"):
            read_csv(path)

    def test_full_grid_row_count(self):
        table = generate_table(MethodSpec(Method.TIPPETT))
        assert len(table.cells) == 1410


@pytest.fixture(scope="module")
def fisher_table():
    return generate_table(MethodSpec(Method.FISHER), n_min=3, n_max=5,
                          N=199, R=3, seed=21)


class TestLookup:

    def test_hit(self, fisher_table):
        cell = lookup(fisher_table, Method.FISHER, 3, 0, 0.005)
        assert cell.provenance == "exact"
        assert cell.estimate == pytest.approx(0.6757, abs=5e-5)

    def test_off_grid_q(self, fisher_table):
        with pytest.raises(TableLookupError, match="nearest"):
            lookup(fisher_table, Method.FISHER, 3, 0, 0.007)

    def test_off_grid_n(self, fisher_table):
        with pytest.raises(TableLookupError, match="available n"):
            lookup(fisher_table, Method.FISHER, 27, 0, 0.005)

    def test_missing_method(self, fisher_table):
        with pytest.raises(TableLookupError, match="no cells"):
            lookup(fisher_table, Method.CHEN, 3, 0, 0.005)

    def test_duplicate_keys_rejected(self):
        table = CriticalValueTable()
        cell = TableCell(Method.FISHER, 3, 0, 0.5, 1.0, None, "exact")
        table.add(cell)
        with pytest.raises(DomainError):
            table.add(cell)


class TestResolveQuantiles:
    FISHER = MethodSpec(Method.FISHER)
    SIM = (99, 2, 5)  # (N, R, seed)

    @staticmethod
    def make_table():
        table = CriticalValueTable(R=3)
        # a decoy where the exact law applies, and one cell with a fake
        table.add(TableCell(Method.FISHER, 3, 0, 0.95, 99.0, None, "exact"))
        table.add(TableCell(Method.FISHER, 3, 1, 0.95, 14.0, 0.1, "simulated"))
        return table

    @pytest.mark.parametrize("n_f, q_list, with_table, with_sim, expected", [
        (0, (0.95,), True, True, ("exact",)),
        (1, (0.95,), True, True, ("table",)),
        (1, (0.95, 0.97), True, True, ("table", "simulated")),
        (1, (0.95, 0.97), True, False, TableLookupError),
        (1, (0.95,), False, False, UnsupportedExactError),
    ], ids=["exact-beats-table", "table-beats-simulation", "off-grid-level-simulates",
            "miss-without-sim-raises", "no-source-raises"])
    def test_source_order(self, n_f, q_list, with_table, with_sim, expected):
        table = self.make_table() if with_table else None
        sim = self.SIM if with_sim else None
        if not isinstance(expected, tuple):
            with pytest.raises(expected):
                resolve_quantiles(self.FISHER, [(3, n_f)], q_list, table=table, sim=sim)
            return
        [got] = resolve_quantiles(self.FISHER, [(3, n_f)], q_list, table=table, sim=sim)
        assert [est.q for est in got] == list(q_list)
        assert tuple(est.provenance for est in got) == expected
        for est in got:
            if est.provenance == "exact":
                assert est.estimate == exact_quantile(self.FISHER, 3, n_f, est.q)
                assert est.stderr is None
            elif est.provenance == "table":
                assert (est.estimate, est.stderr, est.replicas) == (14.0, 0.1, 3)
            else:
                N, R, seed = self.SIM
                cfg = SimConfig(n=3, n_f=n_f, N=N, R=R, seed=seed, q_list=(est.q,))
                assert est == simulate_quantiles(self.FISHER, cfg)[0]

    @pytest.mark.parametrize("q_list, workers, match", [
        ((), 1, "q_list must be non-empty"),
        ((0.5, 0.5), 1, "quantile levels must be strictly increasing"),
        ((0.9, 0.1), 1, "quantile levels must be strictly increasing"),
        ((0.95,), 0, "workers must be >= 1"),
    ], ids=["no-level", "repeated-level", "decreasing-levels", "no-worker"])
    @pytest.mark.parametrize("source", ["exact", "table", "simulation"])
    def test_bad_request_refused_before_any_source(self, monkeypatch, source, q_list,
                                                   workers, match):
        # the request is checked whole, the same way whichever source would answer
        def consulted(*args, **kwargs):
            raise AssertionError("a source was consulted")

        for name in ("exact_quantile", "lookup", "simulate_cells"):
            monkeypatch.setattr(tables, name, consulted)
        spec, n_f, kw = {"exact": (MethodSpec(Method.TIPPETT), 0, {}),
                         "table": (self.FISHER, 1, dict(table=self.make_table())),
                         "simulation": (self.FISHER, 1, dict(sim=self.SIM))}[source]
        with pytest.raises(DomainError, match=match):
            resolve_quantiles(spec, [(3, n_f)], q_list, workers=workers, **kw)


class TestSharedDraws:
    # a table draws each replica's stream once; every cell reads its own prefix
    SIM = dict(N=199, R=3, seed=29)
    # every method simulated in every cell, and chen once more with its exact
    # n_f = 0 cells mixed in
    METHODS = [(m.token, False) for m in Method] + [("chen", True)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("token, use_exact", METHODS,
                             ids=[f"{m}-exact" if e else m for m, e in METHODS])
    def test_table_cell_equals_cell_alone(self, token, use_exact, workers):
        spec = MethodSpec(parse_method(token))
        table = generate_table(spec, n_min=3, n_max=9, use_exact=use_exact, workers=workers,
                               **self.SIM)
        simulated = {(n, n_f) for (_, n, n_f, _), cell in table.cells.items()
                     if cell.provenance == "simulated"}
        assert len(simulated) >= 21  # all 28 cells but chen's exact n_f = 0
        for n, n_f in simulated:
            for est in simulate_quantiles(spec, SimConfig(n=n, n_f=n_f, **self.SIM)):
                cell = table.cells[(spec.method, n, n_f, est.q)]
                assert cell.estimate == float(f"{est.estimate:.6g}")
                assert cell.stderr == float(f"{est.stderr:.6g}")

    SPECS = [MethodSpec(m) for m in Method]

    @pytest.mark.parametrize("spec", SPECS, ids=[s.method.token for s in SPECS])
    def test_shared_simulation_equals_cell_alone(self, spec):
        # largest cell first, so no cell's prefix ends the shared draw
        cfgs = [SimConfig(n=n, n_f=n_f, **self.SIM) for n, n_f in default_grid(3, 9)[::-1]]
        for cfg, estimates in zip(cfgs, simulate_cells(spec, cfgs)):
            assert estimates == simulate_quantiles(spec, cfg)

    # sha256 of the data rows of small tables, with numpy 2.4.6: a change to
    # any stream, or to the bits of a reduction that shows at six digits,
    # changes a digest.  mg and chen on n = 3..5, chen's n_f = 0 cells exact;
    # then every method simulated in every cell of n = 3..8
    SMALL = dict(n_min=3, n_max=5, N=199, R=3, seed=11)
    FROZEN = dict(n_min=3, n_max=8, N=999, R=4, seed=31, use_exact=False)
    PINNED = [
        ("mg", SMALL, "aa78f79a6780711622590fa40adc94e9ed5ef08733666741788bc604ff1d2384"),
        ("chen", SMALL, "2cb37dc1e7f828b7bb24064c899276cc8e6c8de255e5a721b22eeac73a3df9f1"),
        ("tippett", FROZEN, "61fe69c322fcb5231c79392a86e3fd630ccbd27cf7151f89ce9b21037a022389"),
        ("fisher", FROZEN, "1063cb22b1c4263670169d137f6e4a11d698b6c5084191b8d08f2561931c1be6"),
        ("gm", FROZEN, "1427bce4df937aec9c9e51e9fe541123906015d86b0ecc39409d71772150c894"),
        ("min-gm", FROZEN, "35d393e88b5bdbf44c3e009cf20b07e46c96f15a9554dd087c053f40bb254e2d"),
        ("stouffer", FROZEN, "2b2998db4e82635d2555c8c1d561357504167b701760052f27e31e8f3ab337dc"),
        ("wilkinson", FROZEN, "80c07e455cfb95df612dd658b9315d4a7563689e33680d33782ee39c93c86744"),
        ("edgington", FROZEN, "d6e6de0ed460fe6df88f1dfb2edf4955e3c1161797b1f6c575991a2435afadf2"),
        ("mg", FROZEN, "c353c7241ba1be52b19e4c12ac9a1116f2d5b67009300fcbceeaa540aa52a5d5"),
        ("harmonic", FROZEN, "15888b0f008fd02bdee7ce10804c718e0a854ff9eceeacd8bd8074c769a4089d"),
        ("chen", FROZEN, "5d3d83a3dbd5295643b985e18e919de3c4bac7f0f2fb2ab3e42d238b37deb2d4"),
    ]

    @pytest.mark.parametrize("token, grid, digest", PINNED, ids=[f"{t}-{d}" for t, _, d in PINNED])
    def test_streams_pinned(self, token, grid, digest, tmp_path):
        # data rows only: the metadata lines name package and numpy versions
        path = tmp_path / f"{token}.csv"
        write_csv(generate_table(MethodSpec(parse_method(token)), **grid), path)
        rows = b"".join(ln for ln in path.read_bytes().splitlines(keepends=True)
                        if not ln.startswith(b"#"))
        assert hashlib.sha256(rows).hexdigest() == digest


class TestGenerationFailures:
    def test_failed_cell_is_reported(self, monkeypatch):
        def boom(spec, cfgs, workers=1):
            raise ArithmeticError("synthetic cell failure")

        monkeypatch.setattr(tables, "simulate_cells", boom)
        with pytest.raises(TableGenerationError, match="n=3, n_f=1"):
            generate_table(MethodSpec(Method.MUDHOLKAR_GEORGE), n_min=3, n_max=3,
                           N=50, R=2, seed=1)

    def test_one_failure_is_named_once(self, monkeypatch):
        # a dead worker fails every cell of the default grid with one message:
        # the report names it once, then the cells, and keeps one entry a cell
        def dead(spec, cfgs, workers=1):
            raise ChildProcessError("worker killed")

        monkeypatch.setattr(tables, "simulate_cells", dead)
        with pytest.raises(TableGenerationError) as info:
            generate_table(MethodSpec(Method.MUDHOLKAR_GEORGE), workers=2)
        message = str(info.value)
        assert [(n, n_f) for n, n_f, _ in info.value.failures] == default_grid()
        assert message.count("worker killed") == 1
        assert "(n=3, n_f=0)" in message and "(n=26, n_f=8)" in message
        assert len(message.encode()) < 4096

    def test_programming_error_propagates(self, monkeypatch):
        def broken(spec, cfgs, workers=1):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(tables, "simulate_cells", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            generate_table(MethodSpec(Method.MUDHOLKAR_GEORGE), n_min=3, n_max=3,
                           N=50, R=2, seed=1)

