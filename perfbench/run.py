"""metacrit benchmark: one command, three workloads, every metric with its unit.

    python3 perfbench/run.py --workload table-sampler|table-probit|cli-decide
        --seed S --seconds T --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/`` and checked against ``tests/data/reference_tables/``.  The load comes
from this process, a single closed-loop client; the program runs in child
interpreters, one at a time, with native thread pools pinned to one thread.

``--trace 0`` measures the end-to-end metrics untraced, every time scaled
to a reference host speed by a kernel timed next to it (hostspeed.py).
``--trace 1`` runs one unit untraced and one unit traced and reports
per-layer self time and
call counts, the tracing overhead (traced wall minus untraced wall), work
counts computed from array shapes, and, on the table workloads, an
information-only traced pass with two workers.  Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from hostspeed import SpeedLog
from tracer import LAYERS, merge
from workloads import (
    Q_LEVELS,
    WORKLOADS,
    CliWorkload,
    add_counts,
    cell_counts,
    decide_plan,
    grid,
    master_seed,
    tail_index,
)

RUN_LIMIT_S = 170.0      # every run ends well inside the 180 s allowed
SETUP_BATCH = 3          # cold imports taken before each unit and at the end
SETUP_EVERY = 14         # cli-decide also takes a batch every 14 commands
CLI_ENTRY = "import sys; from metacrit.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import metacrit; "
                "print(repr(time.perf_counter() - t))")

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "decisions_per_s": "1/s",
    "decide_p50_ms": "ms",
    "decide_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ref_agree_frac": "fraction",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_ms", "ms"), ("calls", "count"))},
    "layers_self_share": "fraction",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
    "computed.uniforms": "count",
    "computed.probit_evals": "count",
    "computed.sorted_elems": "count",
    "computed.sampler_bytes": "bytes",
    "computed.exact_share": "fraction",
    "computed.table_share": "fraction",
    "computed.simulated_share": "fraction",
    "parallel.wall_s": "s",
    "parallel.efficiency": "fraction",
}


class ChildFailed(RuntimeError):
    pass


class Run:
    """One benchmark run: its checkout, scratch directory and deadline."""

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(root / "src")
        if self.env.get("PYTHONPATH"):
            src += os.pathsep + self.env["PYTHONPATH"]
        self.env["PYTHONPATH"] = src
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env.pop("METACRIT_SEED", None)
        self._spawned = 0
        self.setup_probes = []  # (import seconds, start, end of the child)
        self._cache_written = False
        self.speed = SpeedLog()

    def spawn(self, argv, timed=False) -> dict:
        """Run one child to completion: exit code, output, wall time from
        start to exit, and peak RSS as the kernel reports it at reaping.
        A timed child has the reference kernel run just before it; scale
        its times once ``close_timing`` has run the kernel after the last."""
        if timed:
            self.speed.sample()
        self._spawned += 1
        out_path = self.work / f"out-{self._spawned}"
        err_path = self.work / f"err-{self._spawned}"
        timeout = max(1, int(self.deadline - time.monotonic()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            signal.alarm(timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException as exc:  # deadline, SIGTERM or interrupt: end the child first
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                if isinstance(exc, TimeoutError):
                    raise ChildFailed(f"child exceeded the run deadline: {argv[:3]}") from None
                raise
            finally:
                signal.alarm(0)
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall_s": t1 - t0, "start": t0, "end": t1,
                "maxrss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out_path.read_text(), "stderr": err_path.read_text()}

    def close_timing(self):
        """Kernel timings after the last timed child, so that it has two."""
        self.speed.sample()
        self.speed.sample()

    def scaled(self, res: dict) -> float:
        """A timed child's wall time at the reference host speed."""
        return self.speed.scaled(res["start"], res["end"])

    def setup_s(self) -> float:
        """Median cold-import time, each scaled by the kernel next to it."""
        return statistics.median(t * self.speed.factor(start, end)
                                 for t, start, end in self.setup_probes)

    def sample_setup(self):
        """Time SETUP_BATCH cold ``import metacrit``, each in a fresh
        interpreter.  Batches are taken at several points of the timed phase,
        so that setup_s, their median, spans the run's drifts in host speed."""
        if not self._cache_written:
            self._cold_import()  # writes the bytecode cache; not counted
            self._cache_written = True
        for _ in range(SETUP_BATCH):
            res = self._cold_import(timed=True)
            self.setup_probes.append((float(res["stdout"].strip()), res["start"], res["end"]))

    def _cold_import(self, timed=False) -> dict:
        res = self.spawn(["-c", IMPORT_PROBE], timed=timed)
        if res["rc"] != 0:
            raise ChildFailed(f"import metacrit failed:\n{res['stderr']}")
        return res


def new_outcome() -> dict:
    """What a workload fills in: checks, metrics, counts and info lines."""
    return {"agreement": checks.Agreement(), "problems": [], "metrics": {}, "info": {},
            "computed": {}, "attempted": 0, "failed": 0}


def _on_alarm(signum, frame):
    raise TimeoutError


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


# ---------------------------------------------------------------------------
# table workloads
# ---------------------------------------------------------------------------

def table_pass(run: Run, wl, tag: str, index=0, trace=0, workers=1) -> dict:
    """One table unit in its own child, with master seed (workload) + index."""
    result_path = run.work / f"{tag}.json"
    argv = ["perfbench/child.py", "table", "--method", wl.method,
            "--n-min", str(wl.n_min), "--n-max", str(wl.n_max), "--N", str(wl.N), "--R", str(wl.R),
            "--seed", str(master_seed(run.seed) + index), "--workers", str(workers),
            "--trace", str(trace), "--out", str(run.work / f"{tag}.csv"), "--result", str(result_path)]
    res = run.spawn(argv)
    if res["rc"] != 0:
        raise ChildFailed(f"table child exited {res['rc']}:\n{res['stderr']}")
    res.update(json.loads(result_path.read_text()))
    return res


def timed_tables(run: Run, wl, seconds: float) -> list:
    """Table units, each in a fresh child, as many as fill ``seconds``: another
    starts only while the run is expected to end within half a unit."""
    passes = []
    started = time.perf_counter()
    while True:
        run.sample_setup()
        passes.append(table_pass(run, wl, f"timed-{len(passes)}", len(passes)))
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            run.sample_setup()
            run.close_timing()
            return passes


def check_tables(run: Run, wl, units, agreement, problems) -> dict:
    """Check every written CSV; return computed work counts of the last one."""
    reference = checks.load_reference(run.root, wl.method)
    rows = grid(wl.n_min, wl.n_max)
    counts = {}
    for unit in units:
        if unit["csv"] is None:
            continue
        cells, found = checks.read_table_csv(unit["csv"], wl.method, rows, Q_LEVELS)
        problems.extend(found)
        counts = {"exact_cells": 0, "simulated_cells": 0}
        simulated_rows = set()
        for n, n_f, q, est, se, provenance in cells:
            agreement.check(reference, wl.method, n, n_f, q, est, se)
            counts[f"{provenance}_cells"] += 1
            if provenance == "simulated":
                simulated_rows.add((n, n_f))
        for n, n_f in sorted(simulated_rows):
            add_counts(counts, cell_counts(wl.method, n, n_f, wl.N, wl.R))
    return counts


def unit_failures(units) -> int:
    return sum(len(u["failed_rows"]) for u in units) * len(Q_LEVELS)


def table_workload(run: Run, wl, seconds: float, trace: int) -> dict:
    cells_per_unit = len(grid(wl.n_min, wl.n_max)) * len(Q_LEVELS)
    out = new_outcome()
    agreement, problems, m = out["agreement"], out["problems"], out["metrics"]
    if not trace:
        passes = timed_tables(run, wl, seconds)
        m["setup_s"] = run.setup_s()
        units = [p["unit"] for p in passes]
        counts = check_tables(run, wl, units, agreement, problems)
        written = sum(cells_per_unit for u in units if u["csv"])
        request_metrics(out, [units], written, len(units), "table")
        speed_info(out, run, [k for u in units for k in u["kernels_s"]])
        m["peak_rss_mb"] = max(p["maxrss_mb"] for p in passes)
        out["attempted"] = cells_per_unit * len(units)
        out["failed"] = unit_failures(units)
    else:
        plain = table_pass(run, wl, "untraced")
        traced = table_pass(run, wl, "traced", trace=1)
        parallel = table_pass(run, wl, "parallel", trace=1, workers=2)
        units = [p["unit"] for p in (plain, traced, parallel)]
        counts = check_tables(run, wl, units, agreement, problems)
        csvs = [Path(u["csv"]).read_bytes() for u in units if u["csv"]]
        if len(set(csvs)) > 1:
            problems.append("serial, traced and two-worker tables differ for the same seed")
        traced_wall = units[1]["wall_s"]
        layer_metrics(out, traced["trace"], traced_wall, traced_wall - units[0]["wall_s"])
        m["parallel.wall_s"] = units[2]["wall_s"]
        m["parallel.efficiency"] = traced_wall / (2.0 * units[2]["wall_s"])
        worker = parallel["worker_trace"]
        out["info"]["parallel.worker_layers_self_s"] = sum(worker["self_s"].values())
        out["info"]["parallel.worker_run_replica_calls"] = worker["calls"]["estimation.run_replica"]
        out["attempted"] = cells_per_unit * len(units)
        out["failed"] = unit_failures(units)
    cells = counts.get("exact_cells", 0) + counts.get("simulated_cells", 0)
    computed_metrics(out, counts, cells, counts.get("exact_cells", 0), 0, counts.get("simulated_cells", 0))
    return out


# ---------------------------------------------------------------------------
# cli-decide
# ---------------------------------------------------------------------------

def combine_argv(cmd: dict, wl: CliWorkload, seed: int, table_csv: str, trace_out=None) -> list:
    """Interpreter arguments for one command: as the console script runs it,
    or under the tracer when ``trace_out`` names a file for its spans."""
    argv = ["combine", "--method", cmd["method"], "--alpha", repr(cmd["alpha"]),
            "--nf", str(cmd["n_f"]), "--p", ",".join(repr(x) for x in cmd["p"]), "--json",
            "--N", str(wl.N), "--R", str(wl.R), "--seed", str(seed), *cmd["extra"]]
    if cmd["path"] == "table":
        argv += ["--table", table_csv]
    if trace_out is None:
        return ["-c", CLI_ENTRY, *argv]
    return ["perfbench/child.py", "cli", "--trace-out", str(trace_out), "--", *argv]


def expected_levels(tail: str, alpha: float) -> list:
    return {"lower": [alpha], "upper": [1.0 - alpha], "both": [alpha / 2.0, 1.0 - alpha / 2.0]}[tail]


def check_decision(root: Path, cmd, res, references, agreement, problems) -> list:
    """Check one combine result; return the sources of its critical values."""
    try:
        rec = json.loads(res["stdout"].strip().splitlines()[-1])
    except (ValueError, IndexError):
        problems.append(f"{cmd['method']}: no JSON decision in output")
        return []
    label = f"{cmd['method']} n={cmd['n']} n_f={cmd['n_f']} alpha={cmd['alpha']}"
    ours = checks.statistic(cmd["method"], cmd["p"])
    if not checks.same_statistic(rec["statistic"], ours):
        problems.append(f"{label}: statistic {rec['statistic']!r} != recomputed {ours!r}")
    crits = rec["criticals"]
    levels = expected_levels(rec["tail"], cmd["alpha"])
    if [round(c["q"], 9) for c in crits] != [round(q, 9) for q in levels]:
        problems.append(f"{label}: critical levels {[c['q'] for c in crits]} for tail {rec['tail']}")
        return [c["source"] for c in crits]
    if any(c["source"] != cmd["path"] for c in crits):
        problems.append(f"{label}: resolved by {[c['source'] for c in crits]}, expected {cmd['path']}")
    if not checks.decision_consistent(rec["tail"], rec["statistic"], crits, rec["reject"]):
        problems.append(f"{label}: reject={rec['reject']} contradicts its criticals")
    if cmd["method"] not in references:
        references[cmd["method"]] = checks.load_reference(root, cmd["method"])
    for c in crits:
        agreement.check(references[cmd["method"]], cmd["method"], cmd["n"], cmd["n_f"], c["q"],
                        c["value"], c["stderr"])
    return [c["source"] for c in crits]


def decide_passes(run: Run, wl, plan, table_csv, seed, seconds) -> list:
    """Run the whole plan, in order, as many times as fill ``seconds``: another
    pass starts only while the run is expected to end within half a pass.
    Setup samples are taken between commands, outside their timings."""
    passes = []
    started = time.perf_counter()
    while True:
        results = []
        for i, cmd in enumerate(plan):
            if i % SETUP_EVERY == 0:
                run.sample_setup()
            results.append(run.spawn(combine_argv(cmd, wl, seed, table_csv), timed=True))
        passes.append({"results": results})
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            run.sample_setup()
            run.close_timing()
            for p in passes:
                for res in p["results"]:
                    res["scaled_s"] = run.scaled(res)
            return passes


def traced_decide_passes(run: Run, wl, plan, table_csv, seed, trace_dir) -> list:
    """An untraced and a traced pass, interleaved command by command so that
    drifts in host speed fall on both alike."""
    plain, traced = [], []
    for i, cmd in enumerate(plan):
        plain.append(run.spawn(combine_argv(cmd, wl, seed, table_csv)))
        traced.append(run.spawn(combine_argv(cmd, wl, seed, table_csv, trace_dir / f"{i}.json")))
    return [{"results": results, "wall_s": sum(r["wall_s"] for r in results)}
            for results in (plain, traced)]


def cli_workload(run: Run, wl: CliWorkload, seconds: float, trace: int) -> dict:
    out = new_outcome()
    agreement, problems, m = out["agreement"], out["problems"], out["metrics"]
    seed = master_seed(run.seed)
    plan = decide_plan(run.seed, wl.groups)
    table_csv = str(run.work / "mg-table.csv")
    prep = run.spawn(["-c", CLI_ENTRY, "gen-table", "--method", "mg", "--N", str(wl.table_N),
                      "--R", str(wl.table_R), "--seed", str(seed), "--out", table_csv])
    if prep["rc"] != 0:
        raise ChildFailed(f"preparing the --table CSV failed:\n{prep['stderr']}")

    if not trace:
        passes = decide_passes(run, wl, plan, table_csv, seed, seconds)
        m["setup_s"] = run.setup_s()
        speed_info(out, run, [])
    else:
        trace_dir = run.work / "cli-trace"
        trace_dir.mkdir()
        passes = traced_decide_passes(run, wl, plan, table_csv, seed, trace_dir)

    references = {}
    attempted = failed = values = 0
    sources = {"exact": 0, "table": 0, "simulated": 0}
    counts = {}
    for index, p in enumerate(passes):
        for cmd, res in zip(plan, p["results"]):
            attempted += 1
            if res["rc"] != 0:
                failed += 1
                problems.append(f"{cmd['method']} exited {res['rc']}: {res['stderr'].strip()[-300:]}")
                continue
            found = check_decision(run.root, cmd, res, references, agreement, problems)
            values += len(found)
            if index == 0:
                # each simulated critical value is one simulate_quantiles call
                for source in found:
                    sources[source] = sources.get(source, 0) + 1
                    if source == "simulated":
                        add_counts(counts, cell_counts(cmd["method"], cmd["n"], cmd["n_f"], wl.N, wl.R))
    out["attempted"], out["failed"] = attempted, failed

    if not trace:
        request_metrics(out, [p["results"] for p in passes], values, attempted, "decision")
        m["peak_rss_mb"] = max(r["maxrss_mb"] for p in passes for r in p["results"])
    else:
        reports = [json.loads(f.read_text()) for f in sorted(trace_dir.glob("*.json"))]
        if len(reports) != len(plan):
            problems.append(f"{len(reports)} trace files for {len(plan)} traced commands")
        traced_wall = passes[1]["wall_s"]
        layer_metrics(out, merge(reports), traced_wall, traced_wall - passes[0]["wall_s"])
        m["parallel.wall_s"] = 0.0  # no multi-worker pass on this workload
        m["parallel.efficiency"] = 0.0

    computed_metrics(out, counts, sum(sources.values()), sources["exact"], sources["table"],
                     sources["simulated"])
    out["info"]["decide_commands_per_pass"] = len(plan)
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def request_metrics(out: dict, passes, cells: int, requests: int, what: str):
    """Throughput and latency from each request's time: scaled to the
    reference host speed for the metrics, raw for ``info raw.*`` lines."""
    for key, metrics, prefix in (("scaled_s", out["metrics"], ""), ("wall_s", out["info"], "raw.")):
        times = [[r[key] for r in requests_of] for requests_of in passes]
        total = sum(map(sum, times))
        metrics[prefix + "cells_per_s"] = cells / total
        metrics[prefix + "decisions_per_s"] = requests / total
        latency_metrics(out, times, what, metrics, prefix)


def latency_metrics(out: dict, passes, what: str, m: dict, prefix: str):
    """p50 over every request; the tail is taken per pass, so that its
    percentile does not depend on how many passes filled the run, and the
    median over passes is reported."""
    info = out["info"]
    tails = []
    for walls in passes:
        ordered = sorted(walls)
        index, percentile = tail_index(len(ordered))
        tails.append(ordered[index])
    m[prefix + "decide_p50_ms"] = 1000.0 * statistics.median([w for walls in passes for w in walls])
    m[prefix + "decide_tail_ms"] = 1000.0 * statistics.median(tails)
    info["decide_samples"] = f"{len(passes)} x {len(passes[0])}"
    info["decide_tail_percentile"] = percentile
    info["decide_unit"] = what


def speed_info(out: dict, run: Run, child_kernels):
    """Raw setup time, and how fast the host ran: the reference kernel's
    timings in this process and in the table children."""
    out["info"]["raw.setup_s"] = statistics.median(t for t, _, _ in run.setup_probes)
    kernels = run.speed.kernels + child_kernels
    q1, q2, q3 = statistics.quantiles(kernels, n=4)
    out["info"]["speed.kernel_ms_quartiles"] = [round(1000.0 * q, 3) for q in (q1, q2, q3)]
    out["info"]["speed.kernel_runs"] = len(kernels)


def layer_metrics(out: dict, report: dict, traced_wall: float, overhead: float):
    m = out["metrics"]
    out["info"]["span_edges"] = json.dumps(report["edges"])  # [caller, layer, calls]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1000.0 * report["self_s"][layer]
        m[f"{layer}.calls"] = report["calls"][layer]
    m["layers_self_share"] = sum(report["self_s"].values()) / traced_wall
    m["traced_wall_s"] = traced_wall
    m["trace_overhead_s"] = overhead


def computed_metrics(out: dict, counts: dict, total, exact, table, simulated):
    info = out["computed"] = {
        "computed.uniforms": counts.get("uniforms", 0),
        "computed.probit_evals": counts.get("probit_evals", 0),
        "computed.sorted_elems": counts.get("sorted_elems", 0),
        "computed.sampler_bytes": counts.get("sampler_bytes", 0),
        "computed.exact_share": exact / total if total else 0.0,
        "computed.table_share": table / total if total else 0.0,
        "computed.simulated_share": simulated / total if total else 0.0,
    }
    out["metrics"].update(info)


def run_record(root: Path, seed: int, load_before) -> dict:
    commit = None  # a checkout without git history identifies itself by src_sha256
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(load_before),
        "workload_seed": seed,
        "metacrit_seed": master_seed(seed),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(WORKLOADS), default="full",
                   help="'smoke' shrinks every workload for the harness test")
    args = p.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "metacrit" / "__init__.py", root / checks.REFERENCE_DIR]
    missing = [str(path.relative_to(root)) for path in needed if not path.exists()]
    if missing:
        print(f"error: run from the root of a metacrit checkout; missing {missing}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    work = root / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    run = Run(root, args.seed, work)
    wl = WORKLOADS[args.scale][args.workload]
    names = PER_LAYER if args.trace else END_TO_END
    try:
        try:
            if isinstance(wl, CliWorkload):
                out = cli_workload(run, wl, args.seconds, args.trace)
            else:
                out = table_workload(run, wl, args.seconds, args.trace)
        except ChildFailed as err:
            print(f"error: {err}", file=sys.stderr)
            out = new_outcome()
            out["problems"].append(str(err))
            out["attempted"] = out["failed"] = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    agreement = out["agreement"]
    if not args.trace:
        out["metrics"]["ref_agree_frac"] = agreement.fraction
    correct = (out["failed"] == 0 and not out["problems"] and agreement.compared > 0
               and agreement.fraction >= 0.95)
    record = run_record(root, args.seed, load_before)
    record["loadavg_after"] = list(os.getloadavg())
    record["workload"] = args.workload
    record["trace"] = args.trace
    record["scale"] = args.scale

    for problem in out["problems"][:20]:
        print(f"check failed: {problem}")
    for miss in agreement.misses[:20]:
        print("reference miss (method, n, n_f, q, value, stderr, printed, printed stderr): "
              + json.dumps(miss))
    print(f"check reference cells: {agreement.agreed}/{agreement.compared} agree")
    print(f"info failed_frac = {out['failed'] / out['attempted']!r} ({out['failed']}/{out['attempted']})")
    for key, value in {**out["info"], **out["computed"]}.items():
        if key not in names:
            print(f"info {key} = {value!r}")
    metrics = {}
    for name, unit in names.items():
        value = out["metrics"].get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} = {value!r} {unit}")
    print("run_record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
