"""Smoke test of the benchmark harness on a tiny grid and a short command list.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at the smoke scale, untraced and traced, and checks that
each metric named in BENCHMARK.json is printed with its unit and that the
correctness checks ran and passed.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_checked(workload, trace):
    stdout, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"metric {m['name']} = " in stdout
    checked = [line for line in stdout.splitlines() if line.startswith("check reference cells:")]
    agreed, compared = checked[0].split(":")[1].split()[0].split("/")
    assert int(compared) > 0 and int(agreed) >= 0.95 * int(compared)
    assert "run_record " in stdout
    if not trace:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    elif workload.startswith("table-"):
        assert result["metrics"]["layers_self_share"]["value"] >= 0.9
        assert result["metrics"]["estimation.run_replica.calls"]["value"] > 0


def test_missing_program_fails_without_a_result():
    # a directory holding only BENCHMARK.json and the benchmark's files
    scratch = ROOT / "perfbench" / "_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        (bare / "perfbench").mkdir()
        for path in (ROOT / "perfbench").glob("*.py"):
            (bare / "perfbench" / path.name).write_text(path.read_text())
        (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-decide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    try:
        scratch.rmdir()
    except OSError:  # a benchmark run is using it
        pass
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_ticker_scales_program_time_and_leaves_kernels_out():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import time

    from hostspeed import ELASTICITY, REF_KERNEL_S, Ticker

    start = time.perf_counter()
    with Ticker(tick_s=0.1) as ticker:
        while time.perf_counter() - start < 0.6:
            pass
    wall = time.perf_counter() - start
    segments, kernels = ticker.segments, ticker.log.kernels
    assert len(segments) >= 3
    assert len(kernels) == len(segments) + 3  # two on entry, one per tick, two on exit
    for (_, end), (begin, _), tick in zip(segments, segments[1:], kernels[2:]):
        assert begin - end >= tick  # the tick's kernel runs lie between the segments
    assert 0 < ticker.program_s < wall
    factors = [(REF_KERNEL_S / k) ** ELASTICITY for k in kernels]
    assert min(factors) <= ticker.scaled_s / ticker.program_s <= max(factors)
