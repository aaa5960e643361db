"""The interpreter the benchmark measures.

    python3 perfbench/child.py table --method M --n-min A --n-max B --N N --R R
        --seed S --workers W --trace 0|1 --out CSV --result FILE

generates and writes one whole table: one ``generate_table`` call plus
``write_csv`` of its result, timed from the call until the CSV is on disk.
Untraced, the time is also scaled to the reference host speed (hostspeed.py).

    python3 perfbench/child.py cli --trace-out FILE -- <metacrit arguments>

runs one ``metacrit`` command under the tracer and writes the span totals to
FILE.  Untraced commands are run without this file, as the console script
would run them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from hostspeed import Ticker
from tracer import Tracer, install, merge, traced_pool_workers


def _table_unit(args, spec, calibrate: bool) -> dict:
    """Generate and write the table.  With ``calibrate``, the reference
    kernel runs every half second; ``wall_s`` leaves its runs out and
    ``scaled_s`` is that time at the reference host speed."""
    from metacrit.tables import TableGenerationError, generate_table, write_csv

    path, failed_rows = args.out, []
    ticker = Ticker() if calibrate else contextlib.nullcontext()
    t0 = time.perf_counter()
    with ticker:
        try:
            table = generate_table(spec, n_min=args.n_min, n_max=args.n_max, N=args.N,
                                   R=args.R, seed=args.seed, workers=args.workers)
            write_csv(table, path)
        except TableGenerationError as err:
            failed_rows = [[n, n_f, msg] for n, n_f, msg in err.failures]
            path = None
    wall = time.perf_counter() - t0
    if calibrate:
        return {"wall_s": ticker.program_s, "scaled_s": ticker.scaled_s,
                "kernels_s": ticker.log.kernels, "csv": path, "failed_rows": failed_rows}
    return {"wall_s": wall, "scaled_s": None, "csv": path, "failed_rows": failed_rows}


def run_table(args) -> dict:
    from metacrit.methods import MethodSpec, parse_method

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    spec = MethodSpec(parse_method(args.method))
    result = {"unit": None, "trace": None, "worker_trace": None}
    if tracer is not None and args.workers > 1:
        pool_dir = args.out + ".workers"
        os.makedirs(pool_dir)
        with traced_pool_workers(tracer, pool_dir) as pool:
            result["unit"] = _table_unit(args, spec, calibrate=False)
        result["worker_trace"] = merge(pool.reports())
    else:
        result["unit"] = _table_unit(args, spec, calibrate=tracer is None)
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def run_cli(trace_out, argv) -> int:
    tracer = Tracer()
    install(tracer)
    from metacrit import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_out)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "cli":
        sep = sys.argv.index("--")
        trace_out = sys.argv[sys.argv.index("--trace-out") + 1]
        sys.exit(run_cli(trace_out, sys.argv[sep + 1:]))

    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["table"])
    p.add_argument("--method", required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()
    result = run_table(args)
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
