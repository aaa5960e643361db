#!/usr/bin/env python3
"""The Monte Carlo replication scheme, from one replica to a full table.

One cell = one (method, n, n_f) combination: draw N = 4999 samples, sort the
statistics, take the order-statistic plug-in estimate at each level q, and
repeat over R = 50 independent replicas.  The cell's value is the replica
mean, its standard error follows from the replica spread, and stacking cells
over the (n, n_f) grid gives the full critical-value table.
"""

import tempfile
from pathlib import Path

from metacrit import (
    Method,
    MethodSpec,
    SimConfig,
    aggregate,
    confidence_interval,
    exact_quantile,
    generate_table,
    lookup,
    read_csv,
    run_replica,
    write_csv,
)


def main():
    spec = MethodSpec(Method.FISHER)
    cfg = SimConfig(n=3, n_f=1, N=4999, R=50, seed=20240101, q_list=(0.95,))

    print("single replicas (Fisher statistic, n=3 with one fake, q = 0.95):")
    first = [run_replica(spec, [cfg], r)[0][0] for r in range(cfg.R)]
    print("  first five replica estimates:", [f"{v:.4f}" for v in first[:5]])

    est = aggregate(first, 0.95)
    lo, hi = confidence_interval(est, 0.05)
    print(f"  aggregated: {est.estimate:.4f} +- {est.stderr:.4f} "
          f"(95% CI {lo:.4f} .. {hi:.4f}) over R={est.replicas} replicas")

    print("\nsmall table over n = 3..5 (exact cells where the law exists):")
    table = generate_table(spec, n_min=3, n_max=5, N=4999, R=50, seed=20240101)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fisher.csv"
        write_csv(table, path)
        print(path.read_text())
        back = read_csv(path)
        print(f"CSV round-trip: {len(back.cells)} cells, lossless = {back == table}")

        cell = lookup(back, Method.FISHER, 3, 0, 0.95)
        exact = exact_quantile(spec, 3, 0, 0.95)
        print(f"lookup (3, 0, 0.95): {cell.estimate} [{cell.provenance}], "
              f"exact law gives {exact:.6g}")

        cell = lookup(back, Method.FISHER, 3, 1, 0.95)
        print(f"lookup (3, 1, 0.95): {cell.estimate} +- {cell.stderr} "
              f"[{cell.provenance}]")


if __name__ == "__main__":
    main()
