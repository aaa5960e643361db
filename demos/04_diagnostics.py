#!/usr/bin/env python3
"""Diagnostics: does the simulator actually produce the right distributions?

Two checks mirror the standard visual arguments, as numbers instead of
plots: Kolmogorov-Smirnov distance of the ECDF against the exact law where
one is known, as N grows, and a self-check of the fake-p-value sampler.
"""

import math

import numpy as np

from metacrit import Method, MethodSpec, replica_stream, sample_pmatrix
from metacrit.diagnostics import ecdf, ks_critical_value, ks_distance


def main():
    tippett = MethodSpec(Method.TIPPETT)
    chen = MethodSpec(Method.CHEN)

    print("KS distance of one simulated ECDF vs the exact law:")
    print("  (minimum statistic, n=5, n_f=3 -> Beta(1,8);"
          " Chen statistic, n=10, n_f=0 -> chi-square(10))")
    for N in (50, 100, 500, 1000, 2500, 4999):
        d_t = ks_distance(ecdf(tippett, 5, 3, N, seed=1))
        d_c = ks_distance(ecdf(chen, 10, 0, N, seed=1))
        crit = ks_critical_value(N, 0.01)
        print(f"  N={N:5d}  tippett {d_t:.4f}  chen {d_c:.4f}  (1% critical {crit:.4f})")

    print("\nsampler self-check via the fake-sample log transform:")
    print("  -4 sum ln(1 - p*) over l fakes is chi-square(2l) when fakes are Beta(1,2)")
    stream = replica_stream(3, 0)
    draws = sample_pmatrix(2, 2, 4999, stream)
    vals = sorted(-4.0 * np.log1p(-draws).sum(axis=1))
    # KS against chi-square(4) via the regularized incomplete gamma
    from metacrit.special import reg_lower_gamma

    worst = 0.0
    for i, v in enumerate(vals):
        F = reg_lower_gamma(2.0, v / 2.0)
        worst = max(worst, abs((i + 1) / len(vals) - F), abs(F - i / len(vals)))
    print(f"  KS distance over 4999 transformed draws: {worst:.4f} "
          f"(1% critical {1.63 / math.sqrt(4999):.4f})")


if __name__ == "__main__":
    main()
