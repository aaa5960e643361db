#!/usr/bin/env python3
"""Closed-form critical values: where they exist and what they look like.

The minimum statistic is Beta(1, n + n_f) for any number of fakes; the
maximum statistic has CDF x^(n-n_f) (2x - x^2)^(n_f).  With no fakes at all,
five more methods have classical laws: Fisher and Chen chi-square, Stouffer
normal, the geometric mean a transformed gamma, and Edgington Irwin-Hall, for
every n.
"""

from metacrit import Method, MethodSpec, exact_quantile, has_exact_quantile
from metacrit.sampling import DEFAULT_Q_LEVELS


def print_row(spec, n, n_f):
    vals = " ".join(f"{exact_quantile(spec, n, n_f, q):8.5f}" for q in DEFAULT_Q_LEVELS)
    print(f"  n={n:2d} n_f={n_f}  {vals}")


def main():
    header = " ".join(f"{q:8g}" for q in DEFAULT_Q_LEVELS)

    print("minimum statistic quantiles, Beta(1, n + n_f):")
    print(f"             {header}")
    for n, n_f in [(5, 0), (5, 1), (5, 3)]:
        print_row(MethodSpec(Method.TIPPETT), n, n_f)

    print("\nmaximum statistic quantiles, root of x^(n-n_f) (2x - x^2)^(n_f) = q:")
    print(f"             {header}")
    for n, n_f in [(5, 0), (5, 1), (5, 3)]:
        print_row(MethodSpec(Method.WILKINSON), n, n_f)

    print("\nall-genuine (n_f = 0) laws for the other supported methods, n = 10:")
    print(f"             {header}")
    for method in (Method.FISHER, Method.CHEN, Method.STOUFFER,
                   Method.GEOMETRIC_MEAN, Method.EDGINGTON):
        spec = MethodSpec(method)
        vals = " ".join(f"{exact_quantile(spec, 10, 0, q):8.4f}" for q in DEFAULT_Q_LEVELS)
        print(f"  {method.token:10s} {vals}")

    print("\nsupport matrix at n = 10 (True = closed form available):")
    for method in Method:
        spec = MethodSpec(method)
        row = {n_f: has_exact_quantile(spec, 10, n_f) for n_f in (0, 1, 2, 3)}
        print(f"  {method.token:10s} {row}")


if __name__ == "__main__":
    main()
