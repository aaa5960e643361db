#!/usr/bin/env python3
"""Combine a set of observed p-values with all ten methods and decide.

Scenario: five studies report p-values, and we suspect up to one of them is
a "best of two tries" report (a fake, Beta(1,2) distributed).  Each method
gets its critical value from the exact law when one exists and from a quick
simulation otherwise.
"""

from metacrit import Method, MethodSpec, Tail, evaluate_statistic, resolve_quantiles

P_OBSERVED = [0.021, 0.048, 0.11, 0.33, 0.62]
ALPHA = 0.05
SIM = (4999, 50, 20240101)  # (N, R, seed) for critical values with no exact law


def source(est):
    if est.stderr is None:
        return est.provenance
    return f"{est.provenance}, se={est.stderr:.2g}"


def decide(spec, p, n_f):
    n = len(p)
    t = evaluate_statistic(spec, p)
    # both levels of a two-sided test come from one call, so one simulation
    [crit] = resolve_quantiles(spec, [(n, n_f)], spec.levels(ALPHA), sim=SIM)
    bounds = []
    if spec.tail is not Tail.UPPER:
        bounds.append(f"T <= {crit[0].estimate:.4g}")
    if spec.tail is not Tail.LOWER:
        bounds.append(f"T >= {crit[-1].estimate:.4g}")
    region = " or ".join(bounds)
    src = "; ".join(source(est) for est in crit)
    verdict = "REJECT" if spec.rejects(t, [est.estimate for est in crit]) else "retain"
    print(f"  {spec.method.token:10s} T = {t:9.4f}   reject if {region:28s} "
          f"[{src}] -> {verdict}")


def main():
    print(f"observed p-values: {P_OBSERVED}")
    for n_f in (0, 1):
        print(f"\nassuming n_f = {n_f} fake p-value(s), alpha = {ALPHA}:")
        for method in Method:
            decide(MethodSpec(method), P_OBSERVED, n_f)

    print("\nNote how the thresholds shift once a fake is assumed: a fake")
    print("p-value is the minimum of two uniforms, so under the overall null")
    print("the whole sample looks 'more significant' than it should.")


if __name__ == "__main__":
    main()
