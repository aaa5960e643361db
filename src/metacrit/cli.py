"""Command-line surface: table generation, critical-value queries, combined
test decisions, and simulation diagnostics.

Exit codes are a stable contract: 0 success, 1 numeric failure, 2 usage
error, 3 not-found / unsupported combination.

argparse owns the flag shapes: types, required flags, and the one source
each of ``critical`` and ``combine`` needs, so a missing or conflicting flag
prints its usage line and exits 2.  ``tables.resolve_quantiles`` owns the
cell and level-list rules and the source order: an impossible cell or level
list is a usage error whichever source is asked, and ``combine`` reads
``--table`` whenever it is given.  N, R, seed and workers are checked, and
``$METACRIT_SEED`` read, only where a simulation may run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .estimation import SIMULATED, QuantileEstimate
from .exact import UnsupportedExactError, has_exact_quantile
from .methods import MethodSpec, Tail, evaluate_statistic, parse_method
from .sampling import (DEFAULT_N_REPLICAS, DEFAULT_N_SAMPLES, DEFAULT_Q_LEVELS, DEFAULT_SEED,
                       check_seed)
from .special import ConvergenceError, DomainError, check_alpha
from .tables import (
    TableGenerationError,
    TableLookupError,
    TableParseError,
    generate_table,
    read_csv,
    resolve_quantiles,
    write_csv,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3

SEED_ENV_VAR = "METACRIT_SEED"


class CliError(argparse.ArgumentTypeError):
    """A usage error.  Raised by a flag's type, argparse prints it as its own
    usage error."""


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise CliError(f"seed {text!r} is not a decimal or 0x-hex integer")


def _seed(args) -> int:
    # --seed, else $METACRIT_SEED, else the default.  Called only by a command
    # that may simulate, so a bad variable fails no other, and names itself
    if args.seed is not None:
        return args.seed
    try:
        seed = _parse_seed(os.environ.get(SEED_ENV_VAR) or str(DEFAULT_SEED))
        check_seed(seed)
    except (CliError, DomainError) as err:
        raise CliError(f"${SEED_ENV_VAR}: {err}") from None
    return seed


def _parse_q_list(text: str):
    try:
        qs = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise CliError(f"bad q list {text!r}")
    return tuple(sorted(qs))


def _parse_pvalues(args) -> list:
    # argparse has made sure exactly one of --p and --p-file is given
    if args.p is not None:
        tokens = [tok for tok in args.p.split(",") if tok.strip()]
    else:
        lines = _read_file(args.p_file, lambda path: Path(path).read_text().splitlines())
        tokens = [ln.strip() for ln in lines if ln.strip()]
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise CliError("p-values must be numeric")


def _read_file(path, parse):
    # an input file named on the command line that cannot be read is a usage error
    try:
        return parse(path)
    except (OSError, UnicodeDecodeError) as err:
        raise CliError(f"cannot read {path}: {err}")


def _check_writable(path):
    # an output file that cannot be written is a usage error, found before any
    # work is done; a file made only for the check is removed again
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as err:
        raise CliError(f"cannot write {path}: {err}")
    if not existed:
        os.remove(path)


def _record(est: QuantileEstimate, sim) -> dict:
    # a simulated critical value carries the (N, R, seed) that reproduces it
    rec = {"q": est.q, "value": est.estimate, "source": est.provenance, "stderr": est.stderr}
    if est.provenance == SIMULATED:
        N, R, seed = sim
        rec.update(seed=seed, N=N, R=R)
    return rec


def _fmt_critical(est: QuantileEstimate) -> str:
    text = f"critical[q={est.q:.12g}] = {est.estimate:.6g} ({est.provenance}"
    if est.stderr is not None:
        text += f", stderr={est.stderr:.3g}"
    return text + ")"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_table(args) -> int:
    spec = MethodSpec(parse_method(args.method))
    q_list = DEFAULT_Q_LEVELS if args.q_list is None else _parse_q_list(args.q_list)
    _check_writable(args.out)
    table = generate_table(
        spec,
        n_min=args.n_min,
        n_max=args.n_max,
        N=args.N,
        R=args.R,
        seed=_seed(args),
        q_list=q_list,
        use_exact=args.exact,
        workers=args.workers,
    )
    write_csv(table, args.out)
    print(f"wrote {len(table.cells)} cells to {args.out}")
    return EXIT_OK


def _cmd_critical(args) -> int:
    spec = MethodSpec(parse_method(args.method))
    table = _read_file(args.table, read_csv) if args.table is not None else None
    sim = (args.N, args.R, _seed(args)) if args.simulate else None
    try:
        [[est]] = resolve_quantiles(spec, [(args.n, args.nf)], (args.q,), use_exact=args.exact,
                                    table=table, sim=sim)
    except UnsupportedExactError:  # only --exact can miss this way
        print(
            f"no exact law for {spec.method.token} with n={args.n}, n_f={args.nf}; "
            "rerun with --simulate",
            file=sys.stderr,
        )
        return EXIT_NOT_FOUND
    se = "" if est.stderr is None else f" stderr={est.stderr:.3g}"
    print(f"{est.estimate:.6g} ({est.provenance}){se}")
    return EXIT_OK


def _cmd_combine(args) -> int:
    spec = MethodSpec(parse_method(args.method))
    if args.tail:
        spec = MethodSpec(spec.method, tail=Tail(args.tail))
    values = _parse_pvalues(args)
    n = len(values)
    check_alpha(args.alpha)
    statistic = evaluate_statistic(spec, values)

    table = _read_file(args.table, read_csv) if args.table is not None else None
    sim = (args.N, args.R, _seed(args))
    [criticals] = resolve_quantiles(spec, [(n, args.nf)], spec.levels(args.alpha), table=table,
                                    sim=sim)
    reject = spec.rejects(statistic, [c.estimate for c in criticals])

    method, tail = spec.method.token, spec.tail.value
    if args.json:
        print(json.dumps({"method": method, "tail": tail, "n": n, "n_f": args.nf,
                          "alpha": args.alpha, "statistic": statistic,
                          "criticals": [_record(c, sim) for c in criticals],
                          "reject": reject}))
    else:
        print(f"method={method} tail={tail} n={n} n_f={args.nf} alpha={args.alpha:g}")
        print(f"statistic = {statistic:.6g}")
        for c in criticals:
            print(_fmt_critical(c))
        print(f"decision: {'reject' if reject else 'retain'} the overall null")
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .diagnostics import ecdf, ks_critical_value, ks_distance
    spec = MethodSpec(parse_method(args.method))
    if not has_exact_quantile(spec, args.n, args.nf):
        print(
            f"no exact law to validate against for {spec.method.token} "
            f"with n={args.n}, n_f={args.nf}",
            file=sys.stderr,
        )
        return EXIT_NOT_FOUND
    dump = ecdf(spec, args.n, args.nf, args.N, _seed(args))
    dist = ks_distance(dump)
    c05 = ks_critical_value(args.N, 0.05)
    c01 = ks_critical_value(args.N, 0.01)
    verdict = "consistent" if dist <= c01 else "INCONSISTENT"
    print(f"method={spec.method.token} n={args.n} n_f={args.nf} N={args.N} seed={dump.seed}")
    print(f"ks_distance = {dist:.6f}  critical[5%] = {c05:.6f}  critical[1%] = {c01:.6f}")
    print(f"fit at the 1% level: {verdict}")
    return EXIT_OK


def _cmd_ecdf(args) -> int:
    from .diagnostics import ecdf, write_ecdf_csv
    spec = MethodSpec(parse_method(args.method))
    _check_writable(args.out)
    write_ecdf_csv(ecdf(spec, args.n, args.nf, args.N, _seed(args)), args.out)
    print(f"wrote {args.N} ECDF rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_sim_flags(p, with_R=True):
    p.add_argument("--N", type=int, default=DEFAULT_N_SAMPLES, help="samples per replica")
    if with_R:
        p.add_argument("--R", type=int, default=DEFAULT_N_REPLICAS, help="replicas")
    p.add_argument("--seed", type=_parse_seed, default=None,
                   help=f"master seed, decimal or 0x-hex (default {DEFAULT_SEED}, "
                        f"or ${SEED_ENV_VAR})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metacrit",
        description="Critical values and decisions for combined p-value tests "
                    "with genuine and fake (Beta(1,2)) p-values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-table", help="generate a critical-value table CSV")
    g.add_argument("--method", required=True)
    g.add_argument("--n-min", type=int, default=3)
    g.add_argument("--n-max", type=int, default=26)
    g.add_argument("--q-list", default=None, help="comma-separated quantile levels")
    g.add_argument("--exact", action=argparse.BooleanOptionalAction, default=True,
                   help="use exact values where available (--no-exact simulates everything)")
    g.add_argument("--workers", type=int, default=1)
    g.add_argument("--out", required=True)
    _add_sim_flags(g)
    g.set_defaults(func=_cmd_gen_table)

    c = sub.add_parser("critical", help="query one critical value")
    c.add_argument("--method", required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--nf", type=int, required=True)
    c.add_argument("--q", type=float, required=True)
    source = c.add_mutually_exclusive_group(required=True)
    source.add_argument("--exact", action="store_true")
    source.add_argument("--table", default=None, help="CSV from gen-table")
    source.add_argument("--simulate", action="store_true")
    _add_sim_flags(c)
    c.set_defaults(func=_cmd_critical)

    m = sub.add_parser("combine", help="combine observed p-values and decide")
    m.add_argument("--method", required=True)
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--nf", type=int, required=True,
                   help="assumed number of fake p-values among the inputs")
    pvalues = m.add_mutually_exclusive_group(required=True)
    pvalues.add_argument("--p", default=None, help="comma-separated p-values")
    pvalues.add_argument("--p-file", default=None, help="file with one p-value per line")
    m.add_argument("--tail", choices=[t.value for t in Tail], default=None)
    m.add_argument("--table", default=None, help="CSV to look critical values up in")
    m.add_argument("--json", action="store_true")
    _add_sim_flags(m)
    m.set_defaults(func=_cmd_combine)

    v = sub.add_parser("validate", help="KS check of one simulated ECDF vs the exact law")
    v.add_argument("--method", required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--nf", type=int, required=True)
    _add_sim_flags(v, with_R=False)
    v.set_defaults(func=_cmd_validate)

    e = sub.add_parser("ecdf", help="dump one replica's ECDF as CSV")
    e.add_argument("--method", required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--nf", type=int, required=True)
    e.add_argument("--out", required=True)
    _add_sim_flags(e, with_R=False)
    e.set_defaults(func=_cmd_ecdf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TableLookupError, UnsupportedExactError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (CliError, TableParseError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (TableGenerationError, ConvergenceError, OSError, ArithmeticError, MemoryError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
