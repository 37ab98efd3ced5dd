"""Command-line interface.

Subcommands: invariants, compare, oracle, catalog, selftest.
Exit codes: 0 success, 1 usage error, 2 any record or row error (an
undetermined comparison included) or an input file that cannot be read.
"""

import argparse
import sys

from .errors import TorsionError
from .oracles import LensSpace, lens_torsion_magnitude, torus_F, torus_P1_squared
from .pipeline import (
    compare_knots,
    compute_invariants,
    format_deviation,
    knot_report,
    parse_fraction,
    serialize_report,
    verdict_to_dict,
)
from .words import normalize_two_bridge


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for record
    # errors and uses 1 for bad usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser():
    parser = _Parser(
        prog="bridgetorsion",
        description=(
            "Torsion of the double branched cover of a two-bridge knot b(p,q), "
            "computed from the knot group and checked against lens-space closed forms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="invariant records for one knot")
    inv.add_argument("fraction", help="two-bridge fraction p/q, e.g. 5/3")
    inv.add_argument("--json", action="store_true", help="emit the JSON report")

    cmp_ = sub.add_parser("compare", help="compare two knots up to mirror image")
    cmp_.add_argument("fraction_a")
    cmp_.add_argument("fraction_b")
    cmp_.add_argument("--json", action="store_true")

    ora = sub.add_parser("oracle", help="closed-form oracle tables")
    ora_sub = ora.add_subparsers(dest="oracle_kind", required=True)
    lens_p = ora_sub.add_parser("lens", help="lens space torsion magnitudes")
    lens_p.add_argument("p", type=int)
    lens_p.add_argument("q", type=int)
    torus_p = ora_sub.add_parser("torus", help="(2,q) torus knot closed forms")
    torus_p.add_argument("q", type=int)

    cat = sub.add_parser("catalog", help="batch-compute a CSV of fractions")
    cat.add_argument("path", help="CSV rows p,q[,label]")
    cat.add_argument("--out", default=None, help="write the JSON report here")
    cat.add_argument("--cache", default=None, help="cache directory")

    sub.add_parser("selftest", help="run the acceptance suite")
    return parser


def _print_records(knot, records):
    print(f"{knot.label}  determinant {knot.p}"
          + ("  (mirror of the input fraction)" if knot.mirror else ""))
    kp = "k'"
    print(f"{'k':>3} {kp:>3} {'P(1)^2':>14} {'F':>14} {'tau':>14} {'oracle':>14} {'|err|':>10}")
    for r in records:
        if r.error is not None:
            print(f"{r.k:>3} {r.kprime:>3}  ERROR: {r.error}")
            continue
        err = abs(r.tau - r.cross_check)
        print(
            f"{r.k:>3} {r.kprime:>3} {r.p1_squared:>14.8g} "
            f"{r.f_value:>14.8g} {r.tau:>14.8g} "
            f"{r.cross_check:>14.8g} {err:>10.2e}"
        )


def _cmd_invariants(args):
    knot = normalize_two_bridge(*parse_fraction(args.fraction))
    records = compute_invariants(knot)
    if args.json:
        sys.stdout.write(serialize_report(knot_report(knot, records)).decode() + "\n")
    else:
        _print_records(knot, records)
    return 2 if any(r.error is not None for r in records) else 0


def _cmd_compare(args):
    a = normalize_two_bridge(*parse_fraction(args.fraction_a))
    b = normalize_two_bridge(*parse_fraction(args.fraction_b))
    verdict = compare_knots(a, b)
    if args.json:
        sys.stdout.write(
            serialize_report(verdict_to_dict(verdict)).decode() + "\n"
        )
    else:
        print(f"{a.label} vs {b.label}: {verdict.verdict}")
        print(f"  max multiset deviation: {format_deviation(verdict.max_multiset_deviation, '.3e')}")
        print(f"  congruence q' = +/-q^(+/-1) mod p: {verdict.congruence_match}")
    return 2 if verdict.verdict == "undetermined" else 0


def _cmd_oracle(args):
    if args.oracle_kind == "lens":
        lens = LensSpace.of(args.p, args.q)
        print(f"{lens.label}  (r = {lens.r})")
        print(f"{'k':>3} {'|torsion|^2':>16}")
        for k in range(1, (lens.p - 1) // 2 + 1):
            print(f"{k:>3} {lens_torsion_magnitude(lens, k):>16.10g}")
    else:
        q = args.q
        f = torus_F(q)  # validates q before anything is printed
        lens = LensSpace.of(q, 1)
        print(f"(2,{q}) torus knot  (double branched cover {lens.label})")
        print(f"{'j':>3} {'P(1)^2':>16} {'F':>12} {'product':>16} {'lens':>16}")
        for j in range(1, (q - 1) // 2 + 1):
            p1sq = torus_P1_squared(q, j)
            print(
                f"{j:>3} {p1sq:>16.10g} {f:>12.8g} {p1sq * f:>16.10g} "
                f"{lens_torsion_magnitude(lens, j):>16.10g}"
            )
    return 0


def _cmd_catalog(args):
    from .catalog import run_catalog  # only this command reads the catalog and cache

    report = run_catalog(args.path, out_path=args.out, cache_dir=args.cache)
    n_knots = len(report["knots"])
    n_errors = len(report["errors"])
    record_errors = sum(
        1
        for kr in report["knots"]
        for r in kr["records"]
        if r.get("error") is not None
    )
    print(f"computed {n_knots} knots, {n_errors} bad rows, {record_errors} record errors")
    for v in report["verdicts"]:
        (pa, qa), (pb, qb) = v["knots"]
        print(f"  b({pa},{qa}) vs b({pb},{qb}): {v['verdict']}"
              f" (dev {format_deviation(v['maxMultisetDeviation'], '.2e')})")
    if args.out:
        print(f"report written to {args.out}")
    return 2 if (n_errors or record_errors) else 0


def _cmd_selftest(_args):
    from .selfcheck import run_acceptance  # the suite reads the float references

    results = run_acceptance()
    return 0 if all(r.ok for r in results) else 2


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "invariants": _cmd_invariants,
        "compare": _cmd_compare,
        "oracle": _cmd_oracle,
        "catalog": _cmd_catalog,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (TorsionError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
