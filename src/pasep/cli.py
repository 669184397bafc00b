"""Command-line front end.

Verbs:
  eval        compute one polynomial by one method
  crosscheck  run the full cross-validation matrix
  table       emit coefficient tables over a range of sizes

Exit codes: 0 success, 1 identity failure (crosscheck), 2 usage error,
3 method cap exceeded.  Output on stdout is byte-deterministic for a fixed
command line; progress/timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import ansatz, closedforms, crosscheck, kernels, paths, permstats, rooks
from .laurent import ONE_MINUS_Q, Y, LaurentPoly

# Per-method size caps: exhaustive methods refuse rather than hang.
METHOD_CAPS = {
    "matrix": 40,
    "motzkin": 64,
    "signed-paths": kernels.SIGNED_PATH_CAP,
    "rooks": rooks.ROOK_CAP,
    "theorem1": 64,
    "williams": 64,
    "permutations-ascent": kernels.PERMUTATION_CAP,
    "permutations-crossing": kernels.PERMUTATION_CAP,
}

CROSSCHECK_CAP = 9


def _method_matrix(n: int) -> LaurentPoly:
    return Y * ansatz.scalar_product(ansatz.yd_plus_e(n + 2), n - 1)


def _method_signed_paths(n: int) -> LaurentPoly:
    return paths.labelled_path_sum(n).exact_div(ONE_MINUS_Q**n)


def _method_williams(n: int) -> LaurentPoly:
    total = LaurentPoly.from_int(0)
    for m in range(1, n + 1):
        total = total + LaurentPoly.monomial(1, 0, m) * closedforms.y_coefficient_formula(m, n)
    return total


METHODS = {
    "matrix": _method_matrix,
    "motzkin": paths.motzkin_polynomial,
    "signed-paths": _method_signed_paths,
    "rooks": rooks.partition_polynomial_via_rooks,
    "theorem1": closedforms.partition_polynomial,
    "williams": _method_williams,
    "permutations-ascent": lambda n: permstats.gen_polynomial(n, "ascent_pattern"),
    "permutations-crossing": lambda n: permstats.gen_polynomial(n, "wex_crossing"),
}


def _parse_value(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact number: {text!r}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed range {text!r}") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"malformed range {text!r}")
    return lo, hi


def _parse_coeff(text: str) -> tuple[int, int]:
    body = text
    try:
        if ".." in body:
            a, b = body.split("..", 1)
            lo = int(a.lstrip("q"))
            hi = int(b.lstrip("q"))
        else:
            lo = hi = int(body.lstrip("q"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coefficient selector {text!r}") from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad coefficient selector {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pasep",
        description="Exact partition-polynomial computations, five ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    caps = ", ".join(f"{m}: n<={c}" for m, c in sorted(METHOD_CAPS.items()))
    p_eval = sub.add_parser("eval", help="evaluate one method at one size")
    p_eval.add_argument("--method", required=True, choices=sorted(METHODS))
    p_eval.add_argument("-n", type=int, required=True, help=f"size (caps: {caps})")
    p_eval.add_argument("--q", type=_parse_value, default=None, help="specialise q")
    p_eval.add_argument("--y", type=_parse_value, default=None, help="specialise y")
    p_eval.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")

    p_cc = sub.add_parser("crosscheck", help="run every cross-method identity")
    p_cc.add_argument("--n-max", type=int, default=6, help=f"max size (cap {CROSSCHECK_CAP})")
    p_cc.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")

    p_tab = sub.add_parser("table", help="coefficient table over a size range")
    p_tab.add_argument("range", type=_parse_range, help="sizes, e.g. 1..8")
    p_tab.add_argument("--coeff", type=_parse_coeff, default=(0, 3),
                       help="q-coefficient column(s), e.g. q1 or q0..q3")
    p_tab.add_argument("--format", choices=("json", "csv", "pretty"), default="csv")

    return parser


def _print_poly(p: LaurentPoly, fmt: str) -> None:
    if fmt == "pretty":
        print(p.pretty())
    elif fmt == "json":
        print(p.to_json())
    else:
        print("q,y,c")
        for eq, ey, c in p.terms():
            print(f"{eq},{ey},{c}")


def cmd_eval(
    method: str, n: int, q: Fraction | None, y: Fraction | None, fmt: str
) -> int:
    cap = METHOD_CAPS[method]
    if n > cap:
        print(
            f"error: method {method} is capped at n <= {cap} (got n={n})",
            file=sys.stderr,
        )
        return 3
    if n < 1:
        print("error: n must be >= 1", file=sys.stderr)
        return 2
    poly = METHODS[method](n)
    if q is not None:
        poly = poly.eval_q(int(q) if q.denominator == 1 else q)
    if y is not None:
        poly = poly.eval_y(int(y) if y.denominator == 1 else y)
    _print_poly(poly, fmt)
    return 0


def cmd_crosscheck(n_max: int, fmt: str) -> int:
    if n_max > CROSSCHECK_CAP:
        print(f"error: crosscheck is capped at n-max <= {CROSSCHECK_CAP}", file=sys.stderr)
        return 3
    if n_max < 1:
        print("error: n-max must be >= 1", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    reports = crosscheck.run_all(n_max)
    elapsed = time.monotonic() - t0
    failed = [r for r in reports if not r.ok]
    if fmt == "json":
        print(
            json.dumps(
                {
                    "n_max": n_max,
                    "ok": not failed,
                    "checks": [
                        {"name": r.name, "ok": r.ok, "violations": r.violations}
                        for r in reports
                    ],
                },
                separators=(",", ":"),
            )
        )
    elif fmt == "csv":
        print("name,ok")
        for r in reports:
            print(f"{r.name},{int(r.ok)}")
    else:
        for r in reports:
            print(r.summary())
        print(f"{len(reports) - len(failed)}/{len(reports)} checks passed (n_max={n_max})")
    print(f"crosscheck completed in {elapsed:.1f}s", file=sys.stderr)
    if failed:
        print(f"error: first failing identity: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


def cmd_table(n_range: tuple[int, int], coeff: tuple[int, int], fmt: str) -> int:
    lo, hi = n_range
    if hi > METHOD_CAPS["theorem1"]:
        print(f"error: table is capped at n <= {METHOD_CAPS['theorem1']}", file=sys.stderr)
        return 3
    clo, chi = coeff
    names = [f"q{m}" for m in range(clo, chi + 1)]
    sizes = list(range(lo, hi + 1))

    def row(n: int) -> list[int]:
        p = closedforms.partition_polynomial_y1(n)
        return [p.coeff(m, 0) for m in range(clo, chi + 1)]

    rows = [row(n) for n in sizes]

    if fmt == "json":
        print(
            json.dumps(
                {
                    "columns": ["n"] + names,
                    "rows": [[n] + r for n, r in zip(sizes, rows)],
                },
                separators=(",", ":"),
            )
        )
    elif fmt == "pretty":
        header = ["n"] + names
        grid = [header] + [[str(v) for v in [n] + r] for n, r in zip(sizes, rows)]
        widths = [max(len(row[i]) for row in grid) for i in range(len(header))]
        for row in grid:
            print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    else:
        print(",".join(["n"] + names))
        for n, r in zip(sizes, rows):
            print(",".join(str(v) for v in [n] + r))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        return cmd_eval(args.method, args.n, args.q, args.y, args.format)
    if args.command == "crosscheck":
        return cmd_crosscheck(args.n_max, args.format)
    return cmd_table(args.range, args.coeff, args.format)


if __name__ == "__main__":
    sys.exit(main())
