"""Command-line front end.

Verbs:
  eval        compute one polynomial by one method
  crosscheck  run the full cross-validation matrix
  table       emit coefficient tables over a range of sizes

Exit codes: 0 success, 1 identity failure (crosscheck), 2 usage error,
3 method cap exceeded, 141 stdout closed before the output was written
(the shell's status for SIGPIPE).  Output on stdout is byte-deterministic
for a fixed command line; progress/timing goes to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys
import time

from .caps import PERMUTATION_CAP, ROOK_CAP, SIGNED_PATH_CAP
from .laurent import LaurentPoly

# Fraction, in the annotations below, is imported where a value is parsed:
# only --q and --y need it.

# Per-method size caps: exhaustive methods refuse rather than hang.
METHOD_CAPS = {
    "matrix": 40,
    "motzkin": 64,
    "signed-paths": SIGNED_PATH_CAP,
    "rooks": ROOK_CAP,
    "theorem1": 64,
    "williams": 64,
    "permutations-ascent": PERMUTATION_CAP,
    "permutations-crossing": PERMUTATION_CAP,
}

CROSSCHECK_CAP = 9

# Exit status when the reader closes stdout early, as in `pasep ... | head`.
EXIT_PIPE_CLOSED = 141

# The q-degree of Z_n(1, q) is (n-1)^2 // 4, so above this every column of
# `table` is zero at every size it accepts.
TABLE_COEFF_CAP = (METHOD_CAPS["theorem1"] - 1) ** 2 // 4


def _route(module: str, name: str, *args):
    """The route pasep.<module>.<name>(n, *args), as a function of n.

    The module is imported when the route is first called, so a process
    loads only the route it evaluates, and the function is looked up on
    every call.
    """

    def route(n: int) -> LaurentPoly:
        return getattr(importlib.import_module(f"pasep.{module}"), name)(n, *args)

    return route


# Each method's route: the one function that computes it.
METHODS = {
    "matrix": _route("ansatz", "partition_polynomial_via_matrix"),
    "motzkin": _route("paths", "motzkin_polynomial"),
    "signed-paths": _route("paths", "partition_polynomial_via_signed_paths"),
    "rooks": _route("rooks", "partition_polynomial_via_rooks"),
    "theorem1": _route("closedforms", "partition_polynomial"),
    "williams": _route("closedforms", "partition_polynomial_via_williams"),
    "permutations-ascent": _route("permstats", "gen_polynomial", "ascent_pattern"),
    "permutations-crossing": _route("permstats", "gen_polynomial", "wex_crossing"),
}


def _parse_value(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact number: {text!r}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", text)
    return _span(match, 1, f"range {text!r} must be lo or lo..hi")


def _parse_coeff(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"q?([0-9]+)(?:\.\.q?([0-9]+))?", text)
    return _span(match, 0, f"coefficient selector {text!r} must be qlo or qlo..qhi")


def _span(match, least: int, error: str) -> tuple[int, int]:
    """(lo, hi) from a match of "lo" or "lo..hi", when least <= lo <= hi."""
    if match:
        lo, hi = int(match[1]), int(match[2] or match[1])
        if least <= lo <= hi:
            return lo, hi
    raise argparse.ArgumentTypeError(f"{error} with {least} <= lo <= hi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pasep",
        description="Exact partition-polynomial computations by five independent "
        "families of methods (operator matrices, lattice paths, rook placements, "
        "closed forms and permutation statistics).",
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
                       help=f"q-coefficient column(s), e.g. q1 or q0..q3 "
                       f"(cap q{TABLE_COEFF_CAP})")
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
        poly = poly.eval_q(q)
    if y is not None:
        poly = poly.eval_y(y)
    _print_poly(poly, fmt)
    return 0


def cmd_crosscheck(n_max: int, fmt: str) -> int:
    if n_max > CROSSCHECK_CAP:
        print(f"error: crosscheck is capped at n-max <= {CROSSCHECK_CAP}", file=sys.stderr)
        return 3
    if n_max < 1:
        print("error: n-max must be >= 1", file=sys.stderr)
        return 2
    from . import crosscheck

    t0 = time.monotonic()
    reports = crosscheck.run_all(n_max)
    elapsed = time.monotonic() - t0
    failed = [r for r in reports if not r.ok]
    if fmt == "json":
        import json

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
    if chi > TABLE_COEFF_CAP:
        print(f"error: table is capped at q^{TABLE_COEFF_CAP}", file=sys.stderr)
        return 3
    names = [f"q{m}" for m in range(clo, chi + 1)]
    sizes = list(range(lo, hi + 1))

    from . import closedforms

    rows = [closedforms.y1_low_coefficients(n, chi + 1)[clo:] for n in sizes]

    if fmt == "json":
        import json

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
    try:
        if args.command == "eval":
            status = cmd_eval(args.method, args.n, args.q, args.y, args.format)
        elif args.command == "crosscheck":
            status = cmd_crosscheck(args.n_max, args.format)
        else:
            status = cmd_table(args.range, args.coeff, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The rest of the output goes to devnull, so the flush at exit
        # meets no closed pipe either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    return status


def run() -> None:
    """The process entry point: main(), then exit without interpreter teardown.

    The output is written by then, so tearing down the objects a route
    built would cost time and reach no reader.  stdout and stderr are
    flushed first.  A usage error (argparse's SystemExit) or an uncaught
    exception leaves main the normal way and exits through the interpreter.
    """
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
