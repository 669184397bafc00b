"""Run the pasep CLI with a span recorded around each call into a layer.

Usage: python3 perfbench/shim.py INVOCATION_ID CLI_ARG...

The shim wraps the public functions the benchmark reports on, then runs
``pasep.cli.main`` on the remaining arguments, so stdout and the exit code
are the CLI's own.  Each call records one span: name, start, end and parent
span; all spans of this process share INVOCATION_ID.  Spans stay in memory.
At exit the shim reduces them, per span name, to the call count, the total
time and the self time (duration minus the time covered by child spans), and
writes one line ``PERFBENCH_TRACE <json>`` to stderr together with the
counters and the lru_cache statistics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

MARKER = "PERFBENCH_TRACE "

_clock = time.perf_counter
_names: list[str] = []
_span_name = array("H")
_span_parent = array("l")
_span_start = array("d")
_span_end = array("d")
_stack = [-1]
_counters: dict[str, int] = {}


def _span(name: str, fn):
    """fn wrapped so that every call records one span."""
    if name not in _names:
        _names.append(name)
    nid = _names.index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = len(_span_start)
        _span_name.append(nid)
        _span_parent.append(_stack[-1])
        _span_end.append(0.0)
        _stack.append(i)
        _span_start.append(_clock())
        try:
            return fn(*args, **kwargs)
        finally:
            _span_end[i] = _clock()
            _stack.pop()

    return traced


def _iteration_span(name: str, gen_fn):
    """A generator function whose iteration, not its call, records spans.

    A generator returns at once, so each step of the iteration gets its own
    span; otherwise the producer's cost would land in the consumer.
    """
    step = _span(name, next)

    @functools.wraps(gen_fn)
    def traced(*args, **kwargs):
        it = gen_fn(*args, **kwargs)
        while True:
            try:
                item = step(it)
            except StopIteration:
                return
            yield item

    return traced


def _with_count(counter: str, fn, measure):
    """fn with counter increased by measure(args, result) on every call."""
    _counters[counter] = 0

    @functools.wraps(fn)
    def counted(*args):
        out = fn(*args)
        _counters[counter] += measure(args, out)
        return out

    return counted


def _table_sum(args, table) -> int:
    return sum(sum(row) if isinstance(row, list) else row for row in table)


def _term_products(args, out) -> int:
    a, b = args
    return len(a) * (len(b) if hasattr(b, "_terms") else 1)


def _install():
    """Wrap the traced functions and return the lru_cache objects to report."""
    import pasep.cli as cli
    from pasep import (
        ansatz,
        closedforms,
        crosscheck,
        kernels,
        laurent,
        paths,
        permstats,
        qcombinat,
        rooks,
    )

    # Taken before patching: a wrapper does not carry cache_info.
    caches = {}
    for module in (closedforms, paths, permstats, qcombinat, rooks):
        short = module.__name__.rsplit(".", 1)[1]
        for attr, value in vars(module).items():
            if not attr.startswith("_") and hasattr(value, "cache_info") \
                    and inspect.getmodule(value) is module:
                caches[f"{short}.{attr}"] = value

    LP = laurent.LaurentPoly
    replaced = {}  # original object -> wrapper

    def patch(owner, attr, wrapper):
        replaced[getattr(owner, attr)] = wrapper

    for attr, name in (
        ("__mul__", "laurent.mul"),
        ("__add__", "laurent.add"),
        ("__eq__", "laurent.eq"),
        ("exact_div", "laurent.exact_div"),
        ("eval_q", "laurent.eval"),
        ("eval_y", "laurent.eval"),
        ("pretty", "laurent.serialize"),
        ("to_json", "laurent.serialize"),
    ):
        patch(LP, attr, _span(name, getattr(LP, attr)))
    replaced[LP.__mul__] = _with_count(
        "laurent.mul.term_products", replaced[LP.__mul__], _term_products
    )

    for module, fns in (
        (paths, ("motzkin_polynomials_upto", "decompose", "recompose",
                 "labelled_path_sum")),
        (ansatz, ("scalar_products_upto",)),
        (closedforms, ("partition_polynomial", "partition_polynomial_y1",
                       "y_coefficient_formula")),
        (rooks, ("rook_sum",)),
        (permstats, ("gen_polynomial",)),
    ):
        short = module.__name__.rsplit(".", 1)[1]
        for fn in fns:
            patch(module, fn, _span(f"{short}.{fn}", getattr(module, fn)))
    patch(paths, "iter_labelled_paths",
          _iteration_span("paths.iter_labelled_paths", paths.iter_labelled_paths))

    for fn in kernels.__all__[1:]:  # every name after BACKEND is a kernel
        wrapper = _span(f"kernels.{fn}", getattr(kernels, fn))
        if fn != "signed_path_table":  # its table holds signed weights, not counts
            wrapper = _with_count(f"kernels.{fn}.objects", wrapper, _table_sum)
        patch(kernels, fn, wrapper)
    for check in crosscheck.CHECKS:
        replaced[check] = _span(f"crosscheck.{check.__name__}", check)
    patch(cli, "cmd_table", _span("cli.table", cli.cmd_table))

    # Swap every reference: module attributes, names imported with
    # ``from x import f``, and class attributes such as __radd__.
    for owner in [m for n, m in sys.modules.items() if n.startswith("pasep.")] + [LP]:
        for attr, value in list(vars(owner).items()):
            try:
                wrapper = replaced.get(value)
            except TypeError:  # unhashable attribute
                continue
            if wrapper is not None:
                setattr(owner, attr, wrapper)
    # The dispatch tables hold their own references.  A method span wraps
    # whatever the method calls, traced or not, so it is applied only here.
    crosscheck.CHECKS = tuple(replaced[c] for c in crosscheck.CHECKS)
    for method, fn in cli.METHODS.items():
        cli.METHODS[method] = _span(f"cli.eval.{method}", replaced.get(fn, fn))

    return caches


def _reduce() -> dict:
    """Per span name: [calls, total seconds, self seconds]."""
    n = len(_span_start)
    covered = array("d", bytes(8 * n))
    for i in range(n):
        parent = _span_parent[i]
        if parent >= 0:
            covered[parent] += _span_end[i] - _span_start[i]
    spans = {name: [0, 0.0, 0.0] for name in _names}
    for i in range(n):
        row = spans[_names[_span_name[i]]]
        duration = _span_end[i] - _span_start[i]
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered[i]
    return spans


def main(argv: list[str]) -> int:
    invocation, cli_args = argv[0], argv[1:]
    caches = _install()
    import pasep.cli as cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        payload = {
            "invocation": invocation,
            "span_count": len(_span_start),
            "spans": _reduce(),
            "counters": _counters,
            "caches": {
                name: [fn.cache_info().hits, fn.cache_info().misses]
                for name, fn in caches.items()
            },
        }
        print(MARKER + json.dumps(payload, separators=(",", ":")), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
