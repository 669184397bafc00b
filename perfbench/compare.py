"""Compare two sets of benchmark results, one row per (workload, metric).

Usage (from the repository root):

    python3 perfbench/compare.py OLD.json [OLD2.json ...] --new NEW.json [NEW2.json ...]

Each file is a result set written by ``perfbench/run.py --save``; the samples
of the files on one side are pooled.  Each row gives both sides' median,
quartiles and sample count, and a verdict:

* ``better``: the new side wins at least nine tenths of all (old, new)
  sample pairs, and the medians differ by more than the old side's
  interquartile range;
* ``worse``: the new median is worse than the old by more than the metric's
  bound from BENCHMARK.json (for a metric without a bound: the mirror image
  of ``better``);
* ``unresolved``: the old side's spread is wider than the bound, or, for a
  metric without a bound, the medians differ by more than that spread;
* ``unchanged``: otherwise.

Sides run on different kernel backends are flagged instead of compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import SPEC, quartiles


def _load(paths: list[Path]) -> tuple[set[str], dict[tuple[str, str], list[float]]]:
    backends: set[str] = set()
    samples: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        result = json.loads(path.read_text())
        backends.update(result["meta"]["backend"])
        for workload, data in result["workloads"].items():
            for metric, values in data["samples"].items():
                samples.setdefault((workload, metric), []).extend(values)
    return backends, samples


def verdict(old: list[float], new: list[float], better: str, bound: float | None) -> str:
    sign = 1 if better == "lower" else -1  # sign * (new - old) > 0 means worse
    q1, median_old, q3 = quartiles(old)
    spread = q3 - q1
    change = sign * (statistics.median(new) - median_old)
    pairs = len(old) * len(new)
    wins = sum(sign * (n - o) < 0 for o in old for n in new)
    losses = sum(sign * (n - o) > 0 for o in old for n in new)
    if wins >= 0.9 * pairs and -change > spread:
        return "better"
    if bound is None:
        if losses >= 0.9 * pairs and change > spread:
            return "worse"
        return "unchanged" if abs(change) <= spread else "unresolved"
    if spread > bound * abs(median_old):
        return "unresolved"
    if change > bound * abs(median_old):
        return "worse"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py", description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, nargs="+")
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    metrics["error_rate"] = {"name": "error_rate", "unit": "ratio", "better": "lower", "bound": 0}
    old_backends, old = _load(args.old)
    new_backends, new = _load(args.new)
    mismatch = old_backends != new_backends
    if mismatch:
        print(f"backends differ: old {sorted(old_backends)}, new {sorted(new_backends)}; "
              "timings are not comparable")

    print(f"{'workload':11s} {'metric':52s} {'old median [q1, q3] n':>38s} "
          f"{'new median [q1, q3] n':>38s}  verdict")
    for workload in sorted({w for w, _ in old} & {w for w, _ in new}):
        for name, m in metrics.items():
            key = (workload, name)
            if key not in old or key not in new:
                continue
            cells = []
            for values in (old[key], new[key]):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.6g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            v = ("backend differs" if mismatch
                 else verdict(old[key], new[key], m["better"], m.get("bound")))
            print(f"{workload:11s} {name:52s} {cells[0]:>38s} {cells[1]:>38s}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
