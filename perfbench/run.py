"""Benchmark of the pasep command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 120 --save results.json
    python3 perfbench/compare.py old.json new.json

Every invocation of ``python -m pasep.cli`` runs in a fresh child process,
one at a time: a closed loop with one client, so the harness and one child
share the machine.  Fresh processes matter because the package memoises with
lru_cache; repeats inside one process would time cache hits.  The seed sets
the invocation order and the rational point of the one specialised
invocation; the sizes are fixed, so every seed does the same work.  Passes
over the workload repeat while the next one is expected to end within
``--seconds``; there is always at least one.

Every output is checked, outside the timed region (see ``verify``).  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are BENCHMARK.json's ``end_to_end`` list.  With ``--trace 1`` they are its
``per_layer`` list, taken from children run through perfbench/shim.py, and
each traced pass is paired with an untraced one to give the trace overhead.
Each reported value is the median over the run's passes.

``--toy`` runs the same workloads at sizes that take seconds.
``--record-digests`` rewrites perfbench/digests.json from the current code,
after every other check has passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = BENCH_DIR / "digests.json"
SHIM = BENCH_DIR / "shim.py"
TRACE_MARKER = "PERFBENCH_TRACE "

WORKLOADS = ("crosscheck", "symbolic", "exhaustive")
EXHAUSTIVE_METHODS = (
    "signed-paths",
    "permutations-ascent",
    "permutations-crossing",
    "rooks",
    "theorem1",
)
# The advertised caps (matrix 40, motzkin 64, williams 64) take from half a
# minute to over ten minutes each, too slow to repeat for every sample.
SIZES = {
    "full": {"cross": 9, "big": 64, "mid": 40, "matrix": 24, "williams": 20,
             "table": 64, "coeff": 10, "exhaustive": 9},
    "toy": {"cross": 4, "big": 8, "mid": 6, "matrix": 5, "williams": 4,
            "table": 8, "coeff": 3, "exhaustive": 5},
}
SETUP_PROBES = 10
INVOCATION_TIMEOUT = 120.0  # seconds; a slower invocation counts as failed
# Beyond --seconds, a run may use this long to finish a pass; with 60
# seconds, one run of a workload ends within three minutes.
GRACE = 90.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


# -- workloads -----------------------------------------------------------------


@dataclass
class Workload:
    name: str
    invocations: list[tuple[str, ...]]  # CLI arguments, in run order
    same: list[tuple[tuple[str, ...], ...]] = field(default_factory=list)
    # (specialised invocation, JSON invocation of the same polynomial, q, y)
    point: tuple | None = None


def _eval(method: str, n: int, *extra: str) -> tuple[str, ...]:
    return ("eval", "--method", method, "-n", str(n), *extra)


def make_workload(name: str, seed: int, toy: bool = False) -> Workload:
    s = SIZES["toy" if toy else "full"]
    rng = random.Random(seed)
    if name == "crosscheck":
        w = Workload(name, [("crosscheck", "--n-max", str(s["cross"]), "--format", "json")])
    elif name == "symbolic":
        q = Fraction(rng.randint(1, 6), rng.randint(2, 7))
        y = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(2, 7))
        # "--y=-2/5", not "--y -2/5": argparse takes a separate "-2/5" for an option.
        point = _eval("theorem1", s["mid"], f"--q={q}", f"--y={y}")
        motzkin = _eval("motzkin", s["mid"], "--format", "json")
        matrix = _eval("matrix", s["matrix"], "--format", "json")
        t_matrix = _eval("theorem1", s["matrix"], "--format", "json")
        williams = _eval("williams", s["williams"])
        t_williams = _eval("theorem1", s["williams"])
        w = Workload(
            name,
            [_eval("theorem1", s["big"]), motzkin, point, matrix, t_matrix,
             williams, t_williams,
             ("table", f"1..{s['table']}", "--coeff", f"q0..q{s['coeff']}")],
            same=[(matrix, t_matrix), (williams, t_williams)],
            point=(point, motzkin, q, y),
        )
    elif name == "exhaustive":
        inv = [_eval(m, s["exhaustive"], "--format", "json") for m in EXHAUSTIVE_METHODS]
        w = Workload(name, inv, same=[tuple(inv)])
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(w.invocations)
    return w


def _key(args: tuple[str, ...]) -> str:
    return " ".join(args)


# -- child processes -------------------------------------------------------------


@dataclass
class Result:
    args: tuple[str, ...]
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    trace: dict | None = None


def run_child(cmd: list[str], timeout: float) -> Result:
    """Run cmd to completion; resource use comes from the child's own rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    killer = threading.Timer(max(timeout, 0.0), kill)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reaped = False
    try:
        killer.start()
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
        wall = time.perf_counter() - t0
    finally:
        killer.cancel()
        if not reaped:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(tuple(cmd), proc.returncode, out, err[0], wall,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  timed_out.is_set())


def invoke(args: tuple[str, ...], timeout: float, trace_id: str | None = None) -> Result:
    if trace_id is None:
        cmd = [sys.executable, "-m", "pasep.cli", *args]
    else:
        cmd = [sys.executable, str(SHIM), trace_id, *args]
    res = run_child(cmd, timeout)
    res.args = args
    if trace_id is not None:
        lines = res.stderr.decode(errors="replace").splitlines()
        marked = [ln for ln in lines if ln.startswith(TRACE_MARKER)]
        if marked:
            res.trace = json.loads(marked[-1][len(TRACE_MARKER):])
    return res


def measure_setup(probes: int) -> tuple[list[float], str]:
    """Interpreter start plus ``import pasep.cli``, timed in fresh processes.

    Also returns the kernel backend the import selected.
    """
    cmd = [sys.executable, "-c", "import pasep, pasep.cli; print(pasep.BACKEND)"]
    samples = []
    for _ in range(probes):
        res = run_child(cmd, 30.0)
        if res.returncode != 0:
            raise RuntimeError(
                "cannot import pasep.cli: " + res.stderr.decode(errors="replace")[-500:]
            )
        samples.append(res.wall_s)
    return samples, res.stdout.decode().strip()


# -- verification --------------------------------------------------------------


def _json_terms(text: bytes) -> dict | None:
    try:
        obj = json.loads(text)
        return {(t["q"], t["y"]): t["c"] for t in obj["terms"]}
    except (ValueError, KeyError, TypeError):
        return None


def first_difference(a: bytes, b: bytes) -> str:
    """The first term where two printed polynomials differ."""
    ta, tb = _json_terms(a), _json_terms(b)
    if ta is not None and tb is not None:
        for k in sorted(ta.keys() | tb.keys()):
            if ta.get(k) != tb.get(k):
                return f"coefficient of q^{k[0]} y^{k[1]}: {ta.get(k, '0')} vs {tb.get(k, '0')}"
        return "same terms, different bytes"
    for i, (x, y) in enumerate(zip_longest(a.split(), b.split())):
        if x != y:
            return f"term {i}: {x!r} vs {y!r}"
    return "same terms, different spacing"


def evaluate(json_text: bytes, q: Fraction, y: Fraction) -> Fraction:
    """Exact value of a JSON polynomial at (q, y), over one common denominator."""
    terms = [(t["q"], t["y"], int(t["c"])) for t in json.loads(json_text)["terms"]]
    if not terms:
        return Fraction(0)
    lq, hq = min(t[0] for t in terms), max(t[0] for t in terms)
    ly, hy = min(t[1] for t in terms), max(t[1] for t in terms)

    def powers(v: int, n: int) -> list[int]:
        out = [1]
        for _ in range(n):
            out.append(out[-1] * v)
        return out

    qn, qd = powers(q.numerator, hq - lq), powers(q.denominator, hq - lq)
    yn, yd = powers(y.numerator, hy - ly), powers(y.denominator, hy - ly)
    num = sum(
        c * qn[eq - lq] * qd[hq - eq] * yn[ey - ly] * yd[hy - ey] for eq, ey, c in terms
    )
    return Fraction(num, qd[-1] * yd[-1]) * q**lq * y**ly


def _abbrev(v) -> str:
    s = str(v)
    return s if len(s) <= 60 else f"{s[:28]}...{s[-28:]} ({len(s)} chars)"


def verify(w: Workload, results: dict[tuple, Result], digests: dict | None) -> dict[tuple, str]:
    """Failed invocations, each with a message naming what differed.

    Checks: exit status; crosscheck reports ``"ok":true``; outputs that must
    agree are byte-identical; the specialised value equals this harness's own
    evaluation of the same polynomial; every unspecialised output matches its
    committed digest (skipped when ``digests`` is None).
    """
    bad: dict[tuple, str] = {}
    for args, r in results.items():
        if r.timed_out:
            bad[args] = f"timed out after {r.wall_s:.1f}s"
        elif r.returncode != 0:
            tail = r.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            bad[args] = f"exit code {r.returncode}: {tail[0][:200]}"
    ok = {a: r for a, r in results.items() if a not in bad}

    for args, r in ok.items():
        if args[0] != "crosscheck":
            continue
        try:
            report = json.loads(r.stdout)
        except ValueError:
            bad[args] = "crosscheck output is not JSON"
            continue
        if report.get("ok") is not True:
            failing = [c for c in report.get("checks", []) if not c.get("ok")]
            first = failing[0] if failing else {"name": "?", "violations": []}
            bad[args] = f"check {first['name']!r} failed: {(first['violations'] or [''])[0]}"

    for group in w.same:
        ref = group[0]
        for other in group[1:]:
            if ref in ok and other in ok and ok[ref].stdout != ok[other].stdout:
                bad.setdefault(other, f"differs from {_key(ref)!r} at "
                               + first_difference(ok[ref].stdout, ok[other].stdout))

    if w.point is not None:
        spec, source, q, y = w.point
        if spec in ok and source in ok:
            try:
                got = Fraction(ok[spec].stdout.decode().strip())
            except ValueError:
                got = None
            want = evaluate(ok[source].stdout, q, y)
            if got != want:
                bad.setdefault(spec, f"value {_abbrev(got)} != {_abbrev(want)}, "
                               f"the value of {_key(source)!r} at q={q}, y={y}")

    if digests is not None:
        specialised = w.point[0] if w.point else None
        for args, r in ok.items():
            if args == specialised:
                continue
            want = digests.get(_key(args))
            got = hashlib.sha256(r.stdout).hexdigest()
            if want is None:
                bad.setdefault(args, "no committed digest for this invocation")
            elif got != want:
                bad.setdefault(args, f"output digest {got[:16]} != committed {want[:16]}")
    return bad


# -- measurement -----------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_values(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its invocations."""
    spans: dict[str, list[float]] = {}
    caches: dict[str, list[int]] = {}
    out: dict[str, float] = {"trace.spans": 0}
    for t in traces:
        out["trace.spans"] += t["span_count"]
        for name, row in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
        for name, v in t["counters"].items():
            out[name] = out.get(name, 0) + v
        for name, (hits, misses) in t["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
    for name, (calls, total, self_s) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = self_s
    for name, (hits, misses) in caches.items():
        out[f"cache.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


@dataclass
class WorkloadRun:
    workload: Workload
    backend: str
    samples: dict[str, list[float]]
    attempted: int
    errors: list[str]


def run_invocations(w: Workload, deadline: float, trace_tag: str | None = None
                    ) -> dict[tuple, Result]:
    """Run each invocation once, in order, while time remains."""
    results: dict[tuple, Result] = {}
    for i, args in enumerate(w.invocations):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        trace_id = None if trace_tag is None else f"{trace_tag}-{i}"
        results[args] = invoke(args, min(INVOCATION_TIMEOUT, remaining), trace_id)
    return results


def run_pass(w: Workload, deadline: float, digests: dict,
             trace_tag: str | None) -> tuple[dict[str, float], list[str]]:
    """One pass over the workload: its metrics and its failure messages."""
    results = run_invocations(w, deadline, trace_tag)
    bad = verify(w, results, digests)
    errors = [f"{_key(a)}: {msg}" for a, msg in bad.items()]
    errors += [f"{_key(a)}: not run, out of time" for a in w.invocations if a not in results]
    done = list(results.values())
    metrics = {
        "wall_s": sum(r.wall_s for r in done),
        "cpu_s": sum(r.cpu_s for r in done),
        "peak_rss_mb": max((r.rss_mb for r in done), default=0.0),
    }
    if trace_tag is not None:
        errors += [f"{_key(r.args)}: no trace written" for r in done if r.trace is None]
        metrics.update(layer_values([r.trace for r in done if r.trace is not None]))
    return metrics, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool,
                 digests: dict) -> WorkloadRun:
    start = time.perf_counter()
    deadline = start + seconds + GRACE
    w = make_workload(name, seed, toy)
    measure_setup(1)  # warms the file cache and writes bytecode
    # Half the set-up probes run before the passes and half after, so that
    # their median spans the run rather than one moment of it.
    setup, backend = measure_setup(SETUP_PROBES // 2)
    samples: dict[str, list[float]] = {"setup_s": setup}
    attempted = 0
    errors: list[str] = []
    window_start = time.perf_counter()
    longest = 0.0
    n_pass = 0
    while True:
        t0 = time.perf_counter()
        plain, errs = run_pass(w, deadline, digests, None)
        attempted += len(w.invocations)
        errors += errs
        if trace:
            metrics, errs = run_pass(w, deadline, digests, f"{name}-{n_pass}")
            attempted += len(w.invocations)
            errors += errs
            metrics["trace.overhead_s"] = metrics["wall_s"] - plain["wall_s"]
        else:
            metrics = plain
        for k, v in metrics.items():
            samples.setdefault(k, []).append(v)
        n_pass += 1
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if errors or now - window_start + longest > seconds:
            break
    samples["setup_s"] += measure_setup(SETUP_PROBES - SETUP_PROBES // 2)[0]
    samples["error_rate"] = [len(errors) / attempted]
    return WorkloadRun(w, backend, samples, attempted, errors)


# -- reporting -------------------------------------------------------------------


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_table(run: WorkloadRun, spec: dict, trace: bool) -> None:
    units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {run.workload.name}: {len(run.workload.invocations)} invocations "
          f"per pass, backend {run.backend}")
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    for name in names:
        vals = run.samples[name]
        q1, med, q3 = quartiles(vals)
        m = units[name]
        print(f"  {name:52s} {med:14.6g} {m['unit']:6s} q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n={len(vals)}  ({m['better']} is better)")
    print(f"  {'error_rate':52s} {run.samples['error_rate'][0]:14.6g} ratio  "
          f"{len(run.errors)} of {run.attempted} invocations failed")
    for e in run.errors:
        print(f"  FAILED {e}")


def result_set(runs: list[WorkloadRun], seed: int, seconds: float, trace: bool,
               toy: bool) -> dict:
    return {
        "meta": {
            "python": platform.python_version(),
            "backend": sorted({r.backend for r in runs}),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "toy": toy,
        },
        "workloads": {
            r.workload.name: {
                "invocations": [list(a) for a in r.workload.invocations],
                "attempted": r.attempted,
                "failed": len(r.errors),
                "errors": r.errors,
                "samples": r.samples,
            }
            for r in runs
        },
    }


def record_digests() -> int:
    """Write the digest of every unspecialised output, if all else verifies."""
    digests = {}
    for toy in (True, False):
        for name in WORKLOADS:
            w = make_workload(name, 0, toy)
            results = run_invocations(w, time.perf_counter() + 10 * INVOCATION_TIMEOUT)
            bad = verify(w, results, None)
            if bad:
                for args, msg in bad.items():
                    print(f"{_key(args)}: {msg}", file=sys.stderr)
                return 1
            for args, r in results.items():
                if w.point is None or args != w.point[0]:
                    digests[_key(args)] = hashlib.sha256(r.stdout).hexdigest()
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for a smoke test")
    parser.add_argument("--save", type=Path, help="write the result set to this file")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that run_child kills and reaps the
    # running child on its way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "pasep" / "cli.py").is_file():
        print(f"error: no pasep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    spec = json.loads(SPEC.read_text())
    digests = json.loads(DIGESTS.read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.toy, digests)
        print_table(run, spec, bool(args.trace))
        runs.append(run)
    result = result_set(runs, args.seed, args.seconds, bool(args.trace), args.toy)
    print(f"python {result['meta']['python']}, backend {', '.join(result['meta']['backend'])}, "
          f"nproc {result['meta']['nproc']}, commit {result['meta']['commit'][:12]}, "
          f"seed {args.seed}")
    if args.save:
        args.save.write_text(json.dumps(result, indent=1) + "\n")

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in listed:
        for run in runs:
            key = m["name"] if len(runs) == 1 else f"{run.workload.name}.{m['name']}"
            metrics[key] = {"value": statistics.median(run.samples[m["name"]]), "unit": m["unit"]}
    failed = sum(len(r.errors) for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
