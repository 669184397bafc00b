"""Smoke tests of the benchmark harness at toy sizes; they run in seconds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402


def _harness(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_run_reports_every_metric(tmp_path, trace):
    saved = tmp_path / "result.json"
    proc = _harness("--workload", "all", "--toy", "--seed", "3", "--seconds", "0",
                    "--trace", trace, "--save", str(saved))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 14
    spec = json.loads(run.SPEC.read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert set(last["metrics"]) == {f"{w}.{n}" for w in run.WORKLOADS for n in names}

    result = json.loads(saved.read_text())
    assert result["meta"]["backend"] and result["meta"]["seed"] == 3
    assert result["workloads"]["exhaustive"]["invocations"]
    rows = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(saved), "--new", str(saved)],
        capture_output=True, text=True, timeout=60,
    )
    assert rows.returncode == 0, rows.stderr
    assert "unchanged" in rows.stdout and "worse" not in rows.stdout


def test_harness_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _harness("--workload", "crosscheck", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _result(args, stdout: bytes, returncode: int = 0) -> run.Result:
    return run.Result(args, returncode, stdout, b"", 0.1, 0.1, 20.0, False)


def test_verify_names_the_first_differing_term():
    w = run.make_workload("exhaustive", 1, toy=True)
    good = b'{"terms":[{"q":0,"y":1,"c":"1"},{"q":1,"y":2,"c":"3"}]}'
    bad = b'{"terms":[{"q":0,"y":1,"c":"1"},{"q":1,"y":2,"c":"4"}]}'
    results = {a: _result(a, good) for a in w.invocations}
    results[w.invocations[-1]] = _result(w.invocations[-1], bad)
    failed = run.verify(w, results, None)
    assert list(failed) == [w.invocations[-1]]
    assert "q^1 y^2: 3 vs 4" in failed[w.invocations[-1]]

    results[w.invocations[0]] = _result(w.invocations[0], b"", returncode=3)
    assert "exit code 3" in run.verify(w, results, None)[w.invocations[0]]


def test_verify_checks_the_specialised_value_and_digests():
    w = run.make_workload("symbolic", 5, toy=True)
    spec, source, q, y = w.point
    assert spec[-2].startswith("--q=") and spec[-1].startswith("--y=")
    poly = b'{"terms":[{"q":0,"y":1,"c":"2"},{"q":2,"y":1,"c":"-1"}]}'
    value = 2 * y - q**2 * y
    results = {a: _result(a, b"x") for a in w.invocations}
    results[source] = _result(source, poly)
    results[spec] = _result(spec, str(value).encode() + b"\n")
    assert run.verify(w, results, None) == {}
    results[spec] = _result(spec, str(value + 1).encode())
    assert "the value of" in run.verify(w, results, None)[spec]
    assert run.evaluate(poly, Fraction(1, 2), Fraction(-3)) == Fraction(-21, 4)

    failed = run.verify(w, results, {})
    assert all(failed[a] == "no committed digest for this invocation"
               for a in w.invocations if a != spec)


def test_compare_verdicts():
    old = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert compare.verdict(old, [8.0, 8.1, 7.9], "lower", 0.1) == "better"
    assert compare.verdict(old, [12.0, 12.1, 11.9], "lower", 0.1) == "worse"
    assert compare.verdict(old, [10.3, 10.1, 9.8], "lower", 0.1) == "unchanged"
    assert compare.verdict([5.0, 15.0, 10.0, 6.0], [10.0], "lower", 0.1) == "unresolved"
    assert compare.verdict([0.5], [0.9], "higher", None) == "better"
