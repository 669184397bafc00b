"""CLI contract: verbs, formats, exit codes, determinism, and op coverage."""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pasep import (
    ansatz,
    cli,
    closedforms,
    crosscheck,
    kernels,
    paths,
    permstats,
    qcombinat,
    rooks,
)
from pasep.laurent import LaurentPoly


def run_cli(args):
    return cli.main(args)


def test_eval_theorem1_pretty(capsys):
    assert run_cli(["eval", "--method", "theorem1", "-n", "3"]) == 0
    assert capsys.readouterr().out == "y^3 + (3 + q)*y^2 + y\n"


def test_eval_matrix_specialised(capsys):
    assert run_cli(["eval", "--method", "matrix", "-n", "3", "--q", "0", "--y", "1"]) == 0
    assert capsys.readouterr().out == "5\n"


def test_eval_json_wire_format(capsys):
    assert run_cli(["eval", "--method", "theorem1", "-n", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {
        "terms": [
            {"q": 0, "y": 1, "c": "1"},
            {"q": 0, "y": 2, "c": "3"},
            {"q": 0, "y": 3, "c": "1"},
            {"q": 1, "y": 2, "c": "1"},
        ]
    }


def test_eval_csv(capsys):
    assert run_cli(["eval", "--method", "theorem1", "-n", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "q,y,c\n0,1,1\n0,2,1\n"


def test_all_methods_agree_at_n4(capsys):
    outs = set()
    for method in sorted(cli.METHODS):
        assert run_cli(["eval", "--method", method, "-n", "4", "--format", "json"]) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


def test_eval_rational_specialisation(capsys):
    assert run_cli(
        ["eval", "--method", "theorem1", "-n", "3", "--q", "1/2", "--format", "json"]
    ) == 0
    out = capsys.readouterr().out
    assert '"c":"7/2"' in out
    assert run_cli(["eval", "--method", "theorem1", "-n", "3", "--q", "1/2", "--y", "2"]) == 0
    assert capsys.readouterr().out == "24\n"


def test_eval_cap_exit_code(capsys):
    assert run_cli(["eval", "--method", "permutations-ascent", "-n", "10"]) == 3
    err = capsys.readouterr().err
    assert "capped" in err


def test_signed_paths_at_cap(capsys):
    cap = cli.METHOD_CAPS["signed-paths"]
    assert cap == 24
    outs = []
    for method in ("signed-paths", "theorem1"):
        assert run_cli(["eval", "--method", method, "-n", str(cap), "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert run_cli(["eval", "--method", "signed-paths", "-n", str(cap + 1)]) == 3
    assert "capped" in capsys.readouterr().err


def test_removed_flags_rejected():
    for verb in (["eval", "--method", "theorem1", "-n", "3"], ["crosscheck"], ["table", "1..3"]):
        for flag in ("--threads", "--seed", "--range"):
            with pytest.raises(SystemExit) as exc:
                run_cli(verb + [flag, "1"])
            assert exc.value.code == 2


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["eval", "--method", "not-a-method", "-n", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["table", "8..2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["table", "1..4", "--coeff", "zz"])
    assert exc.value.code == 2


def test_crosscheck_cap(capsys):
    assert run_cli(["crosscheck", "--n-max", "10"]) == 3
    capsys.readouterr()
    for n_max in ("0", "-1"):
        assert run_cli(["crosscheck", "--n-max", n_max]) == 2
        assert "error: n-max must be >= 1" in capsys.readouterr().err
    with pytest.raises(ValueError):
        crosscheck.run_all(0)


def test_crosscheck_n_max_1(capsys):
    for fmt in ("json", "csv", "pretty"):
        assert run_cli(["crosscheck", "--n-max", "1", "--format", fmt]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "PASS boundary-sum normalization is unique (sizes 1..2)" in lines


def test_readme_caps_table_matches_method_caps():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| n<=(\d+) \|", readme, re.MULTILINE)
    assert sorted(method for method, _ in rows) == sorted(cli.METHOD_CAPS)
    assert {method: int(cap) for method, cap in rows} == cli.METHOD_CAPS


def test_table_q0_catalan(capsys):
    assert run_cli(["table", "1..6", "--coeff", "q0"]) == 0
    out = capsys.readouterr().out
    assert out == "n,q0\n1,1\n2,2\n3,5\n4,14\n5,42\n6,132\n"


def test_table_q1_central_binomials(capsys):
    assert run_cli(["table", "1..8", "--coeff", "q1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    got = [int(line.split(",")[1]) for line in lines[1:]]
    assert got == [qcombinat.binomial(2 * n, n - 3) for n in range(1, 9)]


def test_table_q10_matches_closed_form(capsys):
    assert run_cli(["table", "8..12", "--coeff", "q10"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    got = [int(line.split(",")[1]) for line in lines[1:]]
    assert got == [closedforms.q10_coefficient(n) for n in range(8, 13)]


def test_crosscheck_small_passes(capsys):
    assert run_cli(["crosscheck", "--n-max", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is True
    assert all(c["ok"] for c in obj["checks"])
    assert len(obj["checks"]) == len(crosscheck.CHECKS)


def test_crosscheck_deterministic_reports():
    a = crosscheck.run_all(2)
    b = crosscheck.run_all(2)
    assert [(r.name, r.ok, r.violations) for r in a] == [
        (r.name, r.ok, r.violations) for r in b
    ]


def test_crosscheck_names_injected_failure(capsys, monkeypatch):
    orig = closedforms.y_coefficient_formula

    def shifted(m, n):  # deliberate off-by-one in the y-power indexing
        return orig(min(m + 1, n), n)

    monkeypatch.setattr(closedforms, "y_coefficient_formula", shifted)
    rc = run_cli(["crosscheck", "--n-max", "4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "first failing identity: williams vs theorem1" in captured.err
    assert "FAIL williams vs theorem1" in captured.out


def test_crosscheck_names_first_differing_term(monkeypatch):
    orig = paths.motzkin_polynomial

    def defective(n):  # one extra q^3 y^2 at n=5
        return orig(n) + LaurentPoly.monomial(1, 3, 2) if n == 5 else orig(n)

    monkeypatch.setattr(paths, "motzkin_polynomial", defective)
    rep = crosscheck.check_motzkin_vs_theorem1(6)
    want = closedforms.partition_polynomial(5).coeff(3, 2)
    assert rep.name == "motzkin vs theorem1"
    assert not rep.ok
    assert rep.violations == [f"n=5: q^3 y^2: {want + 1} vs {want}"]


def test_crosscheck_pretty_lists_sizes(capsys):
    assert run_cli(["crosscheck", "--n-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    sizes = dict(re.fullmatch(r"PASS (.*) \(sizes (.*)\)", line).groups() for line in lines[:-1])
    assert sizes == {
        "matrix vs theorem1": "1..3",
        "motzkin vs theorem1": "1..3",
        "permutations-ascent vs theorem1": "1..3",
        "permutations-crossing vs theorem1": "1..3",
        "signed-paths extraction": "1..3",
        "left-factor decomposition sum": "1..3",
        "signed core sums vs closed form": "0..4",
        "left-factor counts vs formula": "0..3",
        "decomposition round-trip": "1..3",
        "lgv bijection round-trip": "0..3",
        "core functional equation": "0..3",
        "ansatz relations": "5",
        "hat relations": "5",
        "inversion formulas": "1..3",
        "printed second inversion fails at y=2": "1",
        "rooks vs matrix": "1..3",
        "rook summation ladder": "0..3",
        "row-sum formula vs exhaustive": "1..3",
        "involution bijection": "1..3",
        "boundary-sum normalization is unique": "1..3",
        "rooks vs theorem1": "1..3",
        "williams vs theorem1": "1..3",
        "matching closed form vs enumeration": "1..3",
        "low-order q coefficients": "1..12",
        "q^10 closed form": "7..12",
        "narayana specialisation": "1..4",
        "q y^m and q^2 y^m closed forms": "1..4",
        "positivity and factorial specialisation": "1..3",
        "truncation stability": "3",
        "vincular pattern count bounded by classical": "3",
        "classical tail bound": "1..3",
        "kernels vs reference definitions": "3",
        "asymptotic ratio trend": "20, 40, 60",
    }
    assert lines[-1] == "33/33 checks passed (n_max=3)"


def test_stdout_byte_deterministic_across_processes():
    cmds = [
        ["eval", "--method", "theorem1", "-n", "6", "--format", "json"],
        ["eval", "--method", "motzkin", "-n", "6", "--format", "csv"],
        ["table", "1..6", "--coeff", "q0..q2"],
    ]
    for cmd in cmds:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "pasep.cli"] + cmd,
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].endswith(b"\n")
        assert b"\r" not in runs[0]  # LF endings only


def _public_functions(module):
    out = {}
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            out[(module.__name__, name)] = obj
        elif callable(obj) and hasattr(obj, "__wrapped__"):
            out[(module.__name__, name)] = obj
    return out


def test_every_public_operation_reachable_from_cli(capsys, monkeypatch):
    """Drive each CLI verb and record which public operations execute."""
    # The calls are watched in this process, so crosscheck must not fork.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    modules = [qcombinat, ansatz, paths, rooks, closedforms, permstats, crosscheck]
    required = {}
    for mod in modules:
        required.update(_public_functions(mod))
        for obj in vars(mod).values():  # drop memoized results from earlier tests
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    hit = set()
    code_index = {}
    for key, obj in required.items():
        if hasattr(obj, "__wrapped__"):
            code_index[obj.__wrapped__.__code__] = key
        else:
            code_index[obj.__code__] = key

    # kernel entry points may be compiled; wrap them to record the call
    for name in kernels.__all__:
        fn = getattr(kernels, name)
        if not callable(fn):
            continue
        key = ("pasep.kernels", name)
        required[key] = fn

        def wrapper(*args, _fn=fn, _key=key, **kw):
            hit.add(_key)
            return _fn(*args, **kw)

        monkeypatch.setattr(kernels, name, wrapper)

    def tracer(frame, event, arg):
        if event == "call":
            key = code_index.get(frame.f_code)
            if key is not None:
                hit.add(key)

    sys.setprofile(tracer)
    try:
        assert run_cli(["crosscheck", "--n-max", "2", "--format", "csv"]) == 0
        for method in sorted(cli.METHODS):
            assert run_cli(["eval", "--method", method, "-n", "3", "--format", "json"]) == 0
        assert run_cli(["table", "1..3", "--coeff", "q0..q1"]) == 0
    finally:
        sys.setprofile(None)
    capsys.readouterr()

    missing = sorted(set(required) - hit)
    assert not missing, f"public operations unreachable from the CLI: {missing}"
