"""CLI contract: verbs, formats, exit codes, determinism, and op coverage."""

import functools
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pasep
from pasep import (
    ansatz,
    cli,
    closedforms,
    crosscheck,
    kernels,
    laurent,
    paths,
    permstats,
    qcombinat,
    rooks,
)
from pasep.laurent import Q, Y, ZERO, LaurentPoly


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


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("method", sorted(cli.METHODS))
def test_every_route_refuses_sizes_below_one(method, n):
    with pytest.raises(ValueError):
        cli.METHODS[method](n)


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


def test_signed_paths_equals_theorem1_up_to_cap():
    """The signed-paths route against theorem1 at every size up to its cap;
    a difference is named by its first term, as crosscheck reports it."""
    sizes = range(1, cli.METHOD_CAPS["signed-paths"] + 1)
    methods = cli.METHODS["signed-paths"], cli.METHODS["theorem1"]
    assert list(crosscheck._differ(sizes, *methods)) == []


def test_matrix_equals_theorem1_up_to_cap():
    """The matrix route against theorem1 at its cap, and every smaller size
    as y times one pass of scalar products; a difference is named by its
    first term, as crosscheck reports it."""
    cap = cli.METHOD_CAPS["matrix"]
    theorem1 = cli.METHODS["theorem1"]
    assert list(crosscheck._differ([cap], cli.METHODS["matrix"], theorem1)) == []
    scalars = ansatz.scalar_products_upto(ansatz.yd_plus_e(cap + 2), cap - 1)
    sizes = range(1, cap + 1)
    assert list(crosscheck._differ(sizes, lambda n: Y * scalars[n - 1], theorem1)) == []


def test_williams_equals_theorem1_at_cap():
    """The Williams route against theorem1 at its cap only: the route
    recomputes every coefficient formula at each size, so one size is what
    a test can afford; a difference is named by its first term."""
    cap = cli.METHOD_CAPS["williams"]
    methods = cli.METHODS["williams"], cli.METHODS["theorem1"]
    assert list(crosscheck._differ([cap], *methods)) == []


def test_motzkin_equals_theorem1_up_to_cap():
    """The Motzkin route against theorem1 at its cap, and every size up to
    the cap read from one transfer cut there; a difference is named by its
    first term, as crosscheck reports it.  The route runs a transfer of its
    own and unpacks only its last step, so it is compared itself."""
    cap = cli.METHOD_CAPS["motzkin"]
    theorem1 = cli.METHODS["theorem1"]
    assert list(crosscheck._differ([cap], cli.METHODS["motzkin"], theorem1)) == []
    motzkin = paths.motzkin_polynomials_upto(cap)
    sizes = range(1, cap + 1)
    assert list(crosscheck._differ(sizes, lambda n: motzkin[n - 1], theorem1)) == []


# The route modules, and the kernels, which only the paths and permstats
# routes read.
ROUTE_MODULES = ("ansatz", "closedforms", "crosscheck", "kernels", "paths", "permstats", "rooks")
# Standard modules a verb imports only where its output needs them: exact
# values for --q/--y, and the JSON encoder for crosscheck and table.
DEFERRED_MODULES = ("decimal", "fractions", "json")


@pytest.mark.parametrize(
    "argv, routes",
    [
        (None, []),
        (["eval", "--method", "theorem1", "-n", "3"], ["closedforms"]),
        (["eval", "--method", "motzkin", "-n", "3"], ["kernels", "paths"]),
        (["eval", "--method", "matrix", "-n", "3"], ["ansatz"]),
        (["eval", "--method", "rooks", "-n", "3"], ["ansatz", "rooks"]),
        (["eval", "--method", "signed-paths", "-n", "3"], ["kernels", "paths"]),
        (["eval", "--method", "williams", "-n", "3"], ["closedforms"]),
        (["eval", "--method", "permutations-ascent", "-n", "3"], ["kernels", "permstats"]),
        (["eval", "--method", "permutations-crossing", "-n", "3"], ["kernels", "permstats"]),
        (["table", "1..3"], ["closedforms"]),
        (["eval", "--method", "motzkin", "-n", "3", "--format", "csv"], ["kernels", "paths"]),
        (["eval", "--method", "theorem1", "-n", "3", "--q", "1/2"], ["closedforms"]),
        (["eval", "--method", "matrix", "-n", "3", "--y=-2"], ["ansatz"]),
        (["table", "1..3", "--format", "json"], ["closedforms"]),
    ],
)
def test_each_verb_loads_only_its_route(argv, routes):
    """import pasep.cli loads no route module and no kernels; a verb loads
    its own route, and the kernels only if that route reads them.  Neither
    loads fractions (nor decimal, which it imports) unless --q or --y is
    given, nor json unless the output is JSON from crosscheck or table;
    LaurentPoly.to_json builds its string itself."""
    run = f"pasep.cli.main({argv!r}); " if argv else ""
    code = (
        "import sys, pasep.cli; " + run +
        f"print(sorted(m for m in {ROUTE_MODULES!r} if 'pasep.' + m in sys.modules)); "
        f"print(sorted(m for m in {DEFERRED_MODULES!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True, text=True
    ).stdout
    *_, loaded_routes, loaded = out.splitlines()
    assert loaded_routes == repr(routes)
    argv = argv or []
    want = set()
    if any(arg.startswith(("--q", "--y")) for arg in argv):
        want |= {"decimal", "fractions"}
    if "json" in argv and argv[0] != "eval":
        want.add("json")
    assert loaded == repr(sorted(want))


def test_removed_flags_rejected():
    for verb in (["eval", "--method", "theorem1", "-n", "3"], ["crosscheck"], ["table", "1..3"]):
        for flag in ("--threads", "--seed", "--range"):
            with pytest.raises(SystemExit) as exc:
                run_cli(verb + [flag, "1"])
            assert exc.value.code == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["eval", "--method", "not-a-method", "-n", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["table", "8..2"])
    assert exc.value.code == 2
    for args in (
        ["table", "2_0"],
        ["table", "+2"],
        ["table", "1 .. 3"],
        ["table", "0..2"],
        ["table", "1..4", "--coeff", "zz"],
        ["table", "1..4", "--coeff", "qq3"],
        ["table", "1..4", "--coeff", "q-0"],
        ["table", "1..4", "--coeff", "q3..qq5"],
        ["table", "1..4", "--coeff", "q3..q2"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2, args
    capsys.readouterr()
    assert run_cli(["eval", "--method", "theorem1", "-n", "0"]) == 2
    assert capsys.readouterr().err == "error: n must be >= 1\n"
    for text in ("abc", "1/0"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["eval", "--method", "theorem1", "-n", "3", "--q", text])
        assert exc.value.code == 2, text
        assert f"not an exact number: {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["0..3", "5..3", "1..x"])
def test_table_range_error_states_the_rule(capsys, text):
    # Out of range and reversed ranges are well formed: the message gives
    # the rule they break, not "malformed".
    with pytest.raises(SystemExit) as exc:
        run_cli(["table", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"range {text!r} must be lo or lo..hi with 1 <= lo <= hi" in err
    assert "malformed" not in err


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


def test_readme_checks_table_matches_crosscheck():
    """The README's checks table lists every check in declared order, with the
    sizes the pretty report prints for it at --n-max 9."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme[readme.index("\n| check | sizes | compares |"):].split("\n\n")[0]
    rows = re.findall(r"^\| ([^|`]+?) \| ([0-9., ]+) \|", table, re.MULTILINE)
    reports = crosscheck.run_all(9)
    assert rows == [
        re.fullmatch(r"PASS (.+) \(sizes (.+)\)", r.summary()).groups() for r in reports
    ]


def test_readme_module_list_names_every_module():
    """The README's module list has one line for each src/pasep/*.py file
    but __init__.py."""
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text()
    listed = readme[readme.index("\nModules: "):].split("\n\n")[1]
    named = re.findall(r"^- `([a-z_]+)`: ", listed, re.MULTILINE)
    files = {p.stem for p in (root / "src" / "pasep").glob("*.py")} - {"__init__"}
    assert sorted(named) == sorted(files)


def test_method_families_worded_alike():
    """The README, pyproject.toml, the package docstring and --help count
    the methods the same way: five families, each named."""
    root = Path(__file__).parents[1]
    families = (
        "five independent families of methods (operator matrices, lattice paths, "
        "rook placements, closed forms and permutation statistics)"
    )
    for text in (
        (root / "README.md").read_text(),
        (root / "pyproject.toml").read_text(),
        pasep.__doc__,
        cli.build_parser().description,
    ):
        assert families in " ".join(text.split())


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


def test_table_coeff_cap(capsys):
    """Columns run to q^992, the q-degree of Z_64(1, q), the largest size
    table accepts; a wider selector is refused before any output."""
    assert cli.TABLE_COEFF_CAP == 992
    assert run_cli(["table", "64", "--coeff", "q0..q992"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.endswith(",q991,q992") and row.endswith(",128,2")
    assert run_cli(["table", "1..2", "--coeff", "q0..q993"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "capped at q^992" in captured.err
    assert run_cli(["table", "1..65"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: table is capped at n <= 64\n"


def test_table_json_and_pretty(capsys):
    args = ["table", "1..4", "--coeff", "q0..q2", "--format"]
    assert run_cli(args + ["json"]) == 0
    assert capsys.readouterr().out == (
        '{"columns":["n","q0","q1","q2"],'
        '"rows":[[1,1,0,0],[2,2,0,0],[3,5,1,0],[4,14,8,2]]}\n'
    )
    assert run_cli(args + ["pretty"]) == 0
    assert capsys.readouterr().out == (
        "n  q0  q1  q2\n"
        "1   1   0   0\n"
        "2   2   0   0\n"
        "3   5   1   0\n"
        "4  14   8   2\n"
    )


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
    assert (
        "FAIL williams vs theorem1 (sizes 1..4) [n=3: q^0 y^1: 3 vs 1; n=4: q^0 y^1: 6 vs 1]\n"
        in captured.out
    )


def test_crosscheck_reports_a_raising_route(capsys, monkeypatch):
    def broken(n):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr(paths, "motzkin_polynomial", broken)
    assert run_cli(["crosscheck", "--n-max", "3", "--format", "json"]) == 1
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["ok"] is False and len(obj["checks"]) == len(crosscheck.CHECKS)
    failed = [c for c in obj["checks"] if not c["ok"]]
    assert failed[0] == {
        "name": "motzkin vs theorem1",
        "ok": False,
        "violations": ["raised ArithmeticError: broken on purpose"],
    }
    assert "error: first failing identity: motzkin vs theorem1" in captured.err


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

    # Checks that compare integers name both, and the others the first term.
    low_order = closedforms.low_order_coefficients

    def shifted(n):  # one too many at q^1 for n=5
        lo = low_order(n)
        return (lo[0], lo[1] + 1, *lo[2:]) if n == 5 else lo

    monkeypatch.setattr(closedforms, "low_order_coefficients", shifted)
    rep = crosscheck.check_low_order_coefficients(6)
    assert rep.violations == ["n=5, q^1: 45 != 46"]  # binom(10, 2) = 45

    q1_y = closedforms.q1_y_coefficient
    monkeypatch.setattr(
        closedforms, "q1_y_coefficient", lambda n, m: q1_y(n, m) + ((n, m) == (4, 2))
    )
    rep = crosscheck.check_small_q_coefficients(3)
    assert rep.violations == ["q y^2 at n=4: 4 != 5"]

    scalar_product = ansatz.scalar_product

    def widened(m, k):  # an extra q^2 y at the widest truncation
        return scalar_product(m, k) + (Q**2 * Y if len(m) == k + 6 else ZERO)

    monkeypatch.setattr(ansatz, "scalar_product", widened)
    rep = crosscheck.check_truncation_stability(6)
    want = scalar_product(ansatz.yd_plus_e(7), 5).coeff(2, 1)
    assert rep.sizes == (5,)
    assert rep.violations == [f"dim=11: q^2 y^1: {want + 1} vs {want}"]


def test_crosscheck_pretty_lists_sizes(capsys):
    assert run_cli(["crosscheck", "--n-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # Declaration order is report order: a moved declaration fails here.
    sizes = [re.fullmatch(r"PASS (.*) \(sizes (.*)\)", line).groups() for line in lines[:-1]]
    assert sizes == [
        ("matrix vs theorem1", "1..3"),
        ("motzkin vs theorem1", "1..3"),
        ("permutations-ascent vs theorem1", "1..3"),
        ("permutations-crossing vs theorem1", "1..3"),
        ("signed-paths extraction", "1..3"),
        ("left-factor decomposition sum", "1..3"),
        ("signed core sums vs closed form", "0..4"),
        ("left-factor counts vs formula", "0..3"),
        ("decomposition round-trip", "1..3"),
        ("lgv bijection round-trip", "0..3"),
        ("core functional equation", "0..3"),
        ("ansatz relations", "5"),
        ("hat relations", "5"),
        ("inversion formulas", "1..3"),
        ("printed second inversion fails at y=2", "1"),
        ("rooks vs matrix", "1..3"),
        ("rook summation ladder", "0..3"),
        ("row-sum formula vs exhaustive", "1..3"),
        ("involution bijection", "1..3"),
        ("boundary-sum normalization is unique", "1..3"),
        ("rooks vs theorem1", "1..3"),
        ("williams vs theorem1", "1..3"),
        ("matching closed form vs enumeration", "1..3"),
        ("low-order q coefficients", "1..12"),
        ("q^10 closed form", "7..12"),
        ("narayana specialisation", "1..4"),
        ("q y^m and q^2 y^m closed forms", "1..4"),
        ("positivity and factorial specialisation", "1..3"),
        ("truncation stability", "3"),
        ("vincular pattern count bounded by classical", "3"),
        ("classical tail bound", "1..3"),
        ("kernels vs reference definitions", "3"),
        ("asymptotic ratio trend", "20, 40, 60"),
    ]
    assert lines[-1] == "33/33 checks passed (n_max=3)"


@pytest.mark.parametrize(
    "cmd",
    [
        ["eval", "--method", "theorem1", "-n", "4"],
        ["crosscheck", "--n-max", "1", "--format", "csv"],
        ["table", "1..3"],
    ],
)
def test_closed_stdout_exits_quietly(cmd):
    """A reader that has gone before the first write, as after `| head`,
    gives the closed-pipe status and no traceback, not an identity failure."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pasep.cli"] + cmd,
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert done.returncode == cli.EXIT_PIPE_CLOSED == 141
    assert done.stderr == b""


# The two ways a shell starts the CLI, each in a fresh process: the module,
# and the console script pyproject.toml declares, which calls cli.run as the
# script an installer writes for it does.
ENTRY_POINTS = {
    "module": [sys.executable, "-m", "pasep.cli"],
    "script": [sys.executable, "-c", "import sys; from pasep.cli import run; sys.exit(run())"],
}
# Block-buffered stdout, as a pipe gets by default: output still held in the
# buffer when run exits is lost unless run flushes it.
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _exited(cmd):
    """(status, stdout, stderr) of cmd run to its exit.  The pipes are read
    only after the exit, without waiting: a read that would block means a
    process left behind still holds them.  The output must fit the pipe."""
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERED
    ) as proc:
        status = proc.wait(timeout=120)
        outs = []
        for pipe in (proc.stdout, proc.stderr):
            os.set_blocking(pipe.fileno(), False)
            chunks = []
            try:
                while chunk := os.read(pipe.fileno(), 1 << 16):
                    chunks.append(chunk)
            except BlockingIOError:
                pytest.fail(f"a process left behind by {cmd[1:]} holds its output")
            outs.append(b"".join(chunks))
    return status, *outs


def test_console_script_is_run():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert '\npasep = "pasep.cli:run"\n' in text


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_run_exit_status_in_a_fresh_process(entry):
    """A usage error exits 2 through argparse, a size past the cap 3 through
    run, each with its message on stderr and nothing on stdout."""
    cmd = ENTRY_POINTS[entry]
    status, out, err = _exited(cmd + ["eval", "--method", "no-such-method", "-n", "3"])
    assert (status, out) == (2, b"")
    assert b"invalid choice: 'no-such-method'" in err
    status, out, err = _exited(cmd + ["eval", "--method", "motzkin", "-n", "65"])
    assert (status, out) == (3, b"")
    assert err == b"error: method motzkin is capped at n <= 64 (got n=65)\n"


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_run_writes_what_main_writes(entry, capsys):
    """The largest output, theorem1 at its cap (3 MB, far past any pipe
    or stdio buffer), reaches a fresh process's stdout whole before run
    exits without teardown."""
    args = ["eval", "--method", "theorem1", "-n", "64"]
    done = subprocess.run(
        ENTRY_POINTS[entry] + args, capture_output=True, check=True, env=BUFFERED
    )
    assert run_cli(args) == 0
    want = capsys.readouterr().out.encode()
    assert len(want) > 2**21
    assert done.stdout == want
    assert done.stderr == b""


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_run_crosscheck_leaves_no_process_behind(entry):
    """crosscheck joins its pool of forked workers before run exits: once
    the process has exited, no worker holds its stdout or stderr, and
    stderr holds the completion line alone."""
    status, out, err = _exited(ENTRY_POINTS[entry] + ["crosscheck", "--n-max", "3"])
    assert status == 0
    assert out.decode().splitlines()[-1] == "33/33 checks passed (n_max=3)"
    assert re.fullmatch(rb"crosscheck completed in [0-9]+\.[0-9]s\n", err)


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


def _class_members(module):
    """(class, name, function) for every function, property and
    cached_property written in the body of a class defined in module,
    unless its name has one leading underscore; dunders count.  A method a
    dataclass generates is compiled from a string, not read from the
    module's file, so it is left out."""
    for cls in vars(module).values():
        if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
            continue
        for name, attr in vars(cls).items():
            if name.startswith("_") and not name.endswith("__"):
                continue
            if isinstance(attr, property):
                attr = attr.fget
            elif isinstance(attr, functools.cached_property):
                attr = attr.func
            fn = getattr(attr, "__func__", attr)  # classmethod, staticmethod
            if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                yield cls, name, fn


# Class members kept although no CLI run calls them, each with its reason.
UNREACHED_MEMBERS = {
    ("pasep.paths.LabeledMotzkinPath", "serialize"):
        "names the failing path in a round-trip violation, so a passing run never calls it",
    ("pasep.laurent.LaurentPoly", "__len__"):
        "perfbench's trace shim counts laurent.mul.term_products with it",
    ("pasep.laurent.LaurentPoly", "__repr__"):
        "what pytest and the debugger print for a polynomial, as in a failed equality",
    ("pasep.paths", "recompose"):
        "decompose's inverse on one path, which perfbench's trace shim wraps and the "
        "path tests use; the round trip folds its rule in the walk instead",
    ("pasep.paths", "motzkin_polynomials_upto"):
        "every p_s of one transfer, which perfbench's trace shim wraps and the tests read "
        "every size from; the route unpacks only the last step of its own transfer",
    ("pasep.paths", "decompose"):
        "the split of one path, which perfbench's trace shim wraps and the path tests "
        "use; the round trip folds its rule in the walk and reads each core there",
}


def test_every_public_operation_reachable_from_cli(capsys, monkeypatch, fresh_caches):
    """Drive each CLI verb and record which public operations execute: every
    function in a module's __all__ and every public member of every class.
    A second name for a method, as in ``__rmul__ = __mul__``, is watched
    on its own."""
    # The calls are watched in this process, so crosscheck must not fork.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    hit = set()

    def watch(owner, name, key, fn):
        """Replace owner.name by a wrapper that records key."""

        def wrapper(*args, **kw):
            hit.add(key)
            return fn(*args, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    modules = [laurent, qcombinat, ansatz, paths, rooks, closedforms, permstats, crosscheck]
    required = {}
    code_index = {}
    for mod in modules:
        required.update(_public_functions(mod))
        for cls, name, fn in _class_members(mod):
            key = (f"{mod.__name__}.{cls.__qualname__}", name)
            required[key] = fn
            if fn.__name__ != name:  # shares its code with the method it names
                watch(cls, name, key, fn)
    assert set(UNREACHED_MEMBERS) <= set(required), "allowlisted member no longer exists"
    for key, obj in required.items():
        code = inspect.unwrap(obj).__code__
        if obj.__name__ == key[1]:
            code_index.setdefault(code, []).append(key)

    for name in kernels.__all__:
        fn = getattr(kernels, name)
        if callable(fn):
            required[("pasep.kernels", name)] = fn
            watch(kernels, name, ("pasep.kernels", name), fn)

    def tracer(frame, event, arg):
        if event == "call":
            hit.update(code_index.get(frame.f_code, ()))

    sys.setprofile(tracer)
    try:
        assert run_cli(["crosscheck", "--n-max", "3"]) == 0
        for method in sorted(cli.METHODS):
            assert run_cli(["eval", "--method", method, "-n", "4", "--format", "json"]) == 0
        assert run_cli(["eval", "--method", "theorem1", "-n", "4", "--q", "1/2", "--y", "2"]) == 0
        assert run_cli(["table", "1..3", "--coeff", "q0..q1"]) == 0
    finally:
        sys.setprofile(None)
    capsys.readouterr()

    assert not hit & set(UNREACHED_MEMBERS), "allowlisted member is reached"
    missing = sorted(set(required) - hit - set(UNREACHED_MEMBERS))
    assert not missing, f"public operations unreachable from the CLI: {missing}"
