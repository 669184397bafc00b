"""crosscheck.run_all on a pool of forked processes, and in-process on one CPU."""

import concurrent.futures
import os
import subprocess
import sys

import pytest

from pasep import closedforms, crosscheck, paths, permstats
from pasep.laurent import ZERO, LaurentPoly, NotDivisible
from pasep.qcombinat import catalan


def _fields(reports):
    return [(r.name, r.ok, r.violations, r.sizes) for r in reports]


@pytest.fixture
def pools(monkeypatch):
    """Two usable CPUs, whatever the host has; returns the worker count of
    every pool run_all makes."""
    made = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            made.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return made


@pytest.mark.parametrize("n_max", range(1, 5))
def test_pool_reports_equal_in_process_reports(pools, n_max):
    want = _fields(check(n_max) for check in crosscheck.CHECKS)
    assert _fields(crosscheck.run_all(n_max)) == want
    assert pools == [2]


def test_pool_starts_the_round_trip_first(pools, monkeypatch):
    # The longest check goes to the pool first; the reports still come back
    # in the declared order.
    submitted = []
    pool_class = concurrent.futures.ProcessPoolExecutor  # the fixture's
    submit = pool_class.submit

    def recorded(self, fn, *args, **kw):
        submitted.append((fn, args))
        return submit(self, fn, *args, **kw)

    monkeypatch.setattr(pool_class, "submit", recorded)
    want = _fields(check(4) for check in crosscheck.CHECKS)
    assert _fields(crosscheck.run_all(4)) == want
    assert pools == [2]
    first = crosscheck.CHECKS.index(crosscheck.check_decompose_roundtrip)
    assert submitted[0] == (crosscheck._run_check, (first, 4))
    assert sorted(submitted[1:]) == [
        (crosscheck._run_check, (i, 4)) for i in range(len(crosscheck.CHECKS)) if i != first
    ]


def test_one_cpu_forks_nothing(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("a pool was made with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    reports = crosscheck.run_all(2)
    assert len(reports) == len(crosscheck.CHECKS)
    assert all(r.ok for r in reports)


def test_pool_names_a_patched_defect(pools, monkeypatch):
    orig = paths.motzkin_polynomial

    def defective(n):  # one extra q^3 y^2 at n=5
        return orig(n) + LaurentPoly.monomial(1, 3, 2) if n == 5 else orig(n)

    monkeypatch.setattr(paths, "motzkin_polynomial", defective)
    reports = crosscheck.run_all(6)
    assert pools == [2]
    assert _fields(reports) == _fields(check(6) for check in crosscheck.CHECKS)
    failed = {r.name: r.violations for r in reports if not r.ok}
    want = closedforms.partition_polynomial(5).coeff(3, 2)
    assert failed["motzkin vs theorem1"] == [f"n=5: q^3 y^2: {want + 1} vs {want}"]


def test_pool_reports_what_a_check_raises(pools, monkeypatch):
    def broken(n):
        raise NotDivisible("broken on purpose")

    monkeypatch.setattr(paths, "motzkin_polynomial", broken)
    reports = crosscheck.run_all(3)
    assert pools == [2]
    assert _fields(reports) == _fields(check(3) for check in crosscheck.CHECKS)
    assert {r.name: r.violations for r in reports if not r.ok} == {
        "motzkin vs theorem1": ["raised NotDivisible: broken on purpose"],
    }


def test_pool_reports_round_trip_violations_as_in_process(pools, monkeypatch):
    # A core with a starred E2 step counts as outside the core set: the round
    # trip, one task, reports violations at every size, not an exception.
    in_core_set = paths.LabeledMotzkinPath.in_core_set
    monkeypatch.setattr(
        paths.LabeledMotzkinPath,
        "in_core_set",
        lambda self: in_core_set(self) and (paths.E2, True) not in self.steps,
    )
    want = crosscheck.check_decompose_roundtrip(5)
    assert want.violations[0] == "core not in core set for F2*"
    assert want.violations[-1] == "core not in core set for F2* F2* F2* F2* F2*"

    reports = crosscheck.run_all(5)
    assert pools == [2]
    assert _fields(reports) == _fields(c(5) for c in crosscheck.CHECKS)
    (got,) = [r for r in reports if r.name == want.name]
    assert _fields([got]) == _fields([want])
    assert not got.ok and got.sizes == (1, 2, 3, 4, 5)


def test_pool_reports_what_the_round_trip_fill_raises(pools, monkeypatch):
    fill = paths._fill

    def broken(state, core_steps):  # only on the paths that begin with a plain E1
        if state[0][0] == (paths.E1, False):
            raise paths.IntersectingPair("broken on purpose")
        return fill(state, core_steps)

    monkeypatch.setattr(paths, "_fill", broken)
    reports = crosscheck.run_all(3)
    assert pools == [2]
    assert _fields(reports) == _fields(check(3) for check in crosscheck.CHECKS)
    # F1, the first path walked, begins with one: the round trip stops
    # there, with one violation, and every other check passes.
    assert {r.name: r.violations for r in reports if not r.ok} == {
        "decomposition round-trip": ["raised IntersectingPair: broken on purpose"]
    }


def test_cli_import_loads_no_pool_modules():
    code = (
        "import sys, pasep.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True, text=True
    ).stdout
    assert out == "[]\n"


def test_round_trip_visits_every_labelled_path(monkeypatch):
    """The walk yields, and the fill rebuilds, each labelled path of each
    length n <= 5 once: 2^n C(n+1) paths, 4 + 20 + 112 + 672 + 4224 in all."""
    calls = {"iter_decomposed_paths": 0, "_fill": 0}
    walk, fill = paths.iter_decomposed_paths, paths._fill

    def counted_walk(*args):
        for item in walk(*args):
            calls["iter_decomposed_paths"] += 1
            yield item

    def counted_fill(*args):
        calls["_fill"] += 1
        return fill(*args)

    monkeypatch.setattr(paths, "iter_decomposed_paths", counted_walk)
    monkeypatch.setattr(paths, "_fill", counted_fill)
    report = crosscheck.check_decompose_roundtrip(5)
    assert report.ok and report.sizes == (1, 2, 3, 4, 5)
    total = sum(2**n * catalan(n + 1) for n in report.sizes)
    assert total == 5032
    assert calls == {"iter_decomposed_paths": total, "_fill": total}


def test_positivity_reports_a_zero_polynomial(monkeypatch):
    # A zero theorem1 has no y-degrees: the check names each size, rather
    # than raising on the empty support.
    monkeypatch.setattr(closedforms, "partition_polynomial", lambda n: ZERO)
    report = crosscheck.check_positivity_and_factorial(2)
    assert not report.ok
    assert report.violations == [
        "n=1: total 0 != 1",
        "n=1: no y-degrees",
        "n=2: total 0 != 2",
        "n=2: no y-degrees",
    ]


def test_kernel_definitions_name_the_differing_term(monkeypatch):
    # One extra q^2 y^3 in the ascent/pattern table at n = 5: the violation
    # gives the kernel's coefficient first, then the definitions'.
    gen_polynomial = permstats.gen_polynomial

    def defective(n, stat_pair):
        table = gen_polynomial(n, stat_pair)
        if (n, stat_pair) == (5, "ascent_pattern"):
            return table + LaurentPoly.monomial(1, 2, 3)
        return table

    monkeypatch.setattr(permstats, "gen_polynomial", defective)
    want = closedforms.partition_polynomial(5).coeff(2, 3)
    report = crosscheck.check_kernel_definitions(5)
    assert report.violations == [
        f"ascent/pattern table differs from definitions: q^2 y^3: {want + 1} vs {want}"
    ]
