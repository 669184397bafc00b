"""crosscheck.run_all on a pool of forked processes, and in-process on one CPU."""

import concurrent.futures
import os
import subprocess
import sys

import pytest

from pasep import closedforms, crosscheck, paths
from pasep.laurent import LaurentPoly, NotDivisible


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


def test_pool_raises_what_a_check_raises(pools, monkeypatch):
    def broken(n):
        raise NotDivisible("broken on purpose")

    monkeypatch.setattr(paths, "motzkin_polynomial", broken)
    with pytest.raises(NotDivisible):
        crosscheck.run_all(3)
    assert pools == [2]


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
