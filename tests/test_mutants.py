"""One-line defects, each patched into one layer: which crosscheck checks
catch it, and which still pass.

Each defect replaces one line of one function's source and installs the
result with monkeypatch.  Every memoised result is dropped before and after,
so a cached value computed by the correct code cannot hide the defect, nor a
defective one outlive its test.  The battery runs at n_max = 5.
"""

import inspect
import os
import sys
import textwrap

import pytest

from pasep import (
    ansatz,
    closedforms,
    crosscheck,
    kernels,
    paths,
    permstats,
    qcombinat,
    rooks,
)
from pasep.laurent import NotDivisible

N_MAX = 5


def _clear_caches():
    for mod in (qcombinat, ansatz, paths, rooks, closedforms, permstats, crosscheck):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    permstats._TAILS.clear()


@pytest.fixture
def mutate(monkeypatch):
    """mutate(owner, name, old, new): owner.name with the one line that reads
    `old` (indentation aside) replaced by `new`, compiled against its
    module's globals."""
    # One usable CPU: run_all runs the checks here, and forks no worker per defect.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _clear_caches()

    def apply(owner, name, old, new):
        func = inspect.unwrap(getattr(owner, name))
        lines = textwrap.dedent(inspect.getsource(func)).splitlines(keepends=True)
        (i,) = [i for i, line in enumerate(lines) if line.strip() == old]
        lines[i] = lines[i][: lines[i].index(old)] + new + "\n"
        namespace = dict(vars(sys.modules[func.__module__]))
        exec(compile("".join(lines), f"<mutant {name}>", "exec"), namespace)
        monkeypatch.setattr(owner, name, namespace[name])

    yield apply
    _clear_caches()


def _failing(n_max=N_MAX):
    """The checks whose reports fail; the battery must run to the end."""
    reports = crosscheck.run_all(n_max)
    return {
        check.__name__
        for check, report in zip(crosscheck.CHECKS, reports)
        if not report.ok
    }


def _outcomes(n_max=N_MAX):
    """The checks run one by one: each that does not pass, mapped to "fails"
    or to the name of the exception it raises."""
    out = {}
    for check in crosscheck.CHECKS:
        try:
            report = check(n_max)
        except (ArithmeticError, ValueError) as exc:
            out[check.__name__] = type(exc).__name__
        else:
            if not report.ok:
                out[check.__name__] = "fails"
    return out


def test_unpatched_battery_passes(mutate):
    assert _failing() == set()


def test_one_sided_crossing_count(mutate):
    # Crossings i < j <= w_i < w_j are no longer counted at the positions
    # before the last three, which n = 5 reaches.
    mutate(
        kernels,
        "wex_crossing_counts",
        "extra += (used & (bit - low)).bit_count()",
        "pass",
    )
    assert _failing() == {
        "check_permutations_crossing_vs_theorem1",
        "check_kernel_definitions",
    }


def test_decompose_keeps_open_nes_plain(mutate):
    # An open plain NE stays in the left factor when a starred step ends its
    # run, so the core loses it and can dip below the axis.
    mutate(paths, "decompose", "core += [_PLAIN_NE] * open_ne", "pass")
    with pytest.raises(ValueError, match="dips below the axis"):
        crosscheck.run_all(N_MAX)
    assert _outcomes() == {"check_decompose_roundtrip": "ValueError"}


def test_recompose_fills_slots_in_reverse(mutate):
    # The core's steps land in the wrong slots, so a rebuilt path can dip
    # below the axis.
    mutate(
        paths,
        "recompose",
        "for i, step in zip(slots, core.steps):",
        "for i, step in zip(reversed(slots), core.steps):",
    )
    with pytest.raises(ValueError, match="dips below the axis"):
        crosscheck.run_all(N_MAX)
    assert _outcomes() == {"check_decompose_roundtrip": "ValueError"}


def test_starred_up_step_shifted_by_h(mutate):
    # A starred NE or E1 at height h weighs q^h instead of q^(h+1).  Every
    # starred step is a core step, so a path and its core lose the same
    # power of q and the round trip's weight split still holds.
    mutate(
        paths.LabeledMotzkinPath,
        "signed_exponents",
        "eq += h + up",
        "eq += h",
    )
    assert _failing() == {"check_kernel_definitions"}


def test_classical_tail_off_by_one(mutate):
    # Each value placed counts one occurrence too many.  The tail bound is an
    # inequality, and fewer permutations survive the pruning, so the battery
    # passes; the tail against the joint histogram catches it, as in
    # tests/test_kernels.py::test_classical_tail_matches_joint_histogram.
    mutate(permstats, "_tail_search", "extra = below = 0", "extra, below = 1, 0")
    assert _failing() == set()
    n = N_MAX
    full = [sum(col) for col in zip(*kernels.vincular_classical_joint(n))]
    assert permstats.classical_tail(n, 3) != tuple(full[:4])


def test_lattice_pairs_one_apart_count_as_meeting(mutate):
    # Paths one unit apart, as at their start, count as meeting, so every
    # left factor that returns to height 0 drops out of the image.
    mutate(paths.LatticePathPair, "is_nonintersecting", "if not gap:", "if gap <= 1:")
    assert _failing() == {"check_lgv_bijection"}


def test_motzkin_up_step_shifted_in_q(mutate):
    # NE and E1 at height h weigh y [h+2]_q instead of y [h+1]_q in the
    # transfer: the two checks that read the Motzkin route catch it.
    mutate(
        paths,
        "motzkin_polynomials_upto",
        "up = p * (Y * q_int(h + 1))  # weight y*[h+1]_q: NE and E1",
        "up = p * (Y * q_int(h + 2))",
    )
    assert _failing() == {
        "check_motzkin_vs_theorem1",
        "check_signed_paths_extraction",
    }


def test_core_closed_form_exponent(mutate):
    # y^i weighs q^(i(k-i)) instead of q^(i(k+1-i)).  theorem1 builds its own
    # double sum and does not read this closed form, so the battery runs to
    # the end and only the two core-series checks report the defect.
    mutate(
        paths,
        "core_closed_form",
        "return LaurentPoly({(i * (k + 1 - i), i): 1 for i in range(k + 1)})",
        "return LaurentPoly({(i * (k - i), i): 1 for i in range(k + 1)})",
    )
    assert _failing() == {"check_core_closed_form", "check_functional_equation"}


def test_theorem1_strided_slice_starts_one_late(mutate):
    # Every k-sum with i >= 1 lands one power of q too high, so the
    # numerator's y^1 row no longer sums to 0 and theorem1's exact division
    # raises.  Every check that reads theorem1 raises with it, which stops
    # the battery; the checks on the y = 1 form, which has its own loop, pass.
    mutate(
        closedforms,
        "partition_polynomial",
        "row[i:stop:i] = map(add, row[i:stop:i], signed[i:])",
        "row[i + 1:stop:i] = map(add, row[i + 1:stop:i], signed[i:])",
    )
    with pytest.raises(NotDivisible):
        crosscheck.run_all(N_MAX)
    theorem1 = (
        "check_matrix_vs_theorem1",
        "check_motzkin_vs_theorem1",
        "check_permutations_ascent_vs_theorem1",
        "check_permutations_crossing_vs_theorem1",
        "check_rook_route_vs_theorem1",
        "check_williams_vs_theorem1",
        "check_narayana",
        "check_small_q_coefficients",
        "check_positivity_and_factorial",
    )
    assert _outcomes() == dict.fromkeys(theorem1, "NotDivisible")
