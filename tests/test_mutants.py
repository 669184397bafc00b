"""One-line defects, each patched into one layer: which crosscheck checks
catch it, and which still pass.

Each defect replaces one line of one function's source, or one constant,
and installs the result with monkeypatch.  Every memoised result is dropped
before and after, so a cached value computed by the correct code cannot hide
the defect, nor a defective one outlive its test.  The battery runs at n_max = 5.
"""

import ast
import inspect
import os
import sys
import textwrap

import pytest

from pasep import ansatz, closedforms, crosscheck, kernels, paths, permstats, rooks
from pasep.laurent import LaurentPoly

N_MAX = 5


@pytest.fixture
def mutate(monkeypatch, fresh_caches):
    """mutate(owner, name, old, new): owner.name with the one line that reads
    `old` (indentation aside) replaced by `new`, compiled against its
    module's globals."""
    # One usable CPU: run_all runs the checks here, and forks no worker per defect.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def apply(owner, name, old, new):
        func = inspect.unwrap(getattr(owner, name))
        lines = textwrap.dedent(inspect.getsource(func)).splitlines(keepends=True)
        (i,) = [i for i, line in enumerate(lines) if line.strip() == old]
        lines[i] = lines[i][: lines[i].index(old)] + new + "\n"
        namespace = dict(vars(sys.modules[func.__module__]))
        exec(compile("".join(lines), f"<mutant {name}>", "exec"), namespace)
        monkeypatch.setattr(owner, name, namespace[name])

    return apply


def _failing(n_max=N_MAX):
    """The checks whose reports fail; the battery must run to the end."""
    reports = crosscheck.run_all(n_max)
    return {
        check.__name__
        for check, report in zip(crosscheck.CHECKS, reports)
        if not report.ok
    }


def _raised(check, n_max=N_MAX):
    """The violations of check that report an exception."""
    return [v for v in check(n_max).violations if v.startswith("raised ")]


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
    # run, so the core loses it and can dip below the axis.  The defect is in
    # decompose's step rule, which the round trip's walk folds.
    mutate(paths, "_decompose_step", "core += (_PLAIN_NE,) * open_ne", "pass")
    assert _failing() == {"check_decompose_roundtrip"}
    raised = set(_raised(crosscheck.check_decompose_roundtrip))
    assert raised == {"raised ValueError: path dips below the axis"}


def test_recompose_fills_slots_in_reverse(mutate):
    # The core's steps land in the wrong slots, so a path with two or more
    # core steps is not rebuilt.  The defect is in recompose's fill, which
    # the round trip's walk runs on every path.
    mutate(
        paths,
        "_fill",
        "for i, step in zip(slots, core_steps):",
        "for i, step in zip(reversed(slots), core_steps):",
    )
    assert _failing() == {"check_decompose_roundtrip"}
    violations = crosscheck.check_decompose_roundtrip(N_MAX).violations
    assert violations[0] == "round trip failed for U D*"
    assert not _raised(crosscheck.check_decompose_roundtrip)


def test_left_factor_keeps_core_step_kinds(mutate):
    # A core step stays its own kind in the left factor instead of turning
    # into NE.  A path that is all core then no longer splits as NEs over
    # itself, so no core but the empty one is its own core.  The defect is
    # in decompose's step rule, which the round trip's walk folds.
    mutate(
        paths,
        "_decompose_step",
        "return left + (kind,), core, open_ne",
        "return left + (step[0],), core, open_ne",
    )
    assert _failing() == {"check_decompose_roundtrip"}
    violations = crosscheck.check_decompose_roundtrip(N_MAX).violations
    assert violations[0] == "core is not its own core for F1*"
    assert len(violations) == 4837
    assert not _raised(crosscheck.check_decompose_roundtrip)


def test_starred_up_step_shifted_by_h(mutate):
    # A starred NE or E1 at height h weighs q^h instead of q^(h+1).  Every
    # starred step is a core step, so a path and its core lose the same
    # power of q and the round trip's weight split still holds.  The defect
    # is in the weight's step rule, which the walk and signed_exponents fold.
    mutate(paths, "_weight_step", "eq += h + up", "eq += h")
    assert _failing() == {"check_kernel_definitions"}


def test_core_set_admits_plain_e2(mutate):
    # The core-set predicate lets a plain E2 through.  The round trip
    # validates cores with this predicate, and a core never holds a plain
    # east step, so it still passes; the core table against the paths the
    # predicate keeps does not.
    mutate(
        paths.LabeledMotzkinPath,
        "in_core_set",
        "elif kind != SE or prev_plain_ne:  # a plain east step or peak",
        "elif kind not in (SE, E2) or prev_plain_ne:",
    )
    assert _failing() == {"check_kernel_definitions"}


def test_classical_tail_off_by_one(mutate):
    # Each value placed counts one occurrence too many, so at n = 5 every
    # permutation exceeds k = 3.  The tail bound is an inequality that an
    # undercount still meets; the tail against the per-permutation
    # histogram catches it.
    mutate(permstats, "classical_tail", "total = count + pending[v]",
           "total = count + pending[v] + 1")
    assert _failing() == {"check_kernel_definitions"}
    assert crosscheck.check_kernel_definitions(N_MAX).violations == [
        "classical tail differs from definitions: (0, 0, 0, 0) != (42, 21, 23, 14)"
    ]


def test_classical_tail_ignores_pending(mutate):
    # Placing a value never adds its pending occurrences, so every
    # permutation counts as avoiding 1-3-2: the tail exceeds the q^0
    # coefficient of the y = 1 polynomial, which the tail bound sees.
    mutate(permstats, "classical_tail", "total = count + pending[v]", "total = count")
    assert _failing() == {"check_pattern_tail_bound", "check_kernel_definitions"}


def test_ascent_table_read_without_y_shift(mutate):
    # Row a of the ascent table is read as y^a, not y^(1+a): the ascent
    # route loses one power of y, against theorem1 and the per-permutation
    # definitions alike.
    mutate(
        permstats,
        "gen_polynomial",
        "rows = enumerate(kernels.ascent_pattern_counts(n), 1)",
        "rows = enumerate(kernels.ascent_pattern_counts(n))",
    )
    assert _failing() == {
        "check_kernel_definitions",
        "check_permutations_ascent_vs_theorem1",
    }


def test_classical_hist_sums_rows(mutate):
    # The joint table's rows are summed, giving the vincular histogram in
    # place of the classical one.  Only the definitions read it.
    mutate(
        permstats,
        "classical_hist",
        "return tuple(map(sum, zip(*kernels.vincular_classical_joint(n))))",
        "return tuple(map(sum, kernels.vincular_classical_joint(n)))",
    )
    assert _failing() == {"check_kernel_definitions"}


def test_classical_count_skips_adjacent(mutate):
    # The joint kernel leaves the occurrences with adjacent 1 and 3 out of
    # the classical count, so the vincular count can exceed it.
    mutate(kernels, "vincular_classical_joint", "cla += 1", "cla += not adjacent")
    assert _failing() == {"check_pattern_bound", "check_kernel_definitions"}


def test_lattice_pairs_one_apart_count_as_meeting(mutate):
    # Paths one unit apart, as at their start, count as meeting, so every
    # left factor that returns to height 0 drops out of the image.
    mutate(paths.LatticePathPair, "is_nonintersecting", "if not gap:", "if gap <= 1:")
    assert _failing() == {"check_lgv_bijection"}


def test_motzkin_up_step_shifted_in_q(mutate):
    # NE and E1 at height h weigh y [h+2]_q instead of y [h+1]_q in the
    # transfer: the one check that reads the Motzkin route catches it.
    mutate(
        paths,
        "motzkin_polynomials_upto",
        "up = p * (Y * q_int(h + 1))  # weight y*[h+1]_q: NE and E1",
        "up = p * (Y * q_int(h + 2))",
    )
    assert _failing() == {"check_motzkin_vs_theorem1"}


def test_matrix_route_drops_y(mutate):
    # <W|(yD+E)^(n-1)|V> without its factor y: every y-degree is one short.
    mutate(
        ansatz,
        "partition_polynomial_via_matrix",
        "return Y * scalar_product(yd_plus_e(n + 2), n - 1)",
        "return scalar_product(yd_plus_e(n + 2), n - 1)",
    )
    assert _failing() == {"check_matrix_vs_theorem1"}


def test_matrix_cut_one_step_early(mutate):
    # The scalar products drop each coordinate one step before it can no
    # longer return to |V>.  The smaller powers stay exact, but the last
    # step keeps no coordinate, so <W|M^k_max|V> comes out zero:
    # each check that reads the last scalar product of yD+E or yD^+E^ fails.
    mutate(
        ansatz,
        "scalar_products_upto",
        "vec = {j: x for j, x in _times(vec, m).items() if steps[j] <= k_max - k}",
        "vec = {j: x for j, x in _times(vec, m).items() if steps[j] < k_max - k}",
    )
    assert _failing() == {
        "check_matrix_vs_theorem1",
        "check_rook_sum_vs_matrix",
        "check_boundary_reconciliation",
    }


def test_signed_paths_route_divides_one_short(mutate):
    # The labelled sum is divided by (1-q)^(n-1), leaving a factor 1-q.
    mutate(
        paths,
        "partition_polynomial_via_signed_paths",
        "return labelled_path_sum(n).exact_div((ONE - Q) ** n)",
        "return labelled_path_sum(n).exact_div((ONE - Q) ** (n - 1))",
    )
    assert _failing() == {"check_signed_paths_extraction"}


def test_williams_route_stops_before_y_to_the_n(mutate):
    # The sum over y^m leaves out m = n, the y^n coefficient.
    mutate(
        closedforms,
        "partition_polynomial_via_williams",
        "for m in range(1, n + 1):",
        "for m in range(1, n):",
    )
    assert _failing() == {"check_williams_vs_theorem1"}


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
    # raises.  Every check that reads theorem1 fails, naming the exception,
    # and the battery runs on; the checks on the y = 1 form, which has its
    # own loop, pass.
    mutate(
        closedforms,
        "partition_polynomial",
        "row[i:stop:i] = map(add, row[i:stop:i], signed[i:])",
        "row[i + 1:stop:i] = map(add, row[i + 1:stop:i], signed[i:])",
    )
    theorem1 = {
        "check_matrix_vs_theorem1",
        "check_motzkin_vs_theorem1",
        "check_permutations_ascent_vs_theorem1",
        "check_permutations_crossing_vs_theorem1",
        "check_signed_paths_extraction",
        "check_rook_route_vs_theorem1",
        "check_williams_vs_theorem1",
        "check_narayana",
        "check_small_q_coefficients",
        "check_positivity_and_factorial",
    }
    assert _failing() == theorem1
    raised = "raised NotDivisible: no exact quotient (y^1 row is not divisible by (1-q)^1)"
    for name in theorem1:
        assert _raised(getattr(crosscheck, name)) == [raised], name


def test_starred_e2_made_plain_in_core_counts(mutate):
    # The core DP weighs E2* as a plain step: +1 and no z.  The core sums and
    # every check built on them fail; the labelled sums have their own DP.
    mutate(
        kernels,
        "_core_path_counts",
        "(h, False, True, 0, h),  # E2*",
        "(h, False, False, 0, h),  # E2",
    )
    assert _failing() == {
        "check_decomposition_sum",
        "check_core_closed_form",
        "check_functional_equation",
        "check_kernel_definitions",
    }


def test_build_e_below_diagonal_shifted(mutate):
    # E's subdiagonal entry in row i is [i+2]_q instead of [i+1]_q: the
    # Matrix Ansatz breaks, and with it every route through D and E.
    mutate(
        ansatz,
        "build_E",
        "return tuple({j: q_int(i + 1) for j in (i - 1, i) if j >= 0} for i in range(n))",
        "return tuple({j: q_int(i + 2 if j < i else i + 1) for j in (i - 1, i) if j >= 0}"
        " for i in range(n))",
    )
    assert _failing() == {
        "check_matrix_vs_theorem1",
        "check_ansatz_relations",
        "check_hat_relations",
        "check_rook_sum_vs_matrix",
        "check_boundary_reconciliation",
    }


def test_build_d_rows_reversed(mutate):
    # D's row i holds [n-i]_q instead of [i+1]_q, so its entries depend on
    # the truncation size: a wider truncation changes <W|(yD+E)^k|V>.
    mutate(
        ansatz,
        "build_D",
        "return tuple({j: q_int(i + 1) for j in (i, i + 1) if j < n} for i in range(n))",
        "return tuple({j: q_int(n - i) for j in (i, i + 1) if j < n} for i in range(n))",
    )
    assert _failing() == {
        "check_matrix_vs_theorem1",
        "check_ansatz_relations",
        "check_hat_relations",
        "check_rook_sum_vs_matrix",
        "check_boundary_reconciliation",
        "check_truncation_stability",
    }


def test_vincular_delta_off_by_one(mutate):
    # Each ascent counts one 13-2 occurrence too many in the bulk kernel.
    mutate(
        kernels,
        "ascent_pattern_counts",
        "delta = width + (between & free).bit_count()",
        "delta = width + (between & free).bit_count() + 1",
    )
    assert _failing() == {
        "check_permutations_ascent_vs_theorem1",
        "check_kernel_definitions",
    }


def test_hat_diagonal_without_inverse_q(mutate):
    # The hat transform adds 1 instead of 1/q on the diagonal.
    mutate(
        ansatz,
        "build_hat",
        "_times({0: _HAT_SCALE, 1: _Q_INV}, (row, {i: ONE}))",
        "_times({0: _HAT_SCALE, 1: ONE}, (row, {i: ONE}))",
    )
    assert _failing() == {
        "check_hat_relations",
        "check_inversion_formulas",
        "check_rook_sum_vs_matrix",
        "check_boundary_reconciliation",
    }


def test_printed_inversion_built_from_yd_plus_e(mutate):
    # The printed variant's (D+E)^k is built as (yD+E)^k, the corrected
    # form, so it holds at y = 2 where the printed form must fail.
    mutate(
        ansatz,
        "verify_inversion",
        "pows5 = _leading_power_rows(yd_plus_e(dim, ONE), n, interior)",
        "pows5 = _leading_power_rows(yd_plus_e(dim, yv), n, interior)",
    )
    assert _failing() == {"check_inversion_printed_variant"}


def test_rook_weight_exponent(mutate, monkeypatch):
    # A rook weighs q^-3 - q^-1 instead of (1-q)/q^2.  The rook route's
    # inversion no longer divides exactly; its check reports the exception.
    # P_WEIGHT is a constant, so it is replaced whole; mutate still gives
    # fresh caches and one CPU.
    p = LaurentPoly.monomial(1, -3, 0) - LaurentPoly.monomial(1, -1, 0)
    monkeypatch.setattr(rooks, "P_WEIGHT", p)
    assert _failing() == {
        "check_rook_sum_vs_matrix",
        "check_rook_ladder",
        "check_row_sum_formula",
        "check_rook_route_vs_theorem1",
    }
    (raised,) = _raised(crosscheck.check_rook_route_vs_theorem1)
    assert raised.startswith("raised NotDivisible: no exact quotient")
    # The exhaustive sums gain a q^-3 term that the closed forms lack.
    ladder = crosscheck.check_rook_ladder(N_MAX).violations
    assert ladder[0] == "closed form differs at (k,n)=(1,2): q^-3 y^1: 1 vs 0"
    row_sum = crosscheck.check_row_sum_formula(N_MAX).violations
    assert row_sum[0] == "(k,n)=(1,2): q^-3 y^1: 0 vs 1"


def test_column_weight_sum_keyed_by_rookless_columns(mutate):
    # T(j,k,n) reads the profile entry with j rooks, not k - j: the sums
    # with j = k - j are unchanged, the rest swap.  The rook sum reads the
    # profile itself, so only the checks on the ladder see it.
    mutate(
        rooks,
        "column_weight_sum",
        "entry = _placement_profile(n).get((k - j, k))",
        "entry = _placement_profile(n).get((j, k))",
    )
    assert _failing() == {"check_rook_ladder", "check_row_sum_formula"}


def test_matching_closed_form_exponent(mutate):
    # Each term with k > 2 weighs one more power of q.  Only the matching
    # check reads the Touchard-Riordan form.
    mutate(
        closedforms,
        "matching_closed_form",
        "(k * (k + 1) // 2, 0): (-1) ** k",
        "(k * (k + 1) // 2 + (k > 2), 0): (-1) ** k",
    )
    assert _failing() == {"check_touchard_riordan"}


def test_low_order_q1_above_ten(mutate):
    # The q^1 closed form gains one past n = 10, which only the low-order
    # check reaches: its sizes run to 12 whatever n_max is.
    mutate(
        closedforms,
        "low_order_coefficients",
        "c1 = binomial(2 * n, n - 3)",
        "c1 = binomial(2 * n, n - 3) + (n > 10)",
    )
    assert _failing() == {"check_low_order_coefficients"}


def test_q10_zero_one_size_too_far(mutate):
    # The q^10 closed form reads 0 at n = 8, where the coefficient is 74.
    mutate(closedforms, "q10_coefficient", "if n < 8:", "if n < 9:")
    assert _failing() == {"check_q10"}
    assert crosscheck.check_q10(N_MAX).violations == ["n=8: 74 != 0"]


def test_phi_drops_adjacent_arcs(mutate):
    # A rook on a cell with v - h = 1 makes no arc, so phi_inverse cannot
    # rebuild the placement.
    mutate(
        rooks,
        "phi",
        "arcs = frozenset((h, v) for v, h in pl.rooks)",
        "arcs = frozenset((h, v) for v, h in pl.rooks if v - h != 1)",
    )
    assert _failing() == {"check_phi_bijection"}


def test_left_factor_formula_one_extra(mutate):
    # The closed form counts one extra left factor at (n, k) = (4, 1), for
    # every j; the transfer counts are read by the other path checks.
    mutate(
        paths,
        "left_factor_formula",
        "return binomial(n, j) * binomial(n, j + k) - binomial(n, j - 1) * binomial(",
        "return ((n, k) == (4, 1)) + binomial(n, j) * binomial(n, j + k)"
        " - binomial(n, j - 1) * binomial(",
    )
    assert _failing() == {"check_left_factor_counts"}


def test_asymptotic_ratio_exponent(mutate):
    # The estimate's power of n is off by 0.1, so the ratios no longer
    # approach 1 from below.
    mutate(
        closedforms,
        "asymptotic_ratio",
        "return float(Fraction(coeff * factorial(m), 4**n)) * sqrt(pi) * n ** (1.5 - m)",
        "return float(Fraction(coeff * factorial(m), 4**n)) * sqrt(pi) * n ** (1.4 - m)",
    )
    assert _failing() == {"check_asymptotic_trend"}


# Checks that no mutant above makes fail, each with the reason it has none.
UNCAUGHT: dict[str, str] = {}


def test_every_check_fails_under_some_mutant():
    """The failing sets asserted in this file cover every crosscheck check
    but those in UNCAUGHT: a new check needs a mutant or a stated reason."""
    caught = set()
    for func in ast.parse(inspect.getsource(sys.modules[__name__])).body:
        if not isinstance(func, ast.FunctionDef):
            continue
        named_sets = {
            target.id: node.value
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Set)
            for target in node.targets
        }
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Call)
                and getattr(node.left.func, "id", None) == "_failing"
            ):
                (expected,) = node.comparators
                expected = named_sets.get(getattr(expected, "id", None), expected)
                caught |= ast.literal_eval(expected)
    names = {check.__name__ for check in crosscheck.CHECKS}
    assert caught <= names
    assert names - caught == set(UNCAUGHT)
