"""One-line defects, each patched into one layer: which crosscheck checks
catch it, and which still pass.

MUTANTS is the table of defects.  Each row replaces one line of one
function's source, or one constant, and test_mutant runs the battery at
n_max = 5 under it and asserts the row's failing set.  The mutate fixture
installs a row with monkeypatch and drops every memoised result before and
after, so a cached value computed by the correct code cannot hide the
defect, nor a defective one outlive its test.  A few rows have a follow-up
test that asserts the texts of the violations their checks report.
"""

import inspect
import os
import sys
import textwrap

import pytest

from pasep import ansatz, closedforms, crosscheck, kernels, laurent, paths, permstats, rooks
from pasep.laurent import LaurentPoly

N_MAX = 5

# One row per defect: (id, owner, name, old, new, failing).  owner.name has
# its one line that reads `old` (indentation aside) replaced by `new`; a row
# whose `old` is None replaces owner.name whole by `new`.  `failing` is the
# set of checks that fail under the defect.  The comment above a row says why.
MUTANTS = (
    # Crossings i < j <= w_i < w_j are no longer counted at the positions
    # before the last three, which n = 5 reaches.
    ("one_sided_crossing_count", kernels, "wex_crossing_counts",
     "extra += (used & (bit - low)).bit_count()",
     "pass",
     {"check_permutations_crossing_vs_theorem1", "check_kernel_definitions"}),
    # An open plain NE stays in the left factor when a starred step ends its
    # run, so the core loses it and can dip below the axis.  The defect is in
    # decompose's step rule, which the round trip's walk folds.
    ("decompose_keeps_open_nes_plain", paths, "_decompose_step",
     "core += (_PLAIN_NE,) * open_ne",
     "pass",
     {"check_decompose_roundtrip"}),
    # The core's steps land in the wrong slots, so a path with two or more
    # core steps is not rebuilt.  The defect is in recompose's fill, which
    # the round trip's walk runs on every path.
    ("recompose_fills_slots_in_reverse", paths, "_fill",
     "for i, step in zip(slots, core_steps):",
     "for i, step in zip(reversed(slots), core_steps):",
     {"check_decompose_roundtrip"}),
    # A core step stays its own kind in the left factor instead of turning
    # into NE.  A path that is all core then no longer splits as NEs over
    # itself, so no core but the empty one is its own core.  The defect is
    # in decompose's step rule, which the round trip's walk folds.
    ("left_factor_keeps_core_step_kinds", paths, "_decompose_step",
     "return left + (kind,), core, open_ne",
     "return left + (step[0],), core, open_ne",
     {"check_decompose_roundtrip"}),
    # A starred NE or E1 at height h weighs q^h instead of q^(h+1).  Every
    # starred step is a core step, so a path and its core lose the same
    # power of q and the round trip's weight split still holds.  The defect
    # is in the weight's step rule, which the walk and signed_exponents fold.
    ("starred_up_step_shifted_by_h", paths, "_weight_step",
     "eq += h + up",
     "eq += h",
     {"check_kernel_definitions"}),
    # The core-set predicate lets a plain E2 through.  The round trip
    # validates cores with this predicate, and a core never holds a plain
    # east step, so it still passes; the core table against the paths the
    # predicate keeps does not.
    ("core_set_admits_plain_e2", paths.LabeledMotzkinPath, "in_core_set",
     "elif kind != SE or prev_plain_ne:  # a plain east step or peak",
     "elif kind not in (SE, E2) or prev_plain_ne:",
     {"check_kernel_definitions"}),
    # Each value placed counts one occurrence too many, so at n = 5 every
    # permutation exceeds k = 3.  The tail bound is an inequality that an
    # undercount still meets; the tail against the per-permutation
    # histogram catches it.
    ("classical_tail_off_by_one", permstats, "classical_tail",
     "total = count + pending[v]",
     "total = count + pending[v] + 1",
     {"check_kernel_definitions"}),
    # Placing a value never adds its pending occurrences, so every
    # permutation counts as avoiding 1-3-2: the tail exceeds the q^0
    # coefficient of the y = 1 polynomial, which the tail bound sees.
    ("classical_tail_ignores_pending", permstats, "classical_tail",
     "total = count + pending[v]",
     "total = count",
     {"check_pattern_tail_bound", "check_kernel_definitions"}),
    # Row a of the ascent table is read as y^a, not y^(1+a): the ascent
    # route loses one power of y, against theorem1 and the per-permutation
    # definitions alike.
    ("ascent_table_read_without_y_shift", permstats, "gen_polynomial",
     "rows = enumerate(kernels.ascent_pattern_counts(n), 1)",
     "rows = enumerate(kernels.ascent_pattern_counts(n))",
     {"check_kernel_definitions", "check_permutations_ascent_vs_theorem1"}),
    # The joint table's rows are summed, giving the vincular histogram in
    # place of the classical one.  Only the definitions read it.
    ("classical_hist_sums_rows", permstats, "classical_hist",
     "return tuple(map(sum, zip(*kernels.vincular_classical_joint(n))))",
     "return tuple(map(sum, kernels.vincular_classical_joint(n)))",
     {"check_kernel_definitions"}),
    # The joint kernel leaves the occurrences with adjacent 1 and 3 out of
    # the classical count, so the vincular count can exceed it.
    ("classical_count_skips_adjacent", kernels, "vincular_classical_joint",
     "cla += 1",
     "cla += not adjacent",
     {"check_pattern_bound", "check_kernel_definitions"}),
    # The joint kernel counts each vincular occurrence twice, so the
    # vincular count can exceed the classical one.  The classical axis is
    # unchanged, and the bound is the only reader of the vincular axis.
    ("vincular_count_doubled", kernels, "vincular_classical_joint",
     "vin += 1",
     "vin += 2",
     {"check_pattern_bound"}),
    # Paths one unit apart, as at their start, count as meeting, so every
    # left factor that returns to height 0 drops out of the image.
    ("lattice_pairs_one_apart_count_as_meeting", paths.LatticePathPair, "is_nonintersecting",
     "if not gap:",
     "if gap <= 1:",
     {"check_lgv_bijection"}),
    # NE and E1 at height h weigh y [h+2]_q instead of y [h+1]_q in the
    # transfer: the one check that reads the Motzkin route catches it.
    ("motzkin_up_step_shifted_in_q", paths, "_transfer",
     "up = down + (p << h * b)  # weight y*[h+1]_q: NE and E1",
     "up = down + (p << h * b) + (p << (h + 1) * b)",
     {"check_motzkin_vs_theorem1"}),
    # The transfer's window drops its odd-bit step, so p [m]_q comes out
    # zero: SE and E2 weigh nothing.  Only the Motzkin route packs rows.
    ("motzkin_window_drops_odd_bit_step", paths, "_window",
     "acc = (acc << b) + p",
     "pass",
     {"check_motzkin_vs_theorem1"}),
    # <W|(yD+E)^(n-1)|V> without its factor y: every y-degree is one short.
    ("matrix_route_drops_y", ansatz, "partition_polynomial_via_matrix",
     "return Y * scalar_product(yd_plus_e(n + 2), n - 1)",
     "return scalar_product(yd_plus_e(n + 2), n - 1)",
     {"check_matrix_vs_theorem1"}),
    # The scalar products drop each coordinate one step before it can no
    # longer return to |V>.  The smaller powers stay exact, but the last
    # step keeps no coordinate, so <W|M^k_max|V> comes out zero:
    # each check that reads the last scalar product of yD+E or yD^+E^ fails.
    ("matrix_cut_one_step_early", ansatz, "scalar_products_upto",
     "vec = {j: x for j, x in _times(vec, m).items() if steps[j] <= k_max - k}",
     "vec = {j: x for j, x in _times(vec, m).items() if steps[j] < k_max - k}",
     {"check_matrix_vs_theorem1", "check_rook_sum_vs_matrix", "check_boundary_reconciliation"}),
    # The labelled sum is divided by (1-q)^(n-1), leaving a factor 1-q.
    ("signed_paths_route_divides_one_short", paths, "partition_polynomial_via_signed_paths",
     "return labelled_path_sum(n).exact_div(n)",
     "return labelled_path_sum(n).exact_div(n - 1)",
     {"check_signed_paths_extraction"}),
    # The sum over y^m leaves out m = n, the y^n coefficient.
    ("williams_route_stops_before_y_to_the_n", closedforms, "partition_polynomial_via_williams",
     "for m in range(1, n + 1):",
     "for m in range(1, n):",
     {"check_williams_vs_theorem1"}),
    # y^i weighs q^(i(k-i)) instead of q^(i(k+1-i)).  theorem1 builds its own
    # double sum and does not read this closed form, so the battery runs to
    # the end and only the two core-series checks report the defect.
    ("core_closed_form_exponent", paths, "core_closed_form",
     "return LaurentPoly({(i * (k + 1 - i), i): 1 for i in range(k + 1)})",
     "return LaurentPoly({(i * (k - i), i): 1 for i in range(k + 1)})",
     {"check_core_closed_form", "check_functional_equation"}),
    # Every k-sum with i >= 1 lands one power of q too high, so the
    # numerator's y^1 row no longer sums to 0 and theorem1's exact division
    # raises.  Every check that reads theorem1 fails, naming the exception,
    # and the battery runs on; the checks on the y = 1 form, which has its
    # own loop, pass.
    ("theorem1_strided_slice_starts_one_late", closedforms, "partition_polynomial",
     "row[i:stop:i] = map(add, row[i:stop:i], signed[i:])",
     "row[i + 1:stop:i] = map(add, row[i + 1:stop:i], signed[i:])",
     {"check_matrix_vs_theorem1", "check_motzkin_vs_theorem1",
      "check_permutations_ascent_vs_theorem1", "check_permutations_crossing_vs_theorem1",
      "check_signed_paths_extraction", "check_rook_route_vs_theorem1",
      "check_williams_vs_theorem1", "check_narayana", "check_small_q_coefficients",
      "check_positivity_and_factorial"}),
    # The core DP weighs E2* as a plain step: +1 and no z.  The core sums and
    # every check built on them fail; the labelled sums have their own DP.
    ("starred_e2_made_plain_in_core_counts", kernels, "core_series",
     "(h, False, True, 0, h),  # E2*",
     "(h, False, False, 0, h),  # E2",
     {"check_decomposition_sum", "check_core_closed_form", "check_functional_equation",
      "check_kernel_definitions"}),
    # E's subdiagonal entry in row i is [i+2]_q instead of [i+1]_q: the
    # Matrix Ansatz breaks, and with it every route through D and E.
    ("build_e_below_diagonal_shifted", ansatz, "build_E",
     "return tuple({j: q_int(i + 1) for j in (i - 1, i) if j >= 0} for i in range(n))",
     "return tuple({j: q_int(i + 2 if j < i else i + 1) for j in (i - 1, i) if j >= 0}"
     " for i in range(n))",
     {"check_matrix_vs_theorem1", "check_ansatz_relations", "check_hat_relations",
      "check_rook_sum_vs_matrix", "check_boundary_reconciliation"}),
    # D's row i holds [n-i]_q instead of [i+1]_q, so its entries depend on
    # the truncation size: a wider truncation changes <W|(yD+E)^k|V>.
    ("build_d_rows_reversed", ansatz, "build_D",
     "return tuple({j: q_int(i + 1) for j in (i, i + 1) if j < n} for i in range(n))",
     "return tuple({j: q_int(n - i) for j in (i, i + 1) if j < n} for i in range(n))",
     {"check_matrix_vs_theorem1", "check_ansatz_relations", "check_hat_relations",
      "check_rook_sum_vs_matrix", "check_boundary_reconciliation", "check_truncation_stability"}),
    # Each ascent counts one 13-2 occurrence too many in the bulk kernel.
    ("vincular_delta_off_by_one", kernels, "ascent_pattern_counts",
     "delta = width + (between & free).bit_count()",
     "delta = width + (between & free).bit_count() + 1",
     {"check_permutations_ascent_vs_theorem1", "check_kernel_definitions"}),
    # The hat transform adds 1 instead of 1/q on the diagonal.
    ("hat_diagonal_without_inverse_q", ansatz, "build_hat",
     "_times({0: _HAT_SCALE, 1: _Q_INV}, (row, {i: ONE}))",
     "_times({0: _HAT_SCALE, 1: ONE}, (row, {i: ONE}))",
     {"check_hat_relations", "check_inversion_formulas", "check_rook_sum_vs_matrix",
      "check_boundary_reconciliation"}),
    # The printed variant's (D+E)^k is built as (yD+E)^k, the corrected
    # form, so it holds at y = 2 where the printed form must fail.
    ("printed_inversion_built_from_yd_plus_e", ansatz, "verify_inversion",
     "pows5 = _leading_power_rows(yd_plus_e(dim, ONE), n, interior)",
     "pows5 = _leading_power_rows(yd_plus_e(dim, yv), n, interior)",
     {"check_inversion_printed_variant"}),
    # A rook weighs q^-3 - q^-1 instead of (1-q)/q^2.  The rook route's
    # inversion no longer divides exactly; its check reports the exception.
    # P_WEIGHT is a constant, so it is replaced whole.
    ("rook_weight_exponent", rooks, "P_WEIGHT",
     None,
     LaurentPoly.monomial(1, -3, 0) - LaurentPoly.monomial(1, -1, 0),
     {"check_rook_sum_vs_matrix", "check_rook_ladder", "check_row_sum_formula",
      "check_rook_route_vs_theorem1"}),
    # T(j,k,n) reads the profile entry with j rooks, not k - j: the sums
    # with j = k - j are unchanged, the rest swap.  The rook sum reads the
    # profile itself, so only the checks on the ladder see it.
    ("column_weight_sum_keyed_by_rookless_columns", rooks, "column_weight_sum",
     "entry = _placement_profile(n).get((k - j, k))",
     "entry = _placement_profile(n).get((j, k))",
     {"check_rook_ladder", "check_row_sum_formula"}),
    # Each term with k > 2 weighs one more power of q.  Only the matching
    # check reads the Touchard-Riordan form.
    ("matching_closed_form_exponent", closedforms, "matching_closed_form",
     "(k * (k + 1) // 2, 0): (-1) ** k",
     "(k * (k + 1) // 2 + (k > 2), 0): (-1) ** k",
     {"check_touchard_riordan"}),
    # The q^1 closed form gains one past n = 10, which only the low-order
    # check reaches: its sizes run to 12 whatever n_max is.
    ("low_order_q1_above_ten", closedforms, "low_order_coefficients",
     "c1 = binomial(2 * n, n - 3)",
     "c1 = binomial(2 * n, n - 3) + (n > 10)",
     {"check_low_order_coefficients"}),
    # The q^10 closed form reads 0 at n = 8, where the coefficient is 74.
    ("q10_zero_one_size_too_far", closedforms, "q10_coefficient",
     "if n < 8:",
     "if n < 9:",
     {"check_q10"}),
    # N(n,m) reads binom(n,m+1) for binom(n,m-1), so N(1,1) is 0, not 1.
    # theorem1 does not read the Narayana form; only its own check does.
    ("narayana_lower_binomial_shifted_up", closedforms, "narayana_number",
     "num = binomial(n, m) * binomial(n, m - 1)",
     "num = binomial(n, m) * binomial(n, m + 1)",
     {"check_narayana"}),
    # The q y^m closed form reads binom(n,m-1) for binom(n,m-2), so it is 1,
    # not 0, at n = 2, m = 1.  The q^2 y^m form, checked beside it, is
    # unchanged; only this check reads either.
    ("q1_y_lower_binomial_one_high", closedforms, "q1_y_coefficient",
     "return binomial(n, m + 1) * binomial(n, m - 2)",
     "return binomial(n, m + 1) * binomial(n, m - 1)",
     {"check_small_q_coefficients"}),
    # A rook on a cell with v - h = 1 makes no arc, so phi_inverse cannot
    # rebuild the placement.
    ("phi_drops_adjacent_arcs", rooks, "phi",
     "arcs = frozenset((h, v) for v, h in pl.rooks)",
     "arcs = frozenset((h, v) for v, h in pl.rooks if v - h != 1)",
     {"check_phi_bijection"}),
    # The closed form counts one extra left factor at (n, k) = (4, 1), for
    # every j; the transfer counts are read by the other path checks.
    ("left_factor_formula_one_extra", paths, "left_factor_formula",
     "return binomial(n, j) * binomial(n, j + k) - binomial(n, j - 1) * binomial(",
     "return ((n, k) == (4, 1)) + binomial(n, j) * binomial(n, j + k)"
     " - binomial(n, j - 1) * binomial(",
     {"check_left_factor_counts"}),
    # The transfer drops E2, so every table with n >= 1 counts too few left
    # factors: the three checks that read the table fail, each against its
    # own independent side.
    ("left_factor_transfer_drops_e2", kernels, "left_factor_counts",
     "new[h][j] += c  # E2",
     "pass",
     {"check_decomposition_sum", "check_left_factor_counts", "check_kernel_definitions"}),
    # The y-support loses its lowest degree, so theorem1's lowest y-degree
    # reads 2, or none at n = 1.  Only the positivity check asks for it.
    ("y_support_drops_lowest_degree", laurent.LaurentPoly, "y_support",
     "return sorted(self._rows)",
     "return sorted(self._rows)[1:]",
     {"check_positivity_and_factorial"}),
    # The estimate's power of n is off by 0.1, so the ratios no longer
    # approach 1 from below.
    ("asymptotic_ratio_exponent", closedforms, "asymptotic_ratio",
     "return float(Fraction(coeff * factorial(m), 4**n)) * sqrt(pi) * n ** (1.5 - m)",
     "return float(Fraction(coeff * factorial(m), 4**n)) * sqrt(pi) * n ** (1.4 - m)",
     {"check_asymptotic_trend"}),
)
_ROWS = {row[0]: row for row in MUTANTS}

# Checks that no mutant makes fail, each with the reason it has none.
UNCAUGHT: dict[str, str] = {}

# Checks that are no mutant's whole failing set, each with the reason a
# defect that fails it fails another check too.
SHARED: dict[str, str] = {
    "check_permutations_ascent_vs_theorem1": "its kernel is also read by kernel definitions",
    "check_permutations_crossing_vs_theorem1": "its kernel is also read by kernel definitions",
    "check_decomposition_sum": "the core DP is also read by the core-series and kernel checks",
    "check_core_closed_form": "core_closed_form is also read by the functional equation",
    "check_functional_equation": "core_closed_form is also compared with the core sums",
    "check_ansatz_relations": "build_D and build_E are also read by every matrix route check",
    "check_hat_relations": "build_hat is also read by inversion formulas and rooks vs matrix",
    "check_inversion_formulas": "build_hat is also checked by the hat relations",
    "check_rook_sum_vs_matrix": "each of its two sides is also read by another rook check",
    "check_rook_ladder": "column_weight_sum is also read by the row-sum formula",
    "check_row_sum_formula": "column_weight_sum is also read by the rook ladder",
    "check_boundary_reconciliation": "the hatted products are also compared with the rook sums",
    "check_rook_route_vs_theorem1": "its rook sums and theorem1 are each read by another check",
    "check_truncation_stability": "a size-dependent D or E also breaks the matrix checks",
    "check_pattern_tail_bound": "blind to undercounts; overcounts fail kernel definitions too",
}


@pytest.fixture
def mutate(monkeypatch, fresh_caches):
    """mutate(mutant_id): the MUTANTS row with that id installed, its new
    line compiled against its function's module globals."""
    # One usable CPU: run_all runs the checks here, and forks no worker per defect.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def apply(mutant_id):
        _, owner, name, old, new, _ = _ROWS[mutant_id]
        if old is None:
            monkeypatch.setattr(owner, name, new)
            return
        func = inspect.unwrap(getattr(owner, name))
        lines = textwrap.dedent(inspect.getsource(func)).splitlines(keepends=True)
        matches = [i for i, line in enumerate(lines) if line.strip() == old]
        assert len(matches) == 1, (
            f"mutant {mutant_id}: {owner.__name__}.{name} has {len(matches)} "
            f"lines reading {old!r}, not 1"
        )
        (i,) = matches
        lines[i] = lines[i][: lines[i].index(old)] + new + "\n"
        namespace = dict(vars(sys.modules[func.__module__]))
        exec(compile("".join(lines), f"<mutant {mutant_id}>", "exec"), namespace)
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


def _raised(violations):
    """The violations that report an exception."""
    return [v for v in violations if v.startswith("raised ")]


def test_unpatched_battery_passes(mutate):
    assert _failing() == set()


@pytest.mark.parametrize("row", MUTANTS, ids=lambda row: row[0])
def test_mutant(mutate, row):
    mutate(row[0])
    assert _failing() == row[-1]


def test_decompose_keeps_open_nes_plain(mutate):
    mutate("decompose_keeps_open_nes_plain")
    violations = crosscheck.check_decompose_roundtrip(N_MAX).violations
    assert set(_raised(violations)) == {"raised ValueError: path dips below the axis"}


def test_recompose_fills_slots_in_reverse(mutate):
    mutate("recompose_fills_slots_in_reverse")
    violations = crosscheck.check_decompose_roundtrip(N_MAX).violations
    assert violations[0] == "round trip failed for U D*"
    assert not _raised(violations)


def test_left_factor_keeps_core_step_kinds(mutate):
    mutate("left_factor_keeps_core_step_kinds")
    violations = crosscheck.check_decompose_roundtrip(N_MAX).violations
    assert violations[0] == "core is not its own core for F1*"
    assert len(violations) == 4837
    assert not _raised(violations)


def test_classical_tail_off_by_one(mutate):
    mutate("classical_tail_off_by_one")
    assert crosscheck.check_kernel_definitions(N_MAX).violations == [
        "classical tail differs from definitions: (0, 0, 0, 0) != (42, 21, 23, 14)"
    ]


def test_theorem1_strided_slice_starts_one_late(mutate):
    mutate("theorem1_strided_slice_starts_one_late")
    raised = "raised NotDivisible: no exact quotient (y^1 row is not divisible by (1-q)^1)"
    for name in _ROWS["theorem1_strided_slice_starts_one_late"][-1]:
        assert _raised(getattr(crosscheck, name)(N_MAX).violations) == [raised], name


def test_rook_weight_exponent(mutate):
    mutate("rook_weight_exponent")
    (raised,) = _raised(crosscheck.check_rook_route_vs_theorem1(N_MAX).violations)
    assert raised.startswith("raised NotDivisible: no exact quotient")
    # The exhaustive sums gain a q^-3 term that the closed forms lack.
    ladder = crosscheck.check_rook_ladder(N_MAX).violations
    assert ladder[0] == "closed form differs at (k,n)=(1,2): q^-3 y^1: 1 vs 0"
    row_sum = crosscheck.check_row_sum_formula(N_MAX).violations
    assert row_sum[0] == "(k,n)=(1,2): q^-3 y^1: 0 vs 1"


def test_q10_zero_one_size_too_far(mutate):
    mutate("q10_zero_one_size_too_far")
    assert crosscheck.check_q10(N_MAX).violations == ["n=8: 74 != 0"]


def test_mutate_names_a_row_whose_line_does_not_match(mutate, monkeypatch):
    row = ("ghost", closedforms, "q10_coefficient", "no such line", "pass", set())
    monkeypatch.setitem(_ROWS, "ghost", row)
    with pytest.raises(AssertionError, match=r"mutant ghost: pasep\.closedforms"
                       r"\.q10_coefficient has 0 lines reading 'no such line'"):
        mutate("ghost")


def test_every_check_fails_under_some_mutant():
    """The table's failing sets cover every crosscheck check but those in
    UNCAUGHT: a new check needs a mutant or a stated reason."""
    names = {check.__name__ for check in crosscheck.CHECKS}
    caught = set().union(*(row[-1] for row in MUTANTS))
    assert caught <= names
    assert names - caught == set(UNCAUGHT)


def test_every_check_is_a_sole_catcher_or_shared():
    """Each check is some mutant's whole failing set, or SHARED says why no
    defect fails it alone."""
    names = {check.__name__ for check in crosscheck.CHECKS}
    sole = {name for *_, failing in MUTANTS if len(failing) == 1 for name in failing}
    assert names - sole == set(SHARED)


def test_mutant_ids_are_unique():
    assert len(_ROWS) == len(MUTANTS)
