"""The cross-validation matrix: every method against every other.

Each check is a named function of n_max returning a CheckReport.  The CLI
`crosscheck` verb runs the whole list and fails on the first broken identity;
the acceptance test suite drives the same functions.  Exhaustive methods are
clamped to their own feasibility caps, so a single n_max steers everything.
"""

from __future__ import annotations

from .laurent import ONE, Q, Y, ZERO, LaurentPoly
from . import ansatz, closedforms, kernels, paths, permstats, rooks
from .qcombinat import binomial
from .report import CheckReport


def _equal_for(name, pairs) -> CheckReport:
    violations = [
        f"n={label}: {a.pretty()} != {b.pretty()}"
        for label, a, b in pairs
        if a != b
    ]
    return CheckReport(name, not violations, violations)


def check_matrix_vs_theorem1(n_max: int) -> CheckReport:
    sp = ansatz.scalar_products_upto(ansatz.yd_plus_e(n_max + 2), n_max)
    return _equal_for(
        "matrix vs theorem1",
        [
            (n, Y * sp[n - 1], closedforms.partition_polynomial(n))
            for n in range(1, n_max + 1)
        ],
    )


def check_motzkin_vs_theorem1(n_max: int) -> CheckReport:
    return _equal_for(
        "motzkin vs theorem1",
        [
            (n, paths.motzkin_polynomial(n), closedforms.partition_polynomial(n))
            for n in range(1, n_max + 1)
        ],
    )


def check_permutations_ascent_vs_theorem1(n_max: int) -> CheckReport:
    n_max = min(n_max, kernels.PERMUTATION_CAP)
    return _equal_for(
        "permutations-ascent vs theorem1",
        [
            (
                n,
                permstats.gen_polynomial(n, "ascent_pattern"),
                closedforms.partition_polynomial(n),
            )
            for n in range(1, n_max + 1)
        ],
    )


def check_permutations_crossing_vs_theorem1(n_max: int) -> CheckReport:
    n_max = min(n_max, kernels.PERMUTATION_CAP)
    return _equal_for(
        "permutations-crossing vs theorem1",
        [
            (
                n,
                permstats.gen_polynomial(n, "wex_crossing"),
                closedforms.partition_polynomial(n),
            )
            for n in range(1, n_max + 1)
        ],
    )


def check_signed_paths_extraction(n_max: int) -> CheckReport:
    n_max = min(n_max, 9)
    return _equal_for(
        "signed-paths extraction",
        [
            (
                n,
                paths.labelled_path_sum(n),
                (ONE - Q) ** n * paths.motzkin_polynomial(n),
            )
            for n in range(1, n_max + 1)
        ],
    )


def check_decomposition_sum(n_max: int) -> CheckReport:
    n_max = min(n_max, 9)
    pairs = []
    for n in range(1, n_max + 1):
        total = ZERO
        for k in range(n + 1):
            core = paths.core_signed_sum(k)
            for j in range(n - k + 1):
                c = paths.left_factor_count(n, k, j)
                if c:
                    total = total + LaurentPoly.monomial(c, 0, j) * core
        pairs.append((n, total, paths.labelled_path_sum(n)))
    return _equal_for("left-factor decomposition sum", pairs)


def check_core_closed_form(n_max: int) -> CheckReport:
    k_max = min(n_max + 1, 10)
    return _equal_for(
        "signed core sums vs closed form",
        [
            (k, paths.core_signed_sum(k), (-1) ** k * paths.core_closed_form(k))
            for k in range(k_max + 1)
        ],
    )


def check_left_factor_counts(n_max: int) -> CheckReport:
    n_max = min(n_max, 10)
    violations = []
    for n in range(n_max + 1):
        for k in range(n + 1):
            for j in range(n + 1):
                a = paths.left_factor_count(n, k, j)
                b = paths.left_factor_formula(n, k, j)
                if a != b:
                    violations.append(f"(n,k,j)=({n},{k},{j}): {a} != {b}")
    return CheckReport("left-factor counts vs formula", not violations, violations)


def check_decompose_roundtrip(n_max: int) -> CheckReport:
    n_max = min(n_max, 7)
    violations = []
    for n in range(1, n_max + 1):
        for p in paths.iter_labelled_paths(n):
            left, core = paths.decompose(p)
            if not core.in_core_set():
                violations.append(f"core not in core set for {p.serialize()}")
                continue
            if paths.recompose(left, core) != p:
                violations.append(f"round trip failed for {p.serialize()}")
            j = sum(1 for kind in left if kind in (paths.SE, paths.E1))
            sign, e_q, e_y = core.signed_exponents()
            if (sign, e_q, e_y + j) != p.signed_exponents():
                violations.append(f"weight split failed for {p.serialize()}")
    return CheckReport("decomposition round-trip", not violations, violations)


def check_lgv_bijection(n_max: int) -> CheckReport:
    from itertools import product as iproduct

    n_max = min(n_max, 7)
    violations = []
    for n in range(n_max + 1):
        image = {}
        for lower in iproduct("NE", repeat=n):
            for upper in iproduct("NE", repeat=n):
                pair = paths.LatticePathPair(tuple(lower), tuple(upper))
                if not pair.is_nonintersecting():
                    continue
                lf = paths.pair_to_left_factor(pair)
                if paths.left_factor_to_pair(lf) != pair:
                    violations.append(f"n={n}: round trip failed for {lf}")
                image[lf] = image.get(lf, 0) + 1
        admissible = {steps for steps, _, _ in paths.iter_left_factors(n)}
        if set(image) != admissible or any(v != 1 for v in image.values()):
            violations.append(f"n={n}: image is not a bijection onto left factors")
    return CheckReport("lgv bijection round-trip", not violations, violations)


def check_functional_equation(n_max: int) -> CheckReport:
    rep = paths.check_functional_equation(min(n_max, 6))
    rep.name = "core functional equation"
    return rep


def check_ansatz_relations(n_max: int) -> CheckReport:
    return ansatz.verify_ansatz(n_max + 2)


def check_hat_relations(n_max: int) -> CheckReport:
    return ansatz.verify_hat_relations(n_max + 2)


def check_inversion_formulas(n_max: int) -> CheckReport:
    violations = []
    for n in range(1, min(n_max, 6) + 1):
        rep = ansatz.verify_inversion(n)
        if not rep.ok:
            violations.extend(f"n={n}: {v}" for v in rep.violations[:3])
    return CheckReport("inversion formulas", not violations, violations)


def check_inversion_printed_variant(n_max: int) -> CheckReport:
    rep = ansatz.verify_inversion(1, printed_eq5=True, y=2)
    ok = not rep.ok  # the printed variant must fail at y=2
    return CheckReport(
        "printed second inversion fails at y=2",
        ok,
        [] if ok else ["printed (D+E)^k variant unexpectedly holds at y=2"],
    )


def check_rook_sum_vs_matrix(n_max: int) -> CheckReport:
    n_max = min(n_max, 8)
    return _equal_for(
        "rooks vs matrix",
        [
            (n, rooks.rook_sum(n), rooks.hat_scalar_product(n))
            for n in range(1, n_max + 1)
        ],
    )


def check_rook_ladder(n_max: int) -> CheckReport:
    n_max = min(n_max, 8)
    violations = []
    for n in range(n_max + 1):
        for k in range(n // 2 + 1):
            exhaustive = rooks.column_weight_sum(0, k, n)
            if exhaustive != rooks.t0_recurrence(k, n):
                violations.append(f"recurrence differs at (k,n)=({k},{n})")
            if exhaustive != rooks.t0_closed(k, n):
                violations.append(f"closed form differs at (k,n)=({k},{n})")
            for j in range(k + 1):
                if n - 2 * k + 2 * j < 0:
                    continue
                rep = rooks.check_factorization(j, k, n)
                if not rep.ok:
                    violations.append(f"factorization differs at (j,k,n)=({j},{k},{n})")
    return CheckReport("rook summation ladder", not violations, violations)


def check_row_sum_formula(n_max: int) -> CheckReport:
    n_max = min(n_max, 7)
    violations = []
    for n in range(1, n_max + 1):
        for k in range(n // 2 + 1):
            total = ZERO
            for j in range(k + 1):
                total = total + rooks.column_weight_sum(j, k, n)
            got = LaurentPoly.monomial(1, 0, k) * rooks.row_sum_formula(k, n)
            if got != total:
                violations.append(f"(k,n)=({k},{n})")
    return CheckReport("row-sum formula vs exhaustive", not violations, violations)


def check_phi_bijection(n_max: int) -> CheckReport:
    n_max = min(n_max, 6)
    violations = []
    for n in range(1, n_max + 1):
        mu_by_involution: dict = {}
        seen = set()
        count = 0
        for pl in rooks.iter_all_placements(n):
            inv, lam = rooks.phi(pl)
            if rooks.phi_inverse(inv, lam) != pl:
                violations.append(f"n={n}: round trip failed")
                continue
            seen.add((inv, lam.word))
            count += 1
            mu = rooks.mu_statistic(pl)
            if mu_by_involution.setdefault(inv, mu) != mu:
                violations.append(f"n={n}: offset depends on more than the involution")
        if len(seen) != count:
            violations.append(f"n={n}: map is not injective")
    return CheckReport("involution bijection", not violations, violations)


def check_boundary_reconciliation(n_max: int) -> CheckReport:
    rep = rooks.reconcile_boundary_identity(min(n_max, 8))
    ok = rep.ok
    detail = [f"passing candidates: {rep.passing or 'none'}"]
    return CheckReport(
        "boundary-sum normalization is unique", ok, [] if ok else detail
    )


def check_rook_route_vs_theorem1(n_max: int) -> CheckReport:
    """Exhaustive rook sums, fed through the first inversion formula, must
    reproduce the partition polynomial."""
    n_max = min(n_max, rooks.ROOK_CAP)
    return _equal_for(
        "rooks vs theorem1",
        [
            (
                n,
                rooks.partition_polynomial_via_rooks(n),
                closedforms.partition_polynomial(n),
            )
            for n in range(1, n_max + 1)
        ],
    )


def check_williams_vs_theorem1(n_max: int) -> CheckReport:
    violations = []
    for n in range(1, n_max + 1):
        p = closedforms.partition_polynomial(n)
        for m in range(1, n + 1):
            if closedforms.y_coefficient_formula(m, n) != p.coeff_y(m):
                violations.append(f"(m,n)=({m},{n})")
    return CheckReport("williams vs theorem1", not violations, violations)


def check_touchard_riordan(n_max: int) -> CheckReport:
    n_max = min(n_max, 6)
    return _equal_for(
        "matching closed form vs enumeration",
        [
            (
                n,
                closedforms.matching_closed_form(n),
                permstats.matching_crossing_polynomial(n),
            )
            for n in range(1, n_max + 1)
        ],
    )


def check_low_order_coefficients(n_max: int) -> CheckReport:
    violations = []
    for n in range(1, max(n_max, 12) + 1):
        p = closedforms.partition_polynomial_y1(n)
        lo = closedforms.low_order_coefficients(n)
        for m in range(4):
            if p.coeff(m, 0) != lo[m]:
                violations.append(f"n={n}, q^{m}")
    return CheckReport("low-order q coefficients", not violations, violations)


def check_q10(n_max: int) -> CheckReport:
    violations = []
    for n in range(8, 13):
        if closedforms.q10_coefficient(n) != closedforms.partition_polynomial_y1(
            n
        ).coeff(10, 0):
            violations.append(f"n={n}")
    if closedforms.partition_polynomial_y1(7).coeff(10, 0) != 0:
        violations.append("n=7 should have no q^10 term")
    return CheckReport("q^10 closed form", not violations, violations)


def check_narayana(n_max: int) -> CheckReport:
    violations = []
    for n in range(1, min(n_max + 1, 10) + 1):
        rep = closedforms.narayana_report(n)
        if not rep.ok:
            violations.append(f"n={n}")
    return CheckReport("narayana specialisation", not violations, violations)


def check_small_q_coefficients(n_max: int) -> CheckReport:
    violations = []
    for n in range(1, min(n_max + 1, 10) + 1):
        p = closedforms.partition_polynomial(n)
        for m in range(1, n + 1):
            if p.coeff(1, m) != closedforms.q1_y_coefficient(n, m):
                violations.append(f"q y^{m} at n={n}")
            if p.coeff(2, m) != closedforms.q2_y_coefficient(n, m):
                violations.append(f"q^2 y^{m} at n={n}")
    return CheckReport("q y^m and q^2 y^m closed forms", not violations, violations)


def check_positivity_and_factorial(n_max: int) -> CheckReport:
    violations = []
    for n in range(1, n_max + 1):
        p = closedforms.partition_polynomial(n)
        if any(c <= 0 for _, _, c in p.terms()):
            violations.append(f"n={n}: negative coefficient")
        total = p.eval_q(1).eval_y(1).to_int()
        want = 1
        for i in range(2, n + 1):
            want *= i
        if total != want:
            violations.append(f"n={n}: total {total} != {want}")
        ys = p.y_support()
        if min(ys) != 1 or max(ys) != n:
            violations.append(f"n={n}: y-degrees {min(ys)}..{max(ys)}")
    return CheckReport("positivity and factorial specialisation", not violations, violations)


def check_truncation_stability(n_max: int) -> CheckReport:
    k = min(n_max, 5)
    base = ansatz.scalar_product(ansatz.yd_plus_e(k + 2), k)
    violations = []
    for dim in range(k + 3, k + 7):
        if ansatz.scalar_product(ansatz.yd_plus_e(dim), k) != base:
            violations.append(f"dim={dim}")
    return CheckReport("truncation stability", not violations, violations)


def check_pattern_bound(n_max: int) -> CheckReport:
    n = min(n_max, 7)
    ok = permstats.vincular_bounded_by_classical(n)
    return CheckReport(
        "vincular pattern count bounded by classical",
        ok,
        [] if ok else [f"violated on S_{n}"],
    )


def check_pattern_tail_bound(n_max: int) -> CheckReport:
    """#{<=k classical 1-3-2} is bounded by the partial sums of the q-distribution."""
    violations = []
    for n in range(1, min(n_max, 9) + 1):
        p = closedforms.partition_polynomial_y1(n)
        for k in range(4):
            lhs = permstats.psi(k, n)
            rhs = sum(p.coeff(m, 0) for m in range(k + 1))
            if lhs > rhs:
                violations.append(f"(n,k)=({n},{k}): {lhs} > {rhs}")
    return CheckReport("classical tail bound", not violations, violations)


def check_kernel_definitions(n_max: int) -> CheckReport:
    """Bulk kernel tables agree with the per-object reference statistics."""
    n = min(n_max, 5)
    violations = []
    terms_ap: dict = {}
    terms_wc: dict = {}
    hist_cl: dict = {}
    for w in permstats.iter_permutations(n):
        k = (permstats.pattern_13_2(w), 1 + permstats.ascents(w))
        terms_ap[k] = terms_ap.get(k, 0) + 1
        k = (permstats.crossings(w), permstats.weak_exceedances(w))
        terms_wc[k] = terms_wc.get(k, 0) + 1
        c = permstats.classical_132_count(w)
        hist_cl[c] = hist_cl.get(c, 0) + 1
    if LaurentPoly(terms_ap) != permstats.gen_polynomial(n, "ascent_pattern"):
        violations.append("ascent/pattern table differs from definitions")
    if LaurentPoly(terms_wc) != permstats.gen_polynomial(n, "wex_crossing"):
        violations.append("exceedance/crossing table differs from definitions")
    bulk = permstats.classical_hist(n)
    if {c: v for c, v in enumerate(bulk) if v} != hist_cl:
        violations.append("classical-pattern histogram differs from definitions")
    m = min(n_max, 4)
    hist: dict = {}
    for pairs in permstats.iter_matchings(m):
        c = permstats.matching_crossings(pairs)
        hist[(c, 0)] = hist.get((c, 0), 0) + 1
    if LaurentPoly(hist) != permstats.matching_crossing_polynomial(m):
        violations.append("matching table differs from definitions")
    for size in range(1, n + 1):
        for restricted, bulk in (
            (False, paths.labelled_path_sum(size)),
            (True, paths.core_signed_sum(size)),
        ):
            total = ZERO
            for p in paths.iter_labelled_paths(size, restricted):
                total = total + p.weight()
            if total != bulk:
                kind = "core" if restricted else "labelled"
                violations.append(f"{kind} path sum differs from definitions at n={size}")
    for size in range(n + 1):
        counts: dict = {}
        for _, k, j in paths.iter_left_factors(size):
            counts[(k, j)] = counts.get((k, j), 0) + 1
        if any(
            paths.left_factor_count(size, k, j) != counts.get((k, j), 0)
            for k in range(size + 1)
            for j in range(size + 1)
        ):
            violations.append(f"left-factor table differs from definitions at n={size}")
    return CheckReport("kernels vs reference definitions", not violations, violations)


def check_asymptotic_trend(n_max: int) -> CheckReport:
    violations = []
    for m in (0, 1, 2):
        ratios = [closedforms.asymptotic_ratio(m, n) for n in (20, 40, 60)]
        if not (ratios[0] < ratios[1] < ratios[2] < 1):
            violations.append(f"m={m}: ratios {[float(r) for r in ratios]}")
    r0 = closedforms.asymptotic_ratio(0, 60)
    if abs(r0 - 1) > 0.10:
        violations.append(f"m=0 ratio at n=60 is {float(r0)}")
    return CheckReport("asymptotic ratio trend", not violations, violations)


CHECKS = (
    check_matrix_vs_theorem1,
    check_motzkin_vs_theorem1,
    check_permutations_ascent_vs_theorem1,
    check_permutations_crossing_vs_theorem1,
    check_signed_paths_extraction,
    check_decomposition_sum,
    check_core_closed_form,
    check_left_factor_counts,
    check_decompose_roundtrip,
    check_lgv_bijection,
    check_functional_equation,
    check_ansatz_relations,
    check_hat_relations,
    check_inversion_formulas,
    check_inversion_printed_variant,
    check_rook_sum_vs_matrix,
    check_rook_ladder,
    check_row_sum_formula,
    check_phi_bijection,
    check_boundary_reconciliation,
    check_rook_route_vs_theorem1,
    check_williams_vs_theorem1,
    check_touchard_riordan,
    check_low_order_coefficients,
    check_q10,
    check_narayana,
    check_small_q_coefficients,
    check_positivity_and_factorial,
    check_truncation_stability,
    check_pattern_bound,
    check_pattern_tail_bound,
    check_kernel_definitions,
    check_asymptotic_trend,
)


def run_all(n_max: int) -> list[CheckReport]:
    """Run every check; reports come back in the declared order."""
    return [check(n_max) for check in CHECKS]


__all__ = ["CHECKS", "run_all"] + [c.__name__ for c in CHECKS]
