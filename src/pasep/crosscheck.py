"""The cross-validation matrix: every method against every other.

Each check is declared once, with its report name and the sizes it runs at
for a given n_max.  Exhaustive methods stop at their own feasibility caps and
cheap closed forms may run past n_max, so a single n_max steers everything,
and every report records the sizes it covered.  A check body takes those
sizes and yields one string per violation.  The CLI `crosscheck` verb runs
the whole list, on every usable CPU; the acceptance test suite drives the
same functions.
"""

from __future__ import annotations

import functools
import os
import sys
from itertools import product, repeat

from .laurent import ONE, Q, Y, ZERO, LaurentPoly
from . import ansatz, closedforms, kernels, paths, permstats, rooks
from .report import CheckReport


def _check(name: str, sizes):
    """Declare body(sizes) -> violations as check(n_max) -> CheckReport,
    run at sizes(n_max)."""

    def declare(body):
        @functools.wraps(body)
        def check(n_max: int) -> CheckReport:
            ns = tuple(sizes(n_max))
            violations = list(body(ns))
            return CheckReport(name, not violations, violations, ns)

        return check

    return declare


def _upto(cap: int | None = None, start: int = 1, ahead: int = 0):
    """Sizes start..min(n_max + ahead, cap)."""

    def sizes(n_max: int) -> range:
        top = n_max + ahead if cap is None else min(n_max + ahead, cap)
        return range(start, top + 1)

    return sizes


def _at(cap: int):
    """The single size min(n_max, cap)."""
    return lambda n_max: (min(n_max, cap),)


def _fixed(*ns: int):
    """Sizes that do not depend on n_max."""
    return lambda n_max: ns


def _differ(ns, left, right):
    """For each n where left(n) != right(n), the first differing term."""
    for n in ns:
        a, b = left(n), right(n)
        if a != b:
            e_q, e_y, _ = next((a - b).terms())
            yield f"n={n}: q^{e_q} y^{e_y}: {a.coeff(e_q, e_y)} vs {b.coeff(e_q, e_y)}"


@_check("matrix vs theorem1", _upto())
def check_matrix_vs_theorem1(ns):
    sp = ansatz.scalar_products_upto(ansatz.yd_plus_e(ns[-1] + 2), ns[-1])
    yield from _differ(ns, lambda n: Y * sp[n - 1], closedforms.partition_polynomial)


@_check("motzkin vs theorem1", _upto())
def check_motzkin_vs_theorem1(ns):
    yield from _differ(ns, paths.motzkin_polynomial, closedforms.partition_polynomial)


@_check("permutations-ascent vs theorem1", _upto(kernels.PERMUTATION_CAP))
def check_permutations_ascent_vs_theorem1(ns):
    yield from _differ(
        ns,
        lambda n: permstats.gen_polynomial(n, "ascent_pattern"),
        closedforms.partition_polynomial,
    )


@_check("permutations-crossing vs theorem1", _upto(kernels.PERMUTATION_CAP))
def check_permutations_crossing_vs_theorem1(ns):
    yield from _differ(
        ns,
        lambda n: permstats.gen_polynomial(n, "wex_crossing"),
        closedforms.partition_polynomial,
    )


@_check("signed-paths extraction", _upto(9))
def check_signed_paths_extraction(ns):
    yield from _differ(
        ns,
        paths.labelled_path_sum,
        lambda n: (ONE - Q) ** n * paths.motzkin_polynomial(n),
    )


@_check("left-factor decomposition sum", _upto(9))
def check_decomposition_sum(ns):
    def total(n):
        out = ZERO
        for k in range(n + 1):
            core = paths.core_signed_sum(k)
            for j in range(n - k + 1):
                c = paths.left_factor_count(n, k, j)
                if c:
                    out = out + LaurentPoly.monomial(c, 0, j) * core
        return out

    yield from _differ(ns, total, paths.labelled_path_sum)


@_check("signed core sums vs closed form", _upto(10, start=0, ahead=1))
def check_core_closed_form(ns):
    yield from _differ(
        ns, paths.core_signed_sum, lambda k: (-1) ** k * paths.core_closed_form(k)
    )


@_check("left-factor counts vs formula", _upto(10, start=0))
def check_left_factor_counts(ns):
    for n in ns:
        for k in range(n + 1):
            for j in range(n + 1):
                a = paths.left_factor_count(n, k, j)
                b = paths.left_factor_formula(n, k, j)
                if a != b:
                    yield f"(n,k,j)=({n},{k},{j}): {a} != {b}"


@_check("decomposition round-trip", _upto(7))
def check_decompose_roundtrip(ns):
    for n in ns:
        for p in paths.iter_labelled_paths(n):
            left, core = paths.decompose(p)
            if not core.in_core_set():
                yield f"core not in core set for {p.serialize()}"
                continue
            if paths.recompose(left, core) != p:
                yield f"round trip failed for {p.serialize()}"
            j = left.count(paths.SE) + left.count(paths.E1)
            sign, e_q, e_y = core.signed_exponents()
            if (sign, e_q, e_y + j) != p.signed_exponents():
                yield f"weight split failed for {p.serialize()}"


@_check("lgv bijection round-trip", _upto(7, start=0))
def check_lgv_bijection(ns):
    for n in ns:
        image = {}
        for lower in product("NE", repeat=n):
            for upper in product("NE", repeat=n):
                pair = paths.LatticePathPair(tuple(lower), tuple(upper))
                if not pair.is_nonintersecting():
                    continue
                lf = paths.pair_to_left_factor(pair)
                if paths.left_factor_to_pair(lf) != pair:
                    yield f"n={n}: round trip failed for {lf}"
                image[lf] = image.get(lf, 0) + 1
        admissible = {steps for steps, _, _ in paths.iter_left_factors(n)}
        if set(image) != admissible or any(v != 1 for v in image.values()):
            yield f"n={n}: image is not a bijection onto left factors"


@_check("core functional equation", _upto(6, start=0))
def check_functional_equation(ns):
    yield from paths.check_functional_equation(ns[-1]).violations


@_check("ansatz relations", lambda n_max: (n_max + 2,))
def check_ansatz_relations(ns):
    """The relations on the truncations of dimension ns."""
    for dim in ns:
        yield from ansatz.verify_ansatz(dim).violations


@_check("hat relations", lambda n_max: (n_max + 2,))
def check_hat_relations(ns):
    """The hatted relations on the truncations of dimension ns."""
    for dim in ns:
        yield from ansatz.verify_hat_relations(dim).violations


@_check("inversion formulas", _upto(6))
def check_inversion_formulas(ns):
    for n in ns:
        rep = ansatz.verify_inversion(n)
        if not rep.ok:
            yield from (f"n={n}: {v}" for v in rep.violations[:3])


@_check("printed second inversion fails at y=2", _fixed(1))
def check_inversion_printed_variant(ns):
    for n in ns:
        if ansatz.verify_inversion(n, printed_eq5=True, y=2).ok:
            yield "printed (D+E)^k variant unexpectedly holds at y=2"


@_check("rooks vs matrix", _upto(8))
def check_rook_sum_vs_matrix(ns):
    yield from _differ(ns, rooks.rook_sum, rooks.hat_scalar_product)


@_check("rook summation ladder", _upto(8, start=0))
def check_rook_ladder(ns):
    for n in ns:
        for k in range(n // 2 + 1):
            exhaustive = rooks.column_weight_sum(0, k, n)
            if exhaustive != rooks.t0_recurrence(k, n):
                yield f"recurrence differs at (k,n)=({k},{n})"
            if exhaustive != rooks.t0_closed(k, n):
                yield f"closed form differs at (k,n)=({k},{n})"
            for j in range(k + 1):
                if n - 2 * k + 2 * j < 0:
                    continue
                if not rooks.check_factorization(j, k, n).ok:
                    yield f"factorization differs at (j,k,n)=({j},{k},{n})"


@_check("row-sum formula vs exhaustive", _upto(7))
def check_row_sum_formula(ns):
    for n in ns:
        for k in range(n + 1):
            total = ZERO
            for j in range(k + 1):
                total = total + rooks.column_weight_sum(j, k, n)
            if LaurentPoly.monomial(1, 0, k) * rooks.row_sum_formula(k, n) != total:
                yield f"(k,n)=({k},{n})"


@_check("involution bijection", _upto(6))
def check_phi_bijection(ns):
    for n in ns:
        mu_by_involution: dict = {}
        seen = set()
        count = 0
        for pl in rooks.iter_all_placements(n):
            inv, lam = rooks.phi(pl)
            if rooks.phi_inverse(inv, lam) != pl:
                yield f"n={n}: round trip failed"
                continue
            seen.add((inv, lam.word))
            count += 1
            mu = rooks.mu_statistic(pl)
            if mu_by_involution.setdefault(inv, mu) != mu:
                yield f"n={n}: offset depends on more than the involution"
        if len(seen) != count:
            yield f"n={n}: map is not injective"


# At n=1 the candidates q^n(1-q) and q^n(1-q)^n coincide, so run through 2.
@_check(
    "boundary-sum normalization is unique",
    lambda n_max: range(1, max(2, min(n_max, 8)) + 1),
)
def check_boundary_reconciliation(ns):
    rep = rooks.reconcile_boundary_identity(ns[-1])
    if not rep.ok:
        yield f"passing candidates: {rep.passing or 'none'}"


@_check("rooks vs theorem1", _upto(rooks.ROOK_CAP))
def check_rook_route_vs_theorem1(ns):
    """Exhaustive rook sums, fed through the first inversion formula, must
    reproduce the partition polynomial."""
    yield from _differ(
        ns, rooks.partition_polynomial_via_rooks, closedforms.partition_polynomial
    )


@_check("williams vs theorem1", _upto())
def check_williams_vs_theorem1(ns):
    for n in ns:
        p = closedforms.partition_polynomial(n)
        for m in range(1, n + 1):
            if closedforms.y_coefficient_formula(m, n) != p.coeff_y(m):
                yield f"(m,n)=({m},{n})"


@_check("matching closed form vs enumeration", _upto(6))
def check_touchard_riordan(ns):
    yield from _differ(
        ns, closedforms.matching_closed_form, permstats.matching_crossing_polynomial
    )


@_check("low-order q coefficients", lambda n_max: range(1, max(n_max, 12) + 1))
def check_low_order_coefficients(ns):
    for n in ns:
        p = closedforms.partition_polynomial_y1(n)
        lo = closedforms.low_order_coefficients(n)
        for m in range(4):
            if p.coeff(m, 0) != lo[m]:
                yield f"n={n}, q^{m}"


@_check("q^10 closed form", _fixed(*range(7, 13)))
def check_q10(ns):
    """The closed form, which is 0 below n = 8, against the y=1 polynomial."""
    for n in ns:
        got = closedforms.partition_polynomial_y1(n).coeff(10, 0)
        want = closedforms.q10_coefficient(n)
        if got != want:
            yield f"n={n}: {got} != {want}"


@_check("narayana specialisation", _upto(10, ahead=1))
def check_narayana(ns):
    for n in ns:
        if not closedforms.narayana_report(n).ok:
            yield f"n={n}"


@_check("q y^m and q^2 y^m closed forms", _upto(10, ahead=1))
def check_small_q_coefficients(ns):
    for n in ns:
        p = closedforms.partition_polynomial(n)
        for m in range(1, n + 1):
            if p.coeff(1, m) != closedforms.q1_y_coefficient(n, m):
                yield f"q y^{m} at n={n}"
            if p.coeff(2, m) != closedforms.q2_y_coefficient(n, m):
                yield f"q^2 y^{m} at n={n}"


@_check("positivity and factorial specialisation", _upto())
def check_positivity_and_factorial(ns):
    for n in ns:
        p = closedforms.partition_polynomial(n)
        if any(c <= 0 for _, _, c in p.terms()):
            yield f"n={n}: negative coefficient"
        total = p.eval_q(1).eval_y(1).to_int()
        want = 1
        for i in range(2, n + 1):
            want *= i
        if total != want:
            yield f"n={n}: total {total} != {want}"
        ys = p.y_support()
        if min(ys) != 1 or max(ys) != n:
            yield f"n={n}: y-degrees {min(ys)}..{max(ys)}"


@_check("truncation stability", _at(5))
def check_truncation_stability(ns):
    for k in ns:
        base = ansatz.scalar_product(ansatz.yd_plus_e(k + 2), k)
        for dim in range(k + 3, k + 7):
            if ansatz.scalar_product(ansatz.yd_plus_e(dim), k) != base:
                yield f"dim={dim}"


@_check("vincular pattern count bounded by classical", _at(7))
def check_pattern_bound(ns):
    for n in ns:
        if not permstats.vincular_bounded_by_classical(n):
            yield f"violated on S_{n}"


@_check("classical tail bound", _upto(9))
def check_pattern_tail_bound(ns):
    """#{<=k classical 1-3-2} is bounded by the partial sums of the q-distribution."""
    for n in ns:
        p = closedforms.partition_polynomial_y1(n)
        for k in range(4):
            lhs = permstats.psi(k, n)
            rhs = sum(p.coeff(m, 0) for m in range(k + 1))
            if lhs > rhs:
                yield f"(n,k)=({n},{k}): {lhs} > {rhs}"


@_check("kernels vs reference definitions", _at(5))
def check_kernel_definitions(ns):
    """Bulk kernel tables agree with the per-object reference statistics."""
    (n,) = ns
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
        yield "ascent/pattern table differs from definitions"
    if LaurentPoly(terms_wc) != permstats.gen_polynomial(n, "wex_crossing"):
        yield "exceedance/crossing table differs from definitions"
    bulk = permstats.classical_hist(n)
    if {c: v for c, v in enumerate(bulk) if v} != hist_cl:
        yield "classical-pattern histogram differs from definitions"
    hist: dict = {}
    for pairs in permstats.iter_matchings(n):
        c = permstats.matching_crossings(pairs)
        hist[(c, 0)] = hist.get((c, 0), 0) + 1
    if LaurentPoly(hist) != permstats.matching_crossing_polynomial(n):
        yield "matching table differs from definitions"
    for size in range(1, n + 1):
        for restricted in (False, True):
            table = kernels.signed_path_table(size, restricted)
            for p in paths.iter_labelled_paths(size, restricted):
                sign, e_q, e_y = p.signed_exponents()
                table[e_y][e_q] -= sign
            if any(map(any, table)):
                kind = "core" if restricted else "labelled"
                yield f"{kind} path sum differs from definitions at n={size}"
    for size in range(n + 1):
        counts: dict = {}
        for _, k, j in paths.iter_left_factors(size):
            counts[(k, j)] = counts.get((k, j), 0) + 1
        if any(
            paths.left_factor_count(size, k, j) != counts.get((k, j), 0)
            for k in range(size + 1)
            for j in range(size + 1)
        ):
            yield f"left-factor table differs from definitions at n={size}"


@_check("asymptotic ratio trend", _fixed(20, 40, 60))
def check_asymptotic_trend(ns):
    for m in (0, 1, 2):
        ratios = [closedforms.asymptotic_ratio(m, n) for n in ns]
        if not (all(a < b for a, b in zip(ratios, ratios[1:])) and ratios[-1] < 1):
            yield f"m={m}: ratios {ratios}"
        if m == 0 and abs(ratios[-1] - 1) > 0.10:
            yield f"m=0 ratio at n={ns[-1]} is {ratios[-1]}"


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


def _run_check(index: int, n_max: int) -> CheckReport:
    return CHECKS[index](n_max)


def run_all(n_max: int) -> list[CheckReport]:
    """Run every check; reports come back in the declared order.

    The checks share no state beyond memoised results, so they run in a
    pool of forked processes, one per usable CPU (at most one per check).  A
    forked worker inherits this process's modules as they stand, caches and
    any patched functions included, so it is sent only the check's index.
    The pool forks every worker before it starts its own thread.  With one
    usable CPU the checks run in this process and nothing is forked.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(CHECKS), cpus)
    if workers < 2:
        return [check(n_max) for check in CHECKS]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    sys.stdout.flush()  # a forked child must not inherit unwritten output
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(_run_check, range(len(CHECKS)), repeat(n_max)))
    finally:
        pool.shutdown(cancel_futures=True)


__all__ = ["CHECKS", "run_all"] + [c.__name__ for c in CHECKS]
