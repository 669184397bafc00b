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
import math
import os
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, product

from .laurent import ZERO, LaurentPoly
from . import ansatz, closedforms, kernels, paths, permstats, rooks


@dataclass
class CheckReport:
    """Outcome of one check: its name, its violations, and the sizes it ran at."""

    name: str
    violations: list[str]
    sizes: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = f"{'PASS' if self.ok else 'FAIL'} {self.name}"
        ns = self.sizes
        if len(ns) > 1 and ns == tuple(range(ns[0], ns[-1] + 1)):
            head += f" (sizes {ns[0]}..{ns[-1]})"
        else:
            head += f" (sizes {', '.join(map(str, ns))})"
        if self.violations:
            head += " [" + "; ".join(self.violations[:5])
            if len(self.violations) > 5:
                head += f"; ... {len(self.violations) - 5} more"
            head += "]"
        return head


CHECKS: list = []  # every check, in declaration order: the report's order


def _check(name: str, sizes):
    """Declare body(sizes) -> violations as check(n_max) -> CheckReport, run
    at sizes(n_max), and append it to CHECKS.

    A body that raises ends with the exception as one more violation.
    """

    def declare(body):
        @functools.wraps(body)
        def check(n_max: int) -> CheckReport:
            ns = tuple(sizes(n_max))
            violations = []
            try:
                for violation in body(ns):
                    violations.append(violation)
            except Exception as exc:
                traceback.print_exc()
                violations.append(f"raised {type(exc).__name__}: {exc}")
            return CheckReport(name, violations, ns)

        CHECKS.append(check)
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


def _mismatches(cases):
    """For each (label, a, b) in cases where a != b, the label and then the
    first term where the polynomials a and b differ, with both
    coefficients, or both values if they are not polynomials."""
    for label, a, b in cases:
        if a == b:
            continue
        if isinstance(a, LaurentPoly):
            e_q, e_y, _ = next((a - b).terms())
            yield f"{label}: q^{e_q} y^{e_y}: {a.coeff(e_q, e_y)} vs {b.coeff(e_q, e_y)}"
        else:
            yield f"{label}: {a} != {b}"


def _differ(ns, left, right):
    """For each n where left(n) != right(n), the first differing term."""
    return _mismatches((f"n={n}", left(n), right(n)) for n in ns)


@_check("matrix vs theorem1", _upto())
def check_matrix_vs_theorem1(ns):
    yield from _differ(
        ns, ansatz.partition_polynomial_via_matrix, closedforms.partition_polynomial
    )


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
        ns, paths.partition_polynomial_via_signed_paths, closedforms.partition_polynomial
    )


@_check("left-factor decomposition sum", _upto(9))
def check_decomposition_sum(ns):
    def total(n):
        out = ZERO
        for k, row in enumerate(kernels.left_factor_counts(n)):
            left = LaurentPoly({(0, j): c for j, c in enumerate(row)})
            out = out + left * paths.core_signed_sum(k)
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
        table = kernels.left_factor_counts(n)
        yield from _mismatches(
            (f"(n,k,j)=({n},{k},{j})", table[k][j], paths.left_factor_formula(n, k, j))
            for k, j in product(range(n + 1), repeat=2)
        )


@_check("decomposition round-trip", _upto(7))
def check_decompose_roundtrip(ns):
    """Every labelled path of each length in ns, in one walk of the path tree.

    The walk folds decompose, the weight and recompose once per prefix.
    Each path's rebuilt steps are compared with its own, and its weight
    with its core's times y^j.  Each distinct core is validated once, and
    must be in the core set and be its own core.  A core is its own core
    when the walk has met it as a path that is all core, under a left
    factor of NEs, and its weight is the one the walk folded there; the
    empty core is seeded.  ns runs upward from 1 and a core is never longer
    than its path, so each core is met that way before it is looked up.
    """
    NE, SE, E1 = paths.NE, paths.SE, paths.E1
    # core steps -> (what is wrong with the core, its weight)
    cores = {(): ("", (1, 0, 0))}
    for n in ns:
        own_left = (NE,) * n
        for steps, left, core_steps, weight, rebuilt in paths.iter_decomposed_paths(n):
            known = cores.get(core_steps)
            if known is None:
                core = paths.LabeledMotzkinPath(core_steps)
                if not core.in_core_set():
                    fault = "core not in core set"
                elif core_steps != steps or left != own_left:
                    fault = "core is not its own core"
                else:
                    fault = ""
                known = cores[core_steps] = (fault, weight)
            fault, (sign, e_q, e_y) = known
            if fault:
                yield f"{fault} for {_serialize(steps)}"
                continue
            if rebuilt != steps:
                yield f"round trip failed for {_serialize(steps)}"
            j = left.count(SE) + left.count(E1)
            if (sign, e_q, e_y + j) != weight:
                yield f"weight split failed for {_serialize(steps)}"


def _serialize(steps) -> str:
    return paths.LabeledMotzkinPath(steps).serialize()


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
    yield from paths.check_functional_equation(ns[-1])


@_check("ansatz relations", lambda n_max: (n_max + 2,))
def check_ansatz_relations(ns):
    """The relations on the truncations of dimension ns."""
    for dim in ns:
        yield from ansatz.verify_ansatz(dim)


@_check("hat relations", lambda n_max: (n_max + 2,))
def check_hat_relations(ns):
    """The hatted relations on the truncations of dimension ns."""
    for dim in ns:
        yield from ansatz.verify_hat_relations(dim)


@_check("inversion formulas", _upto(6))
def check_inversion_formulas(ns):
    for n in ns:
        yield from (f"n={n}: {v}" for v in ansatz.verify_inversion(n)[:3])


@_check("printed second inversion fails at y=2", _fixed(1))
def check_inversion_printed_variant(ns):
    for n in ns:
        if not ansatz.verify_inversion(n, printed_eq5=True, y=2):
            yield "printed (D+E)^k variant unexpectedly holds at y=2"


@_check("rooks vs matrix", _upto(8))
def check_rook_sum_vs_matrix(ns):
    yield from _differ(ns, rooks.rook_sum, rooks.hat_scalar_product)


@_check("rook summation ladder", _upto(8, start=0))
def check_rook_ladder(ns):
    def cases():
        for n in ns:
            for k in range(n // 2 + 1):
                exhaustive = rooks.column_weight_sum(0, k, n)
                at = f"at (k,n)=({k},{n})"
                yield f"recurrence differs {at}", exhaustive, rooks.t0_recurrence(k, n)
                yield f"closed form differs {at}", exhaustive, rooks.t0_closed(k, n)
                for j in range(k + 1):
                    yield (
                        f"factorization differs at (j,k,n)=({j},{k},{n})",
                        rooks.column_weight_sum(j, k, n),
                        rooks.factorized_column_weight_sum(j, k, n),
                    )

    yield from _mismatches(cases())


@_check("row-sum formula vs exhaustive", _upto(7))
def check_row_sum_formula(ns):
    yield from _mismatches(
        (
            f"(k,n)=({k},{n})",
            LaurentPoly.monomial(1, 0, k) * rooks.row_sum_formula(k, n),
            sum((rooks.column_weight_sum(j, k, n) for j in range(k + 1)), ZERO),
        )
        for n in ns for k in range(n + 1)
    )


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
    yield from _differ(
        ns, closedforms.partition_polynomial_via_williams, closedforms.partition_polynomial
    )


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
        yield from _mismatches((f"n={n}, q^{m}", p.coeff(m, 0), lo[m]) for m in range(4))


@_check("q^10 closed form", _fixed(*range(7, 13)))
def check_q10(ns):
    """The closed form, which is 0 below n = 8, against the y=1 polynomial."""
    yield from _differ(
        ns,
        lambda n: closedforms.partition_polynomial_y1(n).coeff(10, 0),
        closedforms.q10_coefficient,
    )


@_check("narayana specialisation", _upto(10, ahead=1))
def check_narayana(ns):
    for n in ns:
        yield from (f"n={n}: {v}" for v in closedforms.narayana_violations(n))


@_check("q y^m and q^2 y^m closed forms", _upto(10, ahead=1))
def check_small_q_coefficients(ns):
    for n in ns:
        p = closedforms.partition_polynomial(n)
        q1, q2 = closedforms.q1_y_coefficient, closedforms.q2_y_coefficient
        yield from _mismatches(
            (f"q{power} y^{m} at n={n}", p.coeff(e_q, m), closed(n, m))
            for m in range(1, n + 1)
            for e_q, power, closed in ((1, "", q1), (2, "^2", q2))
        )


@_check("positivity and factorial specialisation", _upto())
def check_positivity_and_factorial(ns):
    for n in ns:
        p = closedforms.partition_polynomial(n)
        if any(c <= 0 for _, _, c in p.terms()):
            yield f"n={n}: negative coefficient"
        total = p.eval_q(1).eval_y(1).to_int()
        want = math.factorial(n)
        if total != want:
            yield f"n={n}: total {total} != {want}"
        ys = p.y_support()
        if not ys:
            yield f"n={n}: no y-degrees"
        elif min(ys) != 1 or max(ys) != n:
            yield f"n={n}: y-degrees {min(ys)}..{max(ys)}"


@_check("truncation stability", _at(5))
def check_truncation_stability(ns):
    for k in ns:
        base = ansatz.scalar_product(ansatz.yd_plus_e(k + 2), k)
        yield from _mismatches(
            (f"dim={dim}", ansatz.scalar_product(ansatz.yd_plus_e(dim), k), base)
            for dim in range(k + 3, k + 7)
        )


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
        for k, at_most in enumerate(accumulate(permstats.classical_tail(n, 3))):
            rhs = sum(p.coeff(m, 0) for m in range(k + 1))
            if at_most > rhs:
                yield f"(n,k)=({n},{k}): {at_most} > {rhs}"


@_check("kernels vs reference definitions", _at(5))
def check_kernel_definitions(ns):
    """Bulk kernel tables agree with the per-object reference statistics."""
    (n,) = ns

    def cases():  # (what, the kernel's table, the definitions' tally)
        terms_ap = Counter()  # (e_q, e_y) -> permutations
        terms_wc = Counter()
        hist_cl = Counter()  # (classical 1-3-2 count, 0) -> permutations
        for w in permstats.iter_permutations(n):
            terms_ap[permstats.pattern_13_2(w), 1 + permstats.ascents(w)] += 1
            terms_wc[permstats.crossings(w), permstats.weak_exceedances(w)] += 1
            hist_cl[permstats.classical_132_count(w), 0] += 1
        gen = permstats.gen_polynomial
        yield "ascent/pattern table", gen(n, "ascent_pattern"), LaurentPoly(terms_ap)
        yield "exceedance/crossing table", gen(n, "wex_crossing"), LaurentPoly(terms_wc)
        bulk = {(c, 0): v for c, v in enumerate(permstats.classical_hist(n))}
        yield "classical-pattern histogram", LaurentPoly(bulk), LaurentPoly(hist_cl)
        defined_tail = tuple(hist_cl[c, 0] for c in range(4))
        yield "classical tail", permstats.classical_tail(n, 3), defined_tail
        hist = Counter(
            (permstats.matching_crossings(pairs), 0) for pairs in permstats.iter_matchings(n)
        )
        yield "matching table", permstats.matching_crossing_polynomial(n), LaurentPoly(hist)
        for size in range(1, n + 1):
            labelled = Counter()  # (e_q, e_y) -> signed paths
            core = Counter()
            for p in paths.iter_labelled_paths(size):
                sign, e_q, e_y = p.signed_exponents()
                labelled[e_q, e_y] += sign
                if p.in_core_set():
                    core[e_q, e_y] += sign
            for kind, tally in (("labelled", labelled), ("core", core)):
                rows = enumerate(kernels.signed_path_table(size, kind == "core"))
                kernel = LaurentPoly.from_rows({e_y: (0, row) for e_y, row in rows})
                yield f"{kind} path sum at n={size}", kernel, LaurentPoly(tally)
        for size in range(n + 1):  # q^k y^j: final height k, j steps SE or E1
            rows = enumerate(kernels.left_factor_counts(size))
            counts = {(k, j): c for k, row in rows for j, c in enumerate(row)}
            walked = Counter((k, j) for _, k, j in paths.iter_left_factors(size))
            yield f"left-factor table at n={size}", LaurentPoly(counts), LaurentPoly(walked)

    yield from _mismatches((f"{what} differs from definitions", *pair) for what, *pair in cases())


@_check("asymptotic ratio trend", _fixed(20, 40, 60))
def check_asymptotic_trend(ns):
    for m in (0, 1, 2):
        ratios = [closedforms.asymptotic_ratio(m, n) for n in ns]
        if not (all(a < b for a, b in zip(ratios, ratios[1:])) and ratios[-1] < 1):
            yield f"m={m}: ratios {ratios}"
        if m == 0 and abs(ratios[-1] - 1) > 0.10:
            yield f"m=0 ratio at n={ns[-1]} is {ratios[-1]}"


def _run_check(index: int, n_max: int) -> CheckReport:
    return CHECKS[index](n_max)


# The longest check's place in CHECKS, taken at import.  It still holds
# when a tracer later rebinds CHECKS and the check names to wrappers, since
# those keep the declared order.
_LONGEST = CHECKS.index(check_decompose_roundtrip)


def run_all(n_max: int) -> list[CheckReport]:
    """Run every check; reports come back in the declared order.

    With one usable CPU the checks run in this process, in order.
    Otherwise they run in a pool of forked processes, one per usable CPU
    (at most one per check), which take the checks as they come free: the
    decomposition round trip, the longest by far, first, so that it does
    not start late on a worker the short checks have kept busy, and then
    the rest in order.  The checks share no state beyond memoised results,
    and a forked worker inherits this process's modules as they stand,
    caches and any patched functions included, so it is sent only the
    check's index.  The pool forks every worker before it starts its own
    thread.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    indices = range(len(CHECKS))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(CHECKS), cpus)
    if workers < 2:
        return [_run_check(i, n_max) for i in indices]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    sys.stdout.flush()  # a forked child must not inherit unwritten output
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        order = [_LONGEST] + [i for i in indices if i != _LONGEST]
        futures = {i: pool.submit(_run_check, i, n_max) for i in order}
        return [futures[i].result() for i in indices]
    finally:
        pool.shutdown(cancel_futures=True)


__all__ = ["CHECKS", "run_all"] + [c.__name__ for c in CHECKS]
