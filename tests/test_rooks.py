"""Rook placement weights, the involution bijection, and the T-sum ladder."""

from collections import defaultdict
from itertools import permutations

import pytest

from pasep import cli, rooks
from pasep.laurent import ONE, Q, Y, ZERO, LaurentPoly


def test_shape_words():
    vh = rooks.YoungBoundary.parse("VH")
    assert vh.cells() == []
    hv = rooks.YoungBoundary.parse("HV")
    assert hv.cells() == [(2, 1)]
    assert rooks.YoungBoundary.parse("HHVV").cell_count() == 4


def test_weights():
    assert rooks.RookPlacement(rooks.YoungBoundary.parse("VV"), frozenset()).weight() == ONE
    hv = rooks.YoungBoundary.parse("HV")
    assert rooks.RookPlacement(hv, frozenset()).weight() == Q * Y
    assert rooks.RookPlacement(hv, frozenset({(2, 1)})).weight() == rooks.P_WEIGHT * Y


def test_placement_validation():
    hv = rooks.YoungBoundary.parse("HV")
    with pytest.raises(ValueError):
        rooks.RookPlacement(hv, frozenset({(1, 2)}))
    sq = rooks.YoungBoundary.parse("HHVV")
    with pytest.raises(ValueError):
        rooks.RookPlacement(sq, frozenset({(3, 1), (3, 2)}))


def test_rook_sum_small():
    assert rooks.rook_sum(1) == ONE + Y
    expected = (
        ONE
        + Y
        + Y**2
        + Y * Q
        + Y * LaurentPoly.monomial(1, -2, 0)
        - Y * LaurentPoly.monomial(1, -1, 0)
    )
    assert rooks.rook_sum(2) == expected


def test_rook_sum_matches_matrix():
    for n in range(1, 8):
        assert rooks.rook_sum(n) == rooks.hat_scalar_product(n), n


def test_column_sums():
    assert rooks.column_weight_sum(1, 1, 2) == Y + Y * Q
    assert rooks.column_weight_sum(0, 1, 2) == rooks.P_WEIGHT * Y
    assert rooks.column_weight_sum(0, 0, 1) == ONE


def test_factorization():
    rep = rooks.check_factorization(1, 1, 2)
    assert rep.ok
    for n in range(7):
        for k in range(n // 2 + 1):
            for j in range(k + 1):
                if n - 2 * k + 2 * j < 0:
                    continue
                assert rooks.check_factorization(j, k, n).ok, (j, k, n)


def test_t0_recurrence_and_closed_form():
    assert rooks.t0_recurrence(1, 2) == rooks.P_WEIGHT * Y
    assert rooks.t0_closed(1, 2) == rooks.P_WEIGHT * Y
    for n in range(8):
        assert rooks.t0_recurrence(0, n) == ONE
        assert rooks.t0_closed(0, n) == ONE
        for k in range(n // 2 + 1):
            exhaustive = rooks.column_weight_sum(0, k, n)
            assert exhaustive == rooks.t0_recurrence(k, n), ("rec", k, n)
            assert exhaustive == rooks.t0_closed(k, n), ("closed", k, n)


def test_row_sum_formula_vs_exhaustive():
    for n in range(1, 7):
        for k in range(n // 2 + 1):
            total = ZERO
            for j in range(k + 1):
                total = total + rooks.column_weight_sum(j, k, n)
            assert LaurentPoly.monomial(1, 0, k) * rooks.row_sum_formula(k, n) == total


def test_boundary_g():
    assert rooks.boundary_g(1) == LaurentPoly.monomial(1, 0, -1) + Q
    assert rooks.boundary_g(2) == (
        LaurentPoly.monomial(1, 0, -1) + ONE + Q**2 + Y * Q**2
    )
    lhs = (ONE + Y) * rooks.boundary_g(1) - rooks.boundary_g(2)
    assert lhs == Q * (ONE - Q) * (ONE + Y)


def _summed_row_sum_formula(n):
    """sum_k y^k row_sum_formula(k, n) over every column count k."""
    return sum(
        (LaurentPoly.monomial(1, 0, k) * rooks.row_sum_formula(k, n) for k in range(n + 1)),
        ZERO,
    )


def test_summed_row_sum_formula_is_the_hat_scalar_product():
    for n in range(9):
        assert _summed_row_sum_formula(n) == rooks.hat_scalar_product(n), n


def test_boundary_identity_from_the_row_sum_formula():
    for n in range(31):
        lhs = LaurentPoly.monomial(1, n, 0) * (ONE - Q) * _summed_row_sum_formula(n)
        assert lhs == (ONE + Y) * rooks.boundary_g(n) - rooks.boundary_g(n + 1), n


def test_reconcile_boundary_identity():
    rep = rooks.reconcile_boundary_identity(6)
    assert rep.passing == ["q^n(1-q)"]
    assert rep.ok
    # every other candidate fails somewhere
    assert set(rep.failures) == {"1", "q^n", "(1-q)", "q^n(1-q)^n"}


def test_phi_no_rooks():
    shape = rooks.YoungBoundary.parse("HV")
    inv, lam = rooks.phi(rooks.RookPlacement(shape, frozenset()))
    assert inv.arcs == frozenset() and inv.fixed == (1, 2)
    assert lam == shape


def test_phi_drawn_example():
    shape = rooks.YoungBoundary.parse("HHVHHVHVVV")
    pl = rooks.RookPlacement(shape, frozenset({(6, 1), (9, 4), (8, 5)}))
    assert pl.statistics() == (3, 9, 5)
    inv, lam = rooks.phi(pl)
    assert inv.arcs == frozenset({(1, 6), (4, 9), (5, 8)})
    assert inv.fixed == (2, 3, 7, 10)
    assert lam.serialize() == "HVHV"
    assert lam.cell_count() == 3
    assert rooks.phi_inverse(inv, lam) == pl


def test_phi_roundtrip_and_mu():
    for n in range(1, 7):
        mu_of = {}
        seen = set()
        total = 0
        for pl in rooks.iter_all_placements(n):
            inv, lam = rooks.phi(pl)
            assert rooks.phi_inverse(inv, lam) == pl
            seen.add((inv, lam.word))
            total += 1
            mu = rooks.mu_statistic(pl)
            assert mu >= 0
            assert mu_of.setdefault(inv, mu) == mu, "offset must depend only on the involution"
        assert len(seen) == total


def test_square_crosses_are_mahonian():
    for n in (2, 3, 4):
        shape = rooks.YoungBoundary.parse("H" * n + "V" * n)
        hist = defaultdict(int)
        for pl in rooks.iter_placements(shape):
            if len(pl.rooks) == n:
                hist[pl.statistics()[1]] += 1
        want = defaultdict(int)
        for w in permutations(range(n)):
            want[sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])] += 1
        assert hist == want


def test_placement_serialisation():
    shape = rooks.YoungBoundary.parse("HV")
    pl = rooks.RookPlacement(shape, frozenset({(2, 1)}))
    obj = pl.to_json_obj()
    assert obj == {"word": "HV", "rooks": [[2, 1]]}
    assert rooks.RookPlacement.from_json_obj(obj) == pl


def test_partition_polynomial_via_rooks():
    from pasep import closedforms

    for n in range(1, 7):
        assert rooks.partition_polynomial_via_rooks(n) == closedforms.partition_polynomial(n)


def test_rook_cap(capsys):
    n = rooks.ROOK_CAP
    for call in (
        lambda: rooks.rook_sum(n + 1),
        lambda: rooks.column_weight_sum(0, 1, n + 1),
        lambda: rooks.partition_polynomial_via_rooks(n + 1),
    ):
        with pytest.raises(ValueError):
            call()
    assert cli.METHOD_CAPS["rooks"] == n
    assert cli.main(["eval", "--method", "rooks", "-n", str(n + 1)]) == 3
    assert "capped" in capsys.readouterr().err
