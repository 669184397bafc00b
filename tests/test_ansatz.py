"""Operator truncations, scalar products and algebraic relation checks."""

import pytest

from pasep import ansatz
from pasep.laurent import ONE, Q, Y, ZERO, LaurentPoly


def test_build_D_and_E():
    d = ansatz.build_D(2)
    assert d.rows[0] == (ONE, ONE)
    assert d.rows[1] == (ZERO, ONE + Q)
    e = ansatz.build_E(2)
    assert e.rows[0] == (ONE, ZERO)
    assert e.rows[1] == (ONE + Q, ONE + Q)
    assert ansatz.build_D(1).rows == ((ONE,),)


def test_build_hat():
    assert ansatz.build_hat(ansatz.build_D(1)).rows[0][0] == ONE
    he = ansatz.build_hat(ansatz.build_E(2))
    assert he.rows[1][0] == Q - LaurentPoly.monomial(1, -1, 0)
    ident = ansatz.identity(3)
    assert ansatz.build_hat(ident).rows == ident.rows


def test_scalar_product_examples():
    m = ansatz.yd_plus_e(3)
    assert ansatz.scalar_product(m, 1) == ONE + Y
    m = ansatz.yd_plus_e(4)
    assert ansatz.scalar_product(m, 2) == Y**2 + 3 * Y + ONE + Y * Q
    de = ansatz.build_D(4) + ansatz.build_E(4)
    catalan3 = ansatz.scalar_product(de, 2).eval_q(0).eval_y(1)
    assert catalan3.to_int() == 5


def test_scalar_products_dense_matrix():
    # Not tridiagonal: every entry but two is nonzero, including far corners.
    dim = 5
    rows = [
        [LaurentPoly({(i, j): i - j + 2, (j, 1): 1}) for j in range(dim)]
        for i in range(dim)
    ]
    rows[2][0] = ZERO
    rows[0][3] = ZERO
    m = ansatz.OperatorMatrix(rows)
    got = ansatz.scalar_products_upto(m, dim - 2)
    power = ansatz.identity(dim)
    for k in range(dim - 1):
        assert got[k] == power.rows[0][0], k
        power = power * m


def test_scalar_product_truncation_guard():
    m = ansatz.yd_plus_e(3)
    with pytest.raises(ansatz.TruncationTooSmall):
        ansatz.scalar_product(m, 2)


def test_truncation_stability():
    for k in range(5):
        base = ansatz.scalar_product(ansatz.yd_plus_e(k + 2), k)
        for dim in range(k + 3, k + 7):
            assert ansatz.scalar_product(ansatz.yd_plus_e(dim), k) == base, (k, dim)


def test_verify_ansatz():
    assert ansatz.verify_ansatz(6) == []
    # hand value at entry (0,0): 1*1 + 1*(1+q) - q*1*1 = 2
    d, e = ansatz.build_D(3), ansatz.build_E(3)
    lhs = d * e - (e * d).scale(Q)
    assert lhs.rows[0][0] == 2 * ONE
    # the truncation edge genuinely breaks the relation
    full = d * e - (e * d).scale(Q)
    rhs = d + e
    assert full.rows[2][2] != rhs.rows[2][2]


def test_verify_hat_relations():
    assert ansatz.verify_hat_relations(6) == []
    dh = ansatz.build_hat(ansatz.build_D(4))
    eh = ansatz.build_hat(ansatz.build_E(4))
    lhs = dh * eh - (eh * dh).scale(Q)
    p = LaurentPoly.monomial(1, -2, 0) - LaurentPoly.monomial(1, -1, 0)
    assert lhs.rows[0][0] == p
    assert lhs.rows[0][1] == ZERO
    assert eh.rows[0][0] == ONE


def test_inversion_formulas_symbolic():
    for n in range(1, 5):
        violations = ansatz.verify_inversion(n)
        assert not violations, (n, violations[:3])


def test_inversion_printed_variant_fails_at_y2():
    assert ansatz.verify_inversion(1, printed_eq5=True, y=2)
    # at y=1 the printed and corrected forms coincide
    assert not ansatz.verify_inversion(1, printed_eq5=True, y=1)


def test_hat_scalar_product_small():
    mh = ansatz.yhat_plus_ehat(3)
    assert ansatz.scalar_product(mh, 1) == ONE + Y
