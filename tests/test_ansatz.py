"""Operator truncations, scalar products and algebraic relation checks."""

import pytest

from pasep import ansatz
from pasep.laurent import ONE, Q, Y, ZERO, LaurentPoly


def _dense(m):
    """The sparse rows m as a dense list of lists."""
    return [[row.get(j, ZERO) for j in range(len(m))] for row in m]


def _matmul(a, b):
    """The naive dense product of two square lists of lists."""
    n = len(a)
    return [
        [sum((a[i][t] * b[t][j] for t in range(n)), ZERO) for j in range(n)]
        for i in range(n)
    ]


def test_build_D_and_E():
    d = ansatz.build_D(2)
    assert d == ({0: ONE, 1: ONE}, {1: ONE + Q})
    e = ansatz.build_E(2)
    assert e == ({0: ONE}, {0: ONE + Q, 1: ONE + Q})
    assert ansatz.build_D(1) == ({0: ONE},)


def test_build_hat():
    assert ansatz.build_hat(ansatz.build_D(1)) == ({0: ONE},)
    he = ansatz.build_hat(ansatz.build_E(2))
    assert he[1][0] == Q - LaurentPoly.monomial(1, -1, 0)
    ident = tuple({i: ONE} for i in range(3))
    assert ansatz.build_hat(ident) == ident


def test_scalar_product_examples():
    m = ansatz.yd_plus_e(3)
    assert ansatz.scalar_product(m, 1) == ONE + Y
    m = ansatz.yd_plus_e(4)
    assert ansatz.scalar_product(m, 2) == Y**2 + 3 * Y + ONE + Y * Q
    de = ansatz.yd_plus_e(4, ONE)
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
    m = tuple({j: e for j, e in enumerate(row) if not e.is_zero} for row in rows)
    got = ansatz.scalar_products_upto(m, dim - 2)
    power = [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
    for k in range(dim - 1):
        assert got[k] == power[0][0], k
        power = _matmul(power, rows)


def test_scalar_products_cut_is_exact_at_every_power():
    # Not tridiagonal.  Coordinate 6 never reaches coordinate 0 but row 0
    # feeds it; coordinate 4 needs three steps back and 2 and 5 need two.
    # The cut drops each at the step after which it can no longer return.
    dim, big = 7, 5
    entries = {
        0: {0: ONE + Q, 2: Y, 4: 2 * ONE, 6: Q},
        1: {0: Y, 1: 3 * ONE},
        2: {1: Q * Y, 5: ONE},
        3: {0: -ONE, 3: Y},
        4: {2: ONE, 4: Q},
        5: {3: 2 * ONE + Y, 6: ONE},
        6: {6: ONE + Y},
    }
    m = tuple(entries[i] for i in range(dim))
    assert ansatz._steps_to(m, ansatz.boundary_vectors(dim)[1]) == [0, 1, 2, 1, 3, 2, dim]
    rows = [[entries[i].get(j, ZERO) for j in range(dim)] for i in range(dim)]
    got = ansatz.scalar_products_upto(m, big)
    power = [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
    for k in range(big + 1):
        assert got[k] == power[0][0], k
        assert ansatz.scalar_products_upto(m, k) == got[: k + 1], k
        power = _matmul(power, rows)


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
    d, e = _dense(ansatz.build_D(3)), _dense(ansatz.build_E(3))
    de, ed = _matmul(d, e), _matmul(e, d)
    assert de[0][0] - Q * ed[0][0] == 2 * ONE
    # the truncation edge genuinely breaks the relation
    assert de[2][2] - Q * ed[2][2] != d[2][2] + e[2][2]


def test_verify_hat_relations():
    assert ansatz.verify_hat_relations(6) == []
    dh = _dense(ansatz.build_hat(ansatz.build_D(4)))
    eh = _dense(ansatz.build_hat(ansatz.build_E(4)))
    de, ed = _matmul(dh, eh), _matmul(eh, dh)
    p = LaurentPoly.monomial(1, -2, 0) - LaurentPoly.monomial(1, -1, 0)
    assert de[0][0] - Q * ed[0][0] == p
    assert de[0][1] - Q * ed[0][1] == ZERO
    assert eh[0][0] == ONE


def test_relation_checks_name_each_broken_entry(monkeypatch):
    # E's entries below the diagonal carry an extra factor q: each relation
    # breaks on the interior's diagonal.
    build_e = ansatz.build_E
    monkeypatch.setattr(
        ansatz, "build_E",
        lambda n: tuple({j: x * (Q if j < i else ONE) for j, x in row.items()}
                        for i, row in enumerate(build_e(n))),
    )
    at = ["(0,0)", "(1,1)", "(2,2)"]
    assert ansatz.verify_ansatz(4) == [f"DE-qED != D+E at {ij}" for ij in at]
    assert ansatz.verify_hat_relations(4) == [f"hat commutator wrong at {ij}" for ij in at]
    monkeypatch.setattr(ansatz, "build_E", build_e)
    # <W| = (1, 1, 0, ...) and |V> = (1, 1, ..., 1)^T break every boundary condition.
    monkeypatch.setattr(
        ansatz, "boundary_vectors", lambda n: ({0: ONE, 1: ONE}, ({0: ONE},) * n)
    )
    for verify, hat in ((ansatz.verify_ansatz, ""), (ansatz.verify_hat_relations, "^")):
        assert verify(3) == [
            f"<W|E{hat} differs at coordinate 0",
            f"D{hat}|V> differs at coordinate 0",
            f"<W|E{hat} differs at coordinate 1",
            f"D{hat}|V> differs at coordinate 1",
            "<W|V> != 1",
        ]


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
