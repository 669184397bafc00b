"""Finite truncations of the transfer operators and their scalar products.

The semi-infinite operators D (upper bidiagonal, entries 1 + q + ... + q^i on
the diagonal and superdiagonal of row i) and E (its lower-bidiagonal mirror)
satisfy

    D E - q E D = D + E,   <W| E = <W|,   D |V> = |V>,   <W|V> = 1,

with boundary vectors <W| = (1, 0, 0, ...) and |V> = (1, 0, 0, ...)^T.  The
hat variants D^ = (q-1)/q D + 1/q and E^ = (q-1)/q E + 1/q obey the pure
q-commutation D^E^ - q E^D^ = (1-q)/q^2.

A truncation of size N reproduces the infinite scalar product <W| M^k |V>
exactly whenever N >= k + 2, because a length-k walk from index 0 back to 0
never leaves the first k/2 + 1 coordinates.  Relation checks exclude the
truncation edge, where bidiagonal products are necessarily wrong.
"""

from __future__ import annotations

from .laurent import ONE, Q, Y, ZERO, LaurentPoly
from .qcombinat import binomial, q_int
from .report import CheckReport


class TruncationTooSmall(ValueError):
    """Raised when a matrix truncation cannot support the requested power."""


class OperatorMatrix:
    """A square matrix of LaurentPoly entries; immutable after construction."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.dim = n
        self.rows = rows

    def __eq__(self, other):
        return isinstance(other, OperatorMatrix) and self.rows == other.rows

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return OperatorMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + other.scale(LaurentPoly.from_int(-1))

    def scale(self, c: LaurentPoly | int) -> "OperatorMatrix":
        return OperatorMatrix([[e * c for e in row] for row in self.rows])

    def __mul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = self.dim
        cols = list(zip(*other.rows))
        out = []
        for i in range(n):
            row = self.rows[i]
            out.append(
                [
                    sum(
                        (row[t] * cols[j][t] for t in range(n) if not row[t].is_zero),
                        ZERO,
                    )
                    for j in range(n)
                ]
            )
        return OperatorMatrix(out)


def identity(n: int) -> OperatorMatrix:
    return OperatorMatrix(
        [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    )


def build_D(n: int) -> OperatorMatrix:
    """D truncation: row i holds [i+1]_q at columns i and i+1."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return OperatorMatrix(
        [
            [q_int(i + 1) if j in (i, i + 1) else ZERO for j in range(n)]
            for i in range(n)
        ]
    )


def build_E(n: int) -> OperatorMatrix:
    """E truncation: row i holds [i+1]_q at columns i-1 and i."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return OperatorMatrix(
        [
            [q_int(i + 1) if j in (i - 1, i) else ZERO for j in range(n)]
            for i in range(n)
        ]
    )


# (q-1)/q as a Laurent polynomial.
_HAT_SCALE = ONE - LaurentPoly.monomial(1, -1, 0)
_Q_INV = LaurentPoly.monomial(1, -1, 0)


def build_hat(m: OperatorMatrix) -> OperatorMatrix:
    """The hat transform (q-1)/q * M + (1/q) * I, entrywise in the Laurent ring."""
    n = m.dim
    return OperatorMatrix(
        [
            [
                m.rows[i][j] * _HAT_SCALE + (_Q_INV if i == j else ZERO)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def yd_plus_e(n: int, y: LaurentPoly = Y) -> OperatorMatrix:
    """y*D + E at truncation size n."""
    return build_D(n).scale(y) + build_E(n)


def yhat_plus_ehat(n: int, y: LaurentPoly = Y) -> OperatorMatrix:
    """y*D^ + E^ at truncation size n."""
    return build_hat(build_D(n)).scale(y) + build_hat(build_E(n))


def boundary_vectors(n: int) -> tuple[tuple[LaurentPoly, ...], tuple[LaurentPoly, ...]]:
    """The row vector <W| and column vector |V>: a single 1 at index 0."""
    w = tuple([ONE] + [ZERO] * (n - 1))
    return w, w


def scalar_product(m: OperatorMatrix, k: int) -> LaurentPoly:
    """<W| m^k |V>, exact provided m.dim >= k + 2."""
    return scalar_products_upto(m, k)[k]


def scalar_products_upto(m: OperatorMatrix, k_max: int) -> list[LaurentPoly]:
    """[<W| m^k |V> for k = 0..k_max] from one row-vector iteration."""
    if m.dim < k_max + 2:
        raise TruncationTooSmall(
            f"need dim >= {k_max + 2} for power {k_max}, got {m.dim}"
        )
    n = m.dim
    w, v = boundary_vectors(n)
    # Row i of m as its nonzero entries only: (column, entry) pairs.
    nonzero = [[(j, e) for j, e in enumerate(row) if not e.is_zero] for row in m.rows]
    vec = list(w)
    out = [sum((a * b for a, b in zip(vec, v)), ZERO)]
    for _ in range(k_max):
        nxt = [ZERO] * n
        for x, row in zip(vec, nonzero):
            if not x.is_zero:
                for j, e in row:
                    nxt[j] = nxt[j] + x * e
        vec = nxt
        out.append(sum((a * b for a, b in zip(vec, v)), ZERO))
    return out


def verify_ansatz(n: int) -> CheckReport:
    """Check DE - qED = D + E on the interior, and the boundary conditions."""
    d, e = build_D(n), build_E(n)
    lhs = d * e - (e * d).scale(Q)
    rhs = d + e
    violations = []
    for i in range(n - 1):
        for j in range(n - 1):
            if lhs.rows[i][j] != rhs.rows[i][j]:
                violations.append(f"DE-qED != D+E at ({i},{j})")
    # <W| E = <W| and D |V> = |V> on the first n-1 coordinates
    for j in range(n - 1):
        want = ONE if j == 0 else ZERO
        if e.rows[0][j] != want:
            violations.append(f"<W|E differs at coordinate {j}")
        if d.rows[j][0] != want:
            violations.append(f"D|V> differs at coordinate {j}")
    w, v = boundary_vectors(n)
    if sum((a * b for a, b in zip(w, v)), ZERO) != ONE:
        violations.append("<W|V> != 1")
    return CheckReport("ansatz relations", not violations, violations)


def verify_hat_relations(n: int) -> CheckReport:
    """Check D^E^ - q E^D^ = (1-q)/q^2 * I on the interior, plus boundaries."""
    dh, eh = build_hat(build_D(n)), build_hat(build_E(n))
    lhs = dh * eh - (eh * dh).scale(Q)
    scalar = LaurentPoly.monomial(1, -2, 0) - LaurentPoly.monomial(1, -1, 0)
    violations = []
    for i in range(n - 1):
        for j in range(n - 1):
            want = scalar if i == j else ZERO
            if lhs.rows[i][j] != want:
                violations.append(f"hat commutator wrong at ({i},{j})")
    for j in range(n - 1):
        want = ONE if j == 0 else ZERO
        if eh.rows[0][j] != want:
            violations.append(f"<W|E^ differs at coordinate {j}")
        if dh.rows[j][0] != want:
            violations.append(f"D^|V> differs at coordinate {j}")
    return CheckReport("hat relations", not violations, violations)


def verify_inversion(
    n: int,
    printed_eq5: bool = False,
    y: LaurentPoly | int | None = None,
) -> CheckReport:
    """Check the two inversion formulas between (yD+E)^n and (yD^+E^)^n.

    First identity: (1-q)^n (yD+E)^n = sum_k binom(n,k) (1+y)^(n-k) (-q)^k (yD^+E^)^k.
    Second identity: q^n (yD^+E^)^n = sum_k binom(n,k) (1+y)^(n-k) (-(1-q))^k (yD+E)^k.

    ``printed_eq5=True`` replaces the final factor of the second identity by
    (D+E)^k; that variant is wrong for y != 1 and is kept only so tests can
    demonstrate the failure.  The matrices are truncated at dimension n + 4
    and entries are compared on indices < 4.
    """
    dim = n + 4
    yv: LaurentPoly = Y if y is None else (
        LaurentPoly.from_int(y) if isinstance(y, int) else y
    )
    m = yd_plus_e(dim, yv)
    mh = yhat_plus_ehat(dim, yv)
    one_plus_y = ONE + yv
    one_minus_q = ONE - Q
    interior = dim - n

    m_pows = [identity(dim)]
    mh_pows = [identity(dim)]
    for _ in range(n):
        m_pows.append(m_pows[-1] * m)
        mh_pows.append(mh_pows[-1] * mh)

    violations = []

    lhs4 = m_pows[n].scale(one_minus_q**n)
    rhs4 = identity(dim).scale(ZERO)
    for k in range(n + 1):
        coef = (one_plus_y ** (n - k)) * (Q**k) * binomial(n, k) * ((-1) ** k)
        rhs4 = rhs4 + mh_pows[k].scale(coef)
    for i in range(interior):
        for j in range(interior):
            if lhs4.rows[i][j] != rhs4.rows[i][j]:
                violations.append(f"first inversion fails at ({i},{j})")

    if printed_eq5:
        base = build_D(dim) + build_E(dim)
        pows5 = [identity(dim)]
        for _ in range(n):
            pows5.append(pows5[-1] * base)
    else:
        pows5 = m_pows
    lhs5 = mh_pows[n].scale(Q**n)
    rhs5 = identity(dim).scale(ZERO)
    for k in range(n + 1):
        coef = (one_plus_y ** (n - k)) * (one_minus_q**k) * binomial(n, k) * (
            (-1) ** k
        )
        rhs5 = rhs5 + pows5[k].scale(coef)
    for i in range(interior):
        for j in range(interior):
            if lhs5.rows[i][j] != rhs5.rows[i][j]:
                violations.append(f"second inversion fails at ({i},{j})")

    label = "inversion formulas" + (" (printed variant)" if printed_eq5 else "")
    return CheckReport(label, not violations, violations)


__all__ = [
    "OperatorMatrix",
    "TruncationTooSmall",
    "identity",
    "build_D",
    "build_E",
    "build_hat",
    "yd_plus_e",
    "yhat_plus_ehat",
    "boundary_vectors",
    "scalar_product",
    "scalar_products_upto",
    "verify_ansatz",
    "verify_hat_relations",
    "verify_inversion",
]
