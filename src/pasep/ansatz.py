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
        return self + other.scale(-1)

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
    w, v = boundary_vectors(m.dim)
    nonzero = _nonzero_entries(m)
    vec = list(w)
    out = [sum((a * b for a, b in zip(vec, v)), ZERO)]
    for _ in range(k_max):
        vec = _times(vec, nonzero)
        out.append(sum((a * b for a, b in zip(vec, v)), ZERO))
    return out


def _nonzero_entries(m: OperatorMatrix) -> list[list[tuple[int, LaurentPoly]]]:
    """Row i of m as its nonzero entries only: (column, entry) pairs."""
    return [[(j, e) for j, e in enumerate(row) if not e.is_zero] for row in m.rows]


def _times(vec, nonzero) -> list[LaurentPoly]:
    """The row vector vec times the matrix whose rows' nonzero entries are nonzero."""
    out = [ZERO] * len(nonzero)
    for x, row in zip(vec, nonzero):
        if not x.is_zero:
            for j, e in row:
                out[j] = out[j] + x * e
    return out


def _leading_power_rows(m: OperatorMatrix, k_max: int, count: int) -> list:
    """Rows 0..count-1 of m^k for k = 0..k_max.  Row i of m^k is row i of
    m^(k-1) times m, so the other rows are never needed."""
    nonzero = _nonzero_entries(m)
    out = [identity(m.dim).rows[:count]]
    for _ in range(k_max):
        out.append([_times(vec, nonzero) for vec in out[-1]])
    return out


def verify_ansatz(n: int) -> list[str]:
    """Violations of DE - qED = D + E on the interior and of the boundary conditions."""
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
    return violations


def verify_hat_relations(n: int) -> list[str]:
    """Violations of D^E^ - q E^D^ = (1-q)/q^2 I on the interior and at the boundary."""
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
    return violations


def verify_inversion(
    n: int,
    printed_eq5: bool = False,
    y: LaurentPoly | int | None = None,
) -> list[str]:
    """Violations of the two inversion formulas between (yD+E)^n and (yD^+E^)^n.

    First identity: (1-q)^n (yD+E)^n = sum_k binom(n,k) (1+y)^(n-k) (-q)^k (yD^+E^)^k.
    Second identity: q^n (yD^+E^)^n = sum_k binom(n,k) (1+y)^(n-k) (-(1-q))^k (yD+E)^k.

    ``printed_eq5=True`` replaces the final factor of the second identity by
    (D+E)^k; that variant is wrong for y != 1 and is kept only so tests can
    demonstrate the failure.  The matrices are truncated at dimension n + 4
    and entries are compared on indices < 4.
    """
    dim = n + 4
    yv: LaurentPoly = Y if y is None else (
        LaurentPoly.monomial(y) if isinstance(y, int) else y
    )
    m = yd_plus_e(dim, yv)
    mh = yhat_plus_ehat(dim, yv)
    one_plus_y = ONE + yv
    one_minus_q = ONE - Q
    interior = dim - n
    m_pows = _leading_power_rows(m, n, interior)
    mh_pows = _leading_power_rows(mh, n, interior)
    if printed_eq5:
        pows5 = _leading_power_rows(build_D(dim) + build_E(dim), n, interior)
    else:
        pows5 = m_pows

    violations = []

    def compare(which, lhs, lhs_scale, pows, ratio):
        """lhs_scale * lhs[n] against sum_k binom(n,k) (1+y)^(n-k) (-ratio)^k pows[k]."""
        coefs = [
            (one_plus_y ** (n - k)) * (ratio**k) * binomial(n, k) * ((-1) ** k)
            for k in range(n + 1)
        ]
        for i in range(interior):
            for j in range(interior):
                rhs = sum((c * p[i][j] for c, p in zip(coefs, pows)), ZERO)
                if lhs[n][i][j] * lhs_scale != rhs:
                    violations.append(f"{which} inversion fails at ({i},{j})")

    compare("first", m_pows, one_minus_q**n, mh_pows, Q)
    compare("second", mh_pows, Q**n, pows5, one_minus_q)
    return violations


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
