"""Finite truncations of the transfer operators and their scalar products.

The semi-infinite operators D (upper bidiagonal, entries 1 + q + ... + q^i on
the diagonal and superdiagonal of row i) and E (its lower-bidiagonal mirror)
satisfy

    D E - q E D = D + E,   <W| E = <W|,   D |V> = |V>,   <W|V> = 1,

with boundary vectors <W| = (1, 0, 0, ...) and |V> = (1, 0, 0, ...)^T.  The
hat variants D^ = (q-1)/q D + 1/q and E^ = (q-1)/q E + 1/q obey the pure
q-commutation D^E^ - q E^D^ = (1-q)/q^2.

A matrix is a tuple of sparse rows: row i is a dict {column: entry} that
holds only the nonzero entries.  A row vector is one such dict.  The one
product, ``_times``, multiplies a row vector by a matrix; scalar products,
powers, linear combinations and the relation checks all go through it.

A truncation of size N reproduces the infinite scalar product <W| M^k |V>
exactly whenever N >= k + 2, because a length-k walk from index 0 back to 0
never leaves the first k/2 + 1 coordinates.  Relation checks exclude the
truncation edge, where bidiagonal products are necessarily wrong.

The scalar products up to a power k_max advance only the coordinates that can
still return.  A breadth-first search backwards along the matrix's nonzero
entries gives each coordinate's fewest steps to the support of |V>; after
step k, a coordinate more than k_max - k steps away is dropped.  No walk
from it reaches |V> in the steps left, so no later scalar product reads it,
and every <W| M^k |V> up to k_max is exact.  The cut is read from the
matrix's entries, not from its shape.
"""

from __future__ import annotations

from .laurent import ONE, Q, Y, ZERO, LaurentPoly
from .qcombinat import binomial, q_int


class TruncationTooSmall(ValueError):
    """Raised when a matrix truncation cannot support the requested power."""


def _times(vec: dict, m) -> dict:
    """The row vector vec times the matrix m: the sum of vec[i] * (row i of m)."""
    out = {}
    for i, x in vec.items():
        for j, e in m[i].items():
            out[j] = out[j] + x * e if j in out else x * e
    return {j: e for j, e in out.items() if not e.is_zero}


def build_D(n: int) -> tuple:
    """D truncation: row i holds [i+1]_q at columns i and i+1."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return tuple({j: q_int(i + 1) for j in (i, i + 1) if j < n} for i in range(n))


def build_E(n: int) -> tuple:
    """E truncation: row i holds [i+1]_q at columns i-1 and i."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return tuple({j: q_int(i + 1) for j in (i - 1, i) if j >= 0} for i in range(n))


_Q_INV = LaurentPoly.monomial(1, -1, 0)
_HAT_SCALE = ONE - _Q_INV  # (q-1)/q


def build_hat(m: tuple) -> tuple:
    """The hat transform (q-1)/q * M + (1/q) * I: row i is the row vector
    ((q-1)/q, 1/q) times the two rows (row i of M, row i of I)."""
    return tuple(
        _times({0: _HAT_SCALE, 1: _Q_INV}, (row, {i: ONE}))
        for i, row in enumerate(m)
    )


def _plus(y: LaurentPoly, d: tuple, e: tuple) -> tuple:
    """y*d + e: row i is the row vector (y, 1) times (row i of d, row i of e)."""
    return tuple(_times({0: y, 1: ONE}, rows) for rows in zip(d, e))


def yd_plus_e(n: int, y: LaurentPoly = Y) -> tuple:
    """y*D + E at truncation size n."""
    return _plus(y, build_D(n), build_E(n))


def yhat_plus_ehat(n: int, y: LaurentPoly = Y) -> tuple:
    """y*D^ + E^ at truncation size n."""
    return _plus(y, build_hat(build_D(n)), build_hat(build_E(n)))


def boundary_vectors(n: int) -> tuple[dict, tuple]:
    """The row vector <W| and the column vector |V>, each a single 1 at
    index 0; |V> is the n x 1 matrix of n sparse rows, so that <u|V> is the
    row vector u times it."""
    return {0: ONE}, ({0: ONE},) + ({},) * (n - 1)


def scalar_product(m: tuple, k: int) -> LaurentPoly:
    """<W| m^k |V>, exact provided len(m) >= k + 2."""
    return scalar_products_upto(m, k)[k]


def _steps_to(m: tuple, v: tuple) -> list[int]:
    """For each coordinate, the fewest steps along m's nonzero entries to a
    nonzero row of v, or len(m) if there is no such walk: a breadth-first
    search backwards from those rows."""
    into = [[] for _ in m]
    for i, row in enumerate(m):
        for j in row:
            into[j].append(i)
    far = len(m)
    steps = [0 if row else far for row in v]
    queue = [j for j, row in enumerate(v) if row]
    for j in queue:  # the loop also visits what it appends
        for i in into[j]:
            if steps[i] == far:
                steps[i] = steps[j] + 1
                queue.append(i)
    return steps


def scalar_products_upto(m: tuple, k_max: int) -> list[LaurentPoly]:
    """[<W| m^k |V> for k = 0..k_max] from one row-vector iteration.

    After step k the vector keeps only the coordinates within k_max - k steps
    of |V>; the others cannot reach it in the steps left, so each returned
    value is the same as with the whole vector."""
    if len(m) < k_max + 2:
        raise TruncationTooSmall(
            f"need dim >= {k_max + 2} for power {k_max}, got {len(m)}"
        )
    vec, v = boundary_vectors(len(m))
    steps = _steps_to(m, v)
    out = [_times(vec, v).get(0, ZERO)]
    for k in range(1, k_max + 1):
        vec = {j: x for j, x in _times(vec, m).items() if steps[j] <= k_max - k}
        out.append(_times(vec, v).get(0, ZERO))
    return out


def partition_polynomial_via_matrix(n: int) -> LaurentPoly:
    """The partition polynomial of size n, y <W|(yD+E)^(n-1)|V>."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return Y * scalar_product(yd_plus_e(n + 2), n - 1)


def _leading_power_rows(m: tuple, k_max: int, count: int) -> list:
    """Rows 0..count-1 of m^k for k = 0..k_max.  Row i of m^k is row i of
    m^(k-1) times m, so the other rows are never needed."""
    out = [[{i: ONE} for i in range(count)]]
    for _ in range(k_max):
        out.append([_times(vec, m) for vec in out[-1]])
    return out


def _relation_violations(d, e, rhs, commutator: str, hat: str) -> list[str]:
    """Violations of d e - q e d = rhs on the interior (indices < n-1) and of
    <W| e = <W|, d |V> = |V> and <W|V> = 1; hat marks the operators' names."""
    n = len(d)
    w, v = boundary_vectors(n)
    violations = []
    for i in range(n - 1):
        de, ed = _times(d[i], e), _times(e[i], d)
        for j in range(n - 1):
            if de.get(j, ZERO) - Q * ed.get(j, ZERO) != rhs[i].get(j, ZERO):
                violations.append(f"{commutator} at ({i},{j})")
    # <W| e = <W| and d |V> = |V> on the first n-1 coordinates
    we = _times(w, e)
    for j in range(n - 1):
        if we.get(j, ZERO) != w.get(j, ZERO):
            violations.append(f"<W|E{hat} differs at coordinate {j}")
        if _times(d[j], v).get(0, ZERO) != v[j].get(0, ZERO):
            violations.append(f"D{hat}|V> differs at coordinate {j}")
    if _times(w, v).get(0, ZERO) != ONE:
        violations.append("<W|V> != 1")
    return violations


def verify_ansatz(n: int) -> list[str]:
    """Violations of DE - qED = D + E on the interior and of the boundary conditions."""
    d, e = build_D(n), build_E(n)
    return _relation_violations(d, e, _plus(ONE, d, e), "DE-qED != D+E", "")


def verify_hat_relations(n: int) -> list[str]:
    """Violations of D^E^ - q E^D^ = (1-q)/q^2 I on the interior and at the boundary."""
    scalar = LaurentPoly.monomial(1, -2, 0) - LaurentPoly.monomial(1, -1, 0)
    return _relation_violations(
        build_hat(build_D(n)),
        build_hat(build_E(n)),
        tuple({i: scalar} for i in range(n)),
        "hat commutator wrong",
        "^",
    )


def verify_inversion(
    n: int,
    printed_eq5: bool = False,
    y: int | None = None,
) -> list[str]:
    """Violations of the two inversion formulas between (yD+E)^n and (yD^+E^)^n.

    First identity: (1-q)^n (yD+E)^n = sum_k binom(n,k) (1+y)^(n-k) (-q)^k (yD^+E^)^k.
    Second identity: q^n (yD^+E^)^n = sum_k binom(n,k) (1+y)^(n-k) (-(1-q))^k (yD+E)^k.

    An integer ``y`` is substituted for the variable y; None keeps y
    symbolic.  ``printed_eq5=True`` replaces the final factor of the second
    identity by (D+E)^k; that variant is wrong for y != 1 and is kept only so
    tests can demonstrate the failure.  The matrices are truncated at
    dimension n + 4 and entries are compared on indices < 4.
    """
    dim = n + 4
    yv = Y if y is None else LaurentPoly.monomial(y)
    one_plus_y = ONE + yv
    one_minus_q = ONE - Q
    interior = dim - n
    m_pows = _leading_power_rows(yd_plus_e(dim, yv), n, interior)
    mh_pows = _leading_power_rows(yhat_plus_ehat(dim, yv), n, interior)
    if printed_eq5:
        pows5 = _leading_power_rows(yd_plus_e(dim, ONE), n, interior)
    else:
        pows5 = m_pows

    violations = []

    def compare(which, lhs, lhs_scale, pows, ratio):
        """lhs_scale * lhs[n] against sum_k binom(n,k) (1+y)^(n-k) (-ratio)^k pows[k]:
        row i of the sum is those coefficients times the rows i of pows[k]."""
        coefs = {
            k: (one_plus_y ** (n - k)) * (ratio**k) * binomial(n, k) * ((-1) ** k)
            for k in range(n + 1)
        }
        for i in range(interior):
            rhs = _times(coefs, [p[i] for p in pows])
            for j in range(interior):
                if lhs[n][i].get(j, ZERO) * lhs_scale != rhs.get(j, ZERO):
                    violations.append(f"{which} inversion fails at ({i},{j})")

    compare("first", m_pows, one_minus_q**n, mh_pows, Q)
    compare("second", mh_pows, Q**n, pows5, one_minus_q)
    return violations


__all__ = [
    "TruncationTooSmall",
    "build_D",
    "build_E",
    "build_hat",
    "yd_plus_e",
    "yhat_plus_ehat",
    "boundary_vectors",
    "scalar_product",
    "scalar_products_upto",
    "partition_polynomial_via_matrix",
    "verify_ansatz",
    "verify_hat_relations",
    "verify_inversion",
]
