"""Closed-form evaluations of the partition polynomial and its coefficients.

The flagship formula: for n > 0 the partition polynomial (the y-marked,
q-marked distribution over S_n; equivalently y <W|(yD+E)^(n-1)|V>) equals

    (1/(1-q)^n) * sum_k (-1)^k
        [ sum_j y^j (binom(n,j) binom(n,j+k) - binom(n,j-1) binom(n,j+k+1)) ]
        * [ sum_i y^i q^(i(k+1-i)) ].

The division is exact; a nonzero remainder would signal a defect and is
raised as NotDivisible rather than smoothed over.  Everything else in this
module (single-coefficient formulas, low-order Taylor data, the q^10 column,
Narayana specialisation, matching crossings, asymptotic ratios) is derived
from or checked against that polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import factorial, pi, sqrt
from operator import add, neg

from .laurent import ZERO, LaurentPoly
from .qcombinat import binomial, catalan


@lru_cache(maxsize=None)
def partition_polynomial(n: int) -> LaurentPoly:
    """The size-n partition polynomial in y and q (alternating double sum).

    With a_j(k) = binom(n,j) binom(n,j+k) - binom(n,j-1) binom(n,j+k+1), the
    numerator's term for k, y^j from the binomial factor and y^i from the
    q-power factor is (-1)^k a_j(k) y^(i+j) q^(i(k+1-i)).  With i and j
    fixed, the exponent runs i, 2i, 3i, ... as k runs from i to n - j, so
    the whole k-sum is one strided slice-add into the dense q-row of
    y^(i+j); for i = 0 it is one scalar sum.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    # Row s holds the q-coefficients of y^s; its largest exponent, at i = s,
    # is s(n+1-s).
    rows = [[0] * (s * (n + 1 - s) + 1) for s in range(n + 1)]
    for j in range(n + 1):
        # signed[k] = (-1)^k a_j(k), for k = 0..n-j
        signed = [
            binomial(n, j) * binomial(n, j + k) - binomial(n, j - 1) * binomial(n, j + k + 1)
            for k in range(n - j + 1)
        ]
        signed[1::2] = map(neg, signed[1::2])
        rows[j][0] += sum(signed)
        for i in range(1, n - j + 1):
            row = rows[i + j]
            stop = i * (n - i - j + 2)
            row[i:stop:i] = map(add, row[i:stop:i], signed[i:])
    num = LaurentPoly.from_rows({s: (0, row) for s, row in enumerate(rows)})
    return num.exact_div(n)


def _y1_numerator(n: int) -> list:
    """(1-q)^n times the y=1 specialisation, as one dense q-row: the sum
    in partition_polynomial_y1's form.

    With i fixed, the exponent runs i, 2i, 3i, ... as k runs from i to n,
    so each i is one strided slice-add into the row.
    """
    # signed[k] = (-1)^k (binom(2n,n-k) - binom(2n,n-k-2)), for k = 0..n
    signed = [binomial(2 * n, n - k) - binomial(2 * n, n - k - 2) for k in range(n + 1)]
    signed[1::2] = map(neg, signed[1::2])
    row = [0] * ((n + 1) ** 2 // 4 + 1)  # i(n+1-i) <= (n+1)^2/4
    row[0] = sum(signed)
    for i in range(1, n + 1):
        stop = i * (n - i + 2)
        row[i:stop:i] = map(add, row[i:stop:i], signed[i:])
    return row


@lru_cache(maxsize=None)
def partition_polynomial_y1(n: int) -> LaurentPoly:
    """The y=1 specialisation, from its own central-binomial form:

        (1/(1-q)^n) * sum_k (-1)^k (binom(2n,n-k) - binom(2n,n-k-2))
            * sum_{i=0..k} q^(i(k+1-i)).
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    return LaurentPoly.from_rows({0: (0, _y1_numerator(n))}).exact_div(n)


def y1_low_coefficients(n: int, stop: int) -> list[int]:
    """The coefficients of q^0 .. q^(stop-1) in the y=1 specialisation.

    The first stop coefficients of a quotient by (1-q)^n depend only on the
    first stop coefficients of the dividend, so this takes n prefix-sum
    passes over those alone.  It therefore cannot see whether the whole
    division is exact, as partition_polynomial_y1 does; the tests compare
    the two at every size and column ``pasep table`` takes.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    row = _y1_numerator(n)[:stop]
    row += [0] * (stop - len(row))
    for _ in range(n):
        row = list(accumulate(row))
    return row


@lru_cache(maxsize=None)
def _q_int_power(j: int, n: int) -> LaurentPoly:
    """[j]_q^n, shared by every (m, i) with m - i = j.

    Computed as (1 - q^j)^n / (1 - q)^n: the binomial expansion, then n
    prefix-sum passes, far cheaper than squaring the dense [j]_q.
    """
    num = LaurentPoly({(j * i, 0): (-1) ** i * binomial(n, i) for i in range(n + 1)})
    return num.exact_div(n)


def y_coefficient_formula(m: int, n: int) -> LaurentPoly:
    """Closed form for the coefficient of y^m in the partition polynomial:

        sum_{i=0}^{m-1} (-1)^i [m-i]_q^n q^(mi-m^2) (binom(n,i) q^(m-i) + binom(n,i-1))
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    total = ZERO
    for i in range(m):
        # The two-term factor takes the sign and the shift, so the large
        # power is multiplied once.
        factor = (
            LaurentPoly.monomial(binomial(n, i), m - i, 0)
            + LaurentPoly.monomial(binomial(n, i - 1))
        ) * LaurentPoly.monomial((-1) ** i, m * i - m * m, 0)
        total = total + _q_int_power(m - i, n) * factor
    return total


def partition_polynomial_via_williams(n: int) -> LaurentPoly:
    """The partition polynomial of size n, summed over y^m from its
    coefficient formulas."""
    if n < 1:
        raise ValueError("n >= 1 required")
    total = ZERO
    for m in range(1, n + 1):
        total = total + LaurentPoly.monomial(1, 0, m) * y_coefficient_formula(m, n)
    return total


@lru_cache(maxsize=None)
def matching_closed_form(n: int) -> LaurentPoly:
    """Crossing polynomial of perfect matchings of 2n points:

        (1/(1-q)^n) sum_k (-1)^k (binom(2n,n-k) - binom(2n,n-k-1)) q^(k(k+1)/2)
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    # The exponents k(k+1)/2 are distinct, so no two terms share a key.
    num = LaurentPoly(
        {
            (k * (k + 1) // 2, 0): (-1) ** k
            * (binomial(2 * n, n - k) - binomial(2 * n, n - k - 1))
            for k in range(n + 1)
        }
    )
    return num.exact_div(n)


def low_order_coefficients(n: int) -> tuple[int, int, int, int]:
    """The first four q-coefficients of the y=1 polynomial in closed form:

        C_n,  binom(2n,n-3),  (n/2) binom(2n,n-4),  ((n+1)(n+2)/6) binom(2n,n-5).
    """
    c0 = catalan(n)
    c1 = binomial(2 * n, n - 3)
    num2 = n * binomial(2 * n, n - 4)
    if num2 % 2:
        raise ArithmeticError("q^2 closed form is not an integer")
    num3 = (n + 1) * (n + 2) * binomial(2 * n, n - 5)
    if num3 % 6:
        raise ArithmeticError("q^3 closed form is not an integer")
    return c0, c1, num2 // 2, num3 // 6


_Q10_POLY = (
    (13, 1),
    (12, 70),
    (11, 2093),
    (10, 32354),
    (9, 228543),
    (8, -318990),
    (7, -17493961),
    (6, -104051458),
    (5, -6828164),
    (4, 2022876520),
    (3, 6310831968),
    (2, 5832578304),
    (1, 14397419520),
    (0, 5748019200),
)


def q10_coefficient(n: int) -> int:
    """Closed form for the q^10 coefficient of the y=1 polynomial (0 for n < 8)."""
    if n < 8:
        return 0
    from fractions import Fraction

    poly = sum(c * n**e for e, c in _Q10_POLY)
    value = Fraction(factorial(2 * n) * poly) / Fraction(
        factorial(10) * factorial(n + 12) * factorial(n - 8)
    )
    if value.denominator != 1:
        raise ArithmeticError("q^10 closed form is not an integer")
    return int(value)


def narayana_number(n: int, m: int) -> int:
    """N(n,m) = (1/n) binom(n,m) binom(n,m-1)."""
    num = binomial(n, m) * binomial(n, m - 1)
    if num % n:
        raise ArithmeticError("Narayana formula did not divide evenly")
    return num // n


def narayana_violations(n: int) -> list[str]:
    """Where, at q=0, the coefficient of y^m is not the Narayana number N(n,m)."""
    at0 = partition_polynomial(n).eval_q(0)
    violations = []
    for m in range(0, n + 2):
        got = at0.coeff(0, m)
        want = narayana_number(n, m) if 1 <= m <= n else 0
        if got != want:
            violations.append(f"y^{m}: got {got}, want {want}")
    return violations


def q1_y_coefficient(n: int, m: int) -> int:
    """Closed form for the coefficient of q y^m: binom(n,m+1) binom(n,m-2)."""
    return binomial(n, m + 1) * binomial(n, m - 2)


def q2_y_coefficient(n: int, m: int) -> int:
    """Closed form for the coefficient of q^2 y^m:

        binom(n+1,m-2) binom(n+1,m+2) (nm + m - m^2 - 4) / (2(n+1)).
    """
    num = (
        binomial(n + 1, m - 2)
        * binomial(n + 1, m + 2)
        * (n * m + m - m * m - 4)
    )
    den = 2 * (n + 1)
    if num % den:
        raise ArithmeticError("q^2 y^m closed form is not an integer")
    return num // den


def asymptotic_ratio(m: int, n: int) -> float:
    """Exact [q^m] coefficient of the y=1 polynomial divided by the growth
    estimate 4^n n^(m-3/2) / (sqrt(pi) m!).  The huge factors cancel
    exactly before the one rounding to float.  m runs up to the top power
    of q at size n, (n-1)^2 // 4; a larger m, as in a call with m and n
    swapped, raises ValueError."""
    if n < 1 or not 0 <= m <= (n - 1) ** 2 // 4:
        raise ValueError(
            f"asymptotic_ratio(m={m}, n={n}) needs n >= 1 and 0 <= m <= (n-1)^2 // 4"
        )
    from fractions import Fraction

    coeff = partition_polynomial_y1(n).coeff(m, 0)
    return float(Fraction(coeff * factorial(m), 4**n)) * sqrt(pi) * n ** (1.5 - m)


__all__ = [
    "partition_polynomial",
    "partition_polynomial_y1",
    "y1_low_coefficients",
    "y_coefficient_formula",
    "partition_polynomial_via_williams",
    "matching_closed_form",
    "low_order_coefficients",
    "q10_coefficient",
    "narayana_number",
    "narayana_violations",
    "q1_y_coefficient",
    "q2_y_coefficient",
    "asymptotic_ratio",
]
