"""Exact Laurent polynomials in the two variables q and y.

A polynomial is held as its rows: a map from each power ``e_y`` of y that
occurs to ``(lo, row)``, where ``row`` is a list of the coefficients of
``q^lo, q^(lo+1), ...``, dense.  Every row is a list, whatever sequence a
caller hands ``from_rows``, and every row is trimmed, so its first and last
entries are nonzero; the empty map is the zero polynomial.  Equal
polynomials therefore have equal rows.  Either exponent may be negative.
Rows are never modified once they belong to a polynomial, so values share
them freely and are immutable after construction.

Ring operations combine rows by C-level slice arithmetic (``map``,
``accumulate``) instead of per-term updates.  A term map ``{(e_q, e_y): c}``
is built only at the boundary: ``terms``, serialisation and substitution for y.
The one divisor the formulas need is (1-q)^k, and ``exact_div`` takes its
power k.  The canonical term order used everywhere (serialisation, pretty
printing) is lexicographic on ``(e_q, e_y)``, ascending.

Coefficients stay plain ``int`` under ring operations.  Substituting a
rational value for a variable (``eval_q`` / ``eval_y``) may produce
``fractions.Fraction`` coefficients; integral fractions are normalised back
to ``int``.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate, chain, islice, repeat
from operator import add, mul, neg, sub


class NotDivisible(ArithmeticError):
    """Raised when exact_div has no exact quotient in the integer Laurent ring."""


class PoleAtZero(ZeroDivisionError):
    """Raised when substituting 0 into a variable with negative exponents."""


class LaurentPoly:
    __slots__ = ("_rows",)

    def __init__(self, terms=None):
        by_y = defaultdict(dict)
        if terms:
            for (eq, ey), c in terms.items():
                if c:
                    by_y[int(ey)][int(eq)] = c
        rows = {}
        for ey, group in by_y.items():
            lo = min(group)
            rows[ey] = (lo, list(map(group.get, range(lo, max(group) + 1), repeat(0))))
        self._rows = rows

    @classmethod
    def _raw(cls, rows: dict) -> "LaurentPoly":
        # internal: rows must already be trimmed and nonempty
        self = object.__new__(cls)
        self._rows = rows
        return self

    @classmethod
    def from_rows(cls, rows: dict) -> "LaurentPoly":
        """The polynomial sum_{e_y} y^e_y q^lo (row[0] + row[1] q + ...), from
        dense rows {e_y: (lo, row)}.  Each row is trimmed and an all-zero row
        dropped; a row that is not a list is copied into one.  A list may
        become the polynomial's own, so the caller must not modify it
        afterwards."""
        out = {}
        for ey, (lo, row) in rows.items():
            if not isinstance(row, list):
                row = list(row)
            trimmed = _trim(lo, row) if row else None
            if trimmed:
                out[ey] = trimmed
        return cls._raw(out)

    @classmethod
    def monomial(cls, c: int, e_q: int = 0, e_y: int = 0) -> "LaurentPoly":
        return cls._raw({e_y: (e_q, [c])} if c else {})

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def terms(self):
        """Yield (e_q, e_y, coeff) in canonical order."""
        yield from sorted(
            (lo + i, ey, c)
            for ey, (lo, row) in self._rows.items()
            for i, c in enumerate(row)
            if c
        )

    def __len__(self):
        """The number of nonzero terms."""
        return sum(len(row) - row.count(0) for _, row in self._rows.values())

    def coeff(self, e_q: int, e_y: int):
        lo, row = self._rows.get(e_y, (0, ()))
        return row[e_q - lo] if 0 <= e_q - lo < len(row) else 0

    def y_support(self):
        return sorted(self._rows)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._rows, other._rows
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for ey, (lo, row) in b.items():
            _add_row(out, ey, lo, row)
        return LaurentPoly._raw(out)

    def __neg__(self):
        return LaurentPoly._raw(
            {ey: (lo, list(map(neg, row))) for ey, (lo, row) in self._rows.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return ZERO
            return LaurentPoly._raw(
                {
                    ey: (lo, list(map(mul, row, repeat(other))))
                    for ey, (lo, row) in self._rows.items()
                }
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._rows, other._rows
        if len(a) < len(b):
            a, b = b, a
        return LaurentPoly._raw(_row_product(a, b))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._rows == other._rows

    # -- division ----------------------------------------------------------

    def exact_div(self, k: int) -> "LaurentPoly":
        """Exact quotient self / (1-q)^k.

        Dividing a q-row by (1 - q) takes its prefix sums; the division is
        exact exactly when the last prefix sum (the row sum) is zero.  The
        quotient's rows stay trimmed: their first entry is the dividend's and
        their last is +-the dividend's last.

        Raises ValueError for k < 0, and NotDivisible when no exact quotient
        with integer coefficients exists.
        """
        if k < 0:
            raise ValueError("only nonnegative powers of (1-q) are supported")
        out = {}
        for ey, (lo, row) in self._rows.items():
            for _ in range(k):
                row = list(accumulate(row))
                if row.pop():
                    raise NotDivisible(
                        f"no exact quotient (y^{ey} row is not divisible by (1-q)^{k})"
                    )
            out[ey] = (lo, row)
        return LaurentPoly._raw(out)

    # -- substitution -------------------------------------------------------

    def eval_q(self, value) -> "LaurentPoly":
        """Substitute an exact value (int or Fraction) for q."""
        return self._eval(0, value)

    def eval_y(self, value) -> "LaurentPoly":
        """Substitute an exact value (int or Fraction) for y."""
        return self._eval(1, value)

    def _eval(self, axis: int, value):
        from fractions import Fraction

        v = Fraction(value)
        # Rows are trimmed, so the least exponent on the axis has a term.
        if not v and self._rows and min(
            (lo for lo, _ in self._rows.values()) if axis == 0 else self._rows
        ) < 0:
            raise PoleAtZero("substituting 0 into a negative power")
        acc: dict = {}
        if axis == 0:
            # Each row in one integer Horner pass: with v = num/den, the row
            # c_0..c_m at q^lo sums to v^lo (sum_i c_i num^i den^(m-i)) / den^m.
            num, den = v.numerator, v.denominator
            for ey, (lo, row) in self._rows.items():
                h, npow = 0, 1
                for c in row:
                    h = h * den + c * npow
                    npow *= num
                acc[(0, ey)] = Fraction(h, den ** (len(row) - 1)) * v**lo
        else:
            for eq, ey, c in self.terms():
                acc[(eq, 0)] = acc.get((eq, 0), 0) + c * v**ey
        return LaurentPoly(
            {
                k: int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
                for k, c in acc.items()
            }
        )

    def to_int(self) -> int:
        """The value of a constant polynomial (zero or a single (0,0) term)."""
        rows = self._rows
        if not rows:
            return 0
        if rows.keys() == {0} and rows[0][0] == 0 and len(rows[0][1]) == 1:
            return rows[0][1][0]
        raise ValueError("polynomial is not constant")

    # -- serialisation ------------------------------------------------------

    def to_json(self) -> str:
        """{"terms":[{"q":e_q,"y":e_y,"c":"c"},...]} in canonical order, compact.

        A coefficient is an int or a Fraction, whose str needs no escaping.
        """
        return '{"terms":[' + ",".join(
            f'{{"q":{eq},"y":{ey},"c":"{c}"}}' for eq, ey, c in self.terms()
        ) + "]}"

    # -- display ------------------------------------------------------------

    def pretty(self) -> str:
        """A readable string, grouped by descending power of y."""
        if self.is_zero:
            return "0"
        parts = []
        for ey in sorted(self._rows, reverse=True):
            qpart = _q_poly_str(*self._rows[ey])
            ypart = _power_str("y", ey)
            if not ypart:
                parts.append(qpart)
            elif qpart == "1":
                parts.append(ypart)
            elif qpart == "-1":
                parts.append("-" + ypart)
            elif ("+" in qpart[1:]) or ("-" in qpart[1:]) or qpart.startswith("-"):
                parts.append(f"({qpart})*{ypart}")
            else:
                parts.append(f"{qpart}*{ypart}")
        return _signed_join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.pretty()})"


def _power_str(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def _q_poly_str(lo: int, row: list) -> str:
    parts = []
    for eq, c in enumerate(row, lo):
        if not c:
            continue
        if eq == 0:
            parts.append(str(c))
        else:
            qp = "q" if eq == 1 else f"q^{eq}"
            parts.append(qp if c == 1 else "-" + qp if c == -1 else f"{c}*{qp}")
    return _signed_join(parts)


def _signed_join(parts: list) -> str:
    """The parts joined by " + ", or by " - " before a part that starts with
    "-".  No part holds " + -" itself: a q-row part has no space, and a
    part holding a q-row was joined this way."""
    return " + ".join(parts).replace(" + -", " - ")


def _trim(lo: int, row: list) -> tuple[int, list] | None:
    """(lo, row) without its zeros at either end; None if the row is all zero."""
    if row[0] and row[-1]:
        return lo, row
    end = len(row)
    while end and not row[end - 1]:
        end -= 1
    if not end:
        return None
    start = 0
    while not row[start]:
        start += 1
    return lo + start, row[start:end]


def _window_sums(row: list, m: int) -> list:
    """Coefficients of row(q) * (1 + q + ... + q^(m-1))."""
    if m == 1:
        return row
    out = list(accumulate(chain(row, repeat(0, m - 1))))
    # Entry i of the prefix sums minus entry i - m leaves the window sum.
    out[m:] = map(sub, islice(out, m, None), out)
    return out


def _add_row(rows: dict, ey: int, lo: int, row: list) -> None:
    """rows[ey] += q^lo row, keeping rows trimmed; the lists are not modified."""
    cur = rows.get(ey)
    if cur is None:
        rows[ey] = (lo, row)
        return
    la, ra = cur
    if la > lo:
        la, ra, lo, row = lo, row, la, ra
    start = lo - la
    end = start + len(row)
    out = ra + [0] * (end - len(ra)) if end > len(ra) else ra[:]
    out[start:end] = map(add, out[start:end], row)
    trimmed = _trim(la, out)
    if trimmed:
        rows[ey] = trimmed
    else:
        del rows[ey]


def _row_product(a: dict, b: dict) -> dict:
    """The rows of a * b: the sum of the products of every pair of rows.

    A pair whose shorter row is all ones, q^lo [m]_q, is a window sum of the
    longer row; any other pair takes one slice-add per nonzero coefficient of
    the shorter row.  A product of two nonzero rows is nonzero and trimmed.
    """
    rows: dict = {}
    for ya, (la, ra) in a.items():
        for yb, (lb, rb) in b.items():
            short, long = (ra, rb) if len(ra) <= len(rb) else (rb, ra)
            if short.count(1) == len(short):
                out = _window_sums(long, len(short))
            else:
                width = len(long)
                out = [0] * (len(short) + width - 1)
                for i, c in enumerate(short):
                    if c == 1:
                        out[i:i + width] = map(add, out[i:i + width], long)
                    elif c:
                        out[i:i + width] = map(
                            add, out[i:i + width], map(mul, long, repeat(c))
                        )
            _add_row(rows, ya + yb, la + lb, out)
    return rows


ZERO = LaurentPoly._raw({})
ONE = LaurentPoly.monomial(1)
Q = LaurentPoly.monomial(1, 1, 0)
Y = LaurentPoly.monomial(1, 0, 1)

__all__ = [
    "LaurentPoly",
    "NotDivisible",
    "PoleAtZero",
    "ZERO",
    "ONE",
    "Q",
    "Y",
]
