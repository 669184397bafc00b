"""Exact Laurent polynomials in the two variables q and y.

A polynomial is held as its rows: a map from each power ``e_y`` of y that
occurs to ``(lo, row)``, where ``row`` lists the coefficients of
``q^lo, q^(lo+1), ...`` densely.  Every row is trimmed, so its first and last
entries are nonzero, and the empty map is the zero polynomial; equal
polynomials therefore have equal rows.  Either exponent may be negative.
Rows are never modified once they belong to a polynomial, so values share
them freely and are immutable after construction.

Ring operations combine rows by C-level slice arithmetic (``map``,
``accumulate``) instead of per-term updates.  A term map ``{(e_q, e_y): c}``
is built only at the boundary: ``terms``, serialisation, substitution and
general long division.  The canonical term order used everywhere
(serialisation, pretty printing) is lexicographic on ``(e_q, e_y)``,
ascending.

Coefficients stay plain ``int`` under ring operations.  Substituting a
rational value for a variable (``eval_q`` / ``eval_y``) may produce
``fractions.Fraction`` coefficients; integral fractions are normalised back
to ``int``.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from math import comb
from operator import add, mul, neg, sub


class NotDivisible(ArithmeticError):
    """Raised when exact_div has no exact quotient in the integer Laurent ring."""


class PoleAtZero(ZeroDivisionError):
    """Raised when substituting 0 into a variable with negative exponents."""


@dataclass(frozen=True)
class ExponentBounds:
    """Min/max exponents of a nonzero polynomial, per variable."""

    q_min: int
    q_max: int
    y_min: int
    y_max: int


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
    def from_int(cls, c: int) -> "LaurentPoly":
        return cls._raw({0: (0, [c])} if c else {})

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

    def coeff_y(self, e_y: int) -> "LaurentPoly":
        """The coefficient of y**e_y, as a polynomial in q."""
        row = self._rows.get(e_y)
        return LaurentPoly._raw({0: row} if row else {})

    def y_support(self):
        return sorted(self._rows)

    def bounds(self) -> ExponentBounds | None:
        if not self._rows:
            return None
        rows = self._rows.values()
        return ExponentBounds(
            min(lo for lo, _ in rows),
            max(lo + len(row) - 1 for lo, row in rows),
            min(self._rows),
            max(self._rows),
        )

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.from_int(other)
        return None

    def __add__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._rows, other._rows
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for ey, (lo, row) in b.items():
            _add_row(out, ey, lo, row)
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(
            {ey: (lo, list(map(neg, row))) for ey, (lo, row) in self._rows.items()}
        )

    def __sub__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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
        if len(b) == 1:
            (yb, (lb, rb)), = b.items()
            if len(rb) == 1:  # a monomial factor shifts the rows
                c = rb[0]
                return LaurentPoly._raw(
                    {
                        ya + yb: (la + lb, ra if c == 1 else list(map(mul, ra, repeat(c))))
                        for ya, (la, ra) in a.items()
                    }
                )
        elif not b:
            return ZERO
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
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(
            frozenset((ey, lo, tuple(row)) for ey, (lo, row) in self._rows.items())
        )

    # -- division ----------------------------------------------------------

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other in the integer Laurent ring.

        Raises NotDivisible when no exact quotient with integer coefficients
        exists; raises ZeroDivisionError for a zero divisor.
        """
        other = LaurentPoly._coerce(other)
        if other is None or other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return ZERO
        # Is other +-q^a y^b (1-q)^k, i.e. one y-row carrying the signed
        # binomial coefficients?
        if len(other._rows) == 1:
            (ey, (lo, row)), = other._rows.items()
            k = len(row) - 1
            sign = row[0]
            if sign in (1, -1) and all(
                c == sign * (-1) ** i * comb(k, i) for i, c in enumerate(row)
            ):
                return self._div_one_minus_q_power(k, sign, lo, ey)
        return self._heap_div(other)

    def _div_one_minus_q_power(self, k: int, sign: int, q_shift: int, y_shift: int):
        """self / (sign * q^q_shift * y^y_shift * (1-q)^k), for sign = +-1.

        Dividing a q-row by (1 - q) takes its prefix sums; the division is
        exact exactly when the last prefix sum (the row sum) is zero.  The
        quotient's rows stay trimmed: their first entry is the dividend's and
        their last is +-the dividend's last.
        """
        out = {}
        for ey, (lo, row) in self._rows.items():
            for _ in range(k):
                row = list(accumulate(row))
                if row.pop():
                    raise NotDivisible(
                        f"no exact quotient (y^{ey} row is not divisible by (1-q)^{k})"
                    )
            out[ey - y_shift] = (lo - q_shift, row if sign == 1 else list(map(neg, row)))
        return LaurentPoly._raw(out)

    def _heap_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient by general long division on a max-heap of terms."""
        ab, bb = self.bounds(), other.bounds()
        # Shift both operands to plain polynomials; undo the shift at the end.
        shift = (ab.q_min - bb.q_min, ab.y_min - bb.y_min)
        rem = {(eq - ab.q_min, ey - ab.y_min): c for eq, ey, c in self.terms()}
        div = {(eq - bb.q_min, ey - bb.y_min): c for eq, ey, c in other.terms()}
        lead = max(div)
        lead_c = div[lead]
        quot: dict = {}
        heap = [(-k[0], -k[1]) for k in rem]
        heapq.heapify(heap)
        while heap:
            nk = heapq.heappop(heap)
            k = (-nk[0], -nk[1])
            c = rem.get(k)
            if not c:
                continue
            te = (k[0] - lead[0], k[1] - lead[1])
            if te[0] < 0 or te[1] < 0 or c % lead_c:
                raise NotDivisible(f"no exact quotient (stuck at term {k})")
            qc = c // lead_c
            quot[te] = quot.get(te, 0) + qc
            for e, bc in div.items():
                kk = (te[0] + e[0], te[1] + e[1])
                v = rem.get(kk, 0) - qc * bc
                if v:
                    if kk not in rem:
                        heapq.heappush(heap, (-kk[0], -kk[1]))
                    rem[kk] = v
                else:
                    rem.pop(kk, None)
        if rem:
            raise NotDivisible("nonzero remainder")
        return LaurentPoly(
            {(eq + shift[0], ey + shift[1]): c for (eq, ey), c in quot.items()}
        )

    # -- substitution -------------------------------------------------------

    def eval_q(self, value) -> "LaurentPoly":
        """Substitute an exact value (int or Fraction) for q."""
        return self._eval(0, value)

    def eval_y(self, value) -> "LaurentPoly":
        """Substitute an exact value (int or Fraction) for y."""
        return self._eval(1, value)

    def _eval(self, axis: int, value):
        terms = {(eq, ey): c for eq, ey, c in self.terms()}
        if value == 0:
            if any(k[axis] < 0 for k in terms):
                raise PoleAtZero("substituting 0 into a negative power")
            return LaurentPoly({k: c for k, c in terms.items() if k[axis] == 0})
        v = Fraction(value)
        acc: dict = {}
        for (eq, ey), c in terms.items():
            e = (eq, ey)[axis]
            key = (0, ey) if axis == 0 else (eq, 0)
            acc[key] = acc.get(key, 0) + c * v**e
        return LaurentPoly(
            {
                k: int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
                for k, c in acc.items()
            }
        )

    def to_int(self) -> int:
        """The value of a constant polynomial (zero or a single (0,0) term)."""
        if self.is_zero:
            return 0
        if self.bounds() == ExponentBounds(0, 0, 0, 0):
            return self._rows[0][1][0]
        raise ValueError("polynomial is not constant")

    # -- serialisation ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {"q": eq, "y": ey, "c": str(c)} for eq, ey, c in self.terms()
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LaurentPoly":
        terms = {}
        for t in obj["terms"]:
            c = t["c"]
            if isinstance(c, str):
                c = Fraction(c)
                c = int(c) if c.denominator == 1 else c
            terms[(int(t["q"]), int(t["y"]))] = c
        return cls(terms)

    @classmethod
    def from_json(cls, s: str) -> "LaurentPoly":
        return cls.from_json_obj(json.loads(s))

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
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"LaurentPoly({self.pretty()})"

    __str__ = pretty


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
        qp = _power_str("q", eq)
        if not qp:
            s = str(c)
        elif c == 1:
            s = qp
        elif c == -1:
            s = "-" + qp
        else:
            s = f"{c}*{qp}"
        parts.append(s)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


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
ONE = LaurentPoly.from_int(1)
Q = LaurentPoly.monomial(1, 1, 0)
Y = LaurentPoly.monomial(1, 0, 1)
ONE_MINUS_Q = ONE - Q

__all__ = [
    "LaurentPoly",
    "ExponentBounds",
    "NotDivisible",
    "PoleAtZero",
    "ZERO",
    "ONE",
    "Q",
    "Y",
    "ONE_MINUS_Q",
]
