"""Exact sparse Laurent polynomials in the two variables q and y.

A polynomial is a finite map from exponent pairs ``(e_q, e_y)`` (either may
be negative) to nonzero arbitrary-precision integer coefficients.  The empty
map is the zero polynomial.  Equality is equality of canonical term maps, and
the canonical term order used everywhere (serialisation, pretty printing) is
lexicographic on ``(e_q, e_y)``, ascending.

Coefficients stay plain ``int`` under ring operations.  Substituting a
rational value for a variable (``eval_q`` / ``eval_y``) may produce
``fractions.Fraction`` coefficients; integral fractions are normalised back
to ``int``.

Values are immutable after construction, so they are safe to share freely.

Large products and divisions by powers of (1 - q) work on dense rows: the
terms of one power of y as a q offset and a list of coefficients, combined by
C-level slice arithmetic (``map``/``accumulate``) instead of per-term dict
updates.  The term map stays the one representation between operations.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from math import comb
from operator import add, mul, neg

# A product with at least this many term pairs is computed on dense rows.
_DENSE_CUTOFF = 64


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
    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for key, c in terms.items():
                if c:
                    eq, ey = key
                    t[(int(eq), int(ey))] = t.get((eq, ey), 0) + c
            t = {k: c for k, c in t.items() if c}
        object.__setattr__(self, "_terms", t)

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        # internal: terms must already be canonical (no zeros)
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        return self

    @classmethod
    def from_int(cls, c: int) -> "LaurentPoly":
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def monomial(cls, c: int, e_q: int = 0, e_y: int = 0) -> "LaurentPoly":
        return cls._raw({(e_q, e_y): c} if c else {})

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Yield (e_q, e_y, coeff) in canonical order."""
        for key in sorted(self._terms):
            yield key[0], key[1], self._terms[key]

    def __len__(self):
        return len(self._terms)

    def coeff(self, e_q: int, e_y: int):
        return self._terms.get((e_q, e_y), 0)

    def coeff_y(self, e_y: int) -> "LaurentPoly":
        """The coefficient of y**e_y, as a polynomial in q."""
        return LaurentPoly._raw(
            {(eq, 0): c for (eq, ey), c in self._terms.items() if ey == e_y}
        )

    def y_support(self):
        return sorted({ey for (_, ey) in self._terms})

    def bounds(self) -> ExponentBounds | None:
        if not self._terms:
            return None
        qs = [eq for (eq, _) in self._terms]
        ys = [ey for (_, ey) in self._terms]
        return ExponentBounds(min(qs), max(qs), min(ys), max(ys))

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
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({k: -c for k, c in self._terms.items()})

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
            return LaurentPoly._raw({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) * len(b) >= _DENSE_CUTOFF:
            return LaurentPoly._raw(_dense_mul(a, b))
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for (e1, f1), c1 in a.items():
            for (e2, f2), c2 in b.items():
                k = (e1 + e2, f1 + f2)
                v = out.get(k, 0) + c1 * c2
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        return LaurentPoly._raw(out)

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
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

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
        # Is other +-q^a y^b (1-q)^k, i.e. k + 1 terms on one y-row carrying
        # the signed binomial coefficients?
        bb = other.bounds()
        k = len(other) - 1
        sign = other.coeff(bb.q_min, bb.y_min)
        if sign in (1, -1) and all(
            other.coeff(bb.q_min + i, bb.y_min) == sign * (-1) ** i * comb(k, i)
            for i in range(k + 1)
        ):
            return self._div_one_minus_q_power(k, sign, bb.q_min, bb.y_min)
        return self._heap_div(other)

    def _div_one_minus_q_power(self, k: int, sign: int, q_shift: int, y_shift: int):
        """self / (sign * q^q_shift * y^y_shift * (1-q)^k), for sign = +-1.

        Dividing a q-row by (1 - q) takes its prefix sums; the division is
        exact exactly when the last prefix sum (the row sum) is zero.
        """
        out = {}
        for ey, (lo, row) in _rows(self._terms).items():
            for _ in range(k):
                row = list(accumulate(row))
                if row.pop():
                    raise NotDivisible(
                        f"no exact quotient (y^{ey} row is not divisible by (1-q)^{k})"
                    )
            out[ey - y_shift] = (lo - q_shift, row if sign == 1 else list(map(neg, row)))
        return LaurentPoly._raw(_terms_from_rows(out))

    def _heap_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient by general long division on a max-heap of terms."""
        ab, bb = self.bounds(), other.bounds()
        # Shift both operands to plain polynomials; undo the shift at the end.
        shift = (ab.q_min - bb.q_min, ab.y_min - bb.y_min)
        rem = {(eq - ab.q_min, ey - ab.y_min): c for (eq, ey), c in self._terms.items()}
        div = {(eq - bb.q_min, ey - bb.y_min): c for (eq, ey), c in other._terms.items()}
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
        return LaurentPoly._raw(
            {(eq + shift[0], ey + shift[1]): c for (eq, ey), c in quot.items() if c}
        )

    # -- substitution -------------------------------------------------------

    def eval_q(self, value) -> "LaurentPoly":
        """Substitute an exact value (int or Fraction) for q."""
        return self._eval(0, value)

    def eval_y(self, value) -> "LaurentPoly":
        """Substitute an exact value (int or Fraction) for y."""
        return self._eval(1, value)

    def _eval(self, axis: int, value):
        if value == 0:
            if any(k[axis] < 0 for k in self._terms):
                raise PoleAtZero("substituting 0 into a negative power")
            out = {}
            for (eq, ey), c in self._terms.items():
                if (eq, ey)[axis] == 0:
                    out[(eq, ey)] = c
            return LaurentPoly._raw(out)
        v = Fraction(value)
        acc: dict = {}
        for (eq, ey), c in self._terms.items():
            e = (eq, ey)[axis]
            key = (0, ey) if axis == 0 else (eq, 0)
            acc[key] = acc.get(key, 0) + c * v**e
        out = {}
        for k, c in acc.items():
            if c == 0:
                continue
            if isinstance(c, Fraction) and c.denominator == 1:
                c = int(c)
            out[k] = c
        return LaurentPoly._raw(out)

    def to_int(self) -> int:
        """The value of a constant polynomial (zero or a single (0,0) term)."""
        if self.is_zero:
            return 0
        if set(self._terms) == {(0, 0)}:
            return self._terms[(0, 0)]
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
        groups = {}
        for (eq, ey), c in self._terms.items():
            groups.setdefault(ey, {})[eq] = c
        parts = []
        for ey in sorted(groups, reverse=True):
            qpart = _q_poly_str(groups[ey])
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


def _q_poly_str(qterms: dict) -> str:
    parts = []
    for eq in sorted(qterms):
        c = qterms[eq]
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


def _rows(terms: dict) -> dict:
    """The terms grouped by power of y: e_y -> (q offset, dense coefficients)."""
    by_y = defaultdict(dict)
    for (eq, ey), c in terms.items():
        by_y[ey][eq] = c
    rows = {}
    for ey, group in by_y.items():
        lo = min(group)
        rows[ey] = (lo, list(map(group.get, range(lo, max(group) + 1), repeat(0))))
    return rows


def _dense_mul(a: dict, b: dict) -> dict:
    """The term map of a * b, convolving each pair of y-rows by slice-adds."""
    rows_a, rows_b = _rows(a), _rows(b)
    spans: dict = {}  # product e_y -> (lowest, highest) q exponent reached
    for ya, (la, ra) in rows_a.items():
        for yb, (lb, rb) in rows_b.items():
            lo, hi = la + lb, la + lb + len(ra) + len(rb) - 2
            span = spans.get(ya + yb)
            if span is not None:
                lo, hi = min(lo, span[0]), max(hi, span[1])
            spans[ya + yb] = (lo, hi)
    acc = {ey: [0] * (hi - lo + 1) for ey, (lo, hi) in spans.items()}
    for ya, (la, ra) in rows_a.items():
        for yb, (lb, rb) in rows_b.items():
            ey = ya + yb
            out = acc[ey]
            start = la + lb - spans[ey][0]
            short, long = (ra, rb) if len(ra) <= len(rb) else (rb, ra)
            width = len(long)
            for i, c in enumerate(short, start):
                if c == 1:
                    out[i:i + width] = map(add, out[i:i + width], long)
                elif c:
                    out[i:i + width] = map(add, out[i:i + width], map(mul, long, repeat(c)))
    return _terms_from_rows({ey: (spans[ey][0], out) for ey, out in acc.items()})


def _terms_from_rows(rows: dict) -> dict:
    """The inverse of _rows: the nonzero entries as a term map."""
    terms: dict = {}
    for ey, (lo, row) in rows.items():
        keys = zip(range(lo, lo + len(row)), repeat(ey))
        terms.update(compress(zip(keys, row), row))
    return terms


ZERO = LaurentPoly._raw({})
ONE = LaurentPoly._raw({(0, 0): 1})
Q = LaurentPoly._raw({(1, 0): 1})
Y = LaurentPoly._raw({(0, 1): 1})
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
