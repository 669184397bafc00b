"""Rook placements on Young diagrams, their weights, and the ladder of
summation formulas that evaluates the hat-operator scalar products.

Shapes are boundary words, not partitions: a diagram of half-perimeter n is a
word of n letters over {V, H}, each H naming a column and each V a row, and
the cell at (row v, column h) exists exactly when position h precedes
position v in the word.  Rows and columns of length zero are distinct
objects; the words "V" and "H" are the two diagrams of half-perimeter 1.
In the drawn (French) picture, columns with smaller word position sit to the
left and rows with larger word position sit lower, so the bottom row is the
longest.

A placement puts non-attacking rooks on cells.  A free cell is a *cross*
when no rook sits above it in its column (smaller v, same h) and no rook
sits to its right in its row (larger h, same v); this orientation matches
the inversion-number picture on square diagrams.  A placement with r rooks,
s crosses and t columns weighs p^r q^s y^t where p = (1-q)/q^2, and the sum
of weights over all placements of half-perimeter n equals the hat-operator
scalar product <W|(yD^+E^)^n|V>.

The sums T(j,k,n) restrict to placements with exactly k columns, j of them
rookless ("lines" resolved to columns by desk check).  They factor through a
q-binomial (check_factorization), satisfy a one-step recurrence
(t0_recurrence), and admit an alternating closed form (t0_closed, which
carries the y^k factor that the bare alternating sum omits).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import ansatz
from .laurent import ONE, Q, Y, ZERO, LaurentPoly
from .qcombinat import binomial, q_binomial, q_int
from .report import CheckReport

# p = (1-q)/q^2 = q^-2 - q^-1
P_WEIGHT = LaurentPoly.monomial(1, -2, 0) - LaurentPoly.monomial(1, -1, 0)

# Largest half-perimeter the exhaustive rook sums (and the rook route) take.
ROOK_CAP = 9


@dataclass(frozen=True)
class YoungBoundary:
    """A Young diagram carried as its boundary word over {V, H}."""

    word: tuple[str, ...]

    def __post_init__(self):
        if any(c not in ("V", "H") for c in self.word):
            raise ValueError("word letters must be 'V' or 'H'")

    @classmethod
    def parse(cls, text: str) -> "YoungBoundary":
        return cls(tuple(text))

    def serialize(self) -> str:
        return "".join(self.word)

    @property
    def n(self) -> int:
        return len(self.word)

    def columns(self) -> list[int]:
        """1-based word positions of the H letters."""
        return [i + 1 for i, c in enumerate(self.word) if c == "H"]

    def rows(self) -> list[int]:
        return [i + 1 for i, c in enumerate(self.word) if c == "V"]

    def cells(self) -> list[tuple[int, int]]:
        """All cells as (row position, column position) pairs, h < v."""
        cols = self.columns()
        return [(v, h) for v in self.rows() for h in cols if h < v]

    def cell_count(self) -> int:
        return len(self.cells())


def iter_boundaries(n: int):
    for word in product("VH", repeat=n):
        yield YoungBoundary(word)


@dataclass(frozen=True)
class RookPlacement:
    """A boundary word plus a set of rook cells, at most one per line."""

    shape: YoungBoundary
    rooks: frozenset[tuple[int, int]]

    def __post_init__(self):
        cells = set(self.shape.cells())
        vs = set()
        hs = set()
        for v, h in self.rooks:
            if (v, h) not in cells:
                raise ValueError(f"rook outside the diagram at {(v, h)}")
            if v in vs or h in hs:
                raise ValueError("two rooks share a line")
            vs.add(v)
            hs.add(h)

    def cross_cells(self) -> list[tuple[int, int]]:
        """Free cells with no rook above in their column nor right in their row."""
        col_min: dict[int, int] = {}
        row_max: dict[int, int] = {}
        for v, h in self.rooks:
            col_min[h] = min(col_min.get(h, v), v)
            row_max[v] = max(row_max.get(v, h), h)
        out = []
        for v, h in self.shape.cells():
            if (v, h) in self.rooks:
                continue
            if col_min.get(h, v + 1) < v:
                continue
            if row_max.get(v, h - 1) > h:
                continue
            out.append((v, h))
        return out

    def statistics(self) -> tuple[int, int, int]:
        """(rooks, crosses, columns)."""
        return len(self.rooks), len(self.cross_cells()), len(self.shape.columns())

    def weight(self) -> LaurentPoly:
        r, s, t = self.statistics()
        return P_WEIGHT**r * LaurentPoly.monomial(1, s, t)

    def to_json_obj(self) -> dict:
        return {
            "word": self.shape.serialize(),
            "rooks": sorted([v, h] for v, h in self.rooks),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RookPlacement":
        return cls(
            YoungBoundary.parse(obj["word"]),
            frozenset((v, h) for v, h in obj["rooks"]),
        )


def iter_placements(shape: YoungBoundary):
    """All placements on one shape."""
    rows = shape.rows()
    cols = shape.columns()

    def rec(i: int, used: frozenset, chosen: list[tuple[int, int]]):
        if i == len(rows):
            yield RookPlacement(shape, frozenset(chosen))
            return
        v = rows[i]
        yield from rec(i + 1, used, chosen)
        for h in cols:
            if h < v and h not in used:
                chosen.append((v, h))
                yield from rec(i + 1, used | {h}, chosen)
                chosen.pop()

    yield from rec(0, frozenset(), [])


def iter_all_placements(n: int):
    for shape in iter_boundaries(n):
        yield from iter_placements(shape)


@lru_cache(maxsize=None)
def _placement_profile(n: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """Multiset of (r, s, t, rookless_columns, count) over all placements."""
    acc: dict[tuple[int, int, int, int], int] = {}
    for pl in iter_all_placements(n):
        r, s, t = pl.statistics()
        jj = t - len({h for _, h in pl.rooks})
        key = (r, s, t, jj)
        acc[key] = acc.get(key, 0) + 1
    return tuple((r, s, t, jj, c) for (r, s, t, jj), c in sorted(acc.items()))


def _profile_sum(profile) -> LaurentPoly:
    out = ZERO
    pr: dict[int, LaurentPoly] = {}
    for r, s, t, _, c in profile:
        if r not in pr:
            pr[r] = P_WEIGHT**r
        out = out + pr[r] * LaurentPoly.monomial(c, s, t)
    return out


def rook_sum(n: int) -> LaurentPoly:
    """Sum of w(R) over all rook placements of half-perimeter n."""
    if not 0 <= n <= ROOK_CAP:
        raise ValueError(f"exhaustive rook enumeration supports n <= {ROOK_CAP}")
    if n == 0:
        return ONE
    return _profile_sum(_placement_profile(n))


def hat_scalar_product(n: int) -> LaurentPoly:
    """<W|(yD^+E^)^n|V> from the matrix truncation (the independent route)."""
    return ansatz.scalar_product(ansatz.yhat_plus_ehat(n + 2), n)


def column_weight_sum(j: int, k: int, n: int) -> LaurentPoly:
    """T(j,k,n): weights of placements with k columns, j of them rookless."""
    if not 0 <= n <= ROOK_CAP:
        raise ValueError(f"exhaustive rook enumeration supports n <= {ROOK_CAP}")
    return _profile_sum(row for row in _placement_profile(n) if row[2:4] == (k, j))


def check_factorization(j: int, k: int, n: int) -> CheckReport:
    """T(j,k,n) = qbinom(n-2k+2j, j) * y^j * T(0,k-j,n)."""
    lhs = column_weight_sum(j, k, n)
    rhs = (
        q_binomial(n - 2 * k + 2 * j, j)
        * LaurentPoly.monomial(1, 0, j)
        * column_weight_sum(0, k - j, n)
    )
    ok = lhs == rhs
    return CheckReport(
        f"rookless-column factorization (j={j},k={k},n={n})",
        ok,
        [] if ok else [f"{lhs.pretty()} != {rhs.pretty()}"],
    )


@lru_cache(maxsize=None)
def t0_recurrence(k: int, n: int) -> LaurentPoly:
    """T(0,k,n) from T(0,k,n-1) + p*y*[n+1-2k]_q*T(0,k-1,n-1)."""
    if k < 0 or n < 0 or 2 * k > n:
        return ZERO
    if k == 0:
        return ONE
    return t0_recurrence(k, n - 1) + P_WEIGHT * Y * q_int(
        n + 1 - 2 * k
    ) * t0_recurrence(k - 1, n - 1)


def t0_closed(k: int, n: int) -> LaurentPoly:
    """Alternating closed form for T(0,k,n), including its y^k factor:

    y^k q^(-2k) sum_i (-1)^i q^(i(i+1)/2) qbinom(n-2k+i, i)
                        (binom(n,k-i) - binom(n,k-i-1)).
    """
    if k < 0 or n < 0 or 2 * k > n:
        return ZERO
    total = ZERO
    for i in range(k + 1):
        c = binomial(n, k - i) - binomial(n, k - i - 1)
        if not c:
            continue
        term = q_binomial(n - 2 * k + i, i) * LaurentPoly.monomial(
            (-1) ** i * c, i * (i + 1) // 2, 0
        )
        total = total + term
    return total * LaurentPoly.monomial(1, -2 * k, k)


def row_sum_formula(k: int, n: int) -> LaurentPoly:
    """The alternating form of sum_j T(j,k,n), without its y^k factor:

    sum_j (binom(n,j)-binom(n,j-1)) *
          (q^((k+1-j)(n-k-j)) - q^((k-j)(n-k-j))
           + q^((k-j)(n+1-k-j)) - q^((k+1-j)(n+1-k-j))) / ((1-q) q^n).
    """
    num = ZERO
    for j in range(k + 1):
        c = binomial(n, j) - binomial(n, j - 1)
        if not c:
            continue
        bracket = (
            LaurentPoly.monomial(1, (k + 1 - j) * (n - k - j), 0)
            - LaurentPoly.monomial(1, (k - j) * (n - k - j), 0)
            + LaurentPoly.monomial(1, (k - j) * (n + 1 - k - j), 0)
            - LaurentPoly.monomial(1, (k + 1 - j) * (n + 1 - k - j), 0)
        )
        num = num + bracket * c
    return num.exact_div((ONE - Q) * LaurentPoly.monomial(1, n, 0))


def boundary_g(n: int) -> LaurentPoly:
    """G(n) = sum_j (binom(n,j)-binom(n,j-1)) sum_i y^(i+j-1) q^(i(n+1-2j-i)).

    The boundary identity q^n (1-q) <W|(yD^+E^)^n|V> = (1+y) G(n) - G(n+1)
    is the row-sum formula summed over every column count: with
    S(n) = sum_{k=0..n} y^k row_sum_formula(k, n), S(n) = <W|(yD^+E^)^n|V>
    and q^n (1-q) S(n) = (1+y) G(n) - G(n+1), q^n (1-q) being that formula's
    denominator.  Both equalities are checked exactly in the tests, the
    second closed form against closed form up to n = 30.
    """
    out = ZERO
    for j in range(n // 2 + 1):
        c = binomial(n, j) - binomial(n, j - 1)
        if not c:
            continue
        inner = LaurentPoly(
            {(i * (n + 1 - 2 * j - i), i + j - 1): 1 for i in range(n - 2 * j + 1)}
        )
        out = out + inner * c
    return out


_CANDIDATES: tuple[tuple[str, object], ...] = (
    ("1", lambda n: ONE),
    ("q^n", lambda n: LaurentPoly.monomial(1, n, 0)),
    ("(1-q)", lambda n: ONE - Q),
    ("q^n(1-q)", lambda n: LaurentPoly.monomial(1, n, 0) * (ONE - Q)),
    ("q^n(1-q)^n", lambda n: LaurentPoly.monomial(1, n, 0) * (ONE - Q) ** n),
)


@dataclass
class ReconcileReport:
    """Which normalizations c_n make c_n*<W|(yD^+E^)^n|V> = (1+y)G(n)-G(n+1)."""

    n_max: int
    passing: list[str]
    failures: dict[str, int]  # candidate -> first n where it fails

    @property
    def ok(self) -> bool:
        return len(self.passing) == 1


def reconcile_boundary_identity(n_max: int) -> ReconcileReport:
    """Test each candidate normalization against the matrix scalar products."""
    if not 1 <= n_max <= 9:
        raise ValueError("n_max must be in 1..9")
    scalars = ansatz.scalar_products_upto(
        ansatz.yhat_plus_ehat(n_max + 2), n_max
    )
    g = [boundary_g(n) for n in range(n_max + 2)]
    passing = []
    failures: dict[str, int] = {}
    for name, factor in _CANDIDATES:
        ok = True
        for n in range(1, n_max + 1):
            lhs = factor(n) * scalars[n]
            rhs = (ONE + Y) * g[n] - g[n + 1]
            if lhs != rhs:
                failures[name] = n
                ok = False
                break
        if ok:
            passing.append(name)
    return ReconcileReport(n_max, passing, failures)


def partition_polynomial_via_rooks(n: int) -> LaurentPoly:
    """The partition polynomial of size n evaluated by the rook route:
    exhaustive rook sums for every power up to n-1, combined through the
    first inversion formula and divided by (1-q)^(n-1)."""
    if not 1 <= n <= ROOK_CAP:
        raise ValueError(f"rook route supports 1 <= n <= {ROOK_CAP}")
    k_max = n - 1
    total = ZERO
    for k in range(k_max + 1):
        coef = (
            binomial(k_max, k)
            * (ONE + Y) ** (k_max - k)
            * LaurentPoly.monomial((-1) ** k, k, 0)
        )
        total = total + coef * rook_sum(k)
    return Y * total.exact_div((ONE - Q) ** k_max)


# -- the bijection to involutions ------------------------------------------------


@dataclass(frozen=True)
class Involution:
    """A self-inverse map on {1..n}: disjoint arcs plus fixed points."""

    n: int
    arcs: frozenset[tuple[int, int]]
    fixed: tuple[int, ...]

    def __post_init__(self):
        touched = set(self.fixed)
        for a, b in self.arcs:
            if not (1 <= a < b <= self.n):
                raise ValueError(f"bad arc {(a, b)}")
            touched.update((a, b))
        if len(touched) != 2 * len(self.arcs) + len(self.fixed) or touched != set(
            range(1, self.n + 1)
        ):
            raise ValueError("arcs and fixed points must partition 1..n")


def phi(pl: RookPlacement) -> tuple[Involution, YoungBoundary]:
    """Map a placement to (involution, leftover diagram).

    A rook joining column h and row v becomes the arc {h, v}; rookless lines
    become fixed points; deleting every rook line leaves a diagram of
    half-perimeter |Fix|, returned as the subword on the fixed positions.
    """
    n = pl.shape.n
    arcs = frozenset((h, v) for v, h in pl.rooks)
    in_arc = {x for arc in arcs for x in arc}
    fixed = tuple(i for i in range(1, n + 1) if i not in in_arc)
    lam = YoungBoundary(tuple(pl.shape.word[i - 1] for i in fixed))
    return Involution(n, arcs, fixed), lam


def phi_inverse(inv: Involution, lam: YoungBoundary) -> RookPlacement:
    """Rebuild the unique placement mapping to (inv, lam)."""
    if lam.n != len(inv.fixed):
        raise ValueError("leftover diagram must have half-perimeter |Fix|")
    letters: dict[int, str] = {}
    for a, b in inv.arcs:
        letters[a] = "H"
        letters[b] = "V"
    for pos, letter in zip(inv.fixed, lam.word):
        letters[pos] = letter
    shape = YoungBoundary(tuple(letters[i] for i in range(1, inv.n + 1)))
    rooks = frozenset((b, a) for a, b in inv.arcs)
    return RookPlacement(shape, rooks)


def mu_statistic(pl: RookPlacement) -> int:
    """crosses(R) - |leftover diagram|; depends only on the involution."""
    _, lam = phi(pl)
    _, s, _ = pl.statistics()
    return s - lam.cell_count()


__all__ = [
    "P_WEIGHT",
    "YoungBoundary",
    "RookPlacement",
    "Involution",
    "iter_boundaries",
    "iter_placements",
    "iter_all_placements",
    "rook_sum",
    "hat_scalar_product",
    "column_weight_sum",
    "check_factorization",
    "t0_recurrence",
    "t0_closed",
    "row_sum_formula",
    "boundary_g",
    "reconcile_boundary_identity",
    "ReconcileReport",
    "partition_polynomial_via_rooks",
    "phi",
    "phi_inverse",
    "mu_statistic",
]
