"""Weighted bicoloured Motzkin path machinery.

A bicoloured Motzkin path takes steps NE, SE and two kinds of east step (E1,
E2), never goes below the axis, and here always starts and ends at height 0.
Two weight schemes appear:

* The generating-polynomial scheme: a step starting at height h weighs
  y*[h+1]_q for NE and E1, and [h]_q for SE and E2 (so E2 at height 0 weighs
  zero).  Closed paths of length n weighted this way sum to the partition
  polynomial of size n; ``motzkin_polynomial`` computes that sum by a
  height-indexed transfer (dynamic programming).

* The labelled scheme: every step carries one of two labels, plain or
  starred, with weights y / -y*q^(h+1) for NE and E1 and 1 / -q^h for SE and
  E2.  The labelled sum over all paths of length n equals (1-q)^n times the
  generating polynomial.  The "core" subset consists of labelled paths whose
  east steps are all starred and whose peaks are not plain-plain; the signed
  core sums have the closed form (-1)^k * sum_i y^i q^(i(k+1-i)).

``decompose`` factors any labelled path into an unlabelled prefix (a left
factor, recorded over the same four step kinds) and a core path, and
``recompose`` inverts it.  The core is the starred steps plus the plain NE
and SE steps left unmatched when plain NE/SE are matched like brackets
within their run of plain steps; the left factor is the path with each core
step replaced by NE.  Left factors are also counted two independent
ways: by a height transfer and through non-intersecting lattice-path pairs.

Step serialisation: U (NE), D (SE), F1, F2, with a trailing ``*`` marking a
starred step; e.g. ``"U F1* D*"``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache

from . import kernels
from .laurent import ONE, Q, Y, ZERO, LaurentPoly
from .qcombinat import binomial, q_int
from .report import CheckReport

NE, SE, E1, E2 = "NE", "SE", "E1", "E2"
_RISE = {NE: 1, SE: -1, E1: 0, E2: 0}
_PLAIN_NE = (NE, False)
_TOKEN = {NE: "U", SE: "D", E1: "F1", E2: "F2"}
_KIND = {v: k for k, v in _TOKEN.items()}


class IntersectingPair(ValueError):
    """Raised when a lattice-path pair shares a vertex."""


class LabeledMotzkinPath:
    """A closed labelled path: a tuple of (kind, starred) steps.

    It behaves as a frozen dataclass with the one field ``steps``: immutable,
    equal and hashed by its steps.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[tuple[str, bool], ...]):
        h = 0
        for kind, _ in steps:
            h += _RISE[kind]
            if h < 0:
                raise ValueError("path dips below the axis")
        if h:
            raise ValueError("path does not return to height 0")
        object.__setattr__(self, "steps", steps)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.steps,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.steps == other.steps
        return NotImplemented

    def __hash__(self):
        return hash((self.steps,))

    def __repr__(self):
        return f"{type(self).__qualname__}(steps={self.steps!r})"

    def __len__(self):
        return len(self.steps)

    def weight(self) -> LaurentPoly:
        """The product of the per-step labelled weights, a signed monomial."""
        return LaurentPoly.monomial(*self.signed_exponents())

    def signed_exponents(self) -> tuple[int, int, int]:
        """The weight as its (sign, e_q, e_y) triple."""
        ey = eq = 0
        sign = 1
        h = 0
        for kind, starred in self.steps:
            if kind in (NE, E1):
                ey += 1
                if starred:
                    sign = -sign
                    eq += h + 1
            else:
                if starred:
                    sign = -sign
                    eq += h
            h += _RISE[kind]
        return sign, eq, ey

    def in_core_set(self) -> bool:
        """East steps all starred, and no plain NE directly before a plain SE."""
        prev_plain_ne = False
        for kind, starred in self.steps:
            if kind in (E1, E2) and not starred:
                return False
            if kind == SE and not starred and prev_plain_ne:
                return False
            prev_plain_ne = kind == NE and not starred
        return True

    def serialize(self) -> str:
        return " ".join(
            _TOKEN[k] + ("*" if s else "") for k, s in self.steps
        )

    @classmethod
    def parse(cls, text: str) -> "LabeledMotzkinPath":
        steps = []
        for tok in text.split():
            starred = tok.endswith("*")
            steps.append((_KIND[tok.rstrip("*")], starred))
        return cls(tuple(steps))


# (restricted, can descend, last step a plain NE) -> the (step, rise) choices
# for the next step, kinds in the order NE, SE, E1, E2, plain before starred.
_NEXT_STEPS = {
    (restricted, descend, after_plain_ne): [
        ((kind, starred), _RISE[kind])
        for kind in (NE, SE, E1, E2)
        for starred in (False, True)
        if (descend or kind != SE)
        and (starred or not restricted or kind == NE
             or (kind == SE and not after_plain_ne))
    ]
    for restricted in (False, True)
    for descend in (False, True)
    for after_plain_ne in (False, True)
}


def _extend(prefixes, top: int, restricted: bool):
    """Each (steps, height) prefix extended by one step, in order, keeping
    the prefixes that end at height top or below."""
    for steps, h in prefixes:
        after_plain_ne = restricted and steps[-1:] == (_PLAIN_NE,)
        for step, rise in _NEXT_STEPS[restricted, h > 0, after_plain_ne]:
            if h + rise <= top:
                yield steps + (step,), h + rise


def iter_labelled_paths(n: int, restricted: bool = False):
    """Yield every labelled closed path of length n (core subset if restricted).

    Paths come in lexicographic order of their steps, kinds ordered NE, SE,
    E1, E2 and plain before starred.  Each level extends the prefixes of the
    one before by one step, lazily, so one prefix per level is held at once.
    """
    level = iter([((), 0)])
    for pos in range(n):
        level = _extend(level, n - pos - 1, restricted)
    for steps, _ in level:
        yield LabeledMotzkinPath(steps)


# -- generating polynomial by height-indexed transfer -----------------------


@lru_cache(maxsize=None)
def motzkin_polynomials_upto(n: int) -> tuple[LaurentPoly, ...]:
    """(p_1, ..., p_n): p_s is the weighted sum over closed paths of length s."""
    dp = [ONE]  # dp[h]: weighted sum over paths so far that end at height h
    results = []
    for step in range(1, n + 1):
        new = [ZERO] * (len(dp) + 1)
        for h, p in enumerate(dp):
            up = p * (Y * q_int(h + 1))  # weight y*[h+1]_q: NE and E1
            new[h + 1] = new[h + 1] + up
            new[h] = new[h] + up
            if h > 0:
                down = p * q_int(h)  # weight [h]_q: SE and E2
                new[h - 1] = new[h - 1] + down
                new[h] = new[h] + down
        dp = new[: n - step + 1]  # higher paths cannot return to 0 by step n
        results.append(dp[0])
    return tuple(results)


def motzkin_polynomial(n: int) -> LaurentPoly:
    """The partition polynomial of size n, via the path transfer recurrence."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return motzkin_polynomials_upto(n)[n - 1]


# -- labelled sums -----------------------------------------------------------


@lru_cache(maxsize=None)
def labelled_path_sum(n: int) -> LaurentPoly:
    """Signed weight sum over all labelled closed paths of length n.

    Equals (1-q)^n * motzkin_polynomial(n); n is capped at
    kernels.SIGNED_PATH_CAP.
    """
    return kernels.signed_path_sum(n, False)


@lru_cache(maxsize=None)
def core_signed_sum(k: int) -> LaurentPoly:
    """Signed weight sum over the core subset of length k <= kernels.SIGNED_PATH_CAP."""
    if k == 0:
        return ONE
    return kernels.signed_path_sum(k, True)


def core_closed_form(k: int) -> LaurentPoly:
    """sum_{i=0..k} y^i q^(i(k+1-i)); the signed core sum is (-1)^k times this."""
    return LaurentPoly({(i * (k + 1 - i), i): 1 for i in range(k + 1)})


# -- decomposition bijection --------------------------------------------------


def decompose(
    p: LabeledMotzkinPath,
) -> tuple[tuple[str, ...], LabeledMotzkinPath]:
    """Split p into an unlabelled left factor and its core path.

    Plain NE and SE steps are matched like brackets within each run of plain
    steps.  The core is the starred steps together with the plain NE and SE
    steps left unmatched in their run, joined in order; replacing each of
    them by NE in p gives the left factor.  This is the same as greedily
    peeling maximal plain sub-paths that close at their own starting height.
    """
    left: list[str] = []
    core: list[tuple[str, bool]] = []
    open_ne = 0  # plain NEs of the current run not yet matched
    for step in p.steps:
        kind, starred = step
        if starred:
            # The run ends: its open NEs, then this step, join the core.  An
            # earlier core step is starred or an SE met with no open NE, so
            # the core stays in path order.
            core.extend([_PLAIN_NE] * open_ne)
            core.append(step)
            open_ne = 0
            kind = NE
        elif kind == NE:
            open_ne += 1
        elif kind == SE:
            if open_ne:
                open_ne -= 1
            else:  # unmatched in its run: a core step
                core.append(step)
                kind = NE
        left.append(kind)
    # open_ne is 0 here: the last plain run of a closed path ends at
    # height 0, so each of its NEs is matched.
    return tuple(left), LabeledMotzkinPath(tuple(core))


def recompose(
    left: tuple[str, ...], core: LabeledMotzkinPath
) -> LabeledMotzkinPath:
    """Inverse of decompose; raises ValueError if (left, core) is not an image.

    The NEs of left that no SE matches are the core's slots, in order.
    """
    slots: list[int] = []
    for i, kind in enumerate(left):
        if kind == NE:
            slots.append(i)
        elif kind == SE:
            if not slots:
                raise ValueError("not a valid (left factor, core) pair")
            slots.pop()
    if len(slots) != len(core):
        raise ValueError("core length does not match the left factor")
    out = [(kind, False) for kind in left]
    for i, step in zip(slots, core.steps):
        out[i] = step
    return LabeledMotzkinPath(tuple(out))


# -- left factors --------------------------------------------------------------


def left_factor_count(n: int, k: int, j: int) -> int:
    """Number of length-n prefixes of final height k with j SE or E1 steps,
    by a (height, j) transfer."""
    table = _left_factor_table(n)
    if not (0 <= k <= n and 0 <= j <= n):
        return 0
    return table[k][j]


@lru_cache(maxsize=None)
def _left_factor_table(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in kernels.left_factor_counts(n))


def left_factor_formula(n: int, k: int, j: int) -> int:
    """The same count in closed form:
    binom(n,j) binom(n,j+k) - binom(n,j-1) binom(n,j+k+1)."""
    return binomial(n, j) * binomial(n, j + k) - binomial(n, j - 1) * binomial(
        n, j + k + 1
    )


def iter_left_factors(n: int):
    """Yield (steps, final_height, j) over all length-n prefixes."""
    def rec(pos, h, j, acc):
        if pos == n:
            yield tuple(acc), h, j
            return
        for kind in (NE, E1, E2, SE):
            if kind == SE and h == 0:
                continue
            acc.append(kind)
            yield from rec(
                pos + 1, h + _RISE[kind], j + (kind in (SE, E1)), acc
            )
            acc.pop()

    yield from rec(0, 0, 0, [])


# -- lattice path pairs ---------------------------------------------------------


@dataclass(frozen=True)
class LatticePathPair:
    """Two monotone N/E paths with the same number of steps.

    ``lower`` starts at (1,0) and ``upper`` at (0,1); the pair is admissible
    when the paths share no lattice point.
    """

    lower: tuple[str, ...]
    upper: tuple[str, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("paths must have equal length")
        for s in self.lower + self.upper:
            if s not in ("N", "E"):
                raise ValueError(f"bad step {s!r}")

    def vertices(self, which: str) -> list[tuple[int, int]]:
        x, y = (1, 0) if which == "lower" else (0, 1)
        out = [(x, y)]
        for s in self.lower if which == "lower" else self.upper:
            if s == "E":
                x += 1
            else:
                y += 1
            out.append((x, y))
        return out

    def is_nonintersecting(self) -> bool:
        return not set(self.vertices("lower")) & set(self.vertices("upper"))


_PAIR_TO_STEP = {("E", "N"): NE, ("N", "E"): SE, ("N", "N"): E1, ("E", "E"): E2}
_STEP_TO_PAIR = {v: k for k, v in _PAIR_TO_STEP.items()}


def pair_to_left_factor(pair: LatticePathPair) -> tuple[str, ...]:
    """Translate a non-intersecting pair, step by step, into a left factor."""
    if not pair.is_nonintersecting():
        raise IntersectingPair("paths share a lattice point")
    steps = tuple(
        _PAIR_TO_STEP[(a, b)] for a, b in zip(pair.lower, pair.upper)
    )
    h = 0
    for kind in steps:
        h += _RISE[kind]
        assert h >= 0, "non-intersecting pair mapped below the axis"
    return steps


def left_factor_to_pair(steps: tuple[str, ...]) -> LatticePathPair:
    """Inverse translation; the result is always non-intersecting."""
    lower = []
    upper = []
    for kind in steps:
        a, b = _STEP_TO_PAIR[kind]
        lower.append(a)
        upper.append(b)
    pair = LatticePathPair(tuple(lower), tuple(upper))
    if not pair.is_nonintersecting():
        raise IntersectingPair("image pair unexpectedly intersects")
    return pair


# -- functional equation check ---------------------------------------------------

# Series coefficients in the extra marker z are kept as {z_exponent: LaurentPoly}.


def _zs_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, ZERO) + v
        if s.is_zero:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _zs_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            s = out.get(k, ZERO) + va * vb
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _zs_qshift(a: dict) -> dict:
    """Substitute z -> q*z."""
    return {k: v * Q**k for k, v in a.items()}


def _zs_eval_z1(a: dict) -> LaurentPoly:
    return sum(a.values(), ZERO)


def _core_zsum(n: int) -> dict:
    """The core set of length n as {z_exponent: signed weight sum}, with z
    marking starred steps."""
    return kernels._core_path_counts(n, True)


def check_functional_equation(t_order: int) -> CheckReport:
    """Verify, coefficientwise in t up to t_order, that the z-marked core
    series S(z) = sum_n t^n sum_{core paths} w(p) satisfies

        S(z) = 1 - (q y z t + z t + y t^2) S(z) + y t^2 (1 - q z)^2 S(z) S(qz),

    and that (-1)^k [t^k] S(1) equals the closed form for k <= t_order.
    """
    if not 0 <= t_order <= 8:
        raise ValueError("t_order must be in 0..8")
    s = [_core_zsum(n) for n in range(t_order + 1)]
    violations = []

    lin = {1: Q * Y + ONE}  # q y z + z
    sq1 = {0: ONE, 1: -2 * Q, 2: Q * Q}  # (1 - q z)^2
    for n in range(t_order + 1):
        rhs: dict = {0: ONE} if n == 0 else {}
        if n >= 1:
            rhs = _zs_add(rhs, {k: -v for k, v in _zs_mul(lin, s[n - 1]).items()})
        if n >= 2:
            rhs = _zs_add(rhs, {k: v * (-1) * Y for k, v in s[n - 2].items()})
            conv: dict = {}
            for a in range(n - 1):
                b = n - 2 - a
                conv = _zs_add(conv, _zs_mul(s[a], _zs_qshift(s[b])))
            prod = _zs_mul(sq1, conv)
            rhs = _zs_add(rhs, {k: v * Y for k, v in prod.items()})
        lhs = s[n]
        if _zs_add(lhs, {k: -v for k, v in rhs.items()}):
            violations.append(f"functional equation fails at [t^{n}]")

    for k in range(t_order + 1):
        got = _zs_eval_z1(s[k]) * ((-1) ** k)
        if got != core_closed_form(k):
            violations.append(f"[t^{k}] at z=1 differs from the closed form")

    return CheckReport("core functional equation", not violations, violations)


__all__ = [
    "NE",
    "SE",
    "E1",
    "E2",
    "LabeledMotzkinPath",
    "LatticePathPair",
    "IntersectingPair",
    "iter_labelled_paths",
    "motzkin_polynomial",
    "motzkin_polynomials_upto",
    "labelled_path_sum",
    "core_signed_sum",
    "core_closed_form",
    "decompose",
    "recompose",
    "left_factor_count",
    "left_factor_formula",
    "iter_left_factors",
    "pair_to_left_factor",
    "left_factor_to_pair",
    "check_functional_equation",
]
