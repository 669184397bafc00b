"""Weighted bicoloured Motzkin path machinery.

A bicoloured Motzkin path takes steps NE, SE and two kinds of east step (E1,
E2), never goes below the axis, and here always starts and ends at height 0.
Two weight schemes appear:

* The generating-polynomial scheme: a step starting at height h weighs
  y*[h+1]_q for NE and E1, and [h]_q for SE and E2 (so E2 at height 0 weighs
  zero).  Closed paths of length n weighted this way sum to the partition
  polynomial of size n; ``motzkin_polynomial`` computes that sum by a
  height-indexed transfer (dynamic programming).  The transfer packs each
  q-row into one int, a fixed slot of b bits per coefficient, so a step is
  shifts and adds of ints: times [m]_q is a window built by doubling, and
  times y moves the row to the next power of y.  All weights are
  nonnegative, so no slot overflows once 2^b exceeds the transfer's total
  weight at q = y = 1, bounded by the product of the largest step weight
  4h + 2 at each step (``_slot_bits``).

* The labelled scheme: every step carries one of two labels, plain or
  starred, with weights y / -y*q^(h+1) for NE and E1 and 1 / -q^h for SE and
  E2.  The labelled sum over all paths of length n equals (1-q)^n times the
  generating polynomial.  The "core" subset, defined by
  ``LabeledMotzkinPath.in_core_set``, consists of labelled paths whose east
  steps are all starred and whose peaks are not plain-plain; the signed core
  sums have the closed form (-1)^k * sum_i y^i q^(i(k+1-i)).

``decompose`` factors any labelled path into an unlabelled prefix (a left
factor, recorded over the same four step kinds) and a core path, and
``recompose`` inverts it.  The core is the starred steps plus the plain NE
and SE steps left unmatched when plain NE/SE are matched like brackets
within their run of plain steps; the left factor is the path with each core
step replaced by NE.  decompose, recompose and the labelled weight are each
one per-step rule, folded over a path; ``iter_decomposed_paths`` carries all
three down the enumeration's prefix tree, so each prefix is folded once.  Left
factors are counted independently by the height transfer
``kernels.left_factor_counts``, by the closed form ``left_factor_formula``
and by their definition, ``iter_left_factors``; ``pair_to_left_factor`` maps
non-intersecting lattice-path pairs onto them.

Step serialisation: U (NE), D (SE), F1, F2, with a trailing ``*`` marking a
starred step; e.g. ``"U F1* D*"``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, product
from math import prod

from . import kernels
from .laurent import ONE, Q, Y, ZERO, LaurentPoly
from .qcombinat import binomial

NE, SE, E1, E2 = "NE", "SE", "E1", "E2"
_RISE = {NE: 1, SE: -1, E1: 0, E2: 0}
_PLAIN_NE = (NE, False)
_PLAIN = {kind: (kind, False) for kind in _RISE}
_TOKEN = {NE: "U", SE: "D", E1: "F1", E2: "F2"}


class IntersectingPair(ValueError):
    """Raised when a lattice-path pair shares a vertex."""


@dataclass(frozen=True, init=False)
class LabeledMotzkinPath:
    """A closed labelled path: a tuple of (kind, starred) steps."""

    __slots__ = ("steps",)
    steps: tuple[tuple[str, bool], ...]

    def __init__(self, steps: tuple[tuple[str, bool], ...]):
        h = 0
        for kind, _ in steps:
            h += _RISE[kind]
            if h < 0:
                raise ValueError("path dips below the axis")
        if h:
            raise ValueError("path does not return to height 0")
        _set_steps(self, steps)

    def signed_exponents(self) -> tuple[int, int, int]:
        """The weight as its (sign, e_q, e_y) triple."""
        sign, eq, ey, _ = reduce(_weight_step, self.steps, _WEIGHT_START)
        return sign, eq, ey

    def in_core_set(self) -> bool:
        """East steps all starred, and no plain NE directly before a plain SE."""
        prev_plain_ne = False
        for kind, starred in self.steps:
            if starred:
                prev_plain_ne = False
            elif kind == NE:
                prev_plain_ne = True
            elif kind != SE or prev_plain_ne:  # a plain east step or peak
                return False
        return True

    def serialize(self) -> str:
        return " ".join(
            _TOKEN[k] + ("*" if s else "") for k, s in self.steps
        )


_set_steps = LabeledMotzkinPath.steps.__set__  # bypasses the frozen __setattr__

# -- the per-step rules ------------------------------------------------------
# Each takes a state and one step and returns the next state: a (kind,
# starred) step of the path for the weight and decompose, a left-factor kind
# for recompose.  signed_exponents, decompose and recompose fold them over a
# path's steps, and the path enumeration carries all three down its prefix
# tree, folding each prefix once.  Every user looks a rule, and _fill, up by
# name when it runs, so a replaced one reaches them all.

_WEIGHT_START = (1, 0, 0, 0)


def _weight_step(state, step):
    """The labelled weight's rule, on (sign, e_q, e_y, height)."""
    sign, eq, ey, h = state
    kind, starred = step
    up = kind == NE or kind == E1  # weighs y, and q^(h+1) if starred
    if starred:
        sign = -sign
        eq += h + up
    return sign, eq, ey + up, h + _RISE[kind]


_DECOMPOSE_START = ((), (), 0)


def _decompose_step(state, step):
    """decompose's rule, on (left factor, core steps, open NEs): the open NEs
    are the plain NEs of the current run of plain steps not yet matched."""
    left, core, open_ne = state
    kind, starred = step
    if starred:
        # The run ends: its open NEs, then this step, join the core.  An
        # earlier core step is starred or an SE met with no open NE, so
        # the core stays in path order.
        if open_ne:
            core += (_PLAIN_NE,) * open_ne
            open_ne = 0
        core += (step,)
        kind = NE
    elif kind == NE:
        open_ne += 1
    elif kind == SE:
        if open_ne:
            open_ne -= 1
        else:  # unmatched in its run: a core step
            core += (step,)
            kind = NE
    return left + (kind,), core, open_ne


_RECOMPOSE_START = ((), ())


def _recompose_step(state, kind):
    """recompose's rule, on (plain steps, slots): the slots are the positions
    of the NEs that no SE has matched yet, in order."""
    out, slots = state
    if kind == NE:
        slots += (len(out),)
    elif kind == SE:
        if not slots:
            raise ValueError("not a valid (left factor, core) pair")
        slots = slots[:-1]
    return out + (_PLAIN[kind],), slots


def _fill(state, core_steps):
    """The plain steps of a recompose state with the core's steps put into
    its slots, in order."""
    out, slots = state
    out = list(out)
    for i, step in zip(slots, core_steps):
        out[i] = step
    return tuple(out)


# -- enumeration ---------------------------------------------------------------

# can descend -> the (step, rise) choices for the next step, kinds in the
# order NE, SE, E1, E2, plain before starred.
_NEXT_STEPS = {
    descend: [
        ((kind, starred), _RISE[kind])
        for kind in (NE, SE, E1, E2)
        for starred in (False, True)
        if descend or kind != SE
    ]
    for descend in (False, True)
}


def _extend(prefixes, top: int):
    """Each (steps, height, decompose state, weight state, recompose state)
    prefix extended by one step, in order, keeping the prefixes that end at
    height top or below.  recompose's rule takes the left-factor step that
    decompose's has just emitted."""
    decompose_step, weight_step = _decompose_step, _weight_step
    recompose_step = _recompose_step
    for steps, h, split, weight, rebuild in prefixes:
        for step, rise in _NEXT_STEPS[h > 0]:
            if h + rise <= top:
                following = decompose_step(split, step)
                yield (steps + (step,), h + rise, following,
                       weight_step(weight, step),
                       recompose_step(rebuild, following[0][-1]))


def _walk(n: int):
    """The closed paths of length n, as _extend's items, in lexicographic
    order of their steps.

    Each level extends the prefixes of the one before by one step, lazily,
    so one prefix per level is held at once.
    """
    level = iter([((), 0, _DECOMPOSE_START, _WEIGHT_START, _RECOMPOSE_START)])
    for pos in range(n):
        level = _extend(level, n - pos - 1)
    return level


def iter_labelled_paths(n: int):
    """Yield every labelled closed path of length n; the core subset is the
    paths whose in_core_set() holds.

    Paths come in lexicographic order of their steps, kinds ordered NE, SE,
    E1, E2 and plain before starred.
    """
    for steps, _, _, _, _ in _walk(n):
        yield LabeledMotzkinPath(steps)


def iter_decomposed_paths(n: int):
    """Yield (steps, left, core steps, (sign, e_q, e_y), rebuilt steps) for
    every labelled closed path of length n, in the order of
    iter_labelled_paths.

    (left, core steps) is what decompose returns for the path, the triple is
    its signed_exponents(), and the rebuilt steps are recompose(left, core)'s;
    each rule is folded once per prefix, not once per path.
    """
    fill = _fill
    for steps, _, (left, core, _), (sign, eq, ey, _), rebuild in _walk(n):
        yield steps, left, core, (sign, eq, ey), fill(rebuild, core)


# -- generating polynomial by height-indexed transfer -----------------------


def _slot_bits(n: int) -> int:
    """The slot width b of the packed rows in the transfer cut at n,
    in bits, a whole number of bytes: every coefficient the transfer forms
    is below 2^b.

    Every coefficient is nonnegative, so it is at most its state's value at
    q = y = 1.  A step from height h weighs (h+1) + (h+1) + h + h = 4h + 2
    there, and step t + 1 starts from heights h <= t that the cut has kept
    at h <= n - t.  So the states after step s sum to at most
    prod(4*min(t, n-t) + 2 for t < s) at q = y = 1, which grows with s.
    Each value formed on the way, a window or an up weight, is part of a
    state after the next step, so the product over all n steps bounds them
    all.
    """
    bound = prod(4 * min(t, n - t) + 2 for t in range(n))
    return -(-bound.bit_length() // 8) * 8


def _window(p: int, m: int, b: int) -> int:
    """The packed row p times [m]_q = 1 + q + ... + q^(m-1), by doubling:
    [2k]_q = [k]_q (1 + q^k) and [k+1]_q = q [k]_q + 1."""
    acc = k = 0
    for bit in bin(m)[2:]:
        acc += acc << k * b
        k *= 2
        if bit == "1":
            acc = (acc << b) + p
            k += 1
    return acc


def _unpacked(rows: dict, b: int) -> dict:
    """The dense rows {e_y: (0, row)} packed in rows[e_y], b bits a slot."""
    w = b // 8
    out = {}
    for ey, p in rows.items():
        buf = p.to_bytes(-(-p.bit_length() // b) * w, "little")
        out[ey] = (0, [int.from_bytes(buf[i:i + w], "little") for i in range(0, len(buf), w)])
    return out


def _transfer(n: int, b: int):
    """Yield, after each step s = 1..n of the transfer cut at n, the packed
    q-rows {e_y: int} of the paths of length s that end at height 0: the
    sum p_s, b bits a slot.

    Each state holds one int per power of y: its q-row, coefficient i in
    bits [i*b, (i+1)*b) with b = _slot_bits(n).  No slot overflows, so
    shifts and adds of the ints are the ring operations on the rows.
    """
    dp = [{0: 1}]  # dp[h][e_y]: packed q-row of the paths so far that end at height h
    for step in range(1, n + 1):
        top = n - step  # higher paths cannot return to 0 by step n
        new = [defaultdict(int) for _ in range(min(len(dp), top) + 1)]
        for h, rows in enumerate(dp):
            dp[h] = None  # freed once stepped from: less memory held at once
            for ey, p in rows.items():
                down = _window(p, h, b)  # weight [h]_q: SE and E2
                if h <= top:
                    up = down + (p << h * b)  # weight y*[h+1]_q: NE and E1
                    new[h][ey + 1] += up
                    if h < top:
                        new[h + 1][ey + 1] += up
                if h > 0:
                    new[h - 1][ey] += down
                    if h <= top:
                        new[h][ey] += down
        dp = new
        yield dp[0]


@lru_cache(maxsize=None)
def motzkin_polynomials_upto(n: int) -> tuple[LaurentPoly, ...]:
    """(p_1, ..., p_n): p_s is the weighted sum over closed paths of length s,
    every step of one transfer unpacked."""
    b = _slot_bits(n)
    return tuple(LaurentPoly.from_rows(_unpacked(rows, b)) for rows in _transfer(n, b))


def motzkin_polynomial(n: int) -> LaurentPoly:
    """The partition polynomial of size n, via the path transfer recurrence:
    only the last step is unpacked, and nothing is cached."""
    if n < 1:
        raise ValueError("n >= 1 required")
    b = _slot_bits(n)
    for rows in _transfer(n, b):
        pass
    return LaurentPoly.from_rows(_unpacked(rows, b))


# -- labelled sums -----------------------------------------------------------


@lru_cache(maxsize=None)
def labelled_path_sum(n: int) -> LaurentPoly:
    """Signed weight sum over all labelled closed paths of length n.

    Equals (1-q)^n * motzkin_polynomial(n); n is capped at
    kernels.SIGNED_PATH_CAP.
    """
    return kernels.labelled_sum(n)


def partition_polynomial_via_signed_paths(n: int) -> LaurentPoly:
    """The partition polynomial of size n, the labelled sum divided by (1-q)^n."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return labelled_path_sum(n).exact_div(n)


@lru_cache(maxsize=None)
def core_signed_sum(k: int) -> LaurentPoly:
    """Signed weight sum over the core subset of length k <= kernels.SIGNED_PATH_CAP."""
    return kernels.core_series(k, False)[0]


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
    left, core, _ = reduce(_decompose_step, p.steps, _DECOMPOSE_START)
    # No NE is left open: the last plain run of a closed path ends at
    # height 0, so each of its NEs is matched.
    return left, LabeledMotzkinPath(core)


def recompose(
    left: tuple[str, ...], core: LabeledMotzkinPath
) -> LabeledMotzkinPath:
    """Inverse of decompose; raises ValueError if (left, core) is not an image.

    The NEs of left that no SE matches are the core's slots, in order.
    """
    state = reduce(_recompose_step, left, _RECOMPOSE_START)
    if len(state[1]) != len(core.steps):
        raise ValueError("core length does not match the left factor")
    return LabeledMotzkinPath(_fill(state, core.steps))


# -- left factors --------------------------------------------------------------


def left_factor_formula(n: int, k: int, j: int) -> int:
    """Number of length-n left factors of final height k with j SE or E1
    steps, in closed form:
    binom(n,j) binom(n,j+k) - binom(n,j-1) binom(n,j+k+1)."""
    return binomial(n, j) * binomial(n, j + k) - binomial(n, j - 1) * binomial(
        n, j + k + 1
    )


def iter_left_factors(n: int):
    """Yield (steps, final_height, j) over all length-n prefixes: the words
    over NE, E1, E2, SE whose running height never goes below 0, with j
    their SE and E1 steps."""
    for steps in product((NE, E1, E2, SE), repeat=n):
        heights = tuple(accumulate((_RISE[kind] for kind in steps), initial=0))
        if min(heights) >= 0:
            yield steps, heights[-1], steps.count(SE) + steps.count(E1)


# -- lattice path pairs ---------------------------------------------------------


@dataclass(frozen=True, init=False)
class LatticePathPair:
    """Two monotone N/E paths with the same number of steps.

    ``lower`` starts at (1,0) and ``upper`` at (0,1); the pair is admissible
    when the paths share no lattice point.
    """

    __slots__ = ("lower", "upper")
    lower: tuple[str, ...]
    upper: tuple[str, ...]

    def __init__(self, lower: tuple[str, ...], upper: tuple[str, ...]):
        if len(lower) != len(upper):
            raise ValueError("paths must have equal length")
        for s in lower + upper:
            if s not in ("N", "E"):
                raise ValueError(f"bad step {s!r}")
        _set_lower(self, lower)
        _set_upper(self, upper)

    def is_nonintersecting(self) -> bool:
        """Both paths start on the line x + y = 1 and each step adds one to
        x + y, so a shared point is vertex t of both for some t: the paths
        meet exactly when their x coordinates, 1 apart at the start, meet."""
        gap = 1  # lower's x minus upper's x
        for a, b in zip(self.lower, self.upper):
            gap += (a == "E") - (b == "E")
            if not gap:
                return False
        return True


_set_lower = LatticePathPair.lower.__set__
_set_upper = LatticePathPair.upper.__set__


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

# A series in the extra marker z is the list of its coefficients, [S_0, S_1, ...].


def _zs_mul(a: list, b: list) -> list:
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        for j, vb in enumerate(b):
            out[i + j] = out[i + j] + va * vb
    return out


def _zs_sum(*series: list) -> list:
    out = [ZERO] * max(map(len, series))
    for s in series:
        for k, v in enumerate(s):
            out[k] = out[k] + v
    return out


# Largest t_order check_functional_equation takes.
FUNCTIONAL_EQUATION_CAP = 8


def check_functional_equation(t_order: int) -> list[str]:
    """Verify, coefficientwise in t up to t_order, that the z-marked core
    series S(z) = sum_n t^n sum_{core paths} w(p) satisfies

        S(z) = 1 - (q y z t + z t + y t^2) S(z) + y t^2 (1 - q z)^2 S(z) S(qz),

    and that (-1)^k [t^k] S(1) equals the closed form for k <= t_order.
    """
    if not 0 <= t_order <= FUNCTIONAL_EQUATION_CAP:
        raise ValueError(f"t_order must be in 0..{FUNCTIONAL_EQUATION_CAP}")
    s = [kernels.core_series(n, True) for n in range(t_order + 1)]
    s_qz = [[v * Q**k for k, v in enumerate(c)] for c in s]  # S(qz)
    violations = []

    lin = [ZERO, Q * Y + ONE]  # q y z + z
    sq1 = [ONE, -2 * Q, Q * Q]  # (1 - q z)^2
    for n in range(t_order + 1):
        # [t^n] of the left-hand side minus the right-hand side
        diff = [s[n], [-ONE] if n == 0 else []]
        if n >= 1:
            diff.append(_zs_mul(lin, s[n - 1]))
        if n >= 2:
            diff.append([v * Y for v in s[n - 2]])
            conv = _zs_sum(*(_zs_mul(s[a], s_qz[n - 2 - a]) for a in range(n - 1)))
            diff.append([-v * Y for v in _zs_mul(sq1, conv)])
        if not all(v.is_zero for v in _zs_sum(*diff)):
            violations.append(f"functional equation fails at [t^{n}]")

    for k in range(t_order + 1):
        got = sum(s[k], ZERO) * ((-1) ** k)
        if got != core_closed_form(k):
            violations.append(f"[t^{k}] at z=1 differs from the closed form")

    return violations


__all__ = [
    "NE",
    "SE",
    "E1",
    "E2",
    "LabeledMotzkinPath",
    "LatticePathPair",
    "IntersectingPair",
    "iter_labelled_paths",
    "iter_decomposed_paths",
    "motzkin_polynomial",
    "motzkin_polynomials_upto",
    "labelled_path_sum",
    "partition_polynomial_via_signed_paths",
    "core_signed_sum",
    "core_closed_form",
    "decompose",
    "recompose",
    "left_factor_formula",
    "iter_left_factors",
    "pair_to_left_factor",
    "left_factor_to_pair",
    "check_functional_equation",
]
