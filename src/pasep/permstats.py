"""Brute-force permutation and matching statistics.

These are the independent oracles for the closed forms: generating
polynomials over all of S_n (ascents with vincular 13-2 patterns, weak
exceedances with crossings) and over all perfect matchings (crossings).
Bulk tables come from `pasep.kernels`; the per-permutation functions here
are the reference definitions used on single inputs.

Permutations are tuples in one-line notation with values 1..n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from . import kernels
from .laurent import LaurentPoly


def _check_perm(w) -> int:
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    return n


def ascents(w) -> int:
    """#{i < n : w_i < w_(i+1)}."""
    _check_perm(w)
    return sum(1 for i in range(len(w) - 1) if w[i] < w[i + 1])


def pattern_13_2(w) -> int:
    """Occurrences of the vincular pattern 13-2: positions i, i+1 and a later
    j with w_i < w_j < w_(i+1)."""
    n = _check_perm(w)
    out = 0
    for i in range(n - 1):
        a, b = w[i], w[i + 1]
        if a < b:
            out += sum(1 for j in range(i + 2, n) if a < w[j] < b)
    return out


def weak_exceedances(w) -> int:
    """#{i : w_i >= i}."""
    _check_perm(w)
    return sum(1 for i, v in enumerate(w, start=1) if v >= i)


def crossings(w) -> int:
    """#{i < j <= w_i < w_j} + #{i > j > w_i > w_j}."""
    n = _check_perm(w)
    out = 0
    for i in range(1, n + 1):
        wi = w[i - 1]
        for j in range(i + 1, n + 1):
            wj = w[j - 1]
            if j <= wi < wj:
                out += 1
            elif i > wj > wi:  # the pair (j, i) with j > i > w_j > w_i
                out += 1
    return out


def classical_132_count(w) -> int:
    """Occurrences of the classical pattern 1-3-2: i < j < k with w_i < w_k < w_j."""
    n = _check_perm(w)
    out = 0
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            if w[i] < w[j]:
                out += sum(1 for k in range(j + 1, n) if w[i] < w[k] < w[j])
    return out


def iter_permutations(n: int):
    return permutations(range(1, n + 1))


@lru_cache(maxsize=None)
def gen_polynomial(n: int, stat_pair: str) -> LaurentPoly:
    """Generating polynomial over S_n.

    "ascent_pattern": sum of y^(1+ascents) q^(13-2 occurrences);
    "wex_crossing":  sum of y^(weak exceedances) q^(crossings).
    Both equal the partition polynomial of size n; the kernels cap n at
    kernels.PERMUTATION_CAP.
    """
    if stat_pair == "ascent_pattern":
        rows = enumerate(kernels.ascent_pattern_counts(n), 1)
    elif stat_pair == "wex_crossing":
        rows = enumerate(kernels.wex_crossing_counts(n))
    else:
        raise ValueError(f"unknown statistic pair {stat_pair!r}")
    return LaurentPoly.from_rows({e_y: (0, row) for e_y, row in rows})


@lru_cache(maxsize=None)
def classical_hist(n: int) -> tuple[int, ...]:
    """hist[c] = #permutations of n with c classical 1-3-2 occurrences."""
    return tuple(map(sum, zip(*kernels.vincular_classical_joint(n))))


@lru_cache(maxsize=None)
def classical_tail(n: int, k: int) -> tuple[int, ...]:
    """hist[c] for c <= k: #permutations of n with c classical 1-3-2 occurrences.

    Permutations are built left to right by a DP over (used values, pending
    occurrences of each unused value, count).  An unused value c is pending
    one occurrence per placed pair a before b with a < c < b, and placing c
    adds those to the count.  Every pending occurrence is counted once its
    value is placed, so a state whose count plus pending exceeds k is dropped.
    """
    if not 1 <= n <= kernels.PERMUTATION_CAP:
        raise ValueError(f"n must be in 1..{kernels.PERMUTATION_CAP}")
    # Values run 0..n-1 here; pending[c] is 0 once c is used.
    states = {(0, (0,) * n, 0): 1}
    for _ in range(n):
        grown: dict = {}
        for (used, pending, count), ways in states.items():
            for v in range(n):
                if used >> v & 1:
                    continue
                total = count + pending[v]
                new = list(pending)
                new[v] = 0
                below = 0  # placed values below c
                for c in range(v):
                    if used >> c & 1:
                        below += 1
                    else:  # each placed a < c now precedes v > c
                        new[c] += below
                if total + sum(new) <= k:
                    key = (used | 1 << v, tuple(new), total)
                    grown[key] = grown.get(key, 0) + ways
        states = grown
    hist = [0] * (k + 1)
    for (_, _, count), ways in states.items():
        hist[count] += ways
    return tuple(hist)


def vincular_bounded_by_classical(n: int) -> bool:
    """Every permutation has at least as many 1-3-2 as 13-2 occurrences."""
    joint = kernels.vincular_classical_joint(n)
    for v, row in enumerate(joint):
        for c, cnt in enumerate(row):
            if cnt and v > c:
                return False
    return True


@lru_cache(maxsize=None)
def matching_crossing_polynomial(n: int) -> LaurentPoly:
    """sum over perfect matchings of {1..2n} of q^crossings."""
    return LaurentPoly.from_rows({0: (0, kernels.matching_crossing_hist(n))})


def iter_matchings(n: int):
    """Yield perfect matchings of {1..2n} as tuples of (a, b) pairs, a < b."""
    def rec(free, acc):
        if not free:
            yield tuple(acc)
            return
        a = free[0]
        rest = free[1:]
        for i, b in enumerate(rest):
            acc.append((a, b))
            yield from rec(rest[:i] + rest[i + 1 :], acc)
            acc.pop()

    yield from rec(list(range(1, 2 * n + 1)), [])


def matching_crossings(pairs) -> int:
    """#{(a,b),(c,d) in the matching with a < c < b < d}."""
    out = 0
    ps = list(pairs)
    for i in range(len(ps)):
        a, b = ps[i]
        for j in range(i + 1, len(ps)):
            c, d = ps[j]
            if a < c < b < d or c < a < d < b:
                out += 1
    return out


__all__ = [
    "ascents",
    "pattern_13_2",
    "weak_exceedances",
    "crossings",
    "classical_132_count",
    "iter_permutations",
    "gen_polynomial",
    "classical_hist",
    "classical_tail",
    "vincular_bounded_by_classical",
    "matching_crossing_polynomial",
    "iter_matchings",
    "matching_crossings",
]
