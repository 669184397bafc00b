"""Enumeration kernels: the bulk tables behind the exhaustive routes.

``BACKEND`` names the one backend, and every kernel after it in ``__all__``
returns plain lists of ints, nested but for ``matching_crossing_hist``'s flat
histogram, built afresh on each call so that a caller may keep them; the
library reads the signed-path sums as polynomials, from ``labelled_sum`` and
``core_series``.
The labelled-path and left-factor tables are transfer DPs over path
heights, polynomial in n; the ascent table is a DP over the 2^n sets of
used values.  The crossing statistics stay brute force over
every permutation or matching, each one counted from its definition:
computing them through open-arc counts would run the bijection they are the
oracle for.
"""

from __future__ import annotations

from itertools import permutations

from .caps import LEFT_FACTOR_CAP, MATCHING_CAP, PERMUTATION_CAP, SIGNED_PATH_CAP
from .laurent import ONE, Y, ZERO, LaurentPoly

BACKEND = "python"


def ascent_pattern_counts(n: int) -> list[list[int]]:
    """counts[a][p] = #permutations of n with a ascents and p vincular 13-2 patterns.

    An occurrence of 13-2 needs adjacent positions i, i+1 and a later j with
    w[i] < w[j] < w[i+1].  The DP builds permutations left to right over the
    states (set of used values, last value).  Placing b after a < b adds one
    ascent and one occurrence for each value strictly between a and b that
    is still unused, since that value must come later.
    """
    if not 1 <= n <= PERMUTATION_CAP:
        raise ValueError(f"n must be in 1..{PERMUTATION_CAP}")
    width = n * (n - 1) // 2 + 1  # a histogram key is asc * width + pat
    full = (1 << n) - 1
    layer = {(1 << (v - 1), v): {0: 1} for v in range(1, n + 1)}
    for _ in range(n - 1):
        new: dict = {}
        for (used, a), hist in layer.items():
            free = full ^ used
            for b in range(1, n + 1):
                bit = 1 << (b - 1)
                if not free & bit:
                    continue
                delta = 0
                if a < b:
                    between = (1 << (b - 1)) - (1 << a)  # the values a+1..b-1
                    delta = width + (between & free).bit_count()
                target = new.setdefault((used | bit, b), {})
                for key, c in hist.items():
                    key += delta
                    target[key] = target.get(key, 0) + c
        layer = new
    counts = [[0] * width for _ in range(n)]
    for hist in layer.values():
        for key, c in hist.items():
            counts[key // width][key % width] += c
    return counts


def wex_crossing_counts(n: int) -> list[list[int]]:
    """counts[e][c] = #permutations of n with e weak exceedances and c crossings.

    Crossings are pairs i < j <= w_i < w_j together with pairs i > j > w_i > w_j.
    Every permutation is visited, built position by position; each pair of
    positions is counted when its later position is filled.
    """
    if not 1 <= n <= PERMUTATION_CAP:
        raise ValueError(f"n must be in 1..{PERMUTATION_CAP}")
    cmax = n * (n - 1) // 2
    counts = [[0] * (cmax + 1) for _ in range(n + 1)]

    # Value v at position r closes the crossings (p, r), p < r, with
    # r <= w_p < v (the used values in [r, v)) or p > v > w_p (counted
    # ahead in behind[v], which is 0 for v >= r).
    def rec(r: int, unused: list[int], used: int, behind: list[int], wex: int, cr: int):
        low = 1 << (r - 1)
        if r == n - 2:
            # The last three positions, each order of the three values left,
            # inline: v at r, y at r + 1, z at n.  Placing a value u < its
            # position s adds one to behind[x] for u < x < s, which the
            # chained comparisons add for y and z.
            for v, y, z in permutations(unused):
                extra = (behind[v] + behind[y] + behind[z]
                         + (v < y < r) + (v < z < r) + (y < z <= r))
                if v >= r:
                    extra += (used & ((1 << (v - 1)) - low)).bit_count()
                if y > r:
                    extra += ((used | 1 << (v - 1)) & ((1 << (y - 1)) - (low << 1))).bit_count()
                counts[wex + (v >= r) + (y > r) + (z == n)][cr + extra] += 1
            return
        for idx, v in enumerate(unused):
            bit = 1 << (v - 1)
            extra = behind[v]
            if v >= r:
                extra += (used & (bit - low)).bit_count()
                after = behind
            else:
                after = behind[:]
                for x in range(v + 1, r):
                    after[x] += 1
            if r == n:  # n <= 2 only
                counts[wex + (v >= r)][cr + extra] += 1
            else:
                rec(r + 1, unused[:idx] + unused[idx + 1 :], used | bit, after,
                    wex + (v >= r), cr + extra)

    rec(1, list(range(1, n + 1)), 0, [0] * (n + 1), 0, 0)
    return counts


def vincular_classical_joint(n: int) -> list[list[int]]:
    """counts[v][c] over permutations of n: v vincular 13-2, c classical 1-3-2."""
    if not 1 <= n <= PERMUTATION_CAP:
        raise ValueError(f"n must be in 1..{PERMUTATION_CAP}")
    vmax = n * (n - 1) // 2
    cmax = n * (n - 1) * (n - 2) // 6
    counts = [[0] * (cmax + 1) for _ in range(vmax + 1)]
    for w in permutations(range(1, n + 1)):
        vin = 0
        cla = 0
        for i in range(n - 2):
            wi = w[i]
            for j in range(i + 1, n - 1):
                wj = w[j]
                if wi < wj:
                    adjacent = j == i + 1
                    for k in range(j + 1, n):
                        if wi < w[k] < wj:
                            cla += 1
                            if adjacent:
                                vin += 1
        counts[vin][cla] += 1
    return counts


def matching_crossing_hist(n: int) -> list[int]:
    """hist[c] = #perfect matchings of {1..2n} with c crossings."""
    if not 1 <= n <= MATCHING_CAP:
        raise ValueError(f"n must be in 1..{MATCHING_CAP}")
    cmax = n * (n - 1) // 2
    hist = [0] * (cmax + 1)
    free = list(range(1, 2 * n + 1))

    def rec(free: list[int], ends: list[int], cr: int):
        if not free:
            hist[cr] += 1
            return
        a = free[0]
        rest = free[1:]
        for idx, b in enumerate(rest):
            # new pair (a, b) crosses an existing pair (c, d) iff c < a < d < b
            extra = sum(1 for d in ends if a < d < b)
            rec(rest[:idx] + rest[idx + 1 :], ends + [b], cr + extra)

    rec(free, [], 0)
    return hist


# Labelled bicoloured Motzkin steps.  Per-step weight choices, for a step
# starting at height h:
#   NE, E1:  y   (plain)   or  -y*q^(h+1)  (starred)
#   SE, E2:  1   (plain)   or  -q^h        (starred)
# The restricted (core) set, paths.LabeledMotzkinPath.in_core_set, also
# requires every east step to be starred and forbids a plain NE immediately
# followed by a plain SE.  Both sums take lengths 0..SIGNED_PATH_CAP; length 0
# is the empty path, whose sum is 1.


def labelled_sum(n: int) -> LaurentPoly:
    """The signed weight sum over all labelled closed paths of length n.

    A step's plain and starred choices lead to the same height, so the DP
    sums their weights: a step from height g weighs y(1 - q^(g+1)) if it is
    NE or E1, and 1 - q^g if it is SE or E2.  If p[g] sums the paths so far
    that end at height g, the sum after one more step at height h is
    c[h] + c[h+1], with c[m] = (1 - q^m) (y p[m-1] + p[m]): c[h] takes NE
    from h-1 and E2 from h, and c[h+1] takes E1 from h and SE from h+1.
    """
    if not 0 <= n <= SIGNED_PATH_CAP:
        raise ValueError(f"n must be in 0..{SIGNED_PATH_CAP}")
    dp = [ONE]
    for pos in range(n):
        high = min(len(dp), n - pos - 1)  # higher paths cannot close in time
        dp += [ZERO, ZERO]
        c = [ZERO]  # c[0] = 0: E2 at height 0 weighs 1 - 1
        for m in range(1, high + 2):
            a = dp[m - 1] * Y + dp[m]
            c.append(a - a * LaurentPoly.monomial(1, m))
        dp = [c[h] + c[h + 1] for h in range(high + 1)]
    return dp[0]


def core_series(n: int, mark_z: bool) -> list:
    """[S_0, S_1, ...]: S_z is the signed weight sum over the core paths of
    length n with z starred steps (the whole sum is S_0 unless mark_z).

    The DP runs over the states (height, last step was a plain NE).
    """
    if not 0 <= n <= SIGNED_PATH_CAP:
        raise ValueError(f"n must be in 0..{SIGNED_PATH_CAP}")
    dz = 1 if mark_z else 0
    states = {(0, False): [ONE]}
    for pos in range(n):
        top = n - pos - 1  # a path must be able to close in the steps left
        new: dict = {}
        for (h, plain_ne), sums in states.items():
            # (height after, plain NE flag after, starred, e_y step, e_q step)
            moves = [
                (h, False, True, 1, h + 1),  # E1*
                (h, False, True, 0, h),  # E2*
                (h + 1, False, True, 1, h + 1),  # NE*
                (h + 1, True, False, 1, 0),  # NE
            ]
            if h > 0:
                moves.append((h - 1, False, True, 0, h))  # SE*
                if not plain_ne:
                    moves.append((h - 1, False, False, 0, 0))  # SE
            for nh, flag, starred, dey, shift in moves:
                if nh > top:
                    continue
                target = new.setdefault((nh, flag), [])
                dzs, sign = (dz, -1) if starred else (0, 1)
                weight = LaurentPoly.monomial(sign, shift, dey)
                target += [ZERO] * (len(sums) + dzs - len(target))
                for z, p in enumerate(sums, dzs):
                    target[z] = target[z] + p * weight
        states = new
    return states[0, False]


def signed_path_table(n: int, restricted: bool) -> list[list[int]]:
    """table[e_y][e_q] = signed count of labelled closed paths of length n.

    Unrestricted: the full labelled set; restricted: east steps starred and
    no all-plain peak.  Either way the table encodes the signed weight sum.
    """
    total = core_series(n, False)[0] if restricted else labelled_sum(n)
    qmax = (n + 1) * (n + 1) // 4 + 1
    table = [[0] * (qmax + 1) for _ in range(n + 1)]
    for eq, ey, c in total.terms():
        table[ey][eq] = c
    return table


def left_factor_counts(n: int) -> list[list[int]]:
    """counts[k][j]: bicoloured Motzkin prefixes of length n, final height k,
    with j steps that are south-east or east of type 1."""
    if not 0 <= n <= LEFT_FACTOR_CAP:
        raise ValueError(f"n must be in 0..{LEFT_FACTOR_CAP}")
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    counts[0][0] = 1
    for pos in range(n):
        new = [[0] * (n + 1) for _ in range(n + 1)]
        for h in range(pos + 1):
            for j in range(pos + 1):
                c = counts[h][j]
                if not c:
                    continue
                new[h + 1][j] += c  # NE
                new[h][j + 1] += c  # E1
                new[h][j] += c  # E2
                if h > 0:
                    new[h - 1][j + 1] += c  # SE
        counts = new
    return counts


__all__ = [
    "BACKEND",
    "ascent_pattern_counts",
    "wex_crossing_counts",
    "vincular_classical_joint",
    "matching_crossing_hist",
    "signed_path_table",
    "left_factor_counts",
]
