"""Enumeration kernels: the bulk tables behind the exhaustive routes.

Every kernel in ``__all__`` returns plain nested lists of ints; the library
reads the signed-path sums as polynomials, from ``signed_path_sum``.  The
labelled-path and left-factor tables are transfer DPs over path heights,
polynomial in n; the ascent table is a DP over the 2^n sets of used values.  The crossing
statistics stay brute force over every permutation or matching, each one
counted from its definition: computing them through open-arc counts would
run the bijection they are the oracle for.
"""

from __future__ import annotations

from itertools import permutations

from .laurent import ONE, Y, ZERO, LaurentPoly

BACKEND = "python"

# Largest path length the signed-path table (and the signed-paths route) takes.
SIGNED_PATH_CAP = 24

# Largest n the permutation tables (and the permutation routes) take.
PERMUTATION_CAP = 9

# Largest n the matching table takes: (2n-1)!! matchings, 2027025 at the cap.
MATCHING_CAP = 8

# Largest length the left-factor table takes.
LEFT_FACTOR_CAP = 16


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
            if r == n:
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
# The restricted (core) set additionally requires every east step to be
# starred and forbids a plain NE immediately followed by a plain SE.


def _labelled_path_sum(n: int) -> LaurentPoly:
    """The signed weight sum over all labelled closed paths of length n.

    A step's plain and starred choices lead to the same height, so the DP
    sums their weights: a step from height g weighs y(1 - q^(g+1)) if it is
    NE or E1, and 1 - q^g if it is SE or E2.  If p[g] sums the paths so far
    that end at height g, the sum after one more step at height h is
    c[h] + c[h+1], with c[m] = (1 - q^m) (y p[m-1] + p[m]): c[h] takes NE
    from h-1 and E2 from h, and c[h+1] takes E1 from h and SE from h+1.
    """
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


def _core_path_counts(n: int, mark_z: bool) -> dict:
    """{z: poly}: the signed weight sum over the core paths of length n with
    z starred steps (z always 0 unless mark_z).

    The DP runs over the states (height, last step was a plain NE).
    """
    dz = 1 if mark_z else 0
    states = {(0, False): {0: ONE}}
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
                target = new.setdefault((nh, flag), {})
                dzs, sign = (dz, -1) if starred else (0, 1)
                weight = LaurentPoly.monomial(sign, shift, dey)
                for z, p in sums.items():
                    target[z + dzs] = target.get(z + dzs, ZERO) + p * weight
        states = new
    return states.get((0, False), {})


def signed_path_sum(n: int, restricted: bool) -> LaurentPoly:
    """The signed weight sum over labelled closed paths of length n, as a
    polynomial: the full labelled set, or the core subset if restricted."""
    if not 1 <= n <= SIGNED_PATH_CAP:
        raise ValueError(f"n must be in 1..{SIGNED_PATH_CAP}")
    if restricted:
        return _core_path_counts(n, False).get(0, ZERO)
    return _labelled_path_sum(n)


def signed_path_table(n: int, restricted: bool) -> list[list[int]]:
    """table[e_y][e_q] = signed count of labelled closed paths of length n.

    Unrestricted: the full labelled set; restricted: east steps starred and
    no all-plain peak.  Either way the table encodes the signed weight sum.
    """
    total = signed_path_sum(n, restricted)
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
