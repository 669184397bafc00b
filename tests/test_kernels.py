"""The transfer-DP kernels against per-object enumeration."""

import math

import pytest

import pasep
from pasep import cli, kernels, paths, permstats
from pasep.laurent import ZERO, LaurentPoly


def test_backend_constant():
    assert pasep.BACKEND == kernels.BACKEND == "python"
    assert kernels.__all__[0] == "BACKEND"
    with pytest.raises(AttributeError, match="no attribute 'BACKEN'"):
        pasep.BACKEN


@pytest.mark.parametrize("n", range(0, 7))
def test_labelled_and_core_sums_match_paths(n):
    labelled = core = ZERO
    for p in paths.iter_labelled_paths(n):
        weight = LaurentPoly.monomial(*p.signed_exponents())
        labelled = labelled + weight
        if p.in_core_set():
            core = core + weight
    assert labelled == paths.labelled_path_sum(n)
    assert core == paths.core_signed_sum(n)


@pytest.mark.parametrize("n", range(0, 7))
def test_core_z_series_matches_paths(n):
    want: dict = {}
    for p in paths.iter_labelled_paths(n):
        if p.in_core_set():
            z = sum(1 for _, starred in p.steps if starred)
            sign, eq, ey = p.signed_exponents()
            want[(z, eq, ey)] = want.get((z, eq, ey), 0) + sign
    got = {
        (z, eq, ey): c
        for z, poly in enumerate(kernels.core_series(n, True))
        for eq, ey, c in poly.terms()
    }
    assert got == {k: c for k, c in want.items() if c}


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_tables_match_definitions(n):
    asc = [[0] * (n * (n - 1) // 2 + 1) for _ in range(n)]
    wex = [[0] * (n * (n - 1) // 2 + 1) for _ in range(n + 1)]
    for w in permstats.iter_permutations(n):
        asc[permstats.ascents(w)][permstats.pattern_13_2(w)] += 1
        wex[permstats.weak_exceedances(w)][permstats.crossings(w)] += 1
    assert kernels.ascent_pattern_counts(n) == asc
    assert kernels.wex_crossing_counts(n) == wex


def test_crossing_table_at_cap_has_eulerian_marginals():
    """At n = 9, the table sums to 9! and its weak-exceedance marginals are
    the Eulerian numbers A(9, e - 1), from their alternating sum."""
    n = kernels.PERMUTATION_CAP

    def eulerian(k):
        return sum(
            (-1) ** i * math.comb(n + 1, i) * (k + 1 - i) ** n for i in range(k + 1)
        )

    counts = kernels.wex_crossing_counts(n)
    assert sum(map(sum, counts)) == math.factorial(n)
    assert [sum(row) for row in counts] == [0] + [eulerian(e - 1) for e in range(1, n + 1)]


@pytest.mark.parametrize("n", range(1, 9))
def test_classical_tail_matches_joint_histogram(n):
    full = [0] * (n * (n - 1) * (n - 2) // 6 + 7)
    for row in kernels.vincular_classical_joint(n):
        for c, v in enumerate(row):
            full[c] += v
    for k in range(7):
        assert permstats.classical_tail(n, k) == tuple(full[: k + 1]), (n, k)


def test_table_totals_are_factorials():
    for n in range(1, 7):
        total = sum(sum(row) for row in kernels.ascent_pattern_counts(n))
        assert total == math.factorial(n)
        total = sum(sum(row) for row in kernels.wex_crossing_counts(n))
        assert total == math.factorial(n)


def test_signed_path_cap():
    n = kernels.SIGNED_PATH_CAP
    assert kernels.signed_path_table(n, True)[0][0] == (-1) ** n
    for restricted in (False, True):
        # Length 0 is the empty path, of weight 1.
        assert kernels.signed_path_table(0, restricted) == [[1, 0]]
        with pytest.raises(ValueError, match=f"n must be in 0..{n}"):
            kernels.signed_path_table(n + 1, restricted)
    for bad in (-1, n + 1):
        with pytest.raises(ValueError, match=f"n must be in 0..{n}"):
            kernels.labelled_sum(bad)
        with pytest.raises(ValueError, match=f"n must be in 0..{n}"):
            kernels.core_series(bad, True)
    with pytest.raises(ValueError):
        paths.labelled_path_sum(n + 1)
    with pytest.raises(ValueError, match="n >= 1 required"):
        paths.partition_polynomial_via_signed_paths(0)


def test_permutation_cap(capsys):
    n = kernels.PERMUTATION_CAP
    for call in (
        lambda: kernels.ascent_pattern_counts(n + 1),
        lambda: kernels.wex_crossing_counts(n + 1),
        lambda: kernels.vincular_classical_joint(n + 1),
        lambda: permstats.classical_hist(n + 1),
        lambda: permstats.classical_tail(n + 1, 0),
        lambda: permstats.vincular_bounded_by_classical(n + 1),
    ):
        with pytest.raises(ValueError):
            call()
    for method, stat_pair in (
        ("permutations-ascent", "ascent_pattern"),
        ("permutations-crossing", "wex_crossing"),
    ):
        with pytest.raises(ValueError):
            permstats.gen_polynomial(n + 1, stat_pair)
        assert cli.METHOD_CAPS[method] == n
        assert cli.main(["eval", "--method", method, "-n", str(n + 1)]) == 3
        assert "capped" in capsys.readouterr().err


def test_matching_cap():
    n = kernels.MATCHING_CAP
    assert n == 8
    for call in (kernels.matching_crossing_hist, permstats.matching_crossing_polynomial):
        with pytest.raises(ValueError):
            call(n + 1)


def test_left_factor_cap():
    n = kernels.LEFT_FACTOR_CAP
    table = kernels.left_factor_counts(n)
    for k in range(n + 1):
        for j in range(n + 1):
            assert table[k][j] == paths.left_factor_formula(n, k, j)
    with pytest.raises(ValueError):
        kernels.left_factor_counts(n + 1)
