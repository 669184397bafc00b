"""Reference permutation/matching statistics and their generating polynomials."""

import pytest

from pasep import closedforms, permstats
from pasep.laurent import ONE, Q, Y
from pasep.qcombinat import catalan


def test_single_permutation_statistics():
    assert permstats.ascents((1, 3, 2)) == 1
    assert permstats.pattern_13_2((1, 3, 2)) == 1
    assert permstats.ascents(tuple(range(1, 6))) == 4
    assert permstats.pattern_13_2(tuple(range(1, 6))) == 0
    assert permstats.ascents((3, 2, 1)) == 0
    assert permstats.pattern_13_2((3, 2, 1)) == 0


def test_weak_exceedances_and_crossings():
    assert permstats.weak_exceedances((1, 2)) == 2
    assert permstats.crossings((1, 2)) == 0
    assert permstats.weak_exceedances((2, 1)) == 1
    assert permstats.crossings((2, 1)) == 0
    assert permstats.weak_exceedances((1, 2, 3)) == 3
    assert permstats.crossings((2, 3, 1)) == 1


def test_invalid_permutation_rejected():
    with pytest.raises(ValueError):
        permstats.ascents((1, 1, 2))


def test_gen_polynomial_small():
    assert permstats.gen_polynomial(2, "ascent_pattern") == Y + Y**2
    assert permstats.gen_polynomial(2, "wex_crossing") == Y + Y**2
    p3 = Y**3 + (3 * ONE + Q) * Y**2 + Y
    assert permstats.gen_polynomial(3, "ascent_pattern") == p3
    assert permstats.gen_polynomial(3, "wex_crossing") == p3
    assert permstats.gen_polynomial(4, "ascent_pattern").eval_q(1).eval_y(1).to_int() == 24
    with pytest.raises(ValueError):
        permstats.gen_polynomial(3, "nope")


def test_gen_polynomial_matches_closed_form():
    for n in range(1, 8):
        p = closedforms.partition_polynomial(n)
        assert permstats.gen_polynomial(n, "ascent_pattern") == p
        assert permstats.gen_polynomial(n, "wex_crossing") == p


def test_gen_polynomial_degrees():
    for n in range(1, 8):
        ys = permstats.gen_polynomial(n, "ascent_pattern").y_support()
        assert min(ys) == 1 and max(ys) == n


def test_classical_counts():
    assert permstats.classical_132_count((1, 3, 2)) == 1
    for n in range(1, 9):
        assert permstats.classical_tail(n, 0) == (catalan(n),)
    assert permstats.vincular_bounded_by_classical(7)


def test_matchings():
    assert permstats.matching_crossing_polynomial(1) == ONE
    assert permstats.matching_crossing_polynomial(2) == 2 * ONE + Q
    assert permstats.matching_crossing_polynomial(3).eval_q(1).to_int() == 15
    ms = list(permstats.iter_matchings(2))
    assert len(ms) == 3
    assert sorted(permstats.matching_crossings(m) for m in ms) == [0, 0, 1]
