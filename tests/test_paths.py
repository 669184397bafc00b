"""Motzkin transfer polynomial, labelled sums, decomposition and LGV checks."""

from itertools import product

import pytest

from pasep import ansatz, paths
from pasep.laurent import ONE, Q, Y, ZERO, LaurentPoly
from pasep.qcombinat import catalan


def test_motzkin_small():
    assert paths.motzkin_polynomial(1) == Y
    assert paths.motzkin_polynomial(2) == Y + Y**2
    assert paths.motzkin_polynomial(3) == Y**3 + (3 * ONE + Q) * Y**2 + Y
    assert paths.motzkin_polynomial(3).eval_q(0).eval_y(1).to_int() == 5


def test_motzkin_matches_matrix():
    for n in range(1, 13):
        m = ansatz.yd_plus_e(n + 1)
        assert paths.motzkin_polynomial(n) == Y * ansatz.scalar_product(m, n - 1)


def test_labelled_path_sum_small():
    assert paths.labelled_path_sum(1) == Y - Y * Q
    assert paths.labelled_path_sum(2) == (ONE - Q) ** 2 * (Y + Y**2)


def test_labelled_path_extraction():
    for n in range(1, 10):
        assert paths.labelled_path_sum(n) == (ONE - Q) ** n * paths.motzkin_polynomial(n)


def test_core_signed_sums():
    assert paths.core_signed_sum(0) == ONE
    assert paths.core_signed_sum(1) == -1 * ONE - Y * Q
    assert paths.core_signed_sum(2) == ONE + Y * Q**2 + Y**2 * Q**2
    for k in range(11):
        assert paths.core_signed_sum(k) == (-1) ** k * paths.core_closed_form(k)


def test_core_closed_form():
    assert paths.core_closed_form(0) == ONE
    assert paths.core_closed_form(1) == ONE + Y * Q
    assert paths.core_closed_form(2) == ONE + Y * Q**2 + Y**2 * Q**2


def test_decomposition_sum_identity():
    for n in range(1, 10):
        total = ZERO
        for k in range(n + 1):
            core = paths.core_signed_sum(k)
            for j in range(n - k + 1):
                c = paths.left_factor_count(n, k, j)
                if c:
                    total = total + LaurentPoly.monomial(c, 0, j) * core
        assert total == paths.labelled_path_sum(n), n


def test_left_factor_counts_match_formula():
    for n in range(11):
        for k in range(n + 1):
            for j in range(n + 1):
                assert paths.left_factor_count(n, k, j) == paths.left_factor_formula(
                    n, k, j
                ), (n, k, j)


def test_left_factor_examples():
    assert paths.left_factor_count(1, 1, 0) == 1
    assert paths.left_factor_count(2, 0, 1) == 3
    assert paths.left_factor_count(2, 0, 0) == 1


def test_path_type_weights_and_serialisation():
    p = LabeledMotzkinPath = paths.LabeledMotzkinPath
    single = p(((paths.E1, False),))
    assert single.weight() == Y
    starred = p(((paths.E1, True),))
    assert starred.weight() == -1 * Y * Q
    text = "U F1* D*"
    rt = p.parse(text)
    assert rt.serialize() == text
    with pytest.raises(ValueError):
        p(((paths.SE, False),))


def test_decompose_examples():
    # all-plain path: empty core
    p = paths.LabeledMotzkinPath.parse("U D")
    left, core = paths.decompose(p)
    assert left == (paths.NE, paths.SE) and len(core) == 0
    # single starred flat step becomes the whole core
    p = paths.LabeledMotzkinPath.parse("F2*")
    left, core = paths.decompose(p)
    assert left == (paths.NE,)
    assert core.steps == ((paths.E2, True),)
    # (path, left factor, core): each kind of core step under bracket matching
    cases = [
        # the first plain U is unmatched when the starred step ends its run
        ("U U D F1* D", "U U D U U", "U F1* D"),
        # a plain D with no open plain U in its run
        ("U* U D D", "U U D U", "U* D"),
        # a plain F1 inside a run stays in the left factor
        ("U F1 U D F2* D", "U F1 U D U U", "U F2* D"),
        # a plain U still open when the path ends with a starred step
        ("U D*", "U U", "U D*"),
    ]
    kind = {"U": paths.NE, "D": paths.SE, "F1": paths.E1, "F2": paths.E2}
    for text, left_text, core_text in cases:
        p = paths.LabeledMotzkinPath.parse(text)
        left, core = paths.decompose(p)
        assert left == tuple(kind[t] for t in left_text.split()), text
        assert core.serialize() == core_text, text
        assert paths.recompose(left, core) == p


def test_recompose_rejects_non_images():
    core = paths.LabeledMotzkinPath.parse("F2*")
    with pytest.raises(ValueError):  # the left factor dips below the axis
        paths.recompose((paths.NE, paths.SE, paths.SE, paths.NE), core)
    with pytest.raises(ValueError):  # two core slots, one core step
        paths.recompose((paths.NE, paths.NE), core)
    with pytest.raises(ValueError):  # no core slot, one core step
        paths.recompose((paths.NE, paths.SE), core)


def test_decompose_is_greedy_closed_prefix_peeling():
    """decompose against the rule it implements, written out directly: peel the
    longest plain prefix that closes at its starting height, then take one
    step into the core, and repeat."""
    rise = {paths.NE: 1, paths.SE: -1, paths.E1: 0, paths.E2: 0}

    def reference(p):
        steps = p.steps
        left, core, i = [], [], 0
        while i < len(steps):
            h = closed = 0
            for d, (kind, starred) in enumerate(steps[i:], start=1):
                h += rise[kind]
                if starred or h < 0:
                    break
                if h == 0:
                    closed = d
            left.extend(kind for kind, _ in steps[i : i + closed])
            i += closed
            if i < len(steps):
                core.append(steps[i])
                left.append(paths.NE)
                i += 1
        return tuple(left), tuple(core)

    for n in range(1, 7):
        for p in paths.iter_labelled_paths(n):
            left, core = paths.decompose(p)
            assert (left, core.steps) == reference(p), p.serialize()


def test_decompose_roundtrip_exhaustive():
    for n in range(1, 8):
        count = 0
        for p in paths.iter_labelled_paths(n):
            count += 1
            left, core = paths.decompose(p)
            assert core.in_core_set()
            assert paths.recompose(left, core) == p
            j = sum(1 for kind in left if kind in (paths.SE, paths.E1))
            assert LaurentPoly.monomial(1, 0, j) * core.weight() == p.weight()
        assert count == catalan(n + 1) * 2**n


def test_lgv_translation_example():
    pair = paths.LatticePathPair(("N", "N"), ("N", "N"))
    assert paths.pair_to_left_factor(pair) == (paths.E1, paths.E1)


def test_lgv_intersecting_rejected():
    pair = paths.LatticePathPair(("N",), ("E",))
    assert not pair.is_nonintersecting()
    with pytest.raises(paths.IntersectingPair):
        paths.pair_to_left_factor(pair)


def test_lgv_bijection_exhaustive():
    for n in range(8):
        image = {}
        for lower in product("NE", repeat=n):
            for upper in product("NE", repeat=n):
                pair = paths.LatticePathPair(tuple(lower), tuple(upper))
                if not pair.is_nonintersecting():
                    continue
                lf = paths.pair_to_left_factor(pair)
                assert paths.left_factor_to_pair(lf) == pair
                image[lf] = image.get(lf, 0) + 1
        admissible = {}
        for steps, k, j in paths.iter_left_factors(n):
            admissible[steps] = (k, j)
        assert set(image) == set(admissible)
        assert all(v == 1 for v in image.values())
        for lf, (k, j) in admissible.items():
            pair = paths.left_factor_to_pair(lf)
            assert sum(1 for s in pair.lower if s == "N") == j


def test_functional_equation():
    rep = paths.check_functional_equation(6)
    assert rep.ok, rep.violations


def test_functional_equation_t1_series():
    # [t^1] of the z-marked series is -qyz - z
    series = paths._core_zsum(1)
    assert series == {1: -1 * (Q * Y + ONE)}
