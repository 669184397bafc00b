"""Motzkin transfer polynomial, labelled sums, decomposition and LGV checks."""

import dataclasses
from functools import reduce
from itertools import product

import pytest

from pasep import ansatz, cli, kernels, paths
from pasep.laurent import ONE, Q, Y, ZERO, LaurentPoly
from pasep.qcombinat import catalan, q_int

_KIND = {"U": paths.NE, "D": paths.SE, "F1": paths.E1, "F2": paths.E2}


def _path(text):
    """The path that serialize() writes as text, e.g. "U F1* D*"."""
    return paths.LabeledMotzkinPath(
        tuple((_KIND[tok.rstrip("*")], tok.endswith("*")) for tok in text.split())
    )


def _weight(p):
    """The product of p's per-step labelled weights, a signed monomial."""
    return LaurentPoly.monomial(*p.signed_exponents())


def test_motzkin_small():
    assert paths.motzkin_polynomial(1) == Y
    assert paths.motzkin_polynomial(2) == Y + Y**2
    assert paths.motzkin_polynomial(3) == Y**3 + (3 * ONE + Q) * Y**2 + Y
    assert paths.motzkin_polynomial(3).eval_q(0).eval_y(1).to_int() == 5


def test_motzkin_matches_matrix():
    for n in range(1, 13):
        m = ansatz.yd_plus_e(n + 1)
        assert paths.motzkin_polynomial(n) == Y * ansatz.scalar_product(m, n - 1)


def _packed(row, b):
    return sum(c << i * b for i, c in enumerate(row))


@pytest.mark.parametrize("row", [[0, 0, 3, 0, 5], [7, 0, 0, 1], [0, 2**40, 0, 0, 9, 0, 1]])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 20])
def test_window_is_the_product_by_q_int(row, m):
    """The packed window, read back, is the row times [m]_q: leading and
    inner zero slots stay in place, and no slot carries into the next."""
    b = 64
    got = LaurentPoly.from_rows(paths._unpacked({2: paths._window(_packed(row, b), m, b)}, b))
    assert got == LaurentPoly.from_rows({2: (0, row)}) * q_int(m)


def test_slot_bits_hold_every_state_up_to_the_cap():
    """At every n the CLI accepts, the slot width exceeds the largest total
    weight of the transfer's states at q = y = 1, which bounds each of their
    coefficients.  The totals come from the same transfer at q = y = 1,
    where each state is one int."""
    for n in range(1, cli.METHOD_CAPS["motzkin"] + 1):
        b = paths._slot_bits(n)
        assert b % 8 == 0
        dp, largest = [1], 1
        for step in range(1, n + 1):
            top = n - step
            new = [0] * (min(len(dp), top) + 1)
            for h, v in enumerate(dp):
                if h <= top:
                    new[h] += (h + 1) * v
                    if h < top:
                        new[h + 1] += (h + 1) * v
                if h > 0:
                    new[h - 1] += h * v
                    if h <= top:
                        new[h] += h * v
            dp = new
            largest = max(largest, sum(dp))
        assert largest < 2**b, n


def test_labelled_path_sum_small():
    assert paths.labelled_path_sum(0) == ONE
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
        for k, row in enumerate(kernels.left_factor_counts(n)):
            core = paths.core_signed_sum(k)
            for j in range(n - k + 1):
                c = row[j]
                if c:
                    total = total + LaurentPoly.monomial(c, 0, j) * core
        assert total == paths.labelled_path_sum(n), n


def test_left_factor_counts_match_formula():
    for n in range(11):
        table = kernels.left_factor_counts(n)
        for k in range(n + 1):
            for j in range(n + 1):
                assert table[k][j] == paths.left_factor_formula(n, k, j), (n, k, j)


def test_left_factor_examples():
    assert kernels.left_factor_counts(1)[1][0] == 1
    assert kernels.left_factor_counts(2)[0][1] == 3
    assert kernels.left_factor_counts(2)[0][0] == 1


def test_path_type_weights_and_serialisation():
    p = LabeledMotzkinPath = paths.LabeledMotzkinPath
    single = p(((paths.E1, False),))
    assert _weight(single) == Y
    starred = p(((paths.E1, True),))
    assert _weight(starred) == -1 * Y * Q
    text = "U F1* D*"
    assert _path(text).serialize() == text
    with pytest.raises(ValueError):
        p(((paths.SE, False),))


def test_decompose_examples():
    # all-plain path: empty core
    p = _path("U D")
    left, core = paths.decompose(p)
    assert left == (paths.NE, paths.SE) and core.steps == ()
    # single starred flat step becomes the whole core
    p = _path("F2*")
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
    for text, left_text, core_text in cases:
        p = _path(text)
        left, core = paths.decompose(p)
        assert left == tuple(_KIND[t] for t in left_text.split()), text
        assert core.serialize() == core_text, text
        assert paths.recompose(left, core) == p


def test_recompose_rejects_non_images():
    core = _path("F2*")
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


def test_walk_yields_each_path_with_its_decomposition_and_weight():
    """The walk folds the three step rules once per prefix; each path it
    yields carries what decompose, signed_exponents and recompose give for
    that path alone."""
    for n in range(7):
        walked = list(paths.iter_decomposed_paths(n))
        want = list(paths.iter_labelled_paths(n))
        assert [steps for steps, _, _, _, _ in walked] == [p.steps for p in want]
        assert len(want) == catalan(n + 1) * 2**n
        for (steps, left, core, weight, rebuilt), p in zip(walked, want):
            split = paths.decompose(p)
            assert (left, core) == (split[0], split[1].steps), p.serialize()
            assert weight == p.signed_exponents(), p.serialize()
            folded = reduce(paths._recompose_step, left, paths._RECOMPOSE_START)
            assert rebuilt == paths._fill(folded, core) == steps, p.serialize()
            assert paths.recompose(*split).steps == steps, p.serialize()


def test_lgv_translation_example():
    pair = paths.LatticePathPair(("N", "N"), ("N", "N"))
    assert paths.pair_to_left_factor(pair) == (paths.E1, paths.E1)


def test_lgv_intersecting_rejected():
    pair = paths.LatticePathPair(("N",), ("E",))
    assert not pair.is_nonintersecting()
    with pytest.raises(paths.IntersectingPair):
        paths.pair_to_left_factor(pair)


def test_lgv_nonintersecting_is_no_shared_vertex():
    """is_nonintersecting against its definition: the two vertex sets are
    disjoint, lower starting at (1,0) and upper at (0,1)."""

    def vertices(start, steps):
        x, y = start
        out = {(x, y)}
        for s in steps:
            x, y = (x + 1, y) if s == "E" else (x, y + 1)
            out.add((x, y))
        return out

    for n in range(7):
        for lower in product("NE", repeat=n):
            for upper in product("NE", repeat=n):
                pair = paths.LatticePathPair(lower, upper)
                want = not vertices((1, 0), lower) & vertices((0, 1), upper)
                assert pair.is_nonintersecting() == want, (lower, upper)


@dataclasses.dataclass(frozen=True)
class _DataclassPair:
    """LatticePathPair as a plain frozen dataclass."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("paths must have equal length")
        for s in self.lower + self.upper:
            if s not in ("N", "E"):
                raise ValueError(f"bad step {s!r}")


@dataclasses.dataclass(frozen=True)
class _DataclassPath:
    """LabeledMotzkinPath as a plain frozen dataclass."""

    steps: tuple

    def __post_init__(self):
        h = 0
        for kind, _ in self.steps:
            h += (kind == paths.NE) - (kind == paths.SE)
            if h < 0:
                raise ValueError("path dips below the axis")
        if h:
            raise ValueError("path does not return to height 0")


@pytest.mark.parametrize(
    "cls, ref, fields, other, text, rejected",
    [
        pytest.param(
            paths.LatticePathPair,
            _DataclassPair,
            (("E", "N"), ("N", "E")),
            (("E", "E"), ("N", "E")),
            "LatticePathPair(lower=('E', 'N'), upper=('N', 'E'))",
            [],  # see test_lattice_path_pair_rejects_what_the_dataclass_rejects
            id="LatticePathPair",
        ),
        pytest.param(
            paths.LabeledMotzkinPath,
            _DataclassPath,
            (((paths.NE, False), (paths.SE, True)),),
            (((paths.E1, True),),),
            "LabeledMotzkinPath(steps=(('NE', False), ('SE', True)))",
            [
                ((((paths.E2, True), (paths.SE, False), (paths.NE, False)),),
                 "path dips below the axis"),
                ((((paths.NE, False), (paths.E1, False)),),
                 "path does not return to height 0"),
            ],
            id="LabeledMotzkinPath",
        ),
    ],
)
def test_path_value_class_behaves_as_frozen_dataclass(cls, ref, fields, other, text, rejected):
    obj, ref_obj = cls(*fields), ref(*fields)
    names = [f.name for f in dataclasses.fields(ref)]
    assert tuple(getattr(obj, name) for name in names) == fields
    assert repr(obj) == repr(ref_obj).replace(ref.__name__, cls.__name__) == text
    assert hash(obj) == hash(ref_obj) == hash(fields)
    assert obj == cls(*fields)
    assert obj != cls(*other)
    assert obj != fields and obj.__eq__(ref_obj) is NotImplemented
    assert len({obj, cls(*fields)}) == 1
    for instance in (obj, ref_obj):
        for name in (names[0], "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, name, ())
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(instance, name)
    assert tuple(getattr(obj, name) for name in names) == fields
    for args, message in rejected:
        for c in (cls, ref):
            with pytest.raises(ValueError) as err:
                c(*args)
            assert str(err.value) == message


@pytest.mark.parametrize(
    "lower, upper, message",
    [
        (("N",), (), "paths must have equal length"),
        (("N", "X"), ("E", "E"), "bad step 'X'"),
        (("N",), ("e",), "bad step 'e'"),
    ],
)
def test_lattice_path_pair_rejects_what_the_dataclass_rejects(lower, upper, message):
    for cls in (paths.LatticePathPair, _DataclassPair):
        with pytest.raises(ValueError) as err:
            cls(lower, upper)
        assert str(err.value) == message


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
    assert paths.check_functional_equation(6) == []


def test_functional_equation_refuses_past_its_cap():
    cap = paths.FUNCTIONAL_EQUATION_CAP
    with pytest.raises(ValueError, match=f"t_order must be in 0..{cap}"):
        paths.check_functional_equation(cap + 1)


def test_functional_equation_t1_series():
    # [t^1] of the z-marked series is -qyz - z
    series = kernels.core_series(1, True)
    assert series == [ZERO, -(Q * Y + ONE)]
