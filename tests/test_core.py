import gc
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from artifact import core
from artifact.catalog import _assemble, logan_class, weierstrass
from artifact.core import (
    BaseMismatch,
    BoundaryIndex,
    DivisorClass,
    InvalidBoundary,
    MalformedJSON,
    ModuliBase,
    NotGenus2,
    ParamOutOfRange,
    PicError,
    UnknownCurve,
    builtin_test_curve,
    canonical_index,
    diff_first,
    enumerate_boundary,
    equals,
    from_json,
    mirror_index,
    normalize_genus2,
    pair,
    relabel,
    to_csv,
    to_json,
    to_latex,
    to_latex_expr,
    try_canonical_index,
    zero_class,
)

from artifact.maps import forget_point, pullback
from conftest import random_class, seeded


class TestBase:
    def test_rejects_small_genus(self):
        with pytest.raises(ParamOutOfRange):
            ModuliBase(1, 3)

    def test_rejects_negative_points(self):
        with pytest.raises(ParamOutOfRange):
            ModuliBase(3, -1)

    def test_labels(self):
        assert list(ModuliBase(3, 2).labels()) == [1, 2]


def enumerate_by_canonicalizing(base):
    """The keys of a base by canonicalizing every raw pair, deduplicating and
    sorting: the reference for the direct enumeration."""
    out = set()
    labels = sorted(base.labels())
    for mask in range(1 << base.n):
        S = frozenset(labels[t] for t in range(base.n) if mask >> t & 1)
        for i in range(base.g + 1):
            key = try_canonical_index(base, i, S)
            if key is not None:
                out.add(key)
    return sorted(out, key=BoundaryIndex.sort_key)


class TestCanonicalIndex:
    def test_unstable_rational_side_is_none(self):
        # genus-0 side with fewer than two special points is empty
        assert try_canonical_index(ModuliBase(3, 2), 0, {1}) is None
        assert try_canonical_index(ModuliBase(3, 2), 0, set()) is None

    def test_unstable_full_genus_side_is_none(self):
        assert try_canonical_index(ModuliBase(3, 2), 3, {1, 2}) is None
        assert try_canonical_index(ModuliBase(3, 0), 3, set()) is None

    def test_out_of_range_is_none(self):
        base = ModuliBase(3, 2)
        assert try_canonical_index(base, -1, {1, 2}) is None
        assert try_canonical_index(base, 4, {1}) is None
        assert try_canonical_index(base, 1, {5}) is None

    def test_mirror_canonicalizes_to_first_point(self):
        key = canonical_index(ModuliBase(3, 2), 1, {2})
        assert (key.i, set(key.S)) == (2, {1})

    def test_unpointed_canonicalizes_to_low_genus(self):
        key = canonical_index(ModuliBase(5, 0), 4, set())
        assert (key.i, key.S) == (1, frozenset())

    def test_already_canonical_is_fixed(self):
        base = ModuliBase(4, 3)
        key = canonical_index(base, 2, {1, 3})
        assert key == BoundaryIndex(2, frozenset({1, 3}))

    def test_invalid_raises(self):
        with pytest.raises(InvalidBoundary):
            canonical_index(ModuliBase(3, 2), 0, {1})

    def test_mirror_roundtrip(self):
        base = ModuliBase(4, 3)
        for key in enumerate_boundary(base):
            i2, S2 = mirror_index(base, key)
            assert canonical_index(base, i2, S2) == key

    def test_enumeration_counts(self):
        keys31 = enumerate_boundary(ModuliBase(3, 1))
        assert [(k.i, set(k.S)) for k in keys31] == [(1, {1}), (2, {1})]
        keys32 = enumerate_boundary(ModuliBase(3, 2))
        assert [(k.i, set(k.S)) for k in keys32] == [
            (0, {1, 2}),
            (1, {1}),
            (1, {1, 2}),
            (2, {1}),
            (2, {1, 2}),
        ]

    @pytest.mark.parametrize("g,n", [(g, n) for g in range(2, 7) for n in range(6)])
    def test_enumeration_is_sorted_and_duplicate_free(self, g, n):
        # sorted() without a key compares through __lt__, the reference order
        keys = enumerate_boundary(ModuliBase(g, n))
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("g", range(2, 9))
    def test_enumeration_equals_canonicalizing_every_raw_pair(self, g):
        for n in range(9):
            base = ModuliBase(g, n)
            keys = enumerate_boundary(base)
            assert keys == enumerate_by_canonicalizing(base)
            assert all(type(k) is BoundaryIndex for k in keys)

    @pytest.mark.parametrize("mutate", [list.clear, list.reverse])
    def test_caller_cannot_touch_the_cache(self, mutate):
        w, l = to_json(weierstrass(4)), to_json(logan_class(4, (2, 1, 1)))
        for base in (ModuliBase(4, 1), ModuliBase(4, 3)):
            keys = list(enumerate_boundary(base))
            mutate(enumerate_boundary(base))
            assert enumerate_boundary(base) == keys
        assert to_json(weierstrass(4)) == w
        assert to_json(logan_class(4, (2, 1, 1))) == l


class TestVectorSpace:
    def test_constructor_merges_mirror_representatives(self):
        base = ModuliBase(3, 2)
        a = DivisorClass(base, boundary=[((1, {2}), 1), ((2, {1}), 2)])
        assert a.delta(1, {2}) == 3
        assert a.delta(2, {1}) == 3

    def test_zero_coefficients_pruned(self):
        base = ModuliBase(3, 1)
        a = DivisorClass(base, boundary=[((1, {1}), 5), ((2, frozenset({1})), -5)])
        # delta_{1:{1}} mirrors to delta_{2:{1}}... no: these are distinct keys
        assert a.delta(1, {1}) == 5
        b = a - a
        assert b.is_zero()
        assert b.boundary == {}

    def test_psi_length_enforced(self):
        with pytest.raises(BaseMismatch):
            DivisorClass(ModuliBase(3, 2), psi=[1])

    def test_linear_arithmetic(self):
        rng = seeded(11)
        base = ModuliBase(4, 2)
        a = random_class(rng, base)
        b = random_class(rng, base)
        assert equals(2 * (a + b) - b, a + a + b)
        assert equals(a * Fraction(1, 3) * 3, a)
        assert (a - a).is_zero()
        assert equals(-a, a * -1)

    def test_base_mismatch_raises(self):
        a = zero_class(ModuliBase(3, 1))
        b = zero_class(ModuliBase(4, 1))
        with pytest.raises(BaseMismatch):
            a + b

    def test_immutable(self):
        a = zero_class(ModuliBase(3, 1))
        with pytest.raises(AttributeError):
            a.lam = 1


@pytest.mark.parametrize("build,error", [
    (lambda b: DivisorClass(b, lam="x"), ParamOutOfRange),
    (lambda b: DivisorClass(b, lam=None), ParamOutOfRange),
    (lambda b: DivisorClass(b, lam="1/0"), ParamOutOfRange),
    (lambda b: DivisorClass(b, delta0=[1]), ParamOutOfRange),
    (lambda b: DivisorClass(b, psi=[1, object()]), ParamOutOfRange),
    (lambda b: DivisorClass(b, psi=5), ParamOutOfRange),
    (lambda b: DivisorClass(b, boundary=[((1, {1}), "x")]), ParamOutOfRange),
    (lambda b: DivisorClass(b, boundary=5), InvalidBoundary),
    (lambda b: DivisorClass(b, 1) * "x", ParamOutOfRange),
    (lambda b: DivisorClass(b, 1) * None, ParamOutOfRange),
], ids=["lam-text", "lam-none", "lam-zero-denominator", "delta0-list", "psi-object",
        "psi-int", "boundary-text", "boundary-int", "times-text", "times-none"])
def test_a_bad_coefficient_raises_pic_error(build, error):
    with pytest.raises(error):
        build(ModuliBase(3, 2))
    assert issubclass(error, PicError)


class TestGenus2Relation:
    def test_lambda_equals_boundary_combination(self):
        base = ModuliBase(2, 0)
        lam = DivisorClass(base, lam=1)
        rel = DivisorClass(base, delta0=Fraction(1, 10), boundary=[((1, set()), Fraction(1, 5))])
        assert equals(lam, rel)
        assert not equals(lam, zero_class(base))

    def test_pointed_relation_sums_subsets_containing_first_point(self):
        base = ModuliBase(2, 2)
        lam = DivisorClass(base, lam=10)
        rel = DivisorClass(
            base,
            delta0=1,
            boundary=[((1, {1}), 2), ((1, {1, 2}), 2)],
        )
        assert equals(lam, rel)

    def test_normalize_requires_genus_2(self):
        with pytest.raises(NotGenus2):
            normalize_genus2(zero_class(ModuliBase(3, 0)))

    def test_higher_genus_equality_is_literal(self):
        base = ModuliBase(3, 0)
        lam = DivisorClass(base, lam=1)
        assert not equals(lam, zero_class(base))


class TestDiffFirst:
    def test_equal_classes_give_none(self):
        a = random_class(seeded(5))
        assert diff_first(a, a) is None

    def test_reports_first_generator_in_order(self):
        base = ModuliBase(3, 1)
        a = DivisorClass(base, lam=1, psi=[2], delta0=3)
        b = DivisorClass(base, lam=1, psi=[5], delta0=3)
        assert diff_first(a, b) == ("psi_1", Fraction(2), Fraction(5))
        c = DivisorClass(base, lam=1, psi=[2], delta0=3, boundary=[((1, {1}), 1)])
        label, ca, cb = diff_first(a, c)
        assert label == "delta_{1:{1}}"
        assert (ca, cb) == (0, 1)


class TestRelabel:
    def test_swap_two_points(self):
        base = ModuliBase(3, 2)
        a = DivisorClass(base, psi=[1, 2], boundary=[((1, {1}), 7)])
        b = relabel(a, {1: 2, 2: 1})
        assert b.psi == (Fraction(2), Fraction(1))
        # delta_{1:{2}} canonicalizes back to delta_{2:{1}}
        assert b.delta(1, {2}) == 7

    def test_sequence_form(self):
        base = ModuliBase(3, 3)
        a = DivisorClass(base, psi=[1, 2, 3])
        b = relabel(a, (3, 1, 2))
        assert b.psi == (Fraction(2), Fraction(3), Fraction(1))

    def test_non_bijection_rejected(self):
        a = zero_class(ModuliBase(3, 2))
        with pytest.raises(ParamOutOfRange):
            relabel(a, {1: 1, 2: 1})

    def test_identity_permutation_fixes_class(self):
        a = random_class(seeded(9), ModuliBase(4, 3))
        assert equals(relabel(a, (1, 2, 3)), a)

    @pytest.mark.parametrize("perm", [
        (1, 2.0), {1: 2, 2: 1.0}, {1.0: 2, 2: 1}, (2, "1"), (2, None),
        (2, True), {True: 2, 2: 1}, 5,
    ])
    def test_labels_that_are_not_ints_are_refused(self, perm):
        a = DivisorClass(ModuliBase(3, 2), psi=[1, 2], boundary=[((1, {1}), 7)])
        with pytest.raises(ParamOutOfRange):
            relabel(a, perm)


class TestSerialization:
    def test_round_trip_many(self):
        rng = seeded(2024)
        for _ in range(200):
            a = random_class(rng)
            b = from_json(to_json(a))
            assert a.base == b.base
            assert equals(a, b)

    def test_bytes_deterministic(self):
        rng1, rng2 = seeded(77), seeded(77)
        for _ in range(50):
            a, b = random_class(rng1), random_class(rng2)
            assert to_json(a) == to_json(b)
            assert to_json(from_json(to_json(a))) == to_json(a)

    def test_json_shape(self):
        base = ModuliBase(3, 1)
        a = DivisorClass(base, Fraction(1, 2), [3], -1, [((1, {1}), Fraction(-2, 7))])
        d = json.loads(to_json(a))
        assert d == {
            "g": 3,
            "n": 1,
            "lambda": "1/2",
            "psi": ["3"],
            "delta0": "-1",
            "boundary": [{"i": 1, "S": [1], "c": "-2/7"}],
        }

    def test_csv_has_header_and_all_generators(self):
        a = random_class(seeded(3), ModuliBase(3, 2))
        lines = to_csv(a).strip().split("\n")
        assert lines[0] == "generator,coefficient"
        assert len(lines) == 1 + 1 + 2 + 1 + len(a.boundary)

    def test_latex_outputs(self):
        base = ModuliBase(3, 1)
        a = DivisorClass(base, -1, [Fraction(7, 2)], 0)
        expr = to_latex_expr(a)
        assert r"\lambda" in expr and r"\tfrac{7}{2}" in expr
        table = to_latex(a)
        assert table.startswith(r"\begin{tabular}")
        assert to_latex_expr(zero_class(base)) == "0"


_CLASS_31 = '"lambda":"1","psi":["0"],"delta0":"0","boundary":'


class TestBoundaryIndexContract:
    def test_repr_bytes(self):
        key = BoundaryIndex(1, frozenset({1, 3}))
        assert repr(key) == "BoundaryIndex(i=1, S=frozenset({1, 3}))"

    def test_hash_is_the_pair_hash(self):
        for key in enumerate_boundary(ModuliBase(4, 3)):
            assert hash(key) == hash((key.i, key.S))

    def test_no_instance_dict(self):
        assert not hasattr(BoundaryIndex(1, frozenset({1})), "__dict__")

    def test_fields_are_read_only(self):
        key = BoundaryIndex(1, frozenset({1}))
        with pytest.raises(AttributeError):
            key.i = 2

    def test_order_is_the_sort_key_order_not_the_tuple_order(self):
        a = BoundaryIndex(1, frozenset({1, 3}))
        b = BoundaryIndex(1, frozenset({1, 2}))
        # tuple order compares S by subset, so it finds neither key larger
        for x, y in ((a, b), (b, a)):
            kx, ky = x.sort_key(), y.sort_key()
            assert (x < y, x <= y, x > y, x >= y) == (kx < ky, kx <= ky, kx > ky, kx >= ky)
        assert (b < a, b <= a, a > b, a >= b) == (True, True, True, True)


class TestModuliBaseContract:
    def test_repr_and_str(self):
        assert repr(ModuliBase(3, 1)) == "ModuliBase(g=3, n=1)"
        assert str(ModuliBase(3, 1)) == "(3,1)"

    def test_hash_and_equality_are_the_pair_ones(self):
        for g, n in ((2, 0), (3, 1), (12, 12)):
            base = ModuliBase(g, n)
            assert hash(base) == hash((g, n))
            assert base == (g, n) and base == ModuliBase(g, n)
            assert base != ModuliBase(g, n + 1)

    def test_no_instance_dict_and_read_only_fields(self):
        base = ModuliBase(3, 1)
        assert not hasattr(base, "__dict__")
        with pytest.raises(AttributeError):
            base.g = 4

    def test_keyword_construction(self):
        assert ModuliBase(g=4, n=2) == ModuliBase(4, 2)

    def test_range_messages_unchanged(self):
        with pytest.raises(ParamOutOfRange, match=r"^genus must be at least 2, got 1$"):
            ModuliBase(1, 3)
        with pytest.raises(ParamOutOfRange,
                           match=r"^number of marked points must be nonnegative$"):
            ModuliBase(3, -1)

    def test_not_genus2_message(self):
        with pytest.raises(NotGenus2) as e:
            normalize_genus2(zero_class(ModuliBase(3, 0)))
        assert str(e.value) == "normalization applies only to genus 2, base is (3,0)"

    @pytest.mark.parametrize("g,n", [(2.5, 1), (3.0, 2), (3, 2.0), (3, True), ("3", 1)])
    def test_non_int_base_refused(self, g, n):
        with pytest.raises(ParamOutOfRange):
            ModuliBase(g, n)

    @pytest.mark.parametrize("i,S", [(1.5, {1}), (1, {1.0}), (True, {1}), (1, {1, "2"})])
    def test_non_int_genus_or_label_refused(self, i, S):
        with pytest.raises(InvalidBoundary):
            canonical_index(ModuliBase(3, 2), i, S)
        with pytest.raises(InvalidBoundary):
            DivisorClass(ModuliBase(3, 2), boundary=[((i, S), 1)])

    @pytest.mark.parametrize("entry", [(5, 1), ((1,), 1), ((1, 5), 1), ((1, [[1]]), 1), 5])
    def test_boundary_entry_not_a_pair_refused(self, entry):
        with pytest.raises(InvalidBoundary):
            DivisorClass(ModuliBase(3, 2), boundary=[entry])


class TestCollectorPause:
    def test_collector_is_paused_while_assembling(self):
        seen = []
        _assemble(ModuliBase(3, 1), [(lambda k: True, lambda k: seen.append(gc.isenabled()) or 1)])
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_restored_after_a_regime_gap(self):
        with pytest.raises(AssertionError):
            _assemble(ModuliBase(3, 1), [(lambda k: False, lambda k: 1)])
        assert gc.isenabled()

    def test_restored_after_a_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            pullback(forget_point(ModuliBase(3, 2)), weierstrass(4))
        assert gc.isenabled()

    def test_restored_after_malformed_json(self):
        with pytest.raises(MalformedJSON):
            from_json('{"g":3}')
        assert gc.isenabled()

    def test_collector_is_paused_while_parsing_json(self, monkeypatch):
        seen = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda s: seen.append(gc.isenabled()) or loads(s))
        assert equals(from_json(to_json(weierstrass(3))), weierstrass(3))
        assert seen == [False]
        assert gc.isenabled()

    def test_a_callers_pause_survives(self):
        gc.disable()
        try:
            logan_class(4, (2, 1, 1))
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestFromJsonRejects:
    @pytest.mark.parametrize(
        "text",
        [
            '{"g":3}',
            '{"g":3,"n":1,%s[{"i":1,"c":"1"}]}' % _CLASS_31,
            "[]",
            '{"g":3,"n":0,"lambda":"x","psi":[],"delta0":"0","boundary":[]}',
            '{"g":3,"n":0,"lambda":1.5,"psi":[],"delta0":"0","boundary":[]}',
            '{"g":3,',
            "[" * 100000,
        ],
        ids=["missing-n", "missing-S", "not-an-object", "bad-string", "float",
             "not-json", "too-deep"],
    )
    def test_malformed_input_raises(self, text):
        with pytest.raises(MalformedJSON):
            from_json(text)

    # the answers of the tree that parsed every string through Fraction
    @pytest.mark.parametrize(
        "text,value",
        [("007", 7), ("-0", 0), ("+3", 3), (" 3", 3), ("3/1", 3), ("-", None),
         ("", None), ("1_000", 1000), ("\u0663", 3), ("\u00b2", None),
         ("9" * 5000, None)],
        ids=["zeros", "minus-zero", "plus", "space", "over-one", "minus", "empty",
             "underscore", "arabic-indic", "superscript", "too-many-digits"],
    )
    def test_coefficient_string_answers_unchanged(self, text, value):
        doc = '{"g":3,"n":0,"lambda":%s,"psi":[],"delta0":"0","boundary":[]}'
        if value is None:
            with pytest.raises(MalformedJSON):
                from_json(doc % json.dumps(text))
        else:
            lam = from_json(doc % json.dumps(text)).lam
            assert lam == value and type(lam) is int

    def test_integer_and_rational_string_coefficients_accepted(self):
        a = from_json('{"g":3,"n":1,"lambda":-1,"psi":["6"],"delta0":0,"boundary":'
                      '[{"i":1,"S":[1],"c":"-3"},{"i":2,"S":[1],"c":-1}]}')
        assert equals(a, weierstrass(3))


class TestPairings:
    def test_pair_is_linear(self):
        base = ModuliBase(4, 1)
        c = builtin_test_curve("A", base)
        rng = seeded(21)
        a, b = random_class(rng, base), random_class(rng, base)
        assert pair(c, a + b) == pair(c, a) + pair(c, b)
        assert pair(c, 3 * a) == 3 * pair(c, a)

    def test_pair_base_mismatch(self):
        c = builtin_test_curve("A", ModuliBase(4, 1))
        with pytest.raises(BaseMismatch):
            pair(c, zero_class(ModuliBase(5, 1)))

    def test_unknown_curve_name(self):
        with pytest.raises(UnknownCurve):
            builtin_test_curve("Z", ModuliBase(4, 1))

    def test_wrong_base_for_pointed_curve(self):
        with pytest.raises(UnknownCurve):
            builtin_test_curve("A", ModuliBase(4, 2))

    def test_curve_param_ranges(self):
        base = ModuliBase(4, 1)
        with pytest.raises(ParamOutOfRange):
            builtin_test_curve("B", base, i=3)
        with pytest.raises(ParamOutOfRange):
            builtin_test_curve("C", base, i=0)
        with pytest.raises(ParamOutOfRange):
            builtin_test_curve("Bin", ModuliBase(4, 4), i=3, n=2)

    def test_curve_values_on_generators(self):
        base = ModuliBase(4, 1)
        a = builtin_test_curve("A", base)
        assert pair(a, DivisorClass(base, psi=[1])) == 6
        assert pair(a, DivisorClass(base, lam=1)) == 0
        e = builtin_test_curve("E", base)
        assert pair(e, DivisorClass(base, lam=1)) == 1
        assert pair(e, DivisorClass(base, delta0=1)) == 12
        assert pair(e, DivisorClass(base, boundary=[((3, {1}), 1)])) == -1


class TestHash:
    def test_genus2_equal_classes_hash_alike(self):
        a = DivisorClass(ModuliBase(2, 1), lam=1)
        b = normalize_genus2(a)
        assert equals(a, b)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_boundary_enters_the_hash(self):
        base = ModuliBase(6, 3)
        classes = [DivisorClass(base, boundary={k: 1}) for k in enumerate_boundary(base)]
        assert len(classes) == 24
        assert len({hash(a) for a in classes}) == 24


class TestCurveKeys:
    def test_boundary_key_is_canonicalized(self):
        base = ModuliBase(3, 1)
        mirror = core.TestCurve(base, "x", {BoundaryIndex(2, frozenset()): 1})
        assert pair(mirror, weierstrass(3)) == -3

    def test_psi_label_zero_rejected(self):
        with pytest.raises(UnknownCurve):
            core.TestCurve(ModuliBase(3, 1), "x", {("psi", 0): 1})

    def test_psi_label_past_n_rejected(self):
        with pytest.raises(UnknownCurve):
            core.TestCurve(ModuliBase(3, 1), "x", {("psi", 2): 1})


@given(st.integers(0, 10 ** 6), st.integers(0, 3), st.fractions(max_denominator=12))
def test_genus2_hash_agrees_with_equals(seed, n, t):
    # a + t * (lambda - normalized lambda) equals a but carries a different lambda
    base = ModuliBase(2, n)
    a = random_class(seeded(seed), base)
    lam = DivisorClass(base, lam=1)
    b = a + t * (lam - normalize_genus2(lam))
    assert equals(a, b)
    assert hash(a) == hash(b)


@given(st.integers(0, 10 ** 6))
def test_random_round_trip_property(seed):
    a = random_class(seeded(seed))
    assert equals(from_json(to_json(a)), a)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False)
    | st.sampled_from(["1", "-2/3", "1/0", "x", "1.5", "g", "S"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["g", "n", "i", "S", "c", "lambda", "psi",
                                       "delta0", "boundary"]), inner, max_size=6),
    max_leaves=20,
)


@given(st.integers(0, 10 ** 6), st.data())
def test_fuzzed_json_raises_only_pic_error(seed, data):
    # replace one field, at any depth, of a valid class's JSON by a random value
    d = json.loads(to_json(random_class(seeded(seed))))
    node = d
    while True:
        field = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                          else range(len(node))))
        child = node[field]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        node[field] = data.draw(_json_values)
        break
    for text in (json.dumps(d), json.dumps(d)[:data.draw(st.integers(0, 40))]):
        try:
            from_json(text)
        except PicError:
            pass


@given(_json_values)
def test_arbitrary_json_raises_only_pic_error(value):
    try:
        from_json(json.dumps(value))
    except PicError:
        pass


@given(st.integers(0, 10 ** 6))
def test_mirror_rekeying_gives_the_same_answers(seed):
    rng = seeded(seed)
    a = random_class(rng)
    base = a.base
    b = DivisorClass(base, a.lam, a.psi, a.delta0,
                     [(mirror_index(base, k), c) for k, c in a.boundary.items()])
    assert equals(a, b)
    assert to_json(a) == to_json(b)
    vec = {k: Fraction(rng.randint(-9, 9)) for k in enumerate_boundary(base)
           if rng.random() < 0.5}
    vec["lambda"], vec["delta0"] = 1, -2
    mirrored = {BoundaryIndex(*mirror_index(base, k)) if isinstance(k, BoundaryIndex)
                else k: c for k, c in vec.items()}
    curve = core.TestCurve(base, "x", vec)
    assert pair(curve, a) == pair(core.TestCurve(base, "x", mirrored), b)
