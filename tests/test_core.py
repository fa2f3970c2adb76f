import copy
import gc
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from artifact import core
from artifact.catalog import (
    CONSTRUCTORS,
    BadWeights,
    GenusTooSmall,
    _assemble,
    coupled_partition,
    diaz,
    logan_class,
    theta_pullback_class,
    weierstrass,
)
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


def mirror(base, key):
    """The other representative (g - i, S^c) of a key."""
    return (base.g - key.i, frozenset(base.labels()) - key.S)


def reference_canonical_index(base, i, S):
    """try_canonical_index from the definitions alone: (i, S) names a class
    when 0 <= i <= g, S is a set of labels and each side of the node is
    stable: the genus-i side carries S and the node, the other side S^c and
    the node, and a side of genus h with p special points is stable when
    2h - 2 + p > 0.  Its key is the representative holding point 1 when
    n >= 1, the one with 2i <= g when n = 0."""
    g, n = base
    labels = set(base.labels())
    S = frozenset(S)
    if not 0 <= i <= g or not S <= labels:
        return None
    for h, p in ((i, len(S) + 1), (g - i, n - len(S) + 1)):
        if 2 * h - 2 + p <= 0:
            return None
    if 1 in S if n else 2 * i <= g:
        return BoundaryIndex(i, S)
    return BoundaryIndex(g - i, frozenset(labels - S))


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
            i2, S2 = mirror(base, key)
            assert canonical_index(base, i2, S2) == key

    @pytest.mark.parametrize("g,n", [(g, n) for g in range(2, 8) for n in range(7)])
    def test_matches_the_definitions(self, g, n):
        # every genus from -1 to g + 1 and every set of labels 1..n + 1, so
        # one label foreign to the base is met too
        base = ModuliBase(g, n)
        keys = set()
        for mask in range(1 << (n + 1)):
            S = frozenset(s for s in range(1, n + 2) if mask >> (s - 1) & 1)
            for i in range(-1, g + 2):
                want = reference_canonical_index(base, i, S)
                assert try_canonical_index(base, i, S) == want, (i, S)
                if want is not None:
                    keys.add(want)
        assert keys == set(enumerate_boundary(base))

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

    def test_the_size_check_counts_the_keys(self):
        for g in range(2, 9):
            for n in range(8):
                base = ModuliBase(g, n)
                assert core._check_size(base) == len(enumerate_boundary(base))
        assert core._check_size(ModuliBase(12, 12)) == 26611
        assert core._check_size(ModuliBase(18, 18)) == 2490349 <= core._MAX_KEYS
        for base in (ModuliBase(19, 19), ModuliBase(3, 10 ** 9), ModuliBase(10 ** 9, 0)):
            with pytest.raises(ParamOutOfRange, match="boundary keys"):
                core._check_size(base)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_the_own_sets_are_the_sets_with_a_span(self, g):
        # every set of labels is spanned by _span; the generator yields those
        # with a nonempty span whose labels other than 1 come from its pool,
        # each once and with its span, for the default pool 2..n and for the
        # identify-points pool 3..n, each label a colour of its own
        for n in range(9):
            base = ModuliBase(g, n)
            for skip in (1, 2):
                pool = {1, *range(skip + 1, n + 1)}
                want = {}
                for bits in range(1 << n):
                    S = frozenset(x for x in base.labels() if bits >> (x - 1) & 1)
                    lo, hi = core._span(base, S)
                    if lo <= hi and S <= pool:
                        want[S] = (lo, hi)
                got = [(S, (lo, hi)) for S, lo, hi in core._own_sets(base, None, skip)]
                assert len(got) == len(want) and dict(got) == want, (g, n, skip)
            spans = sum(hi - lo + 1 for _, lo, hi in core._own_sets(base))
            assert spans == core._check_size(base), (g, n)

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

    def test_coeff_reads_either_mirror_form(self):
        w = weierstrass(3)
        assert w.delta(2, ()) == -3
        for key in [(2, frozenset()), BoundaryIndex(2, frozenset()), (2, ()), (1, {1}), [1, [1]]]:
            assert w.coeff(key) == w.delta(*key) == -3, key
        rng = seeded(21)
        for _ in range(20):
            a = random_class(rng)
            for k in enumerate_boundary(a.base):
                want = a.delta(k.i, k.S)
                assert want == a.boundary.get(k, 0)
                assert a.coeff(k) == a.coeff(mirror(a.base, k)) == want, (a.base, k)

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
        with pytest.raises(AttributeError):
            del a.boundary
        assert a.boundary == {} and to_json(a) == to_json(zero_class(ModuliBase(3, 1)))

    def test_boundary_is_a_read_only_view(self):
        a = weierstrass(3)
        text, h = to_json(a), hash(a)
        with pytest.raises(TypeError):
            a.boundary[BoundaryIndex(9, frozenset({7}))] = 1
        with pytest.raises(TypeError):
            del a.boundary[BoundaryIndex(1, frozenset({1}))]
        assert to_json(a) == text and hash(a) == h
        assert DivisorClass(a.base, a.lam, a.psi, a.delta0, a.boundary) == a


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

    def test_unpointed_base_keeps_every_key(self):
        a = random_class(seeded(10), ModuliBase(4, 0))
        assert a.boundary and relabel(a, ()).boundary == a.boundary

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


# The per-key serializers of the tree before the label work was done once per
# distinct S: the reference for the bytes of the ones in core.

def reference_to_json(a):
    keys = sorted(a.boundary, key=BoundaryIndex.sort_key)
    return json.dumps({
        "g": a.base.g,
        "n": a.base.n,
        "lambda": str(a.lam),
        "psi": [str(c) for c in a.psi],
        "delta0": str(a.delta0),
        "boundary": [{"i": k.i, "S": k.sorted_S(), "c": str(a.boundary[k])} for k in keys],
    }, separators=(",", ":"), sort_keys=False)


def reference_rows(a):
    yield ("lambda", None, a.lam)
    for j in a.base.labels():
        yield ("psi_%d" % j, None, a.psi[j - 1])
    yield ("delta_0", None, a.delta0)
    for k in sorted(a.boundary, key=BoundaryIndex.sort_key):
        yield (str(k), k, a.boundary[k])


def reference_to_csv(a):
    return "generator,coefficient\n" + "".join(
        "%s,%s\n" % (name, c) for name, _, c in reference_rows(a))


def reference_latex_gen(name, key):
    if key is not None:
        if not key.S:
            return r"\delta_{%d}" % key.i
        return r"\delta_{%d:\{%s\}}" % (key.i, ",".join(map(str, key.sorted_S())))
    if name == "lambda":
        return r"\lambda"
    if name == "delta_0":
        return r"\delta_{0}"
    return r"\psi_{%s}" % name[4:]


def reference_latex_frac(c):
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return r"%s\tfrac{%d}{%d}" % ("-" if c < 0 else "", abs(c.numerator), c.denominator)


def reference_to_latex_expr(a):
    terms = []
    for name, key, c in reference_rows(a):
        if c == 0:
            continue
        sym = reference_latex_gen(name, key)
        body = sym if abs(c) == 1 else reference_latex_frac(abs(c)) + sym
        terms.append(("-" if c < 0 else "") + body if not terms
                     else ("- " if c < 0 else "+ ") + body)
    return " ".join(terms) if terms else "0"


def reference_to_latex(a):
    lines = [r"\begin{tabular}{ll}", r"generator & coefficient \\"]
    for name, key, c in reference_rows(a):
        lines.append(r"$%s$ & $%s$ \\" % (reference_latex_gen(name, key), reference_latex_frac(c)))
    return "\n".join(lines + [r"\end{tabular}"]) + "\n"


def reference_diff_first(a, b):
    """diff_first of two classes that agree on lambda, psi and delta_0."""
    if a.base.g == 2:
        a, b = normalize_genus2(a), normalize_genus2(b)
    for key in sorted(a.boundary.keys() | b.boundary.keys(), key=BoundaryIndex.sort_key):
        if a.coeff(key) != b.coeff(key):
            return (str(key), a.coeff(key), b.coeff(key))
    return None


class TestSerializerBytes:
    """Every serializer gives the bytes of the per-key reference above."""

    BASES = [ModuliBase(4, 0), ModuliBase(7, 0), ModuliBase(3, 1), ModuliBase(5, 1),
             ModuliBase(2, 0), ModuliBase(2, 3), ModuliBase(3, 4), ModuliBase(6, 5)]

    def classes(self):
        rng = seeded(1313)
        for base in self.BASES:
            yield zero_class(base)
            for _ in range(4):
                yield random_class(rng, base)
        for _ in range(20):
            yield random_class(rng)
        yield logan_class(6, (1,) * 6)

    def test_bytes_match_the_per_key_reference(self):
        for a in self.classes():
            assert to_json(a) == reference_to_json(a), a.base
            assert to_csv(a) == reference_to_csv(a), a.base
            assert to_latex(a) == reference_to_latex(a), a.base
            assert to_latex_expr(a) == reference_to_latex_expr(a), a.base

    def test_diff_first_matches_the_per_key_reference(self):
        rng = seeded(1314)
        for base in self.BASES:
            for _ in range(6):
                a, b = random_class(rng, base), random_class(rng, base)
                # share most keys, so the first difference is not the first key
                b = DivisorClass._from_canonical(
                    base, a.lam, a.psi, a.delta0,
                    {**a.boundary, **dict(list(b.boundary.items())[: len(b.boundary) // 3])})
                assert diff_first(a, b) == reference_diff_first(a, b)
                # equals is the one comparator's None
                for x in (a, b):
                    assert equals(a, x) == (diff_first(a, x) is None)
            if base.g == 2:
                # b carries another lambda and equals a only after normalization;
                # c differs from b on one boundary key, also after normalization
                lam = DivisorClass(base, lam=1)
                b = a + 3 * (lam - normalize_genus2(lam))
                key = enumerate_boundary(base)[-1]
                c = b + DivisorClass(base, boundary=[(key, 1)])
                assert b.lam != a.lam and diff_first(a, b) is None and equals(a, b)
                assert diff_first(a, c) == reference_diff_first(a, c) is not None
                assert not equals(a, c)


_COEFFS = st.sampled_from([0, 1, -1, 2, -7, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)])


@lru_cache(maxsize=1)
def _genera_of_each_set():
    spans = {}
    for k in enumerate_boundary(ModuliBase(12, 12)):
        spans.setdefault(k.S, []).append(k.i)
    return tuple(spans.items())


def spread_class(coeffs, shift=0):
    """A class on (12, 12) built key by key with one key per label set, 2048
    keys whose genera step through all 13 genera; the coefficients cycle
    through coeffs."""
    entries = [((gs[(r + shift) % len(gs)], S), coeffs[r % len(coeffs)])
               for r, (S, gs) in enumerate(_genera_of_each_set())]
    assert len(entries) == 2048 and {i for (i, _), _ in entries} == set(range(13))
    a = DivisorClass(ModuliBase(12, 12), 1, None, 0, entries)
    assert a._colours is None
    return a


@st.composite
def written_classes(draw):
    """A catalog class in orbit form (weights that repeat, in a drawn order,
    the unpointed diaz class up to g = 6, or the one-point weierstrass class),
    a theta class relabeled by a drawn permutation, a coloured class with the
    orbits of some genera dropped, the key-by-key class of ``spread_class``,
    a sparse class given to the constructor entry by entry, or the sum of the
    two on one base."""
    g = draw(st.integers(3, 5))
    kind = draw(st.sampled_from(["logan", "theta", "coupled", "diaz", "weierstrass",
                                 "relabeled", "missing", "spread"]))
    if kind == "diaz":
        a = diaz(draw(st.integers(3, 6)))
    elif kind == "weierstrass":
        a = weierstrass(g)
    elif kind == "spread":
        a = spread_class(draw(st.lists(_COEFFS.filter(bool), min_size=1, max_size=5)),
                         draw(st.integers(0, 12)))
    else:
        d = {"logan": [2] + [1] * (g - 2), "theta": [-1] + [1] * g, "relabeled": [-1] + [1] * g,
             "missing": [1] * g, "coupled": [2, -1, -1]}[kind]
        build = {"logan": logan_class, "theta": theta_pullback_class,
                 "relabeled": theta_pullback_class, "missing": logan_class,
                 "coupled": coupled_partition}[kind]
        a = build(g, tuple(draw(st.permutations(d))))
        if kind == "relabeled":
            a = relabel(a, draw(st.permutations(list(a.base.labels()))))
        elif kind == "missing":
            gone = draw(st.sets(st.integers(0, g), min_size=1, max_size=g))
            a = DivisorClass._from_canonical(
                a.base, a.lam, a.psi, a.delta0,
                {k: c for k, c in a._orbits.items() if k.i not in gone}, a._colours)
            assert a._colours is not None
    base = a.base
    keys = draw(st.lists(st.sampled_from(enumerate_boundary(base)), max_size=12))
    sparse = DivisorClass(base, draw(_COEFFS), [draw(_COEFFS) for _ in range(base.n)],
                          draw(_COEFFS), [(k, draw(_COEFFS)) for k in keys])
    return draw(st.sampled_from([a, sparse, a + sparse, sparse - a]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(written_classes())
def test_writers_give_the_bytes_of_the_per_key_rows(a):
    # reference_rows reads every key of the expanded class, one at a time;
    # the first writer makes the class's rank table, and the others reuse it
    assert to_json(a) == reference_to_json(a)
    assert to_csv(a) == reference_to_csv(a)
    assert to_latex(a) == reference_to_latex(a)
    assert to_latex_expr(a) == reference_to_latex_expr(a)
    assert equals(from_json(to_json(a)), a)


def test_a_one_key_class_on_a_huge_genus_is_written_and_read_in_little_memory():
    # no writer or reader allocates per genus or per label set of the base,
    # only per row of the class: a slot list over (g + 1) * m rows would
    # hold a million entries here
    a = DivisorClass(ModuliBase(10**6, 1), 2, [3], 0, [((5, {1}), Fraction(1, 2))])
    tracemalloc.start()
    try:
        texts = [to_json(a), to_csv(a), to_latex(a), to_latex_expr(a)]
        b = from_json(texts[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert b.boundary == {(5, frozenset({1})): Fraction(1, 2)}
    assert texts[1].endswith("delta_{5:{1}},1/2\n")


class TestSerializerWork:
    """The serializers sort, rank and join each distinct label set once: the
    work is counted, not timed."""

    def test_sorts_at_most_once_per_distinct_set(self, monkeypatch):
        a = logan_class(8, (1,) * 8)
        distinct = len({k.S for k in a.boundary})
        assert len(a.boundary) > 4 * distinct
        want = [reference_to_json(a), reference_to_csv(a), reference_to_latex(a)]
        count = [0]

        def counting(*args, **kw):
            count[0] += 1
            return sorted(*args, **kw)

        monkeypatch.setattr(core, "sorted", counting, raising=False)
        for f, text in zip((to_json, to_csv, to_latex), want):
            count[0] = 0
            assert f(a) == text
            assert 0 < count[0] <= distinct + 2, f.__name__

    @pytest.mark.parametrize("make", [
        lambda: logan_class(12, (1,) * 12),
        lambda: relabel(logan_class(6, (2, 1, 1, 1, 1)), [5, 1, 2, 3, 4]),
        lambda: spread_class([1, -2, Fraction(1, 3)]), lambda: diaz(6), lambda: weierstrass(4)],
        ids=["logan", "relabeled", "spread", "diaz", "weierstrass"])
    def test_a_class_makes_its_rank_table_once(self, monkeypatch, make):
        # every writer after the first reads the table the class keeps
        a = make()
        calls = []
        members = core._members
        monkeypatch.setattr(core, "_members", lambda *args: calls.append(args) or members(*args))
        texts = [to_json(a), to_csv(a), to_latex(a), to_latex_expr(a), repr(a)]
        assert len(calls) == 1
        assert texts == [to_json(a), to_csv(a), to_latex(a), to_latex_expr(a), repr(a)]
        assert len(calls) == 1

    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                         lambda a: pickle.loads(pickle.dumps(a))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_of_a_written_class_writes_the_same_bytes(self, copy_of):
        # a copy is rebuilt through the constructor and makes its own table;
        # neither hash nor equals reads one
        for a in (logan_class(6, (1,) * 6), spread_class([3, -1])):
            texts = [to_json(a), to_csv(a), to_latex(a), repr(a)]
            b = copy_of(a)
            assert not hasattr(b, "_table") and hasattr(a, "_table")
            assert equals(a, b) and hash(a) == hash(b)
            assert [to_json(b), to_csv(b), to_latex(b), repr(b)] == texts

    def test_from_json_of_canonical_input_canonicalizes_nothing(self, monkeypatch):
        a = logan_class(8, (1,) * 8)
        text = to_json(a)
        seen, spans = [], []
        real, real_span = core.canonical_index, core._span
        monkeypatch.setattr(core, "canonical_index", lambda *args: seen.append(args) or real(*args))
        monkeypatch.setattr(core, "_span", lambda *args: spans.append(args) or real_span(*args))
        assert equals(from_json(text), a)
        assert seen == []
        # one span per distinct label set, never one per entry
        assert 0 < len(spans) <= len({k.S for k in a.boundary}) < len(a.boundary)
        # the constructor is the same reader
        spans.clear()
        b = DivisorClass(a.base, a.lam, a.psi, a.delta0, a.boundary.items())
        assert equals(b, a) and seen == []
        assert 0 < len(spans) <= len({k.S for k in a.boundary})
        # a mirror form does go through it, so the count above is a real zero
        mirror = text.replace('"boundary":[', '"boundary":[{"i":7,"S":[2,3,4,5,6,7,8],"c":"1"},')
        key = BoundaryIndex(1, frozenset({1}))
        assert from_json(mirror).boundary[key] == a.boundary.get(key, 0) + 1
        assert len(seen) == 1


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
        _assemble(ModuliBase(3, 1), [(lambda i, s: True, lambda i, s: seen.append(gc.isenabled()) or 1)])
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_restored_after_a_regime_gap(self):
        with pytest.raises(AssertionError):
            _assemble(ModuliBase(3, 1), [(lambda i, s: False, lambda i, s: 1)])
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
        monkeypatch.setattr(json, "loads",
                            lambda s, **kw: seen.append(gc.isenabled()) or loads(s, **kw))
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

    # per constructor: arguments it builds a class from, and arguments it
    # refuses with the given error
    CALLS = {
        "weierstrass": ((3,), (1,), GenusTooSmall),
        "residual": ((4,), (2,), GenusTooSmall),
        "diaz": ((3,), (2,), GenusTooSmall),
        "d1-holo": ((4, 1), (2, 1), GenusTooSmall),
        "d1-mero": ((3, 2), (1, 2), GenusTooSmall),
        "logan": ((3, (1, 2)), (3, (1, 1)), BadWeights),
        "theta-pullback": ((3, (3, -1)), (3, (2,)), BadWeights),
        "theta-char": ((3, "odd"), (1, "odd"), GenusTooSmall),
        "antiram": ((4,), (2,), GenusTooSmall),
        "coupled": ((3, (2, -2), "odd"), (1, (1, 1), "total"), GenusTooSmall),
        "pinch": ((4, (1, 2)), (2, (1, 0)), GenusTooSmall),
        "bn": ((4,), (2,), GenusTooSmall),
        "dinf": ((3, "even"), (1, "even"), GenusTooSmall),
    }

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_constructor_runs_as_a_whole_with_the_collector_paused(self, name, monkeypatch):
        # _from_canonical runs outside _assemble, after the audit
        seen = []
        trusted = DivisorClass._from_canonical.__func__

        def spy(cls, *args):
            seen.append(gc.isenabled())
            return trusted(cls, *args)

        monkeypatch.setattr(DivisorClass, "_from_canonical", classmethod(spy))
        fn, _ = CONSTRUCTORS[name]
        fn(*self.CALLS[name][0])
        assert seen and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_constructor_restores_the_collector_when_it_raises(self, name):
        fn, _ = CONSTRUCTORS[name]
        _, bad, error = self.CALLS[name]
        with pytest.raises(error):
            fn(*bad)
        assert gc.isenabled()

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_a_callers_pause_survives_every_constructor(self, name):
        fn, _ = CONSTRUCTORS[name]
        gc.disable()
        try:
            fn(*self.CALLS[name][0])
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

    # Python writes an int of at most this many digits as text
    LIMIT = sys.get_int_max_str_digits()

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_an_exponent_inside_the_digit_limit_reads_and_writes(self, sign):
        text = "1e%s%d" % (sign, self.LIMIT - 1)
        doc = '{"g":3,"n":0,"lambda":%s,"psi":[],"delta0":"0","boundary":[]}'
        a = from_json(doc % json.dumps(text))
        assert a.lam == Fraction(text) and equals(from_json(to_json(a)), a)
        assert DivisorClass(ModuliBase(3, 0), text).lam == a.lam
        assert (DivisorClass(ModuliBase(3, 0), 1) * text).lam == a.lam

    @pytest.mark.parametrize("form", ["1e{0}", "1e-{0}", "1E+{0}", "10e{1}"])
    def test_a_value_past_the_digit_limit_is_refused_by_both_doors(self, form):
        # the writers would refuse it: "10e4299" once it is read, the others
        # by their exponent, before their power of ten is computed
        text = form.format(self.LIMIT, self.LIMIT - 1)
        doc = '{"g":3,"n":0,"lambda":%s,"psi":[],"delta0":"0","boundary":[]}'
        with pytest.raises(MalformedJSON, match="digits"):
            from_json(doc % json.dumps(text))
        with pytest.raises(ParamOutOfRange, match="digits"):
            DivisorClass(ModuliBase(3, 0), text)
        with pytest.raises(ParamOutOfRange, match="digits"):
            DivisorClass(ModuliBase(3, 0), 1) * text

    @pytest.mark.parametrize("form", ["{0}", "-{0}", "{0}/7", "1/{0}", "0.{0}", "1_{0}",
                                      "1e{0}", " {0} "])
    def test_a_run_of_digits_past_the_limit_is_refused_by_both_doors(self, form):
        # int() refuses the run inside Fraction, which would name the text no
        # number; both doors name the limit instead
        text = form.format("9" * (self.LIMIT + 1))
        doc = '{"g":3,"n":1,"lambda":%s,"psi":["0"],"delta0":"0","boundary":[]}'
        with pytest.raises(MalformedJSON, match="digits"):
            from_json(doc % json.dumps(text))
        with pytest.raises(ParamOutOfRange, match="digits"):
            DivisorClass(ModuliBase(3, 1), text)
        with pytest.raises(ParamOutOfRange, match="digits"):
            DivisorClass(ModuliBase(3, 1), 1) * text

    @pytest.mark.parametrize("text,says", [("9" * 10**6, "digits"), ("x" * 10**6, "not an")],
                             ids=["digits", "no-number"])
    def test_a_refused_long_coefficient_is_quoted_short_by_both_doors(self, text, says):
        # the message quotes a prefix of the text and its length
        doc = '{"g":3,"n":1,"lambda":%s,"psi":["0"],"delta0":"0","boundary":[]}'
        with pytest.raises(MalformedJSON, match=says) as read:
            from_json(doc % json.dumps(text))
        with pytest.raises(ParamOutOfRange, match=says) as built:
            DivisorClass(ModuliBase(3, 1), text)
        for e in (read, built):
            assert len(str(e.value)) < 200 and "(1000000 characters)" in str(e.value)

    def test_a_run_of_digits_at_the_limit_reads(self):
        text = "9" * self.LIMIT
        doc = '{"g":3,"n":0,"lambda":%s,"psi":[],"delta0":"0","boundary":[]}'
        assert from_json(doc % json.dumps(text)).lam == int(text)
        assert DivisorClass(ModuliBase(3, 0), text + "/7").lam == Fraction(int(text), 7)

    def test_a_huge_exponent_is_refused_before_it_is_computed(self):
        # computed, 10**1000000000 is an int of about 415 MB and takes
        # minutes: the child has a capped address space and a time limit
        probe = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
                 "from artifact import MalformedJSON, from_json\n"
                 "try:\n    from_json(sys.argv[1])\n"
                 "except MalformedJSON:\n    print('refused')\n")
        doc = '{"g":2,"n":2,"lambda":"1e1000000000","psi":[0,0],"delta0":0,"boundary":[]}'
        env = dict(os.environ, PYTHONPATH=str(Path(core.__file__).parent.parent))
        out = subprocess.run([sys.executable, "-c", probe, doc], capture_output=True,
                             text=True, env=env, timeout=60)
        assert out.stdout == "refused\n", out.stderr

    def test_integer_and_rational_string_coefficients_accepted(self):
        a = from_json('{"g":3,"n":1,"lambda":-1,"psi":["6"],"delta0":0,"boundary":'
                      '[{"i":1,"S":[1],"c":"-3"},{"i":2,"S":[1],"c":-1}]}')
        assert equals(a, weierstrass(3))


_DOC_32 = '{"g":3,"n":2,"lambda":"0","psi":["0","0"],"delta0":"0","boundary":[%s]}'


def entry(i, S, c):
    return json.dumps({"i": i, "S": S, "c": c}, separators=(",", ":"))


class TestFromJsonEntries:
    """Entries of one document that share a memoized label set or coefficient
    string, and entries that are not their own key, give the parent's answers
    and errors."""

    @pytest.mark.parametrize("first,second", [([1, 2], [True, 2]), ([1], [1.0]),
                                              ([1], [True]), ([1, 2], [1, 2.0])])
    def test_a_label_that_only_equals_an_int_is_refused(self, first, second):
        with pytest.raises(MalformedJSON, match="bad boundary entry"):
            from_json(_DOC_32 % ",".join([entry(1, first, "1"), entry(1, second, "1")]))

    @pytest.mark.parametrize("first,second", [([1, 2], [True, 2]), ([1], [1.0]),
                                              ([1], [True]), ([1, 2], [1, 2.0])])
    def test_the_constructor_refuses_a_label_that_only_equals_an_int(self, first, second):
        # the reader reuses a checked set only when it meets the same object
        entries = [((1, frozenset(first)), 1), ((1, frozenset(second)), 1)]
        with pytest.raises(InvalidBoundary, match="must be integers"):
            DivisorClass(ModuliBase(3, 2), boundary=entries)

    def test_a_coefficient_that_only_equals_a_string_one_is_refused(self):
        with pytest.raises(MalformedJSON):
            from_json(_DOC_32 % ",".join([entry(1, [1], 1), entry(2, [1], True)]))
        with pytest.raises(MalformedJSON):
            from_json(_DOC_32 % ",".join([entry(1, [1], "1"), entry(2, [1], 1.0)]))

    def test_string_and_integer_coefficients_agree(self):
        a = from_json(_DOC_32 % ",".join([entry(1, [1], "1"), entry(2, [1], 1),
                                          entry(2, [1, 2], "1"), entry(0, [1, 2], "1")]))
        want = DivisorClass(ModuliBase(3, 2), boundary=[
            ((1, {1}), 1), ((2, {1}), 1), ((2, {1, 2}), 1), ((0, {1, 2}), 1)])
        assert to_json(a) == to_json(want)
        assert all(type(c) is int for c in a.boundary.values())

    def test_a_mirror_form_adds_to_its_canonical_form(self):
        # (2, {2}) is the mirror of (1, {1}) on (3, 2)
        a = from_json(_DOC_32 % ",".join([entry(1, [1], "2"), entry(2, [2], "1/3")]))
        assert a.boundary == {(1, frozenset({1})): Fraction(7, 3)}
        zero = from_json(_DOC_32 % ",".join([entry(2, [2], "-5"), entry(1, [1], 5),
                                             entry(1, [1, 1], "0")]))
        assert zero.boundary == {} and zero.is_zero()

    def test_a_repeated_label_counts_once(self):
        a = from_json(_DOC_32 % ",".join([entry(1, [1, 1], "1"), entry(1, [1], "-1/2")]))
        assert a.boundary == {(1, frozenset({1})): Fraction(1, 2)}

    @pytest.mark.parametrize("entries,message", [
        ([entry(1, [1, 9], "2")], "delta_{1:[1, 9]} is not a boundary class on (3,2)"),
        ([entry(0, [1], "2")], "delta_{0:[1]} is not a boundary class on (3,2)"),
        ([entry(3, [1], "2")], "delta_{3:[1]} is not a boundary class on (3,2)"),
        ([entry(1, [1], "2"), entry(0, [1], "2"), entry(1, [1, 9], "2")],
         "delta_{0:[1]} is not a boundary class on (3,2)"),
        ([entry(1, [9], "0")], "delta_{1:[9]} is not a boundary class on (3,2)"),
        ([entry(1, [0, 1], 0)], "delta_{1:[0, 1]} is not a boundary class on (3,2)"),
    ], ids=["unknown-label", "unstable-at-0", "unstable-at-g", "first-bad-entry",
            "zero-coefficient", "label-0"])
    def test_a_pair_that_names_no_class_is_refused_with_the_same_message(self, entries, message):
        with pytest.raises(InvalidBoundary) as e:
            from_json(_DOC_32 % ",".join(entries))
        assert str(e.value) == message

    def test_a_zero_coefficient_on_a_bad_pair_is_refused_by_the_constructor(self):
        with pytest.raises(InvalidBoundary):
            DivisorClass(ModuliBase(3, 2), boundary=[((1, {9}), 0)])
        with pytest.raises(InvalidBoundary):
            DivisorClass(ModuliBase(3, 2), boundary={(0, frozenset({1})): Fraction(0)})
        assert DivisorClass(ModuliBase(3, 2), boundary=[((1, {1}), 0)]).is_zero()

    def test_unpointed_entries(self):
        doc = '{"g":5,"n":0,"lambda":"0","psi":[],"delta0":"0","boundary":[%s]}'
        a = from_json(doc % ",".join([entry(1, [], "1"), entry(4, [], "2"), entry(2, [], 3)]))
        assert a.boundary == {(1, frozenset()): 3, (2, frozenset()): 3}
        for i in (0, 5, 6, -1):
            with pytest.raises(InvalidBoundary):
                from_json(doc % entry(i, [], "1"))
        with pytest.raises(InvalidBoundary):
            from_json(doc % entry(1, [1], "1"))

    @pytest.mark.parametrize("bad", [[True, 2], [1, 2.0], [1.0], [False, 1]])
    def test_a_bad_label_after_many_good_entries_is_refused(self, bad):
        # the [1, 2] entries come first, and a label that only equals an int
        # must not reuse their checked set
        text = to_json(logan_class(10, (1,) * 10))
        assert text.count('"S":[1,2]') and text.count('"i":') >= 2048
        with pytest.raises(MalformedJSON, match="bad boundary entry"):
            from_json(text[:-2] + "," + entry(1, bad, "1") + "]}")

    def test_a_bad_label_after_a_mirror_form_is_refused(self):
        # the mirror form (2, {2}) of (1, {1}) is read after the loop, and the
        # bad label must be reported first
        for bad in ([True, 2], [1.0]):
            with pytest.raises(MalformedJSON, match="bad boundary entry"):
                from_json(_DOC_32 % ",".join([entry(2, [2], "1"), entry(1, bad, "1")]))
        with pytest.raises(MalformedJSON):
            from_json(_DOC_32 % ",".join([entry(1, [9], "1"), entry(1, [1], 1.5)]))

    # a document long enough for from_json to prove it once, with the
    # [1, 2] and [1] entries of many orbits
    LONG = to_json(logan_class(10, (1,) * 10))

    @staticmethod
    def same_class(a, b):
        return (to_json(a), a._orbits, a._colours) == (to_json(b), b._orbits, b._colours)

    @pytest.mark.parametrize("first,second", [("[1]", "[1e0]"), ("[1]", "[1E0]"),
                                              ("[2]", "[2.0e0]"), ("[0,1]", "[false,1]")])
    def test_an_exponent_or_false_label_is_refused(self, first, second):
        # json.dumps writes neither form; both equal the int list before them
        raw = '{"i":1,"S":%s,"c":"1"}'
        with pytest.raises(MalformedJSON, match="bad boundary entry"):
            from_json(_DOC_32 % ",".join([raw % first, raw % second]))
        with pytest.raises(MalformedJSON, match="bad boundary entry"):
            from_json(self.LONG[:-2] + "," + raw % first + "," + raw % second + "]}")

    @pytest.mark.parametrize("extra", ['"note":"true"', '"x":1.5', '"flag":false', '"y":2E0'])
    def test_true_false_or_a_float_in_an_ignored_field_reads_the_same_class(self, extra):
        # the document is then not proved, and every entry is checked instead
        want = from_json(self.LONG)
        assert self.same_class(from_json(self.LONG[:-1] + "," + extra + "}"), want)
        at = self.LONG.index('{"i":')
        assert self.same_class(from_json(self.LONG[:at + 1] + extra + "," + self.LONG[at + 1:]),
                               want)

    @pytest.mark.parametrize("bad", ["[[1],2]", '[{"a":1}]', "[null]", "[1,[2]]"])
    @pytest.mark.parametrize("note", ["", ',"note":true'])
    def test_a_label_that_is_a_list_an_object_or_null_is_refused(self, bad, note):
        # unhashable labels too: the reader looks the label list up before
        # it checks it, and the lookup must not leak a TypeError
        raw = '{"i":1,"S":%s,"c":"1"}' % bad
        for doc in (_DOC_32 % raw, self.LONG[:-2] + "," + raw + "]}"):
            with pytest.raises(MalformedJSON, match="bad boundary entry"):
                from_json(doc[:-1] + note + "}")

    def test_a_pretty_printed_or_reordered_document_reads_the_same_class(self):
        want = from_json(self.LONG)
        d = json.loads(self.LONG)
        pretty = json.dumps(d, indent=2)
        d["boundary"] = [{"c": e["c"], "S": e["S"], "i": e["i"]} for e in d["boundary"]]
        reordered = json.dumps(dict(reversed(d.items())), separators=(",", ":"))
        for text in (pretty, reordered):
            got = from_json(text)
            assert self.same_class(got, want) and to_json(got) == self.LONG

    def test_the_document_is_proved_once(self, monkeypatch):
        # the reader is told the proof holds for a document, long or short,
        # with no true, false or float token anywhere in its text
        seen = []
        real = core._read_boundary
        monkeypatch.setattr(core, "_read_boundary",
                            lambda *args: seen.append(args[-1]) or real(*args))
        from_json(self.LONG)
        from_json(self.LONG.encode("utf-16"))
        from_json(self.LONG[:-1] + ',"x":"true"}')
        from_json(self.LONG[:-1] + ',"x":0.5}')
        from_json(to_json(weierstrass(3)))
        from_json(to_json(weierstrass(3))[:-1] + ',"x":false}')
        assert seen == [True, True, False, False, True, False]

    @pytest.mark.parametrize("S", ['""', "{}", '"1"'])
    def test_an_entry_whose_S_is_not_a_list_is_refused(self, S):
        # "" and {} hold no label, as the [] of an unpointed base does, so
        # only the list check refuses them
        doc = json.loads(to_json(diaz(4)))
        assert doc["boundary"] and all(e["S"] == [] for e in doc["boundary"])
        for e in doc["boundary"]:
            e["S"] = json.loads(S)
        with pytest.raises(MalformedJSON, match="S is not a list"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-16", "utf-16-le", "utf-16-be",
                                          "utf-32", "utf-32-le", "utf-32-be"])
    def test_a_bytes_document_reads_the_same_class_as_its_text(self, encoding):
        want = from_json(self.LONG)
        for data in (self.LONG.encode(encoding), bytearray(self.LONG.encode(encoding))):
            assert self.same_class(from_json(data), want)
        small = to_json(weierstrass(3))
        assert equals(from_json(small.encode(encoding)), weierstrass(3))

    def test_a_bool_label_in_a_utf16_document_is_refused(self):
        # the proof scans the decoded text: the bytes b"true" are not in it
        bad = ",".join([entry(1, [1, 2], "1"), '{"i":1,"S":[true,2],"c":"1"}'])
        for doc in (_DOC_32 % bad, self.LONG[:-2] + "," + bad + "]}"):
            data = doc.encode("utf-16-le")
            assert b"true" not in data
            with pytest.raises(MalformedJSON, match="bad boundary entry"):
                from_json(data)

    def test_a_bad_entry_comes_before_a_bad_base_or_psi(self):
        doc = '{"g":%d,"n":2,"lambda":"0","psi":%s,"delta0":"0","boundary":[%s]}'
        bad = ",".join([entry(2, [2], "1"), entry(1, [1, 9], "1"), entry(1, [True], "1")])
        for g, psi in [(1, '["0","0"]'), (3, '["0"]'), (1, '["0"]')]:
            with pytest.raises(MalformedJSON):
                from_json(doc % (g, psi, bad))
        with pytest.raises(ParamOutOfRange):
            from_json(doc % (1, '["0"]', entry(1, [1, 9], "1")))

    def test_header_errors_come_before_boundary_errors(self):
        bad_pair = entry(1, [9], "1")
        with pytest.raises(ParamOutOfRange):
            from_json('{"g":1,"n":2,"lambda":"0","psi":["0","0"],"delta0":"0","boundary":[%s]}'
                      % bad_pair)
        with pytest.raises(BaseMismatch):
            from_json('{"g":3,"n":2,"lambda":"0","psi":["0"],"delta0":"0","boundary":[%s]}'
                      % bad_pair)
        with pytest.raises(MalformedJSON):
            from_json('{"g":1,"n":2,"lambda":"0","psi":["0","0"],"delta0":"0","boundary":[%s]}'
                      % ",".join([bad_pair, entry(1, ["x"], "1")]))


_ENTRY_COEFFS = st.sampled_from(["0", "1", "-2", "1/2", "-1/3"]) | st.integers(-2, 2)


@st.composite
def symmetric_pairs(draw, base):
    """The entries of a class on base that is symmetric in the labels other
    than 1, as psi = 0 proposes: every key of some orbits of that colouring,
    one coefficient per orbit, in a drawn order, with the labels of a set
    listed in a drawn order."""
    colours = core._colouring((0,) * base.n)
    reps = draw(st.lists(st.sampled_from(core._orbit_keys(base, colours)), unique=True,
                         max_size=4))
    coeff = {rep: draw(_ENTRY_COEFFS) for rep in reps}
    pairs = [(k.i, draw(st.permutations(sorted(k.S))), coeff[rep])
             for k in enumerate_boundary(base) for rep in reps
             if (k.i, core._rep(colours, k.S)) == rep]
    return draw(st.permutations(pairs))


@given(st.integers(2, 5), st.integers(0, 4), st.data())
def test_from_json_entries_agree_with_the_constructor(g, n, data):
    # arbitrary pairs, valid or not, canonical or mirror, against DivisorClass,
    # which reads the same entries, and both against the definitions, one
    # entry at a time; on a base of three or more points the pairs may fill
    # orbits of the colouring that psi = 0 proposes, so that from_json reads
    # them in orbit form, or break it in a few more pairs, so that it falls back
    base = ModuliBase(g, n)
    pairs = data.draw(st.lists(st.tuples(
        st.integers(-1, g + 1),
        st.lists(st.integers(0, n + 1), max_size=n + 1),
        _ENTRY_COEFFS,
    ), max_size=8))
    if n >= 3 and data.draw(st.booleans()):
        pairs = data.draw(symmetric_pairs(base)) + pairs[:data.draw(st.integers(0, 2))]
    doc = '{"g":%d,"n":%d,"lambda":"0","psi":[%s],"delta0":"0","boundary":[%s]}' % (
        g, n, ",".join(['"0"'] * n), ",".join(entry(*p) for p in pairs))
    keys = [reference_canonical_index(base, i, S) for i, S, _ in pairs]
    try:
        want = DivisorClass(base, 0, None, 0, [((i, S), Fraction(c)) for i, S, c in pairs])
    except InvalidBoundary as e:
        assert None in keys
        with pytest.raises(InvalidBoundary) as got:
            from_json(doc)
        assert str(got.value) == str(e)
        return
    ref = {}
    for key, (_, _, c) in zip(keys, pairs):
        ref[key] = ref.get(key, 0) + Fraction(c)
    assert want.boundary == {k: c for k, c in ref.items() if c}
    got = from_json(doc)
    assert got.boundary == want.boundary
    assert to_json(got) == to_json(want)
    # the colouring read is the one psi = 0 proposes, or the singleton one
    assert got._colours in (None, core._colouring((0,) * n))


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

    @pytest.mark.parametrize("pairing", [5, [("lambda",)], {("psi", True): 1}])
    def test_malformed_pairing_rejected(self, pairing):
        # not a collection, an entry that is not a pair, a bool label
        with pytest.raises(UnknownCurve):
            core.TestCurve(ModuliBase(3, 1), "x", pairing)


class TestCurveImmutable:
    @pytest.mark.parametrize("attr", ["base", "name", "pairing", "other"])
    def test_attributes_cannot_be_set_or_deleted(self, attr):
        c = builtin_test_curve("A", ModuliBase(3, 1))
        with pytest.raises(AttributeError, match="^TestCurve is immutable$"):
            setattr(c, attr, ModuliBase(4, 1))
        with pytest.raises(AttributeError, match="^TestCurve is immutable$"):
            delattr(c, attr)
        assert c.base == ModuliBase(3, 1) and pair(c, weierstrass(3)) == 24

    def test_pairing_is_a_read_only_view(self):
        c = builtin_test_curve("A", ModuliBase(3, 1))
        with pytest.raises(TypeError):
            c.pairing[("psi", 9)] = 1
        with pytest.raises(TypeError):
            del c.pairing[("psi", 1)]
        assert pair(c, weierstrass(3)) == 24

    def test_rebuilt_from_its_view(self):
        c = builtin_test_curve("C", ModuliBase(4, 1), i=1)
        d = core.TestCurve(c.base, c.name, c.pairing)
        for a in (weierstrass(4), DivisorClass(c.base, 1, [2], 3, [((1, {1}), 5)])):
            assert pair(d, a) == pair(c, a)


@given(st.integers(0, 10 ** 6), st.integers(0, 3), st.fractions(max_denominator=12))
def test_genus2_hash_agrees_with_equals(seed, n, t):
    # a + t * (lambda - normalized lambda) equals a but carries a different lambda
    base = ModuliBase(2, n)
    a = random_class(seeded(seed), base)
    lam = DivisorClass(base, lam=1)
    b = a + t * (lam - normalize_genus2(lam))
    assert equals(a, b)
    assert hash(a) == hash(b)
    # equals is the one comparator's None, on an equal and an unequal pair
    for x in (b, b + DivisorClass(base, delta0=1)):
        assert equals(a, x) == (diff_first(a, x) is None)


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
                     [(mirror(base, k), c) for k, c in a.boundary.items()])
    assert equals(a, b)
    assert to_json(a) == to_json(b)
    vec = {k: Fraction(rng.randint(-9, 9)) for k in enumerate_boundary(base)
           if rng.random() < 0.5}
    vec["lambda"], vec["delta0"] = 1, -2
    mirrored = {BoundaryIndex(*mirror(base, k)) if isinstance(k, BoundaryIndex)
                else k: c for k, c in vec.items()}
    curve = core.TestCurve(base, "x", vec)
    assert pair(curve, a) == pair(core.TestCurve(base, "x", mirrored), b)
