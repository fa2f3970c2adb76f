"""Classes in orbit form: one stored coefficient per orbit of the keys under a
colouring of the labels, checked against the same classes stored key by key."""

import copy
import json
import pickle
import random
import tracemalloc
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from artifact import core
from artifact.catalog import (
    anti_ramification,
    brill_noether,
    coupled_partition,
    d1_holo,
    d1_mero,
    d_infinity,
    diaz,
    logan_class,
    pinch_partition,
    residual,
    theta_characteristic_locus,
    theta_pullback_class,
    weierstrass,
)
from artifact.core import (
    DivisorClass,
    ModuliBase,
    diff_first,
    enumerate_boundary,
    equals,
    from_json,
    normalize_genus2,
    relabel,
    to_csv,
    to_json,
    to_latex,
    to_latex_expr,
)
from artifact.maps import (
    forget_point,
    glue_closed_tail,
    glue_tail,
    identify_points,
    pullback,
)

# every catalog constructor, on bases with g <= 6 and n <= 5
CASES = [
    (weierstrass, (2,)), (weierstrass, (5,)), (residual, (4,)), (diaz, (3,)), (diaz, (6,)),
    (d1_holo, (5, 2)), (d1_mero, (4, 3)), (brill_noether, (5,)),
    (theta_characteristic_locus, (4, "odd")), (theta_characteristic_locus, (3, "total")),
    (logan_class, (3, (1, 1, 1))), (logan_class, (5, (1, 1, 1, 1, 1))),
    (logan_class, (5, (2, 1, 1, 1))), (logan_class, (6, (1, 1, 2, 1, 1))),
    (theta_pullback_class, (3, (1, 1, 1, -1))), (theta_pullback_class, (4, (1, 1, 1, 1, -1))),
    (theta_pullback_class, (6, (-1, 2, 2, 2))), (theta_pullback_class, (5, (2, -1, 2, 1))),
    (anti_ramification, (4,)), (anti_ramification, (6,)),
    (coupled_partition, (3, (2, -2), "odd")), (coupled_partition, (3, (1, 1))),
    (coupled_partition, (4, (1, -2, 1))), (coupled_partition, (4, (2, 2, -2, -2), "even")),
    (coupled_partition, (5, (3, -1, -1, -1))), (coupled_partition, (5, (1, -1, 1, -1))),
    (pinch_partition, (5, (1, 1, 1, 1))), (pinch_partition, (6, (2, 1, 1, 1, 0))),
    (pinch_partition, (5, (2, 1, 1, 1, -2))), (pinch_partition, (4, (-2, 2, 1, 1))),
    (d_infinity, (4, "even")),
]


def _id(case):
    fn, args = case
    return "%s%s" % (fn.__name__, repr(args).replace(" ", ""))


def by_keys(a):
    """a stored key by key, with the singleton colouring: built by the
    trusted constructor, as the checked one would find a's colouring."""
    return DivisorClass._from_canonical(a.base, a.lam, a.psi, a.delta0, dict(a.boundary))


def texts(x):
    """x as every serializer writes it."""
    return [write(x) for write in (to_json, to_csv, to_latex, to_latex_expr, repr)]


def written(x):
    """texts(x), after checking that x stores one coefficient per orbit of
    its keys, at the orbit's representative, and psi constant on each
    colour.  The texts are written before the check reads x.boundary."""
    out = texts(x)
    assert set(x._orbits) == {(k.i, core._rep(x._colours, k.S)) for k in x.boundary}
    assert all(len({x.psi[k - 1] for k in b}) == 1 for b in x._colours or ())
    return out


def perms(n, rng):
    """Permutations of 1..n: ones that fix label 1 and ones that move it."""
    if n < 2:
        return [list(range(1, n + 1))]
    out = [[1, *range(n, 1, -1)], [*range(2, n + 1), 1], [n, *range(2, n), 1]]
    for _ in range(2):
        out.append(rng.sample(range(1, n + 1), n))
    return out


def maps_onto(base):
    """Every map variant whose codomain is base: forget j = 1 and j = n,
    closed tail and glue-tail attached at 1 and at n, and identify-points."""
    g, n = base
    M = ModuliBase
    out = [forget_point(M(g, n + 1), 1), forget_point(M(g, n + 1), n + 1)]
    if g >= 3:
        out += [glue_closed_tail(M(g - 1, n + 1), 1, 1),
                glue_closed_tail(M(g - 1, n + 1), 1, n + 1), identify_points(M(g - 1, n + 2))]
    for h, j in ((1, 0), (0, 1), (1, 1), (0, 2)):
        if g - h >= 2 and n - j >= 1:
            dom = M(g - h, n - j)
            out += [glue_tail(dom, h, j, 1), glue_tail(dom, h, j, dom.n)]
    return out


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_orbit_form_matches_key_form(case):
    fn, args = case
    rng = random.Random(_id(case))
    a = fn(*args)
    k = by_keys(a)
    n = a.base.n
    assert written(a) == texts(k)
    for p in perms(n, rng):
        assert written(relabel(a, p)) == texts(relabel(k, p)), p
    for m in maps_onto(a.base):
        assert written(pullback(m, a)) == texts(pullback(m, k)), m
    # sums and comparisons of classes with different colourings
    others = [relabel(a, p) for p in perms(n, rng)]
    others += [b for b in (f(*x) for f, x in CASES) if b.base == a.base]
    for b in others:
        kb = by_keys(b)
        assert written(a + b) == texts(k + kb)
        assert written(a - b) == texts(k - kb)
        assert written(b - a) == texts(kb - k)
        assert diff_first(a, b) == diff_first(k, kb) == diff_first(k, b) == diff_first(a, kb)
        assert equals(a, b) == equals(k, kb)


def test_a_difference_off_the_representatives_is_found():
    # b differs from a on one key that is the last of its orbit, so that
    # comparing a and b on the representatives of a's colouring misses it
    a = logan_class(5, (1, 1, 1, 1, 1))
    key = max(a.boundary, key=lambda k: (k.i == 2 and len(k.S) == 3, k.sort_key()))
    assert key != (key.i, core._rep(a._colours, key.S))
    b = a + DivisorClass(a.base, boundary=[(key, 1)])
    want = (str(key), a.boundary[key], a.boundary[key] + 1)
    assert diff_first(a, b) == want and not equals(a, b) and a != b
    assert diff_first(b, a) == (want[0], want[2], want[1])
    assert written(b - a) == texts(DivisorClass(a.base, boundary=[(key, 1)]))


def test_the_cases_are_in_orbit_form():
    # the differential test above is about classes whose colouring is not
    # the singleton one
    coarse = [_id(c) for c in CASES if c[0](*c[1])._colours is not None]
    assert len(coarse) >= 15, coarse


def test_representatives_come_first_in_their_orbits():
    a = logan_class(6, (2, 1, 1, 1, 1))
    keys = sorted(a.boundary)
    seen = set()
    for key in keys:
        rep = (key.i, core._rep(a._colours, key.S))
        if rep not in seen:
            assert rep == key
            seen.add(rep)
    assert seen == set(a._orbits) and len(seen) < len(keys)


# orbit-form classes, on genus 2 among others
HASHED = [
    theta_pullback_class(2, (1, 1, 1, -1, -1)),
    coupled_partition(2, (2, 2, -2, -2)),
    logan_class(5, (1, 1, 1, 1, 1)),
    pullback(forget_point(ModuliBase(4, 5), 1), logan_class(4, (1, 1, 1, 1))),
]


@pytest.mark.parametrize("a", HASHED, ids=lambda a: str(a.base))
def test_hash_agrees_with_equals_across_colourings(a):
    assert a._colours is not None
    k = by_keys(a)
    assert k._colours is None and equals(a, k) and hash(a) == hash(k)
    b = relabel(relabel(a, [*range(2, a.base.n + 1), 1]), [a.base.n, *range(1, a.base.n)])
    assert b._colours != a._colours and equals(a, b) and hash(a) == hash(b)
    if a.base.g == 2:
        # another lambda, equal after the genus-2 normalization
        lam = DivisorClass(a.base, lam=1)
        c = a + 3 * (lam - normalize_genus2(lam))
        assert c.lam != a.lam and equals(a, c) and hash(a) == hash(c)
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert equals(copied, a) and hash(copied) == hash(a)
        assert to_json(copied) == to_json(a)


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda a: pickle.loads(pickle.dumps(a))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copy_keeps_its_orbits(copier):
    # a copy is rebuilt by the checked constructor, which finds the
    # colouring of its psi again; a class whose boundary was read hands it a
    # dict of every key, never the view
    a = logan_class(12, (1,) * 12)
    assert len(a.boundary) == sum(1 for _ in a.boundary.items()) == 24564
    assert type(a.__reduce__()[1][1][4]) is dict
    b = copier(a)
    assert b is not a and b._colours == a._colours and b._orbits == a._orbits
    assert len(b._orbits) == 142
    assert to_json(b) == to_json(a) and hash(b) == hash(a)


def test_the_constructor_stores_symmetric_entries_in_orbit_form():
    # the constructor reads its entries by the rule of from_json: keys in
    # either mirror form, repeated or with a zero added, that fill the orbits
    # of the colouring of psi give one coefficient per orbit
    a = logan_class(5, (1,) * 5)
    labels = set(a.base.labels())
    entries = list(a.boundary.items())
    mirrored = [((a.base.g - k.i, labels - k.S), c) for k, c in entries]
    split = [(k, x) for k, c in entries for x in (c - 1, 1)]
    for given in (a.boundary, entries, mirrored, split, entries + [(entries[0][0], 0)]):
        b = DivisorClass(a.base, a.lam, a.psi, a.delta0, given)
        assert b._colours == a._colours and b._orbits == a._orbits
    # one key dropped breaks the symmetry
    b = DivisorClass(a.base, a.lam, a.psi, a.delta0, entries[:-1])
    assert b._colours is None and len(b._orbits) == len(entries) - 1


# the coloured catalog classes, and the g = n = 12 logan class
VIEWED = [case for case in CASES if case[0](*case[1])._colours is not None] + [
    (logan_class, (12, (1,) * 12))]


def _answer(read):
    """What read() returns, or the type of the KeyError or TypeError it
    raises."""
    try:
        return "value", read()
    except (KeyError, TypeError) as e:
        return type(e)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(VIEWED), st.data())
def test_the_view_answers_as_the_expansion(case, data):
    # boundary reads the orbits and keeps nothing, and answers every read
    # as the dict of every key did, also for keys that are not canonical
    fn, args = case
    a = fn(*args)
    view, keys = a.boundary, dict(core._expand(a))
    assert a._colours is not None and type(view) is MappingProxyType
    assert len(view) == len(keys) and list(view) == list(keys)
    assert list(view.keys()) == list(keys.keys()) and list(view.values()) == list(keys.values())
    assert list(view.items()) == list(keys.items()) and view.keys() == keys.keys()
    assert view == keys and keys == view and view == a.boundary and not view != keys
    assert repr(view) == repr(MappingProxyType(keys))
    assert view.copy() == keys and list(reversed(view)) == list(reversed(keys))
    assert view | {} == keys == {} | view
    g, n = a.base
    k = data.draw(st.sampled_from(enumerate_boundary(a.base)))
    i, S = k
    labels = frozenset(a.base.labels())
    tried = [k, (i, S), (g - i, labels - S), (g + 1, S), (-1, S), (i, S | {n + 1})]
    if 1 in S:
        tried.append((i, S - {1} | {True}))
    zero = [key for key in enumerate_boundary(a.base) if key not in keys]
    if zero:
        tried.append(data.draw(st.sampled_from(zero)))
    for key in tried:
        for read in (lambda m: m[key], lambda m: key in m, lambda m: m.get(key, "none")):
            assert _answer(lambda: read(view)) == _answer(lambda: read(keys)), key
    # a tuple S and a non-pair are no key; a set S cannot be hashed
    for key, error in (((i, tuple(sorted(S))), KeyError), ((i, set(S)), TypeError),
                       ((i,), KeyError), ((i, S, 0), KeyError), (5, KeyError),
                       ("ab", KeyError)):
        assert _answer(lambda: view[key]) is error is _answer(lambda: keys[key]), key
        assert _answer(lambda: view.get(key)) == _answer(lambda: keys.get(key)), key
        assert _answer(lambda: key in view) == _answer(lambda: key in keys), key


@st.composite
def repeated_weight_classes(draw):
    """A logan, theta-pullback or coupled class at g = 2..5 whose weights
    repeat, in a drawn order of its labels."""
    g = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["logan", "theta", "coupled"]))
    if kind == "logan":
        twos = draw(st.integers(0, g // 2))
        d = [2] * twos + [1] * (g - 2 * twos)
    elif kind == "theta":
        poles = draw(st.integers(1, 2))
        d = [-1] * poles + [1] * (g - 1 + poles)
    else:
        d = list(draw(st.sampled_from([(1, -1, 1, -1), (2, -1, -1), (3, -1, -1, -1)])))
    d = draw(st.permutations(d))
    build = {"logan": logan_class, "theta": theta_pullback_class, "coupled": coupled_partition}
    return build[kind](g, tuple(d))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(repeated_weight_classes(), st.data())
def test_hash_agrees_with_equals_on_drawn_classes(a, data):
    n = a.base.n
    p = data.draw(st.permutations(range(1, n + 1)))
    inverse = [p.index(k) + 1 for k in range(1, n + 1)]
    moved = relabel(a, p)
    copied = by_keys(moved)
    forms = [a, moved, copied, relabel(copied, inverse)]
    assert equals(moved, copied) and equals(forms[-1], a)
    if a.base.g == 2:
        lam = DivisorClass(a.base, lam=1)
        forms.append(moved + data.draw(st.integers(1, 5)) * (lam - normalize_genus2(lam)))
        assert forms[-1].lam != moved.lam and equals(forms[-1], copied)
    for x in forms:
        for y in forms:
            assert not equals(x, y) or hash(x) == hash(y)


class TestNoExpansion:
    """Builds, relabels and pullbacks store one coefficient per orbit: counted
    entries and counted expansions, not times."""

    g = 12

    @pytest.fixture
    def expansions(self, monkeypatch):
        calls = []
        expand = core._expand
        monkeypatch.setattr(core, "_expand", lambda a: calls.append(a.base) or expand(a))
        return calls

    def test_wide_steps_store_orbits(self, expansions):
        g, M = self.g, ModuliBase
        logan = logan_class(g, (1,) * g)
        pinch = pinch_partition(g, [2] + [1] * (g - 3) + [0, 0])
        assert len(logan._orbits) <= 13 * 12
        steps = [
            (logan, relabel(logan, [g, *range(1, g)])),
            (logan, relabel(logan, [1, *range(g, 1, -1)])),
            (logan, pullback(glue_tail(M(g, 1), 0, g - 1, 1), logan)),
            (logan, pullback(glue_tail(M(g - 1, g - 1), 1, 1, attach=g - 1), logan)),
            (logan, pullback(glue_closed_tail(M(g - 1, g + 1), 1, 1), logan)),
            (pinch, pullback(identify_points(M(g - 1, g + 2)), pinch)),
            (logan, pullback(forget_point(M(g, g + 1), g + 1), logan)),
        ]
        assert expansions == []
        for a, out in steps:
            assert len(out._orbits) <= 4 * len(a._orbits), out.base
        # the counts above are of orbits, far fewer than the keys, and the
        # view counts the keys from the orbits
        assert len(logan.boundary) == 24564 > 100 * len(logan._orbits)
        assert expansions == []
        for _, out in steps:
            assert len(out.boundary) >= len(out._orbits)

    def test_a_read_keeps_nothing(self, expansions):
        # a lookup costs one orbit, and a walk makes the keys one at a time
        a = logan_class(self.g, (1,) * self.g)
        key = max(a._orbits)
        view = a.boundary
        assert len(view) == 24564 and view[key] == a.delta(*key)
        assert key in view and view.get(key) == view[key] and view.get((self.g + 1, key.S)) is None
        assert expansions == []
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            assert sum(1 for _ in a.boundary.items()) == 24564
            grown = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert grown < 512 * 1024 and expansions == []

    def test_sums_and_comparisons_of_one_colouring_do_not_expand(self, expansions):
        a = logan_class(self.g, (1,) * self.g)
        b = a + 2 * a - a
        assert equals(b, 2 * a) and diff_first(b, a) is not None
        assert b._colours == a._colours
        assert expansions == []

    def test_serializers_do_not_expand(self, expansions):
        a = logan_class(self.g, (1,) * self.g)
        text = to_json(a)
        assert to_csv(a) and to_latex(a) and to_latex_expr(a) and repr(a)
        assert expansions == []
        # a class stored key by key is made from a's view, which expands
        # nothing; each comparison with it refines a to every key for that
        # call, and a keeps none of them
        keyed = DivisorClass._from_canonical(a.base, a.lam, a.psi, a.delta0, dict(a.boundary))
        assert expansions == [] and keyed._colours is None
        assert equals(keyed, a) and equals(a, keyed)
        assert to_json(keyed) == text
        assert len(a.boundary) == len(a.boundary) == 24564
        assert expansions == [a.base, a.base]

    def test_a_read_back_class_keeps_its_orbits(self, expansions):
        # from_json finds the colouring of a symmetric document, so comparing
        # and writing the class it reads cost orbits, not keys
        g = self.g
        logan = logan_class(g, (1,) * g)
        theta = theta_pullback_class(g, (3, 2, *[1] * (g - 4), -1, -1))
        for a in (logan, theta):
            text = to_json(a)
            b = from_json(text)
            assert b._colours == a._colours and b._orbits == a._orbits
            assert equals(b, a) and equals(a, b) and diff_first(b, a) is None
            assert [to_json(b), to_csv(b), to_latex(b)] == [text, to_csv(a), to_latex(a)]
        assert expansions == []
        assert len(from_json(to_json(logan))._orbits) == len(logan._orbits) == 142

    def test_writing_a_coloured_class_reads_its_orbits_not_its_base(self, expansions,
                                                                     monkeypatch):
        # one orbit of 17 keys on a base of 2 490 349 keys, relabeled: the
        # rows come from the class's own orbits, never from its expansion or
        # the sets or keys of the base
        base = ModuliBase(18, 18)
        colours = core._colouring((0,) * 18)
        key = core.canonical_index(base, 3, {1, 2})
        x = DivisorClass._from_canonical(base, 0, None, 0, {key: Fraction(2)}, colours)

        def refuse(*args):
            raise AssertionError("a serializer read the keys of the base")

        monkeypatch.setattr(core, "_own_sets", refuse)
        monkeypatch.setattr(core, "_orbit_keys", refuse)
        a = relabel(x, [1, *range(18, 1, -1)])
        assert a._colours == colours and len(a._orbits) == 1
        rows = [{"i": 3, "S": [1, k], "c": "2"} for k in range(2, 19)]
        assert json.loads(to_json(a))["boundary"] == rows
        assert to_csv(a).endswith("".join("delta_{3:{1,%d}},2\n" % k for k in range(2, 19)))
        assert to_latex_expr(a).count("delta") == 17
        assert expansions == []


def _caches():
    import artifact.catalog
    import artifact.maps
    return {f.__name__: f for m in (core, artifact.catalog, artifact.maps)
            for f in vars(m).values() if hasattr(f, "cache_info")}


def test_new_colourings_grow_no_cache():
    # relabels by new permutations give new colourings, and sums and
    # comparisons refine to their meets; every cache has a bound, and the
    # one that keys on neither a colouring, a weight vector nor a base keeps
    # its size after a first round
    cached = _caches()
    unbounded = {name for name, f in cached.items() if f.cache_info().maxsize is None}
    assert cached and not unbounded, unbounded
    label_sets = cached["_label_set"]
    rng = random.Random(5)
    g, n = 8, 6
    a = logan_class(g, (1, 1, 1, 2, 2, 1))
    b = theta_pullback_class(g, (1, 1, 2, 2, -1, 2))
    tail = glue_tail(ModuliBase(g - 1, n - 1), 1, 1, attach=n - 1)
    size = None
    for _ in range(20):
        p, q = rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n)
        x, y = relabel(a, p), relabel(b, q)
        assert equals(x + y - y, x) and diff_first(x, y) is not None
        assert equals(pullback(tail, x - y), pullback(tail, x) - pullback(tail, y))
        now = label_sets.cache_info().currsize
        assert size is None or now == size
        size = now


def test_the_cache_bounds_fit_the_registry_suite():
    # the bounds are sized from the traffic of the registry suite at genus 12
    # and up to 10 points: from empty caches, no entry is evicted, so every
    # miss is still held
    from artifact.verify import run_suite
    cached = _caches()
    for f in cached.values():
        f.cache_clear()
    assert run_suite(12, n_max=10).ok
    for name, f in cached.items():
        info = f.cache_info()
        assert info.misses == info.currsize < info.maxsize, (name, info)


def _pow2(e):
    return 2**e if e >= 0 else Fraction(1, 2**-e)


def _by_parity(parity, f):
    return f(-1) + f(1) if parity == "total" else f(-1 if parity == "odd" else 1)


@pytest.mark.parametrize("parity", ["odd", "even", "total"])
def test_spin_coefficients_by_shifts_equal_the_products(parity):
    # the products of powers of two that the spin-refined classes were
    # written with, against the shifts and adds they are computed with
    for g in range(2, 41):
        pref = _pow2(g - 3)
        a = theta_characteristic_locus(g, parity)
        assert a.lam == pref * _by_parity(parity, lambda e: 2**g + e)
        assert a.psi == (pref * _by_parity(parity, lambda e: (1 - e) * (2**g + e)),)
        assert a.delta0 == pref * _by_parity(parity, lambda e: -pref)
        for i in range(1, g):
            want = pref * _by_parity(parity, lambda e: -(2**i - e) * (2 ** (g - i) - 1))
            assert a.delta(i, {1}) == want, (g, i)
        c = coupled_partition(g, (-2, 2), parity)
        for i in range(0, g + 1):
            for S, s in (({1, 2}, -1), ({2}, 1)):
                if core.try_canonical_index(c.base, i, S) is None:
                    continue
                # the side of genus i holds both points, or the zero alone
                want = pref * _by_parity(parity, lambda e: -(2**i + s * e) * (2 ** (g - i) + s))
                assert c.delta(i, S) == want, (g, i, S)
        q = _by_parity(parity, lambda e: _pow2(g - 4) * (2**g + e))
        assert d_infinity(g, parity).psi == (q, q)


def _cases_moved():
    """Every class of CASES, a relabel of it that moves label 1, and its
    pullbacks along the forgetful maps onto the next base."""
    for fn, args in CASES:
        a = fn(*args)
        g, n = a.base
        yield _id((fn, args)), a
        if n >= 2:
            yield _id((fn, args)) + "-relabeled", relabel(a, [*range(2, n + 1), 1])
        for j in (1, n + 1):
            yield _id((fn, args)) + "-forget%d" % j, pullback(
                forget_point(ModuliBase(g, n + 1), j), a)


def test_a_read_back_class_is_the_class_it_was_written_from():
    coloured = 0
    for name, a in _cases_moved():
        b = from_json(to_json(a))
        assert equals(b, a) and equals(a, b) and hash(b) == hash(a), name
        assert written(b) == texts(a), name
        coloured += b._colours is not None
        # psi proposes the colouring, so a read-back class is never coarser
        # than its psi allows, and its colouring is that of its psi or None
        assert b._colours in (None, core._colouring(a.psi)), name
    assert coloured >= 60, coloured


def _symmetric_document(g=5):
    """The JSON document of logan_class(g, (1,)*g), parsed, and the class."""
    a = logan_class(g, (1,) * g)
    return json.loads(to_json(a)), a


def _constructed(doc):
    """The class that the constructor gives for the fields and entries of
    the parsed document doc."""
    return DivisorClass(ModuliBase(doc["g"], doc["n"]), Fraction(doc["lambda"]),
                        [Fraction(c) for c in doc["psi"]], Fraction(doc["delta0"]),
                        [((e["i"], e["S"]), Fraction(e["c"])) for e in doc["boundary"]])


def _read_as_the_constructor(doc):
    """from_json of doc, after checking that it reads key by key, to exactly
    what the constructor gives for the same entries."""
    want = _constructed(doc)
    got = from_json(json.dumps(doc))
    assert got._colours is None and got._orbits == want._orbits
    assert equals(got, want) and to_json(got) == to_json(want)
    return got


def _changed(e, c):
    return {**e, "c": str(c)}


def _read_in_orbit_form(doc, a):
    """Check that from_json of doc and the constructor given its entries
    both read the class a, in a's orbit form."""
    for b in (from_json(json.dumps(doc)), _constructed(doc)):
        assert b._colours == a._colours and b._orbits == a._orbits
        assert equals(b, a) and to_json(b) == to_json(a)


class TestReadBackFallsBack:
    """A document that breaks the symmetry its psi proposes, anywhere in it,
    reads key by key, to what the constructor reads.  Entries that only
    split a key's coefficient or add a zero do not break it: what the reader
    groups is the sum of the entries at each key."""

    @pytest.fixture(params=[0, 37, -1], ids=["first", "middle", "last"])
    def at(self, request):
        return request.param

    def test_the_symmetric_document_reads_in_orbit_form(self):
        doc, a = _symmetric_document()
        b = from_json(json.dumps(doc))
        assert b._colours == a._colours and b._orbits == a._orbits

    def test_one_coefficient_changed(self, at):
        doc, a = _symmetric_document()
        e = doc["boundary"][at]
        doc["boundary"][at] = _changed(e, Fraction(e["c"]) + 1)
        assert not equals(_read_as_the_constructor(doc), a)

    def test_one_key_dropped(self, at):
        doc, a = _symmetric_document()
        del doc["boundary"][at]
        assert not equals(_read_as_the_constructor(doc), a)

    def test_one_key_written_twice_with_its_coefficient_split(self, at):
        doc, a = _symmetric_document()
        e = doc["boundary"][at]
        c = Fraction(e["c"])
        doc["boundary"][at:at + 1 or None] = [_changed(e, c / 3), _changed(e, c - c / 3)]
        _read_in_orbit_form(doc, a)

    def test_one_mirror_form_added(self, at):
        doc, a = _symmetric_document()
        e = doc["boundary"][at]
        mirror = {"i": doc["g"] - e["i"], "S": sorted(set(range(1, doc["n"] + 1)) - set(e["S"])),
                  "c": "1"}
        doc["boundary"].insert(at if at >= 0 else len(doc["boundary"]), mirror)
        assert not equals(_read_as_the_constructor(doc), a)

    def test_one_zero_coefficient_added(self, at):
        doc, a = _symmetric_document()
        e = doc["boundary"][at]
        doc["boundary"].insert(at if at >= 0 else len(doc["boundary"]), _changed(e, 0))
        _read_in_orbit_form(doc, a)

    def test_distinct_psi_proposes_no_colouring(self):
        doc, a = _symmetric_document()
        doc["psi"] = [str(Fraction(c) + k) for k, c in enumerate(doc["psi"])]
        b = _read_as_the_constructor(doc)
        assert diff_first(b, a)[0] == "psi_2"
