import gc
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from artifact import catalog, core
from artifact.core import (
    BaseMismatch,
    DivisorClass,
    ModuliBase,
    ParamOutOfRange,
    _frac,
    enumerate_boundary,
    equals,
    relabel,
    to_json,
)
from artifact.catalog import (
    BadWeights,
    CONSTRUCTORS,
    GenusTooSmall,
    PARITIES,
    ParityUnavailable,
    UnsupportedWeights,
    _assemble,
    anti_ramification,
    bn_coefficient_check,
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


def coeffs(a):
    """(lambda, psi tuple, delta0, {(i, sorted S): c}) for literal checks."""
    return (
        a.lam,
        a.psi,
        a.delta0,
        {(k.i, tuple(k.sorted_S())): c for k, c in a.boundary.items()},
    )


class TestPrintedClasses:
    def test_weierstrass_genus3(self):
        lam, psi, d0, bnd = coeffs(weierstrass(3))
        assert (lam, psi, d0) == (-1, (6,), 0)
        assert bnd == {(1, (1,)): -3, (2, (1,)): -1}

    def test_theta_genus3_odd(self):
        lam, psi, d0, bnd = coeffs(theta_characteristic_locus(3, "odd"))
        assert (lam, psi, d0) == (7, (14,), -1)
        assert bnd == {(1, (1,)): -9, (2, (1,)): -5}

    def test_theta_genus3_even(self):
        lam, psi, d0, bnd = coeffs(theta_characteristic_locus(3, "even"))
        assert (lam, psi, d0) == (9, (0,), -1)
        assert bnd == {(1, (1,)): -3, (2, (1,)): -3}

    def test_residual_genus3(self):
        lam, psi, d0, bnd = coeffs(residual(3))
        assert (lam, psi, d0) == (111, (6,), -12)
        assert bnd == {(1, (1,)): -27, (2, (1,)): -33}

    def test_brill_noether_genus3(self):
        lam, psi, d0, bnd = coeffs(brill_noether(3))
        assert (lam, psi, d0) == (6, (0,), Fraction(-2, 3))
        assert bnd == {(1, (1,)): -2, (2, (1,)): -2}


# (lambda, psi, delta0, boundary) of the genus-4 spin-refined classes, by
# parity; each total is the sum of its odd and even rows
PRINTED_SPIN = {
    ("coupled", (-2, 2), "odd"): (30, (60, 0), -4, {
        (0, (1, 2)): -60, (1, (1,)): -42, (1, (1, 2)): -42, (2, (1,)): -30,
        (2, (1, 2)): -30, (3, (1,)): -18, (3, (1, 2)): -18}),
    ("coupled", (-2, 2), "even"): (34, (68, 68), -4, {
        (1, (1,)): -54, (1, (1, 2)): -14, (2, (1,)): -50, (2, (1, 2)): -18,
        (3, (1,)): -54, (3, (1, 2)): -14}),
    ("coupled", (-2, 2), "total"): (64, (128, 68), -8, {
        (0, (1, 2)): -60, (1, (1,)): -96, (1, (1, 2)): -56, (2, (1,)): -80,
        (2, (1, 2)): -48, (3, (1,)): -72, (3, (1, 2)): -32}),
    ("coupled", (-4, 4), "odd"): (60, (240, 240), -8, {
        (0, (1, 2)): -120, (1, (1,)): -240, (1, (1, 2)): -84,
        (2, (1,)): -240, (2, (1, 2)): -60, (3, (1,)): -240,
        (3, (1, 2)): -36}),
    ("coupled", (-4, 4), "even"): (68, (272, 272), -8, {
        (1, (1,)): -272, (1, (1, 2)): -28, (2, (1,)): -272,
        (2, (1, 2)): -36, (3, (1,)): -272, (3, (1, 2)): -28}),
    ("coupled", (-4, 4), "total"): (128, (512, 512), -16, {
        (0, (1, 2)): -120, (1, (1,)): -512, (1, (1, 2)): -112,
        (2, (1,)): -512, (2, (1, 2)): -96, (3, (1,)): -512,
        (3, (1, 2)): -64}),
    ("dinf", (), "odd"): (0, (15, 15), 0, {
        (1, (1,)): -15, (2, (1,)): -15, (3, (1,)): -15}),
    ("dinf", (), "even"): (0, (17, 17), 0, {
        (1, (1,)): -17, (2, (1,)): -17, (3, (1,)): -17}),
    ("dinf", (), "total"): (0, (32, 32), 0, {
        (1, (1,)): -32, (2, (1,)): -32, (3, (1,)): -32}),
}


@pytest.mark.parametrize("name,d,parity", sorted(PRINTED_SPIN))
def test_printed_spin_class_genus4(name, d, parity):
    if name == "coupled":
        a = coupled_partition(4, d, parity)
    else:
        a = d_infinity(4, parity)
    lam, psi, d0, bnd = PRINTED_SPIN[name, d, parity]
    assert coeffs(a) == (lam, psi, d0, bnd)


class TestSpecializations:
    def test_double_zero_order_zero_is_weierstrass_multiple(self):
        for g in range(3, 9):
            assert equals(d1_holo(g, 0), (g - 2) * weierstrass(g))

    def test_double_zero_top_order_is_residual(self):
        for g in range(3, 9):
            assert equals(d1_holo(g, g - 1), residual(g))

    def test_one_point_logan_is_weierstrass(self):
        for g in range(3, 9):
            assert equals(logan_class(g, (g,)), weierstrass(g))

    def test_antiram_is_weight_one_pinch(self):
        for g in range(3, 7):
            assert equals(anti_ramification(g), pinch_partition(g, (1,) * (g - 1)))

    def test_coupled_pair_matches_antiram_genus3(self):
        assert equals(coupled_partition(3, (1, 1)), anti_ramification(3))

    def test_theta_total_is_odd_plus_even(self):
        for g in range(2, 7):
            total = theta_characteristic_locus(g, "total")
            split = theta_characteristic_locus(g, "odd") \
                + theta_characteristic_locus(g, "even")
            assert equals(total, split)


class TestSpinAdditivity:
    @pytest.mark.parametrize("g", range(2, 8))
    def test_coupled_even_weights(self, g):
        total = coupled_partition(g, (-4, 4))
        split = coupled_partition(g, (-4, 4), "odd") \
            + coupled_partition(g, (-4, 4), "even")
        assert equals(total, split)

    @pytest.mark.parametrize("g", range(2, 8))
    def test_double_pole_pair(self, g):
        total = coupled_partition(g, (-2, 2))
        split = coupled_partition(g, (-2, 2), "odd") \
            + coupled_partition(g, (-2, 2), "even")
        assert equals(total, split)

    @pytest.mark.parametrize("g", range(2, 8))
    def test_collision_limit(self, g):
        total = d_infinity(g)
        split = d_infinity(g, "odd") + d_infinity(g, "even")
        assert equals(total, split)


class TestSymmetry:
    def test_logan_is_permutation_equivariant(self):
        d = (1, 2, 1)
        a = logan_class(4, d)
        for perm in itertools.permutations((1, 2, 3)):
            pd = tuple(d[perm[t] - 1] for t in range(3))
            moved = logan_class(4, pd)
            # relabel sends position t of pd back to position perm[t] of d
            back = relabel(moved, {t + 1: perm[t] for t in range(3)})
            assert equals(back, a)

    def test_coupled_weight_order_irrelevant_up_to_labels(self):
        # each order is assembled on its own labels; relabeling the standard
        # order (the pole first) is an independent path to the same class
        cases = [*((d, p) for d in ((-2, 2), (2, -2)) for p in PARITIES),
                 *((d, "total") for d in sorted(set(itertools.permutations((-2, 1, 1)))))]
        for g in range(2, 8):
            for d, parity in cases:
                zeros = iter(t for t, x in enumerate(d, 1) if x > 0)
                perm = {1: d.index(-2) + 1, **{k: next(zeros) for k in range(2, len(d) + 1)}}
                standard = coupled_partition(g, tuple(sorted(d)), parity)
                got = coupled_partition(g, d, parity)
                assert to_json(relabel(standard, perm)) == to_json(got), (g, d, parity)

    def test_theta_pullback_respects_labels(self):
        a = theta_pullback_class(4, (5, -2))
        b = theta_pullback_class(4, (-2, 5))
        assert equals(relabel(b, {1: 2, 2: 1}), a)


class TestErrors:
    def test_genus_bounds(self):
        with pytest.raises(GenusTooSmall):
            weierstrass(1)
        with pytest.raises(GenusTooSmall):
            diaz(2)
        with pytest.raises(GenusTooSmall):
            residual(2)
        with pytest.raises(GenusTooSmall):
            anti_ramification(2)

    def test_stratum_parameters(self):
        with pytest.raises(ParamOutOfRange):
            d1_holo(4, 4)
        with pytest.raises(ParamOutOfRange):
            d1_holo(4, -1)
        with pytest.raises(ParamOutOfRange):
            d1_mero(4, 1)

    def test_logan_weights(self):
        with pytest.raises(BadWeights):
            logan_class(3, (1, 1))  # wrong sum
        with pytest.raises(BadWeights):
            logan_class(3, (4, -1))  # negative weight
        with pytest.raises(BadWeights):
            logan_class(3, ())

    def test_theta_pullback_weights(self):
        with pytest.raises(BadWeights):
            theta_pullback_class(4, (3, -1))  # sums to 2, not g-1
        with pytest.raises(BadWeights):
            theta_pullback_class(4, (2, 1))  # no pole

    def test_coupled_weights(self):
        with pytest.raises(UnsupportedWeights):
            coupled_partition(4, (2, -1))  # nonzero sum
        with pytest.raises(UnsupportedWeights):
            coupled_partition(4, (1, 0, -1))
        with pytest.raises(ParityUnavailable):
            coupled_partition(4, (3, -3), "odd")
        with pytest.raises(ParityUnavailable):
            coupled_partition(4, (1, 1), "even")
        with pytest.raises(ParamOutOfRange):
            coupled_partition(4, (-2, 2), "both")

    def test_pinch_weights(self):
        with pytest.raises(BadWeights):
            pinch_partition(4, (1, 1))  # holomorphic sum must be g-1
        with pytest.raises(UnsupportedWeights):
            pinch_partition(4, (3, -1, 1))  # a simple pole is unsupported
        with pytest.raises(UnsupportedWeights):
            pinch_partition(4, (-2, 3, -2))  # two poles
        with pytest.raises(BadWeights):
            pinch_partition(4, (-2, 3))  # one pole: sum must be g-2

    def test_bn_check_needs_one_point(self):
        with pytest.raises(BaseMismatch):
            bn_coefficient_check(DivisorClass(ModuliBase(3, 0)))


class TestRegimeAudit:
    base = ModuliBase(4, 2)

    def test_gap_detected(self):
        with pytest.raises(AssertionError):
            _assemble(self.base, [(lambda i, s: i >= 2, lambda i, s: 1)])

    def test_overlap_detected(self):
        with pytest.raises(AssertionError):
            _assemble(
                self.base,
                [
                    (lambda i, s: i <= 2, lambda i, s: 1),
                    (lambda i, s: i >= 2, lambda i, s: 1),
                ],
            )

    def test_exact_cover_accepted(self):
        bnd = _assemble(
            self.base,
            [
                (lambda i, s: i <= 2, lambda i, s: 1),
                (lambda i, s: i > 2, lambda i, s: 2),
            ],
        )
        assert set(bnd) == set(enumerate_boundary(self.base))

    def test_zero_coefficients_omitted(self):
        bnd = _assemble(self.base, [(lambda i, s: True, lambda i, s: 0)])
        assert bnd == {}


def _assemble_per_key(base, regimes, view=len):
    """The regime audit done key by key: the view, every predicate and the
    formula's _frac are computed afresh for each key, in output order."""
    bnd = {}
    for key in enumerate_boundary(base):
        v = (key.i, view(key.S))
        hits = [f for p, f in regimes if p(*v)]
        if len(hits) != 1:
            raise AssertionError("%d regimes claim %s on %s" % (len(hits), key, base))
        c = _frac(hits[0](*v))
        if c:
            bnd[key] = c
    return bnd


def _audit_message(assemble, base, regimes, view=len):
    with pytest.raises(AssertionError) as err:
        assemble(base, regimes, view)
    return str(err.value)


class TestAuditPerView:
    """The audit runs once per distinct view (i, view(S)) and gives every key
    of a view the same coefficient; it must accept, reject and fill in
    exactly as the audit run on every key."""

    base = ModuliBase(6, 4)

    def test_one_unclaimed_view_shared_by_many_keys(self):
        # i = 3 with |S| = 2 is the view of delta_{3:{1,2}}, {1,3} and {1,4}
        regimes = [(lambda i, s: (i, s) != (3, 2), lambda i, s: 1)]
        assert sum((k.i, len(k.S)) == (3, 2) for k in enumerate_boundary(self.base)) == 3
        msg = "0 regimes claim delta_{3:{1,2}} on (6,4)"
        assert _audit_message(_assemble, self.base, regimes) == msg
        assert _audit_message(_assemble_per_key, self.base, regimes) == msg

    def test_one_view_claimed_twice(self):
        regimes = [
            (lambda i, s: True, lambda i, s: 1),
            (lambda i, s: (i, s) == (3, 2), lambda i, s: 2),
        ]
        msg = "2 regimes claim delta_{3:{1,2}} on (6,4)"
        assert _audit_message(_assemble, self.base, regimes) == msg
        assert _audit_message(_assemble_per_key, self.base, regimes) == msg

    def test_first_failing_key_in_output_order(self):
        # seeded sets of unclaimed and doubly claimed views, under the weight
        # sum view: the message names the first failing key of the per-key audit
        rng = random.Random(1411)
        d = (2, -1, 3, 1)
        view = lambda S: sum(d[s - 1] for s in S)
        views = sorted({(k.i, view(k.S)) for k in enumerate_boundary(self.base)})
        for _ in range(40):
            gaps = set(rng.sample(views, rng.randint(0, 3)))
            twice = set(rng.sample(views, rng.randint(0, 3))) - gaps
            if not gaps | twice:
                continue
            regimes = [
                (lambda i, ds, gaps=gaps: (i, ds) not in gaps, lambda i, ds: i - ds),
                (lambda i, ds, twice=twice: (i, ds) in twice, lambda i, ds: 1),
            ]
            assert _audit_message(_assemble, self.base, regimes, view) == \
                _audit_message(_assemble_per_key, self.base, regimes, view)


class TestWorkCounts:
    """The per-view cost as counts, not times."""

    def test_weight_sum_once_per_distinct_set(self, monkeypatch):
        # once per distinct set of the representatives of the orbits under
        # the colouring by weight: with equal weights, one set per size
        calls = []
        dsum = catalog._dsum
        monkeypatch.setattr(catalog, "_dsum", lambda d, S: calls.append(S) or dsum(d, S))
        logan_class(8, (1,) * 8)
        reps = core._orbit_keys(ModuliBase(8, 8), core._colouring((1,) * 8))
        keys = enumerate_boundary(ModuliBase(8, 8))
        assert len(calls) == len(set(calls)) == len({k.S for k in reps}) == 8
        assert len({k.S for k in keys}) == 128 and len(keys) > 128

    def test_predicate_once_per_distinct_view(self, monkeypatch):
        g, d = 6, (2, 1, 1, 1, 0)
        runs = []
        assemble = catalog._assemble

        def counted(base, regimes, view=len, colours=None):
            (p, f), *rest = regimes
            return assemble(base, [(lambda *v: runs.append(v) or p(*v), f)] + rest, view,
                            colours)

        monkeypatch.setattr(catalog, "_assemble", counted)
        pinch_partition(g, d)
        keys = enumerate_boundary(ModuliBase(g, len(d)))
        views = [(k.i, sum(d[s - 1] for s in k.S)) for k in keys]
        assert sorted(runs) == sorted(set(views))
        assert len(runs) < len(keys)


class TestRegistry:
    def test_every_constructor_callable(self):
        samples = {
            "weierstrass": (3,),
            "residual": (4,),
            "diaz": (4,),
            "d1-holo": (4, 2),
            "d1-mero": (4, 3),
            "logan": (4, (1, 3)),
            "theta-pullback": (4, (5, -2)),
            "theta-char": (4, "odd"),
            "antiram": (4,),
            "coupled": (4, (-2, 2), "even"),
            "pinch": (4, (1, 2)),
            "bn": (4,),
            "dinf": (4, "total"),
        }
        assert set(samples) == set(CONSTRUCTORS)
        for name, args in samples.items():
            fn, wants = CONSTRUCTORS[name]
            a = fn(*args)
            assert isinstance(a, DivisorClass)
            assert len(args) == len(wants)
            json.loads(to_json(a))


class TestMemo:
    """The constructors share one bounded memo (``catalog._built``), keyed on
    their checked arguments: a near miss of a valid argument is refused
    whether the memo is cold or warm, and a refusal is never kept."""

    # a constructor, arguments it builds from (or the error they raise), and
    # a near miss of them that equals them as a dict key
    NEAR_MISSES = [
        (weierstrass, (3,), None, (3.0,)),
        (weierstrass, (1,), GenusTooSmall, (True,)),
        (d1_holo, (5, 2), None, (Fraction(5), 2)),
        (logan_class, (2, (1, 1)), None, (2, (1, 1.0))),
        (logan_class, (2, (1, 1)), None, (2, (True, 1))),
    ]

    @pytest.mark.parametrize("fn,first,error,near", NEAR_MISSES, ids=[
        ("%s%r" % (fn.__name__, near)).replace(" ", "") for fn, _, _, near in NEAR_MISSES])
    def test_a_near_miss_is_refused_cold_and_warm(self, fn, first, error, near):
        with pytest.raises(ParamOutOfRange):
            fn(*near)
        if error is None:
            fn(*first)
        else:
            with pytest.raises(error):
                fn(*first)
        held = catalog._built.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ParamOutOfRange):
                fn(*near)
        assert catalog._built.cache_info().currsize == held

    @pytest.mark.parametrize("fn,first,second", [
        (logan_class, ((3, [1, 1, 1]), {}), ((3, (1, 1, 1)), {})),
        (theta_characteristic_locus, ((3,), {}), ((3, "total"), {})),
        (theta_characteristic_locus, ((3,), {}), ((), {"g": 3, "parity": "total"})),
        (coupled_partition, ((4, [2, -2]), {}), ((), {"d": (2, -2), "g": 4})),
        (coupled_partition, ((5, (2, -2)), {}), ((5, (2, -2), "total"), {})),
        (coupled_partition, ((5, (2, -2), "total"), {}), ((5, [2, -2]), {})),
    ])
    def test_equal_checked_arguments_share_one_entry(self, fn, first, second):
        a = fn(*first[0], **first[1])
        before = catalog._built.cache_info()
        assert fn(*second[0], **second[1]) is a
        after = catalog._built.cache_info()
        assert after.hits == before.hits + 1
        assert (after.misses, after.currsize) == (before.misses, before.currsize) == (1, 1)

    def test_a_refusal_raises_on_every_call_and_is_not_kept(self):
        for _ in range(3):
            with pytest.raises(BadWeights):
                logan_class(3, (1, 1))
            with pytest.raises(GenusTooSmall):
                weierstrass(1)
            with pytest.raises(TypeError):
                weierstrass(3, 4)
            with pytest.raises(TypeError):
                weierstrass(h=3)
        info = catalog._built.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 6, 0)

    def test_the_memo_runs_with_the_collector_paused(self, monkeypatch):
        seen = []
        built = catalog._built
        monkeypatch.setattr(catalog, "_built",
                            lambda fn, key: seen.append(gc.isenabled()) or built(fn, key))
        for fn, args in [(weierstrass, (3,)), (weierstrass, (3,)), (logan_class, (3, [1, 2]))]:
            fn(*args)
        assert seen == [False] * 3
        assert gc.isenabled()


def test_a_warm_memo_answers_the_suite_unchanged(monkeypatch):
    # a second pass builds no class, every identity still holds, and no class
    # the memo shares changed in the first pass or the second
    from artifact.verify import run_suite
    built = catalog._built
    held = {}

    def keep(fn, key):
        a = built(fn, key)
        return held.setdefault(id(a), a)

    monkeypatch.setattr(catalog, "_built", keep)
    first = run_suite(8)
    monkeypatch.setattr(catalog, "_built", built)
    assert first.ok and held
    texts = [(to_json(a), hash(a)) for a in held.values()]
    assembled = []
    assemble = catalog._assemble
    monkeypatch.setattr(catalog, "_assemble",
                        lambda *args: assembled.append(args[0]) or assemble(*args))
    second = run_suite(8)
    assert second.ok and len(second.entries) == len(first.entries)
    assert assembled == []
    assert [(to_json(a), hash(a)) for a in held.values()] == texts


def _golden_weights(rng, n, total, lo, hi, ok):
    """A weight vector of length n with entries in [lo, hi] summing to total
    and passing ok, drawn by rejection."""
    while True:
        d = tuple(rng.randint(lo, hi) for _ in range(n - 1))
        d += (total - sum(d),)
        if lo <= d[-1] <= hi and ok(d):
            return d


def _golden_classes():
    """The piecewise multi-point classes over a fixed seeded set of weight
    vectors: theta pullbacks, holomorphic and meromorphic pinches, and
    coupled classes in every parity they admit."""
    rng = random.Random(20161124)
    for _ in range(40):
        g, n = rng.randint(3, 8), rng.randint(2, 6)
        yield theta_pullback_class(g, _golden_weights(
            rng, n, g - 1, -4, g + 3,
            lambda d: 0 not in d and min(d) < 0))
        yield pinch_partition(g, _golden_weights(
            rng, n, g - 1, 0, g - 1, lambda d: True))
        yield pinch_partition(g, _golden_weights(
            rng, n, g - 2, -4, g + 2,
            lambda d: sum(x < 0 for x in d) == 1 and min(d) <= -2))
        d = _golden_weights(rng, n, 0, -4, 4, lambda d: 0 not in d)
        for parity in PARITIES:
            try:
                yield coupled_partition(g, d, parity)
            except ParityUnavailable:
                pass
        d = _golden_weights(rng, n, 0, -3, 3, lambda d: 0 not in d)
        d = tuple(2 * x for x in d)
        for parity in PARITIES:
            yield coupled_partition(g, d, parity)


def test_piecewise_classes_are_byte_pinned():
    digest = hashlib.sha256()
    count = 0
    for a in _golden_classes():
        digest.update(to_json(a).encode() + b"\n")
        count += 1
    assert count == 294
    assert digest.hexdigest() == (
        "95d7f0ebcfd30649390f4ddd4bec0e751f945b5113b5c4dee9c2a92759f7dc11"
    )


def _equivalence_cases():
    """(name, constructor, args) for every constructor shape on g <= 8,
    n <= 6, with seeded weights: poles at varied labels for theta and
    pinch-mero."""
    rng = random.Random(14)
    cases = []
    for g in range(3, 9):
        n = rng.randint(2, min(6, g))
        cuts = sorted(rng.sample(range(1, g), n - 1))
        d = tuple(b - a for a, b in zip([0] + cuts, cuts + [g]))
        cases.append(("logan", logan_class, (g, d)))
        d = _golden_weights(rng, n, g - 1, -4, g + 3,
                            lambda d: 0 not in d and min(d) < 0)
        cases.append(("theta-pullback", theta_pullback_class, (g, d)))
        d = _golden_weights(rng, n, g - 1, 0, g - 1, lambda d: True)
        cases.append(("pinch-holo", pinch_partition, (g, d)))
        for h in (2, rng.randint(3, 5)):
            j = rng.randint(1, n)
            d = _golden_weights(rng, n - 1, g - 2 + h, 0, g + h, lambda d: True)
            cases.append(("pinch-mero", pinch_partition, (g, d[:j - 1] + (-h,) + d[j - 1:])))
        d = _golden_weights(rng, n, 0, -4, 4, lambda d: 0 not in d
                            and sorted(-x for x in d if x < 0) != [2])
        cases.append(("coupled-general", coupled_partition, (g, d, "total")))
        d = tuple(2 * x for x in _golden_weights(
            rng, n, 0, -3, 3, lambda d: 0 not in d and sorted(-x for x in d if x < 0) != [1]))
        cases.append(("coupled-general", coupled_partition, (g, d, rng.choice(PARITIES))))
        cases.append(("coupled-11", coupled_partition, (g, (1, 1))))
        cases.append(("coupled-m2-2", coupled_partition, (g, (2, -2), rng.choice(PARITIES))))
        cases.append(("coupled-m2-1-1", coupled_partition, (g, (1, -2, 1))))
        cases.append(("dinf", d_infinity, (g, rng.choice(PARITIES))))
        cases += [
            ("weierstrass", weierstrass, (g,)),
            ("residual", residual, (g,)),
            ("diaz", diaz, (g,)),
            ("d1-holo", d1_holo, (g, rng.randrange(g))),
            ("d1-mero", d1_mero, (g, rng.randint(2, 5))),
            ("theta-char", theta_characteristic_locus, (g, rng.choice(PARITIES))),
            ("bn", brill_noether, (g,)),
        ]
    return cases


@pytest.mark.parametrize("fn,args", [
    pytest.param(fn, args, id="%s-%s" % (name, repr(args).replace(" ", "").replace("'", "")))
    for name, fn, args in _equivalence_cases()
])
def test_assemble_matches_per_key_audit(monkeypatch, fn, args):
    """Each constructor's boundary dict equals the per-key audit's: the same
    keys in the same order, the same values and the same value types."""
    compared = []

    def both(base, regimes, view=len, colours=None):
        fast = _assemble(base, regimes, view, colours)
        slow = _assemble_per_key(base, regimes, view)
        # fast holds the representatives of the orbits, in output order, and
        # each orbit's keys take its representative's coefficient
        assert list(fast) == [k for k in slow if k in fast]
        keys = DivisorClass._from_canonical(base, 0, None, 0, fast, colours).boundary
        assert dict(keys) == slow
        assert [(c, type(c)) for c in map(keys.get, slow)] == \
            [(c, type(c)) for c in slow.values()]
        compared.append(base)
        return fast

    monkeypatch.setattr(catalog, "_assemble", both)
    fn(*args)
    assert len(compared) == 1
