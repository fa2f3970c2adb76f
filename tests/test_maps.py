from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from artifact.catalog import (
    coupled_partition,
    logan_class,
    pinch_partition,
    theta_pullback_class,
)
from artifact import core
from artifact.core import (
    BaseMismatch,
    BoundaryIndex,
    DivisorClass,
    ModuliBase,
    _frac,
    enumerate_boundary,
    equals,
    relabel,
    to_json,
    try_canonical_index,
    zero_class,
)
from artifact.maps import (
    InvalidMap,
    forget_point,
    glue_closed_tail,
    glue_tail,
    identify_points,
    pullback,
)

from conftest import random_class, seeded


def cls(base, **kw):
    return DivisorClass(base, kw.get("lam", 0), kw.get("psi"), kw.get("delta0", 0), kw.get("bnd"))


# Reference loops: each pullback (and relabel) as it was written before the
# handlers built their image keys directly, canonicalizing every raw image
# pair with try_canonical_index and adding it with _acc.

def _acc(bnd, key, c):
    """core._acc, with an unstable image pair (a None key) taken as zero."""
    if key is not None:
        core._acc(bnd, key, c)


def glue_tail_by_canonicalizing(m, a):
    dom, cod = m.domain, m.codomain
    h, j, at = m.params["h"], m.params["j"], m.params["attach"]
    T = frozenset({at} | set(range(dom.n + 1, dom.n + j + 1)))
    psi = [0] * dom.n
    for k in cod.labels():
        if k not in T:
            psi[k - 1] += a.psi[k - 1]
    bnd = {}
    tail_key = try_canonical_index(cod, h, T)
    for key, c in a.boundary.items():
        i, S = key.i, key.S
        if key == tail_key:
            psi[at - 1] -= c
        elif not S & T:
            _acc(bnd, try_canonical_index(dom, i, S), c)
        elif T <= S and i >= h:
            _acc(bnd, try_canonical_index(dom, i - h, (S - T) | {at}), c)
    return DivisorClass._from_canonical(dom, a.lam, psi, a.delta0, bnd)


def glue_closed_tail_by_canonicalizing(m, a):
    dom, cod = m.domain, m.codomain
    h, at = m.params["h"], m.params["attach"]
    cd2dom = [x for x in dom.labels() if x != at]
    psi = [0] * dom.n
    for k in cod.labels():
        psi[cd2dom[k - 1] - 1] += a.psi[k - 1]
    bnd = {}
    tail_key = try_canonical_index(cod, h, ())
    for key, c in a.boundary.items():
        Sd = frozenset(cd2dom[s - 1] for s in key.S)
        k1 = try_canonical_index(dom, key.i, Sd)
        k2 = try_canonical_index(dom, key.i - h, Sd | {at})
        _acc(bnd, k1, c)
        if k2 != k1:  # one class, counted once: see forget_by_canonicalizing
            _acc(bnd, k2, c)
        if key == tail_key:
            psi[at - 1] -= c
    return DivisorClass._from_canonical(dom, a.lam, psi, a.delta0, bnd)


def forget_by_canonicalizing(m, a):
    dom, cod = m.domain, m.codomain
    j = m.params["j"]

    def lift(k):
        return k if k < j else k + 1

    psi = [0] * dom.n
    bnd = {}
    for k in cod.labels():
        c = a.psi[k - 1]
        if c:
            psi[lift(k) - 1] += c
            _acc(bnd, try_canonical_index(dom, 0, {lift(k), j}), -c)
    for key, c in a.boundary.items():
        Sd = frozenset(lift(s) for s in key.S)
        k1 = try_canonical_index(dom, key.i, Sd)
        k2 = try_canonical_index(dom, key.i, Sd | {j})
        # Both images name one class only for the symmetric delta_{g/2} of an
        # unpointed codomain; its coefficient is then c, not 2c.  That locus
        # has one separating node, met transversally, so the class appears
        # once in the preimage.  R1 pulls diaz(g - 1) back along this map and
        # checks c, and the closed tail, which is this map after glue_tail,
        # gives the same c (TestCommutingSquares, square (a)).  Every
        # reference loop here that splits a key in two keeps this guard.
        _acc(bnd, k1, c)
        if k2 != k1:
            _acc(bnd, k2, c)
    return DivisorClass._from_canonical(dom, a.lam, psi, a.delta0, bnd)


def relabel_by_canonicalizing(a, perm):
    perm = dict(enumerate(perm, 1))
    psi = [0] * a.base.n
    for j in a.base.labels():
        psi[perm[j] - 1] = a.psi[j - 1]
    bnd = {}
    for k, c in a.boundary.items():
        _acc(bnd, try_canonical_index(a.base, k.i, {perm[s] for s in k.S}), c)
    return DivisorClass._from_canonical(a.base, a.lam, psi, a.delta0, bnd)


def identify_points_by_canonicalizing(m, a):
    """The identify-points pullback that canonicalizes every raw pair (i, S)
    of its delta_0 term, for every genus i; the reference for the handler,
    which builds those keys directly."""
    dom, cod = m.domain, m.codomain
    psi = [0] * dom.n
    for k in cod.labels():
        psi[k + 1] += a.psi[k - 1]
    bnd = {}
    rest = [x for x in dom.labels() if x not in (1, 2)]
    for i in range(dom.g + 1):
        for mask in range(1 << len(rest)):
            S = {1} | {rest[t] for t in range(len(rest)) if mask >> t & 1}
            _acc(bnd, try_canonical_index(dom, i, S), a.delta0)
    for key, c in a.boundary.items():
        Sd = frozenset(s + 2 for s in key.S)
        k1 = try_canonical_index(dom, key.i, Sd)
        k2 = try_canonical_index(dom, key.i - 1, Sd | {1, 2})
        _acc(bnd, k1, c)
        if k2 != k1:  # one class, counted once: see forget_by_canonicalizing
            _acc(bnd, k2, c)
    return DivisorClass._from_canonical(dom, a.lam, psi, a.delta0, bnd)


REFERENCE = {
    "glue-tail": glue_tail_by_canonicalizing,
    "glue-closed-tail": glue_closed_tail_by_canonicalizing,
    "identify-points": identify_points_by_canonicalizing,
    "forget": forget_by_canonicalizing,
}


def canonical_class(rng, base):
    """A random class on about half the keys of the base (every key of an
    unpointed base, so its symmetric delta_{g/2} is met), with integral and
    fractional coefficients, built without canonicalizing."""
    def fr():
        return _frac(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3))))

    bnd = {k: fr() for k in enumerate_boundary(base) if not base.n or rng.random() < 0.5}
    return DivisorClass._from_canonical(base, fr(), [fr() for _ in range(base.n)], fr(), bnd)


def maps_from(dom):
    """Every map out of dom with a tail genus of at most 2 and at most two
    new points."""
    out = [forget_point(dom, j) for j in dom.labels()]
    for at in dom.labels():
        out += [glue_tail(dom, h, j, at) for h in range(3) for j in range(3) if h or j]
        out += [glue_closed_tail(dom, h, at) for h in (1, 2)]
    if dom.n >= 2:
        out.append(identify_points(dom))
    return out


class TestConstructors:
    def test_glue_tail_codomain(self):
        m = glue_tail(ModuliBase(3, 2), 2, 1, attach=2)
        assert m.codomain == ModuliBase(5, 3)

    def test_trivial_tail_rejected(self):
        with pytest.raises(InvalidMap):
            glue_tail(ModuliBase(3, 1), 0, 0)

    def test_attach_out_of_range(self):
        with pytest.raises(InvalidMap):
            glue_tail(ModuliBase(3, 1), 1, 0, attach=2)
        with pytest.raises(InvalidMap):
            glue_closed_tail(ModuliBase(3, 1), 1, attach=0)

    def test_closed_tail_needs_positive_genus(self):
        with pytest.raises(InvalidMap):
            glue_closed_tail(ModuliBase(3, 1), 0)

    def test_identify_needs_two_points(self):
        with pytest.raises(InvalidMap):
            identify_points(ModuliBase(3, 1))
        assert identify_points(ModuliBase(3, 2)).codomain == ModuliBase(4, 0)

    def test_forget_default_last(self):
        m = forget_point(ModuliBase(3, 2))
        assert m.params["j"] == 2
        assert m.codomain == ModuliBase(3, 1)
        with pytest.raises(InvalidMap):
            forget_point(ModuliBase(3, 2), 3)

    def test_pullback_checks_codomain(self):
        m = glue_tail(ModuliBase(3, 1), 1, 0)
        with pytest.raises(BaseMismatch):
            pullback(m, zero_class(ModuliBase(3, 1)))


class TestImmutable:
    """A map cannot be changed after its checks ran."""

    def test_params_are_read_only(self):
        m = forget_point(ModuliBase(3, 2), 2)
        with pytest.raises(TypeError):
            m.params["j"] = 5
        with pytest.raises(AttributeError):
            m.params = {"j": 5}
        assert m.params["j"] == 2 and dict(m.params) == {"j": 2}
        # psi_1 pulls back to psi_1 less the class where 1 and 2 bubble off
        want = DivisorClass(ModuliBase(3, 2), psi=[1, 0], boundary=[((0, {1, 2}), -1)])
        assert equals(pullback(m, DivisorClass(ModuliBase(3, 1), psi=[1])), want)

    def test_codomain_and_other_attributes_are_fixed(self):
        m = identify_points(ModuliBase(3, 2))
        for name in ("codomain", "domain", "variant", "extra"):
            with pytest.raises(AttributeError):
                setattr(m, name, ModuliBase(3, 2))
        assert m.codomain == ModuliBase(4, 0)
        with pytest.raises(BaseMismatch):
            pullback(m, DivisorClass(ModuliBase(3, 2), psi=[1, 1]))
        want = DivisorClass(ModuliBase(3, 2), lam=2)
        assert equals(pullback(m, DivisorClass(ModuliBase(4, 0), lam=2)), want)

    def test_attributes_cannot_be_deleted(self):
        m = identify_points(ModuliBase(3, 2))
        for name in ("codomain", "domain", "variant", "params"):
            with pytest.raises(AttributeError):
                delattr(m, name)
        want = DivisorClass(ModuliBase(3, 2), lam=2)
        assert equals(pullback(m, DivisorClass(ModuliBase(4, 0), lam=2)), want)


MAPS = [
    glue_tail(ModuliBase(3, 2), 1, 1, attach=2),
    glue_tail(ModuliBase(3, 1), 2, 0),
    glue_closed_tail(ModuliBase(3, 2), 1, attach=1),
    identify_points(ModuliBase(3, 3)),
    forget_point(ModuliBase(4, 2), 1),
]


@pytest.mark.parametrize("m", MAPS, ids=lambda m: repr(m))
@given(seed=st.integers(0, 10 ** 6))
def test_pullback_is_linear(m, seed):
    rng = seeded(seed)
    a = random_class(rng, m.codomain)
    b = random_class(rng, m.codomain)
    c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    assert equals(pullback(m, a + b), pullback(m, a) + pullback(m, b))
    assert equals(pullback(m, c * a), c * pullback(m, a))


RELABEL_CLASSES = [
    logan_class(4, (1, 2, 1)),
    coupled_partition(4, (-2, 2), "odd"),
    coupled_partition(3, (4, -2, -2), "even"),
    pinch_partition(4, (1, 1, 1)),
    theta_pullback_class(3, (3, -1)),
]


@given(st.sampled_from(RELABEL_CLASSES), st.data())
def test_forget_pullback_commutes_with_relabel(a, data):
    g, n = a.base.g, a.base.n
    j = data.draw(st.integers(1, n + 1))
    perm = dict(zip(range(1, n + 1), data.draw(st.permutations(range(1, n + 1)))))

    def lift(k):
        return k if k < j else k + 1

    lifted = {lift(k): lift(v) for k, v in perm.items()}
    lifted[j] = j
    m = forget_point(ModuliBase(g, n + 1), j)
    assert equals(pullback(m, relabel(a, perm)), relabel(pullback(m, a), lifted))


@given(st.sampled_from(RELABEL_CLASSES), st.data())
def test_glue_tail_pullback_commutes_with_relabel(a, data):
    g, n = a.base.g, a.base.n
    at = data.draw(st.integers(1, n))
    rest = [k for k in range(1, n + 1) if k != at]
    perm = dict(zip(rest, data.draw(st.permutations(rest))))
    perm[at] = at
    m = glue_tail(ModuliBase(g - 1, n), 1, 0, at)
    assert equals(pullback(m, relabel(a, perm)), relabel(pullback(m, a), perm))


class TestGlueTail:
    # attach an elliptic tail at the point of a 1-pointed genus-2 curve,
    # landing in genus 3
    m = glue_tail(ModuliBase(2, 1), 1, 0, 1)
    cod = ModuliBase(3, 1)

    def test_lambda_and_delta0_pass_through(self):
        a = cls(self.cod, lam=3, delta0=5)
        out = pullback(self.m, a)
        assert (out.lam, out.delta0) == (3, 5)
        assert out.psi == (0,)

    def test_psi_at_attach_point_dies(self):
        out = pullback(self.m, cls(self.cod, psi=[1]))
        assert out.is_zero()

    def test_tail_class_gives_minus_psi(self):
        # delta_{1:{1}} is the family containing the glued curve itself
        a = cls(self.cod, bnd=[((1, {1}), 1)])
        out = pullback(self.m, a)
        assert equals(out, cls(self.m.domain, psi=[-1]))

    def test_other_boundary_shifts_genus(self):
        a = cls(self.cod, bnd=[((2, {1}), 1)])
        out = pullback(self.m, a)
        assert equals(out, cls(self.m.domain, bnd=[((1, {1}), 1)]))

    def test_mirror_stored_tail_detected(self):
        # the same tail family named through its mirror (2, {}) is invalid
        # raw input on (3,1); the canonical key is what the table matches
        m = glue_tail(ModuliBase(3, 2), 1, 0, attach=2)
        a = cls(m.codomain, bnd=[((1, {2}), 1)])  # canonicalizes to (3, {1})
        out = pullback(m, a)
        assert out.psi == (0, -1)

    def test_rational_tail_with_new_points(self):
        # a rational tail absorbing two of three points on a genus-3 curve
        m = glue_tail(ModuliBase(3, 1), 0, 2, 1)
        a = cls(m.codomain, psi=[0, 1, 1], bnd=[((0, {1, 2, 3}), 1)])
        out = pullback(m, a)
        # psi_2, psi_3 restrict to zero; delta_{0:{1,2,3}} is the tail class
        assert equals(out, cls(m.domain, psi=[-1]))

    def test_partial_overlap_drops(self):
        m = glue_tail(ModuliBase(3, 1), 0, 2, 1)
        a = cls(m.codomain, bnd=[((1, {1, 2}), 1)])
        assert pullback(m, a).is_zero()


class TestGlueClosedTail:
    def test_unpointed_codomain(self):
        # absorb the marked point of a 1-pointed genus-2 curve into an
        # elliptic tail, landing in unpointed genus 3
        m = glue_closed_tail(ModuliBase(2, 1), 1, 1)
        assert m.codomain == ModuliBase(3, 0)
        a = cls(m.codomain, bnd=[((1, set()), 1)])
        out = pullback(m, a)
        # the tail family itself: both restriction terms plus the psi drop
        want = cls(m.domain, psi=[-1], bnd=[((1, {1}), 1)])
        assert equals(out, want)

    def test_genus_shift_both_branches(self):
        m = glue_closed_tail(ModuliBase(3, 2), 1, attach=1)
        a = cls(m.codomain, bnd=[((2, {1}), 1)])
        out = pullback(m, a)
        # domain label 2 carries the surviving codomain point 1
        want = cls(m.domain, bnd=[((2, {2}), 1), ((1, {1, 2}), 1)])
        assert equals(out, want)

    def test_symmetric_preimage_counted_once(self):
        # delta_2 of (4,0) is symmetric: the far image (2, {}) and the near
        # image (1, {1}) name one class on (3,1), which keeps coefficient 1
        m = glue_closed_tail(ModuliBase(3, 1), 1, 1)
        out = pullback(m, cls(m.codomain, bnd=[((2, set()), 1)]))
        assert equals(out, cls(m.domain, bnd=[((1, {1}), 1)]))

    def test_default_attach_is_point_1(self):
        dom = ModuliBase(3, 3)
        m = glue_closed_tail(dom, 1)
        assert dict(m.params) == dict(glue_closed_tail(dom, 1, 1).params) == {"h": 1, "attach": 1}
        # psi differs by label, so the attach point shows in the pullback
        a = cls(m.codomain, psi=[1, 2], bnd=[((1, {1}), 3)])
        assert equals(pullback(m, a), pullback(glue_closed_tail(dom, 1, 1), a))
        assert not equals(pullback(m, a), pullback(glue_closed_tail(dom, 1, 2), a))


class TestIdentifyPoints:
    def test_delta0_pullback(self):
        m = identify_points(ModuliBase(2, 2))
        assert m.codomain == ModuliBase(3, 0)
        out = pullback(m, cls(m.codomain, delta0=1))
        # separating the two glued points: every stable (i, S) with 1 in S
        # and 2 not; (2, {1}) would leave a 1-pointed rational side and drops
        want = cls(m.domain, delta0=1, bnd=[((1, {1}), 1)])
        assert equals(out, want)

    def test_boundary_doubling(self):
        m = identify_points(ModuliBase(2, 2))
        out = pullback(m, cls(m.codomain, bnd=[((1, set()), 1)]))
        want = cls(m.domain, bnd=[((1, {1, 2}), 1), ((0, {1, 2}), 1)])
        assert equals(out, want)

    def test_symmetric_preimage_counted_once(self):
        # delta_2 of (4,0): the far image (2, {}) is the mirror of the near
        # image (1, {1, 2}) on (3,2), one class with coefficient 1
        m = identify_points(ModuliBase(3, 2))
        out = pullback(m, cls(m.codomain, bnd=[((2, set()), 1)]))
        assert equals(out, cls(m.domain, bnd=[((1, {1, 2}), 1)]))

    def test_label_shift(self):
        m = identify_points(ModuliBase(2, 3))
        out = pullback(m, cls(m.codomain, psi=[5]))
        assert out.psi == (0, 0, 5)

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("g", range(2, 7))
    def test_matches_canonicalizing_every_raw_pair(self, g, n):
        m = identify_points(ModuliBase(g, n))
        rng = seeded(100 * g + n)
        for _ in range(3):
            a = random_class(rng, m.codomain)
            if a.delta0 == 0:
                a = a + cls(m.codomain, delta0=Fraction(-5, 7))
            out = pullback(m, a)
            want = identify_points_by_canonicalizing(m, a)
            assert out.boundary == want.boundary
            assert to_json(out) == to_json(want)


class TestForgetPoint:
    def test_psi_correction(self):
        m = forget_point(ModuliBase(3, 2), 2)
        out = pullback(m, cls(m.codomain, psi=[1]))
        want = cls(m.domain, psi=[1, 0], bnd=[((0, {1, 2}), -1)])
        assert equals(out, want)

    def test_forgotten_label_relabels_survivors(self):
        m = forget_point(ModuliBase(3, 3), 1)
        out = pullback(m, cls(m.codomain, psi=[7, 0]))
        assert out.psi[1] == 7
        assert out.delta(0, {1, 2}) == -7

    def test_boundary_two_preimages(self):
        m = forget_point(ModuliBase(3, 2), 2)
        out = pullback(m, cls(m.codomain, bnd=[((1, {1}), 1)]))
        want = cls(m.domain, bnd=[((1, {1}), 1), ((1, {1, 2}), 1)])
        assert equals(out, want)

    def test_symmetric_preimage_counted_once(self):
        # on an unpointed codomain delta_h can have both lifts name the same
        # canonical class; the coefficient must stay 1, not 2
        m = forget_point(ModuliBase(4, 1), 1)
        out = pullback(m, cls(m.codomain, bnd=[((2, set()), 1)]))
        assert out.delta(2, set()) == 1
        assert out.delta(2, {1}) == 1

    def test_lambda_delta0_unchanged(self):
        m = forget_point(ModuliBase(3, 1), 1)
        out = pullback(m, cls(m.codomain, lam=2, delta0=-3))
        assert (out.lam, out.delta0) == (2, -3)


def unit_generators(base):
    """Each generator of the divisor classes on base as a unit class, by name:
    lambda, each psi_k, delta_0 and each boundary key."""
    out = {"lambda": cls(base, lam=1), "delta0": cls(base, delta0=1)}
    for k in base.labels():
        out["psi_%d" % k] = cls(base, psi=[int(x == k) for x in base.labels()])
    for key in enumerate_boundary(base):
        out[str(key)] = DivisorClass._from_canonical(base, 0, [0] * base.n, 0, {key: 1})
    return out


def commute_failures(one, other, only=None):
    """The generators of the common codomain, by name, that two composites of
    maps pull back to different classes.  A composite is a list of maps, the
    first one applied first.  ``only="delta0"`` checks delta_0 alone, and
    ``only="others"`` every other generator."""
    def pull(maps, x):
        for m in reversed(maps):
            x = pullback(m, x)
        return x

    bad = []
    for name, x in unit_generators(one[-1].codomain).items():
        if only is not None and (name == "delta0") != (only == "delta0"):
            continue
        if not equals(pull(one, x), pull(other, x)):
            bad.append((one[0].domain, one, name))
    return bad


SQUARE_GENERA = range(2, 6)
ITEM_1 = ("identify-points omits the normal-bundle term -psi_1 - psi_2 of its "
          "delta_0 pullback (ROADMAP.md, open item 1)")


class TestCommutingSquares:
    """Two composites that are one map of moduli spaces pull every generator
    back to the same class.  The pullbacks are computed independently along
    each side, so this checks the handlers against each other, not against a
    formula.  Domains have genus 2..5 and at most 5 points (6 when two of them
    are glued and one forgotten); tails have genus at most 3."""

    @pytest.mark.parametrize("g", SQUARE_GENERA)
    def test_closed_tail_is_glue_tail_then_forget(self, g):
        # (a) glue_closed_tail(dom, h, at) is forget_point(at) after
        # glue_tail(dom, h, 0, at), whose tail carries the point at
        bad = []
        for n in range(1, 6):
            dom = ModuliBase(g, n)
            for h in range(1, 4):
                for at in dom.labels():
                    closed = glue_closed_tail(dom, h, at)
                    tail = glue_tail(dom, h, 0, at)
                    forget = forget_point(tail.codomain, at)
                    bad += commute_failures([tail, forget], [closed])
        assert bad == []

    @pytest.mark.parametrize("only", [
        "others", pytest.param("delta0", marks=pytest.mark.xfail(strict=True, reason=ITEM_1)),
    ])
    @pytest.mark.parametrize("g", SQUARE_GENERA)
    def test_identify_points_commutes_with_forget(self, g, only):
        # (b) identify points 1 and 2, then forget the last point, or forget
        # it first and then identify
        bad = []
        for n in range(3, 7):
            dom = ModuliBase(g, n)
            top, left = identify_points(dom), forget_point(dom, n)
            right = forget_point(top.codomain, n - 2)
            bad += commute_failures([top, right], [left, identify_points(left.codomain)], only)
        assert bad == []

    @pytest.mark.parametrize("g", SQUARE_GENERA)
    def test_forget_off_the_tail_commutes_with_glue_tail(self, g):
        # (c) glue a tail at one end of the labels and forget the point at
        # the other end, in either order
        bad = []
        for n in range(2, 6):
            dom = ModuliBase(g, n)
            for h in range(4):
                for j in range(3) if h else (1, 2):
                    for at, k in ((1, n), (n, 1)):
                        top = glue_tail(dom, h, j, at)
                        left = forget_point(dom, k)
                        bottom = glue_tail(left.codomain, h, j, at - (at > k))
                        bad += commute_failures([top, forget_point(top.codomain, k)], [left, bottom])
        assert bad == []


class TestDirectKeysMatchCanonicalizing:
    """The handlers and relabel build each image key in canonical form; the
    reference loops canonicalize every raw image pair and add it."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("g", range(2, 8))
    def test_pullbacks(self, g, n):
        rng = seeded(1000 * g + n)
        classes = {}
        for m in maps_from(ModuliBase(g, n)):
            if m.codomain not in classes:
                classes[m.codomain] = canonical_class(rng, m.codomain)
            a = classes[m.codomain]
            out, want = pullback(m, a), REFERENCE[m.variant](m, a)
            assert out.boundary == want.boundary, m
            assert to_json(out) == to_json(want), m

    @pytest.mark.parametrize("n", range(0, 8))
    @pytest.mark.parametrize("g", range(2, 8))
    def test_relabel(self, g, n):
        rng = seeded(2000 * g + n)
        a = canonical_class(rng, ModuliBase(g, n))
        for _ in range(3):
            perm = rng.sample(range(1, n + 1), n)
            out, want = relabel(a, perm), relabel_by_canonicalizing(a, perm)
            assert out.boundary == want.boundary
            assert to_json(out) == to_json(want)


PROPERTY_MAPS = [m for dom in (ModuliBase(2, 1), ModuliBase(3, 1), ModuliBase(2, 2),
                               ModuliBase(3, 3), ModuliBase(4, 4), ModuliBase(2, 5))
                 for m in maps_from(dom)]


@given(st.sampled_from(PROPERTY_MAPS), st.integers(0, 10 ** 6))
def test_pullback_and_relabel_keys_are_canonical_and_nonzero(m, seed):
    rng = seeded(seed)
    a = canonical_class(rng, m.codomain)
    out = pullback(m, a)
    outs = [out, relabel(a, rng.sample(range(1, a.base.n + 1), a.base.n)),
            relabel(out, rng.sample(range(1, out.base.n + 1), out.base.n))]
    for b in outs:
        for k, c in b.boundary.items():
            assert type(k) is BoundaryIndex
            assert k == try_canonical_index(b.base, k.i, k.S)
            assert c != 0 and type(_frac(c)) is type(c)


class TestNoPerKeyCanonicalizing:
    """A pullback or a relabeling canonicalizes O(n) pairs, never one per key:
    the image keys are built in canonical form, from one span per image of
    each distinct label set."""

    g = 8

    @pytest.fixture
    def calls(self, monkeypatch):
        count = {"canonical": 0, "span": 0}

        def counting(name, real):
            def counted(*args):
                count[name] += 1
                return real(*args)
            return counted

        # maps reaches both through core, so core's names are the ones to count
        monkeypatch.setattr(core, "try_canonical_index",
                            counting("canonical", core.try_canonical_index))
        monkeypatch.setattr(core, "_span", counting("span", core._span))
        return count

    def test_calls_per_pullback_and_relabel(self, calls):
        g, M = self.g, ModuliBase
        a = logan_class(g, (1,) * g)
        sets_in = len({k.S for k in a.boundary})
        assert len(a.boundary) > 1000 > 2 * sets_in + g + 2 and not a.delta0
        for m in [
            glue_tail(M(g, 1), 0, g - 1, 1),
            glue_tail(M(g - 1, g - 1), 1, 1, attach=g - 1),
            glue_closed_tail(M(g - 1, g + 1), 1, 1),
            glue_closed_tail(M(g - 1, g + 1), 1, g + 1),
            identify_points(M(g - 1, g + 2)),
            forget_point(M(g, g + 1)),
            forget_point(M(g, g + 1), 1),
        ]:
            calls.update(canonical=0, span=0)
            pullback(m, a)
            n = m.domain.n
            assert calls["canonical"] <= n, m
            # one span per image of a distinct set, and one per canonicalized
            # pair: glue-tail has one image per set and canonicalizes the
            # tail class; the other maps have two images per set, and forget
            # canonicalizes one pair per psi_k.  The class has no delta_0, so
            # identify-points makes no delta_0 images
            if m.variant == "glue-tail":
                assert calls["span"] <= sets_in + 1, m
            assert calls["span"] <= 2 * sets_in + n, m
        calls.update(canonical=0, span=0)
        relabel(a, [g, *range(1, g)])
        assert calls["canonical"] == 0
        assert calls["span"] <= sets_in

    @pytest.mark.parametrize("base, i, S, key", [
        pytest.param(ModuliBase(3, 2), 1, {1}, (1, {1}), id="own"),
        pytest.param(ModuliBase(3, 2), 2, {2}, (1, {1}), id="mirror"),
        pytest.param(ModuliBase(3, 2), 0, {2}, None, id="mirror-unstable"),
        pytest.param(ModuliBase(3, 2), 1, {5}, None, id="foreign-label"),
        pytest.param(ModuliBase(3, 2), 1, {1, 5}, None, id="own-foreign-label"),
        pytest.param(ModuliBase(5, 0), 1, (), (1, set()), id="unpointed-own"),
        pytest.param(ModuliBase(5, 0), 4, (), (1, set()), id="unpointed-mirror"),
        pytest.param(ModuliBase(5, 0), 0, (), None, id="unpointed-unstable"),
        pytest.param(ModuliBase(5, 0), 1, {1}, None, id="unpointed-foreign-label"),
    ])
    def test_try_canonical_index_spans_once(self, calls, base, i, S, key):
        # the own form and the mirror form are read off one span
        got = try_canonical_index(base, i, S)
        assert calls["span"] == 1
        assert got == (None if key is None else (key[0], frozenset(key[1])))
