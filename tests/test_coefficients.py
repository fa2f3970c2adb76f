"""Every stored coefficient has one canonical form: an int when it is
integral and a Fraction otherwise (never a bool, a float or a Fraction with
denominator 1)."""
from fractions import Fraction
import json

import pytest
from hypothesis import given, settings, strategies as st

from artifact import catalog, core
from artifact.core import (
    DivisorClass,
    ModuliBase,
    ParamOutOfRange,
    PicError,
    equals,
    from_json,
    normalize_genus2,
    relabel,
    to_json,
)
from artifact.maps import (
    forget_point,
    glue_closed_tail,
    glue_tail,
    identify_points,
    pullback,
)
from artifact.verify import run_suite

from conftest import random_class, seeded


def non_canonical(a):
    """The stored coefficients of a that break the canonical form."""
    coeffs = [a.lam, *a.psi, a.delta0, *a.boundary.values()]
    return [
        c for c in coeffs
        if not (type(c) is int or (type(c) is Fraction and c.denominator != 1))
    ]


def test_every_class_the_suite_builds_is_canonical(monkeypatch):
    built = []
    trusted = DivisorClass._from_canonical.__func__

    def recording(cls, *args):
        out = trusted(cls, *args)
        built.append(out)
        return out

    monkeypatch.setattr(DivisorClass, "_from_canonical", classmethod(recording))
    assert run_suite(8).ok
    assert len(built) > 1000
    bad = [(a, non_canonical(a)) for a in built if non_canonical(a)]
    assert not bad, bad[:3]


@pytest.fixture(scope="module")
def wide_classes():
    g = 12
    M = ModuliBase
    logan = catalog.logan_class(g, (1,) * g)
    pinch = catalog.pinch_partition(g, [2] + [1] * (g - 3) + [0, 0])
    return [
        logan,
        catalog.theta_pullback_class(g, [-1, 2] + [1] * (g - 2)),
        pinch,
        pullback(glue_tail(M(g, 1), 0, g - 1, 1), logan),
        pullback(glue_tail(M(g - 1, g - 1), 1, 1, attach=g - 1), logan),
        pullback(glue_closed_tail(M(g - 1, g + 1), 1, 1), logan),
        pullback(identify_points(M(g - 1, g + 2)), pinch),
        pullback(forget_point(M(g, g + 1), g + 1), logan),
    ]


def test_wide_classes_and_their_pullbacks_are_canonical(wide_classes):
    for a in wide_classes:
        assert not non_canonical(a), (a.base, non_canonical(a)[:3])


def pullbacks_onto(a, rng):
    """Pullbacks of a along one map of each variant whose codomain is a.base."""
    g, n = a.base.g, a.base.n
    maps = [forget_point(ModuliBase(g, n + 1), rng.randint(1, n + 1))]
    if g >= 3:
        maps.append(glue_closed_tail(ModuliBase(g - 1, n + 1), 1, rng.randint(1, n + 1)))
        maps.append(identify_points(ModuliBase(g - 1, n + 2)))
        if n >= 1:
            maps.append(glue_tail(ModuliBase(g - 1, n), 1, 0, rng.randint(1, n)))
    if n >= 2:
        maps.append(glue_tail(ModuliBase(g, n - 1), 0, 1, rng.randint(1, n - 1)))
    return [pullback(m, a) for m in maps]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_arithmetic_maps_and_json_keep_the_canonical_form(seed):
    rng = seeded(seed)
    a = random_class(rng)
    b = random_class(rng, a.base)
    perm = list(a.base.labels())
    rng.shuffle(perm)
    third = a * Fraction(1, 3) * 3
    round_trip = from_json(to_json(a))
    results = [a + b, a - a, third, relabel(a, perm), round_trip]
    results += pullbacks_onto(a, rng)
    for out in results:
        assert not non_canonical(out), (out, non_canonical(out))
    # classes that are equal by construction hash alike
    for x, y in [(a, third), (a, round_trip), ((a + b) - b, a)]:
        assert equals(x, y)
        assert hash(x) == hash(y)
    if a.base.g == 2:
        assert equals(a, normalize_genus2(a))
        assert hash(a) == hash(normalize_genus2(a))
    if equals(a, b):
        assert hash(a) == hash(b)


@pytest.mark.parametrize("build", [
    lambda: DivisorClass(ModuliBase(3, 1), 0.5),
    lambda: DivisorClass(ModuliBase(3, 1), psi=[0.1]),
    lambda: catalog.weierstrass(3) * 0.1,
], ids=["lambda", "psi", "multiple"])
def test_a_float_coefficient_is_refused(build):
    # 0.1 has no exact value; storing its binary expansion would be a wrong answer
    with pytest.raises(ParamOutOfRange):
        build()


@pytest.mark.parametrize("build", [
    lambda: DivisorClass(ModuliBase(3, 1), lam=True),
    lambda: catalog.weierstrass(3) * True,
    lambda: core.TestCurve(ModuliBase(3, 1), "x", {"lambda": True}),
], ids=["lambda", "multiple", "pairing"])
def test_a_bool_coefficient_is_refused(build):
    # True equals 1, but it is a truth value, not a number: it is refused as
    # a float is, and as from_json refuses the token true
    with pytest.raises(ParamOutOfRange):
        build()


# one coefficient of a class on (3, 1), as a JSON document with the text of
# the coefficient left out, and as the constructor call given its value
_SLOTS = {
    "lambda": ('{"g":3,"n":1,"lambda":%s,"psi":["0"],"delta0":"0","boundary":[]}',
               lambda v: DivisorClass(ModuliBase(3, 1), lam=v)),
    "psi": ('{"g":3,"n":1,"lambda":"0","psi":[%s],"delta0":"0","boundary":[]}',
            lambda v: DivisorClass(ModuliBase(3, 1), psi=[v])),
    "boundary": ('{"g":3,"n":1,"lambda":"0","psi":["0"],"delta0":"0",'
                 '"boundary":[{"i":1,"S":[1],"c":%s}]}',
                 lambda v: DivisorClass(ModuliBase(3, 1), boundary=[((1, {1}), v)])),
}


def _outcome(build):
    try:
        return build()
    except PicError as e:
        return e


@pytest.mark.parametrize("slot", sorted(_SLOTS))
@pytest.mark.parametrize("text", ["0", "-2", '"1/2"', '" 3 "', '"007"', "true", "false",
                                  "null", "1.5", "[]", "{}", '"x"', '"1/0"', '"nan"'])
def test_both_doors_agree_on_every_json_coefficient(slot, text):
    # from_json reads the text; the constructor, given the value that
    # json.loads makes of it, builds an equal class or raises a PicError too
    doc, build = _SLOTS[slot]
    by_json = _outcome(lambda: from_json(doc % text))
    by_value = _outcome(lambda: build(json.loads(text)))
    assert isinstance(by_json, PicError) == isinstance(by_value, PicError), (by_json, by_value)
    if not isinstance(by_json, PicError):
        assert equals(by_json, by_value)
