import hashlib
import json
from fractions import Fraction

import pytest

from artifact import verify
from artifact.catalog import CONSTRUCTORS, weierstrass
from artifact.core import DivisorClass, ModuliBase, builtin_test_curve, enumerate_boundary, pair
from artifact.verify import (
    RELATIONS,
    Relation,
    Report,
    ReportEntry,
    UnknownRelation,
    run_relation,
    run_suite,
)


def _checked(monkeypatch, name, run, params):
    """The report entry of ``run(**params)`` registered as relation ``name``."""
    monkeypatch.setitem(RELATIONS, name,
                        Relation(name, ("weierstrass",), lambda G, N, H: [params], run))
    return run_relation(name, params)


class TestSuite:
    def test_all_identities_hold_small(self):
        report = run_suite(4)
        assert report.ok
        assert report.entries
        assert report.summary().endswith("identities hold")

    def test_json_deterministic(self):
        a = run_suite(4).to_json()
        b = run_suite(4).to_json()
        assert a == b
        d = json.loads(a)
        assert d["passed"] is True
        assert d["failed"] == 0
        assert d["total"] == len(json.loads(a)["entries"])

    def test_single_family(self):
        report = run_suite(5, suite="R1")
        assert report.ok
        assert all(e.relation == "R1" for e in report.entries)

    def test_unknown_family(self):
        with pytest.raises(UnknownRelation):
            run_suite(4, suite="R999")
        with pytest.raises(UnknownRelation):
            run_relation("nope", {})

    def test_every_constructor_is_exercised(self):
        used = set()
        for rel in RELATIONS.values():
            used.update(rel.uses)
        assert used == set(CONSTRUCTORS)

    def test_case_domains_respect_caps(self):
        for rel in RELATIONS.values():
            small = rel.cases(5, 5, 3)
            large = rel.cases(8, 6, 4)
            assert len(small) <= len(large)


class TestReporting:
    def test_entry_records_params(self):
        e = run_relation("R1", {"g": 4})
        assert e.relation == "R1"
        assert e.params == (("g", 4),)
        assert e.passed
        assert e.detail is None
        assert e.to_json_dict()["params"] == {"g": 4}

    def test_failure_carries_first_difference(self, monkeypatch):
        w = weierstrass(3)
        e = _checked(monkeypatch, "X", lambda: [(w, 2 * w)], {})
        assert not e.passed
        label, lhs, rhs = e.detail
        assert label == "lambda"
        assert (lhs, rhs) == (-1, -2)

    def test_first_differing_pair_is_reported(self, monkeypatch):
        w = weierstrass(3)
        sides = [(w, w), (7, 7), (True, True), (w, 3 * w), (1, 2)]
        e = _checked(monkeypatch, "X", lambda: sides, {})
        assert e.detail == ("lambda", -1, -3)
        assert _checked(monkeypatch, "X", lambda: sides[:3], {}).passed

    def test_value_and_check_pairs_have_their_details(self, monkeypatch):
        for sides, detail in [
            ((Fraction(5, 2), 7), "('value', Fraction(5, 2), 7)"),
            ((3, Fraction(7, 2)), "('value', Fraction(3, 1), Fraction(7, 2))"),
            ((False, True), "('check', False, True)"),
        ]:
            e = _checked(monkeypatch, "X", lambda: [sides], {})
            assert not e.passed
            assert repr(e.detail) == detail

    def test_fail_lines_print_coefficients_as_fractions(self, monkeypatch):
        w = weierstrass(3)
        rep = Report([
            _checked(monkeypatch, "R1", lambda g: [(w, 2 * w)], {"g": 3}),
            _checked(monkeypatch, "R18",
                     lambda curve: [(pair(builtin_test_curve(curve, ModuliBase(3, 1)), w), 7)],
                     {"curve": "A"}),
        ])
        assert rep.summary() == (
            "FAIL R1[g=3] first difference ('lambda', Fraction(-1, 1), Fraction(-2, 1))\n"
            "FAIL R18[curve=A] first difference ('value', Fraction(24, 1), 7)\n"
            "0/2 identities hold"
        )

    def test_failing_report_serializes(self):
        entry = ReportEntry("X", (("g", 3),), False, ("psi_1", 1, 2))
        rep = Report([entry])
        assert not rep.ok
        d = rep.to_json_dict()
        assert d["failed"] == 1
        assert d["entries"][0]["first_difference"] == {
            "generator": "psi_1",
            "lhs": "1",
            "rhs": "2",
        }
        assert "FAIL X" in rep.summary()

    def test_registry_shape(self):
        for name, rel in RELATIONS.items():
            assert isinstance(rel, Relation)
            assert rel.name == name
            assert rel.uses
            cases = rel.cases(6, 6, 4)
            assert isinstance(cases, list)
            for params in cases[:2]:
                entry = run_relation(name, params)
                assert entry.passed, (name, params, entry.detail)
            # every case compares something, so none can pass vacuously
            for params in cases:
                sides = rel.run(**params)
                assert isinstance(sides, list) and sides, (name, params)
                assert all(type(lr) is tuple and len(lr) == 2 for lr in sides), (name, params)


def _bumped(fn):
    """fn with lambda + delta_0 + sum_j psi_j added to every class it returns."""
    def wrapper(*args, **kw):
        c = fn(*args, **kw)
        return c + DivisorClass(c.base, 1, [1] * c.base.n, 1)
    return wrapper


class TestFailureBytes:
    """The FAIL lines of a broken catalog, byte for byte: which pair of an
    identity is reported, and how its coefficients print."""

    def test_perturbed_suite_text_is_pinned(self, monkeypatch):
        texts = []
        for fn, _ in CONSTRUCTORS.values():
            assert getattr(verify, fn.__name__) is fn
            with monkeypatch.context() as m:
                m.setattr(verify, fn.__name__, _bumped(fn))
                texts.append(run_suite(6).summary())
        text = "\n".join(texts)
        fails = [line for line in text.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 522
        assert sum("first difference ('value'," in line for line in fails) == 78
        assert sum("first difference ('check'," in line for line in fails) == 12
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5b78a15adba8b5c907fceecbdbab2e1b3ab9f286bb42a0ccfb0b7da69d63b38c"
        )

    def test_later_class_pair_is_reported(self, monkeypatch):
        theta = verify.theta_characteristic_locus
        bumped = _bumped(theta)
        monkeypatch.setattr(verify, "theta_characteristic_locus",
                            lambda g, p: bumped(g, p) if p == "even" else theta(g, p))
        e = run_relation("R13", {"g": 4, "case": "t-spin"})
        assert not e.passed
        assert repr(e.detail) == "('lambda', Fraction(68, 1), Fraction(70, 1))"

    def test_later_value_pair_is_reported(self, monkeypatch):
        # only the companion curve c2, the second curve C built, is changed
        built = []

        def curve(name, base, i=None, n=None):
            built.append(name)
            return builtin_test_curve(name, base, i=1 if len(built) == 2 else i, n=n)

        monkeypatch.setattr(verify, "builtin_test_curve", curve)
        e = run_relation("R18", {"g": 5, "curve": "C", "i": 2})
        assert built == ["C", "C"]
        assert not e.passed
        assert repr(e.detail) == "('value', Fraction(24, 1), 72)"


# Constructor instances whose every unit generator some identity must see.
COVERED = [
    ("weierstrass", (5,)),
    ("residual", (5,)),
    ("d1-holo", (5, 2)),
    ("logan", (4, (1,) * 4)),
    ("pinch", (5, (1, 3))),
    ("theta-char", (4, "odd")),
]


def _uncaught(monkeypatch, constructor, args, g_max=8):
    """Unit generators e_k such that adding e_k to the class the constructor
    builds for ``args`` leaves every identity that uses it holding."""
    fn = CONSTRUCTORS[constructor][0]
    calls = []
    bump = []

    def patched(*a):
        calls.append(a)
        c = fn(*a)
        return c + bump[0] if bump and a == args else c

    monkeypatch.setattr(verify, fn.__name__, patched)
    cases = []
    for rel in RELATIONS.values():
        if constructor in rel.uses:
            for params in rel.cases(g_max, 6, 4):
                calls.clear()
                run_relation(rel.name, params)
                if args in calls:
                    cases.append((rel.name, params))
    assert cases, "no identity builds %s%r" % (constructor, args)
    base = fn(*args).base
    units = [("lambda", DivisorClass(base, 1)), ("delta_0", DivisorClass(base, delta0=1))]
    units += [("psi_%d" % j, DivisorClass(base, psi=[int(k == j) for k in base.labels()]))
              for j in base.labels()]
    units += [(str(k), DivisorClass(base, boundary=[((k.i, k.S), 1)]))
              for k in enumerate_boundary(base)]
    missed = []
    for label, unit in units:
        bump[:] = [unit]
        if all(run_relation(name, params).passed for name, params in cases):
            missed.append(label)
    return missed


class TestOracleCoverage:
    """Every identity is linear in each class it builds, so a unit generator
    added to one constructor instance is caught exactly when some identity
    sees that generator."""

    @pytest.mark.parametrize("constructor,args", COVERED)
    def test_every_generator_is_caught(self, monkeypatch, constructor, args):
        assert _uncaught(monkeypatch, constructor, args) == []

    def test_brill_noether_boundary_is_unchecked(self, monkeypatch):
        # R17 reads only lambda, psi and delta_0 of the Brill-Noether class:
        # a wrong boundary coefficient there passes every identity.
        assert _uncaught(monkeypatch, "bn", (5,)) == [
            "delta_{%d:{1}}" % i for i in range(1, 5)
        ]
