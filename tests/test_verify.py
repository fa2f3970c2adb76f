import copy
import hashlib
import json
import pickle
from fractions import Fraction

import pytest

from artifact import core, maps, verify
from artifact.catalog import CONSTRUCTORS, weierstrass
from artifact.core import (
    DivisorClass,
    InvalidBoundary,
    ModuliBase,
    ParamOutOfRange,
    builtin_test_curve,
    enumerate_boundary,
    equals,
    pair,
    to_json,
)
from artifact.enumerative import IntPolynomial
from artifact.maps import (
    GluingMap,
    forget_point,
    glue_closed_tail,
    glue_tail,
    identify_points,
)
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

    @pytest.mark.parametrize("name,params", [
        ("R1", {"g": 4, "h": 1}),  # a name the relation does not take
        ("R1", {}),  # a missing name
        ("R1", None),  # not a dict
        ("R1", [("g", 4)]),
        ("R1", {"g": "4"}),  # a genus that is not an int
        ("R1", {"g": True}),
        ("R4b", {"g": 4, "i": None, "n": 2}),
    ], ids=["extra", "missing", "none", "pairs", "str-genus", "bool-genus", "none-label"])
    def test_bad_params_raise_param_out_of_range(self, name, params):
        with pytest.raises(ParamOutOfRange):
            run_relation(name, params)

    @pytest.mark.parametrize("name,params", [
        ("R11b", {"g": 4, "parity": "x"}),
        ("R11b", {"g": 4, "parity": ["odd"]}),
        ("R17", {"g": 5, "cls": "nope", "expect": True}),
        ("R17", {"g": 5, "cls": "double-zero-kx", "expect": True}),
        ("R17", {"g": 5, "cls": "pole-order-h", "expect": False}),
        ("R17", {"g": 5, "cls": 5, "expect": True}),
    ], ids=["parity", "parity-list", "cls", "cls-order", "cls-no-order", "cls-int"])
    def test_unknown_names_raise_unknown_relation(self, name, params):
        with pytest.raises(UnknownRelation):
            run_relation(name, params)

    # each branch of a run function stands for the values it tests; any
    # other value is refused, not run as the identity of another case
    @pytest.mark.parametrize("name,params", [
        ("R3", {"g": 6, "k": 2, "i": 4}),  # i = g - k lies between the branches
        ("R6a", {"g": 4, "h": 1, "n": 5}),
        ("R6a", {"g": 4, "h": 1, "n": 1}),
        ("R6b", {"g": 4, "j": 3}),
        ("R6b", {"g": 4, "j": 0}),
        ("R7", {"g": 5, "h": 0}),  # the genus-3 decomposition is g = 3 alone
        ("R7", {"g": 3, "h": -1}),
        ("R12b", {"g": 3, "h": 4, "j": 1, "parity": "x"}),
        ("R14", {"g": 4, "h": 1, "n": 4}),
        ("R14", {"g": 4, "h": 0, "n": 2}),
        ("R15", {"g": 4, "h": 1}),
        ("R18", {"g": 5, "curve": "A", "i": 3}),  # A, D and E take no index
        ("R18", {"g": 5, "curve": "D", "i": 1}),
        ("R18", {"g": 5, "curve": "E", "i": -1}),
        # h = 2 is the single double pole, a formula of its own
        ("R12a", {"g": 4, "h": 2, "parity": "total"}),
        ("R16", {"g": 4, "h": 2, "parity": "total"}),
    ], ids=["R3-i-at-g-minus-k", "R6a-n5", "R6a-n1", "R6b-j3", "R6b-j0", "R7-h0-g5",
            "R7-h-negative", "R12b-parity", "R14-n4", "R14-h0", "R15-h1", "R18-A-index",
            "R18-D-index", "R18-E-index", "R12a-h2", "R16-h2"])
    def test_values_outside_the_case_domain_are_refused(self, name, params):
        with pytest.raises(ParamOutOfRange, match="has no case"):
            run_relation(name, params)

    @pytest.mark.parametrize("expect", [1, "yes"])
    def test_r17_refuses_an_expect_that_is_not_a_bool(self, expect):
        # 1 == True, so a check that holds would pass under expect=1, which
        # names no case of R17
        with pytest.raises(ParamOutOfRange, match="has no case"):
            run_relation("R17", {"g": 4, "cls": "weierstrass", "expect": expect})

    def test_param_names_come_from_the_run_function(self):
        assert RELATIONS["R1"].params == {"g"}
        assert RELATIONS["R17"].params == {"g", "cls", "expect"}
        for rel in RELATIONS.values():
            for params in rel.cases(5, 5, 3):
                assert params.keys() == rel.params

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

    def test_mixed_report_bytes_are_unchanged(self):
        rep = Report([
            ReportEntry("R1", (("g", 4),), True),
            ReportEntry("R18", (("curve", "A"), ("g", 3), ("i", 0)), False,
                        ("value", Fraction(24), 7)),
            ReportEntry("R7", (("g", 3), ("h", 0)), True, None),
            ReportEntry("R3", (("g", 6), ("i", 2), ("k", 1)), False,
                        ("delta_{1:{1}}", Fraction(-1, 2), Fraction(3))),
        ])
        assert rep.to_json() == (
            '{"entries":[{"params":{"g":4},"passed":true,"relation":"R1"},'
            '{"first_difference":{"generator":"value","lhs":"24","rhs":"7"},'
            '"params":{"curve":"A","g":3,"i":0},"passed":false,"relation":"R18"},'
            '{"params":{"g":3,"h":0},"passed":true,"relation":"R7"},'
            '{"first_difference":{"generator":"delta_{1:{1}}","lhs":"-1/2","rhs":"3"},'
            '"params":{"g":6,"i":2,"k":1},"passed":false,"relation":"R3"}],'
            '"failed":2,"passed":false,"total":4}'
        )
        assert rep.summary() == (
            "FAIL R18[curve=A,g=3,i=0] first difference ('value', Fraction(24, 1), 7)\n"
            "FAIL R3[g=6,i=2,k=1] first difference "
            "('delta_{1:{1}}', Fraction(-1, 2), Fraction(3, 1))\n"
            "2/4 identities hold"
        )

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


class TestReportTypes:
    """ReportEntry and Report keep the constructor, equality, hash, repr and
    immutability of the frozen records they replace."""

    def test_entry_defaults_equality_hash_and_repr(self):
        e = ReportEntry("R1", (("g", 4),), True)
        assert e.detail is None
        assert e == ReportEntry(relation="R1", params=(("g", 4),), passed=True, detail=None)
        assert hash(e) == hash(ReportEntry("R1", (("g", 4),), True, None))
        assert e != ReportEntry("R1", (("g", 5),), True)
        assert repr(e) == "ReportEntry(relation='R1', params=(('g', 4),), passed=True, detail=None)"

    def test_report_equality_and_repr(self):
        e = ReportEntry("R1", (("g", 4),), True)
        assert Report([e]) == Report(entries=[e])
        assert Report([e]) != Report()
        assert repr(Report()) == "Report(entries=[])"
        with pytest.raises(TypeError):
            hash(Report())

    def test_reports_do_not_share_an_entry_list(self):
        a, b = Report(), Report()
        a.entries.append(ReportEntry("R1", (("g", 4),), True))
        assert b.entries == [] and a.entries is not b.entries
        assert not Report().entries

    @pytest.mark.parametrize("obj,attr", [
        (ReportEntry("R1", (("g", 4),), True), "passed"),
        (ReportEntry("R1", (("g", 4),), True), "other"),
        (Report(), "entries"),
        (Report(), "other"),
    ], ids=["entry-field", "entry-new", "report-field", "report-new"])
    def test_attributes_cannot_be_set_or_deleted(self, obj, attr):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)


# one small instance of every catalog constructor and of every map variant;
# the cases are made from CONSTRUCTORS and maps._HANDLERS, so a constructor
# or a variant missing here fails its case
_SMALL = {
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
_MAPS = {
    "glue-tail": lambda: glue_tail(ModuliBase(3, 1), 1, 2),
    "glue-closed-tail": lambda: glue_closed_tail(ModuliBase(3, 2), 1, 2),
    "identify-points": lambda: identify_points(ModuliBase(3, 3)),
    "forget": lambda: forget_point(ModuliBase(3, 2), 1),
}
_ENTRY = ReportEntry("R3", (("g", 6),), False, ("lambda", Fraction(1, 2), 3))
_VALUES = [(name, lambda name=name: CONSTRUCTORS[name][0](*_SMALL[name]))
           for name in sorted(CONSTRUCTORS)]
_VALUES += [(v, lambda v=v: _MAPS[v]()) for v in sorted(maps._HANDLERS)]
_VALUES += [
    ("genus-2", lambda: DivisorClass(ModuliBase(2, 1), 1, [2], 0, [((1, {1}), 3)])),
    ("test-curve", lambda: builtin_test_curve("C", ModuliBase(4, 1), i=1)),
    ("polynomial", lambda: IntPolynomial([1, -2, 1])),
    ("entry", lambda: _ENTRY),
    ("report", lambda: Report([_ENTRY])),
]


def _state(x):
    """What makes two values of x's type equal."""
    if isinstance(x, DivisorClass):
        return to_json(x), hash(x)
    if isinstance(x, GluingMap):
        return x.variant, x.domain, x.codomain, dict(x.params)
    if isinstance(x, core.TestCurve):
        return x.base, x.name, dict(x.pairing)
    return x


class _Reduced:
    """Pickles as the given reduce value, as tampered bytes would."""

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        return self.value


class TestCopyAndPickle:
    """Every value type copies and pickles through its constructor."""

    @pytest.mark.parametrize("make", [m for _, m in _VALUES], ids=[n for n, _ in _VALUES])
    def test_copies_and_pickles(self, make):
        obj = make()
        for c in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(c) is type(obj) and _state(c) == _state(obj)
            if isinstance(obj, DivisorClass):
                assert equals(c, obj)

    def test_unpickling_runs_the_constructor(self):
        a = weierstrass(3)
        rebuild, (cls, (base, lam, psi, delta0, _), kwargs) = a.__reduce__()

        def unpickle(boundary):
            args = (cls, (base, lam, psi, delta0, boundary), kwargs)
            return pickle.loads(pickle.dumps(_Reduced((rebuild, args))))

        # (2, {}) is the mirror form of (1, {1}) on (3, 1)
        b = unpickle([((2, frozenset()), 5)])
        assert b.boundary == {(1, frozenset({1})): 5}
        with pytest.raises(InvalidBoundary):
            unpickle([((1, frozenset({7})), 1)])
