import json

import pytest

from artifact.catalog import CONSTRUCTORS, weierstrass
from artifact.core import ModuliBase, builtin_test_curve, pair
from artifact.verify import (
    RELATIONS,
    Relation,
    Report,
    ReportEntry,
    UnknownRelation,
    _class_eq,
    _value_eq,
    run_relation,
    run_suite,
)


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

    def test_failure_carries_first_difference(self):
        w = weierstrass(3)
        ok, detail = _class_eq(w, 2 * w)
        assert not ok
        label, lhs, rhs = detail
        assert label == "lambda"
        assert (lhs, rhs) == (-1, -2)

    def test_fail_lines_print_coefficients_as_fractions(self):
        w = weierstrass(3)
        rep = Report([
            ReportEntry("R1", (("g", 3),), *_class_eq(w, 2 * w)),
            ReportEntry("R18", (("curve", "A"),),
                        *_value_eq(pair(builtin_test_curve("A", ModuliBase(3, 1)), w), 7)),
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
