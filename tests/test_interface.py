"""The public surface: every entry point refuses a malformed argument with a
PicError subclass, every module documents itself, and one base class holds
the immutability rule of the value types."""

import ast
import functools
import importlib.util
import inspect
import os
from pathlib import Path
import subprocess
import sys

import pytest

from artifact import (
    BaseMismatch,
    ModuliBase,
    OutOfRange,
    ParamOutOfRange,
    PicError,
    UnknownCurve,
    UnsupportedWeights,
    bn_coefficient_check,
    IntPolynomial,
    anti_ramification,
    builtin_test_curve,
    count_distinct_nonzero_roots,
    coupled_partition,
    d1_holo,
    d_infinity,
    d1_mero,
    de_jonquieres,
    forget_point,
    glue_closed_tail,
    glue_tail,
    identify_points,
    logan_class,
    pair,
    picard_degree,
    pinch_partition,
    plucker,
    pullback,
    residue_polynomial,
    theta_characteristic_locus,
    theta_pullback_class,
    to_csv,
    to_json,
    to_latex,
    weierstrass,
)
from artifact import core
from artifact.core import (
    DivisorClass,
    MalformedJSON,
    canonical_index,
    diff_first,
    equals,
    from_json,
    normalize_genus2,
    relabel,
    to_latex_expr,
    zero_class,
)
from artifact.maps import GluingMap, InvalidMap
from artifact.verify import UnknownRelation, run_relation, run_suite

B21 = ModuliBase(2, 1)
# lambda = 10**5000 has more digits than Python writes as text by default
HUGE = DivisorClass(ModuliBase(2, 0), lam=10 ** 5000)
B32 = ModuliBase(3, 2)
B51 = ModuliBase(5, 1)


@functools.lru_cache(maxsize=None)
def huge_theta():
    # a catalog class whose coefficients pass the same digit limit
    return theta_characteristic_locus(15000, "odd")


@pytest.mark.parametrize("call,error", [
    # catalog parameters
    ('weierstrass("3")', ParamOutOfRange),
    ('weierstrass(True)', ParamOutOfRange),
    ('d1_holo(4, "1")', ParamOutOfRange),
    ('d1_mero(4, "3")', ParamOutOfRange),
    ('theta_characteristic_locus("3", "odd")', ParamOutOfRange),
    ('logan_class(3, 5)', ParamOutOfRange),
    ('logan_class(3, (1, 1, 1.0))', ParamOutOfRange),
    ('logan_class(3, (1, True, 1))', ParamOutOfRange),
    ('logan_class("3", (1, 1, 1))', ParamOutOfRange),
    ('pinch_partition(4, (1, "2"))', ParamOutOfRange),
    ('pinch_partition("4", (1, 2))', ParamOutOfRange),
    ('theta_pullback_class(4, (5, -2.0))', ParamOutOfRange),
    ('coupled_partition(3, (-2, 2.0))', ParamOutOfRange),
    ('pinch_partition(3, ())', UnsupportedWeights),
    # map parameters
    ('glue_tail(B21, "1", 0, 1)', InvalidMap),
    ('glue_tail(B21, 1.0, 0, 1)', InvalidMap),
    ('glue_tail(B21, 1, 0, attach=True)', InvalidMap),
    ('glue_closed_tail(B21, 1, attach=1.0)', InvalidMap),
    ('forget_point(B32, 1.0)', InvalidMap),
    ('forget_point(B32, True)', InvalidMap),
    # map domains that are not a ModuliBase
    ('glue_tail((2, 1), 1, 0)', InvalidMap),
    ('glue_closed_tail((2, 1), 1)', InvalidMap),
    ('identify_points(None)', InvalidMap),
    ('forget_point((3, 2))', InvalidMap),
    ('GluingMap("forget", (3, 2), j=1)', InvalidMap),
    # maps built directly: a missing, extra, non-int or out-of-range parameter,
    # and a codomain, which is derived and never given
    ('pullback(GluingMap("forget", B32, j=5), DivisorClass(ModuliBase(3, 1), psi=[1]))',
     InvalidMap),
    ('GluingMap("forget", B32)', InvalidMap),
    ('GluingMap("forget", B32, j=1.0)', InvalidMap),
    ('GluingMap("identify-points", B32, j=1)', InvalidMap),
    ('GluingMap("identify-points", B32, codomain=B32)', InvalidMap),
    ('GluingMap("glue-tail", B32, codomain=ModuliBase(5, 2), h=1, j=0, attach=1)',
     InvalidMap),
    ('GluingMap(["forget"], B32, j=1)', InvalidMap),
    # test-curve parameters
    ('builtin_test_curve("B", B51, i="1")', ParamOutOfRange),
    ('builtin_test_curve("B", B51, i=1.5)', ParamOutOfRange),
    ('builtin_test_curve("C", B51, i=True)', ParamOutOfRange),
    ('builtin_test_curve("Bin", ModuliBase(3, 3), i=1, n=2.0)', ParamOutOfRange),
    # a parameter the curve does not take
    ('builtin_test_curve("A", ModuliBase(4, 1), i=7, n=3)', ParamOutOfRange),
    ('builtin_test_curve("A", ModuliBase(4, 1), i=7)', ParamOutOfRange),
    ('builtin_test_curve("D", ModuliBase(4, 1), n=1)', ParamOutOfRange),
    ('builtin_test_curve("E", ModuliBase(4, 1), i=1)', ParamOutOfRange),
    ('builtin_test_curve("B", ModuliBase(4, 1), i=1, n=99)', ParamOutOfRange),
    ('builtin_test_curve("C", ModuliBase(4, 1), i=1, n=1)', ParamOutOfRange),
    ('builtin_test_curve(["A"], ModuliBase(4, 1))', UnknownCurve),
    # a curve that the base cannot carry, and a pairing of an unknown generator
    ('builtin_test_curve("Bin", ModuliBase(3, 2), i=1, n=1)', UnknownCurve),
    ('core.TestCurve(ModuliBase(3, 1), "x", {"mu": 1})', UnknownCurve),
    # a test curve on a base past the key limit, as every other key-building
    # path refuses it
    ('builtin_test_curve("Bin", ModuliBase(19, 19), i=1, n=1)', ParamOutOfRange),
    ('builtin_test_curve("Bin", ModuliBase(10 ** 9, 10 ** 9), i=1, n=1)', ParamOutOfRange),
    # enumerative parameters
    ('de_jonquieres(5, [1, "2"])', OutOfRange),
    ('de_jonquieres(5.0, [1, 2])', OutOfRange),
    ('de_jonquieres(5, 3)', OutOfRange),
    # "false" and 0 are not bools; "false" would count ordered zeros
    ('de_jonquieres(5, (2, 2), ordered="false")', OutOfRange),
    ('de_jonquieres(5, (2, 2), ordered=0)', OutOfRange),
    ('plucker(1.5, 2, 3)', OutOfRange),
    ('picard_degree([1, 2], "2")', OutOfRange),
    ('residue_polynomial(2, "3", 1)', OutOfRange),
    ('IntPolynomial([1.5, 2])', OutOfRange),
    ('IntPolynomial(["x"])', OutOfRange),
    ('IntPolynomial([1, True])', OutOfRange),
    ('IntPolynomial(5)', OutOfRange),
    ('count_distinct_nonzero_roots(5)', OutOfRange),
    # a degree past the limit is refused before a coefficient is built, and
    # so are terms that may pass the bits budget
    ('residue_polynomial(10 ** 20, 3, 2)', OutOfRange),
    ('residue_polynomial(2000, 10 ** 6, 10 ** 6)', OutOfRange),
    ('residue_polynomial(2 ** 22, 2 ** 22, 1)', OutOfRange),
    # a polynomial is evaluated only at an exact point
    ('IntPolynomial([1, 2])(0.5)', OutOfRange),
    ('IntPolynomial([1, 2])("1")', OutOfRange),
    ('IntPolynomial([1, 2])(None)', OutOfRange),
    ('IntPolynomial([1, 2])(True)', OutOfRange),
    # arguments that are not classes
    ('pair(builtin_test_curve("A", B21), "x")', BaseMismatch),
    ('pair("x", weierstrass(2))', UnknownCurve),
    ('diff_first(weierstrass(2), 5)', BaseMismatch),
    ('diff_first(5, weierstrass(2))', BaseMismatch),
    ('to_json(5)', BaseMismatch),
    ('to_csv(5)', BaseMismatch),
    ('to_latex(5)', BaseMismatch),
    ('relabel("x", (1,))', BaseMismatch),
    ('pullback(forget_point(B32), 5)', BaseMismatch),
    ('pullback(5, weierstrass(2))', InvalidMap),
    ('pullback(GluingMap("twist", B32), zero_class(B32))', InvalidMap),
    ('weierstrass(2) - None', BaseMismatch),
    ('weierstrass(2) + None', BaseMismatch),
    ('equals(5, weierstrass(2))', BaseMismatch),
    ('equals(weierstrass(2), 5)', BaseMismatch),
    ('normalize_genus2(5)', BaseMismatch),
    ('bn_coefficient_check(5)', BaseMismatch),
    # a coefficient with more digits than Python's int-to-str limit
    ('to_json(HUGE)', ParamOutOfRange),
    ('to_csv(HUGE)', ParamOutOfRange),
    ('to_latex(HUGE)', ParamOutOfRange),
    ('to_latex_expr(HUGE)', ParamOutOfRange),
    ('repr(HUGE)', ParamOutOfRange),
    ('to_json(huge_theta())', ParamOutOfRange),
    ('to_csv(huge_theta())', ParamOutOfRange),
    ('to_latex(huge_theta())', ParamOutOfRange),
    ('to_latex_expr(huge_theta())', ParamOutOfRange),
    ('repr(huge_theta())', ParamOutOfRange),
    # bases that are not a ModuliBase
    ('DivisorClass((3, 1))', ParamOutOfRange),
    ('zero_class(None)', ParamOutOfRange),
    ('core.TestCurve((3, 1), "A", {})', ParamOutOfRange),
    ('builtin_test_curve("A", (3, 1))', ParamOutOfRange),
    ('canonical_index(None, 1, {1})', ParamOutOfRange),
    ('core.try_canonical_index((3, 2), 1, {1})', ParamOutOfRange),
    ('core.enumerate_boundary((3, 1))', ParamOutOfRange),
    # boundary pairs that are not a genus and a set of int labels
    ('core.try_canonical_index(B32, 1, 5)', core.InvalidBoundary),
    ('core.try_canonical_index(B32, "1", {1})', core.InvalidBoundary),
    ('core.try_canonical_index(B32, 1, [[1]])', core.InvalidBoundary),
    ('core.try_canonical_index(B32, True, {1})', core.InvalidBoundary),
    ('canonical_index(B32, 1, 5)', core.InvalidBoundary),
    ('weierstrass(3).coeff(5)', core.InvalidBoundary),
    ('weierstrass(3).coeff([1])', core.InvalidBoundary),
    ('weierstrass(3).coeff((1, 2, 3))', core.InvalidBoundary),
    ('weierstrass(3).coeff(None)', core.InvalidBoundary),
    ('weierstrass(3).coeff((0, {1}))', core.InvalidBoundary),
    # bases whose boundary is too large to build; none of them builds a key
    ('run_relation("R1", {"g": 10 ** 5000})', ParamOutOfRange),
    ('weierstrass(10 ** 9)', ParamOutOfRange),
    ('core.enumerate_boundary(ModuliBase(19, 19))', ParamOutOfRange),
    ('pullback(identify_points(ModuliBase(2, 102)), DivisorClass(ModuliBase(3, 100), delta0=1))',
     ParamOutOfRange),
    # catalog classes whose psi, lambda or weights cost about g bits or g
    # labels refuse the base before the first coefficient
    ('theta_characteristic_locus(10 ** 20)', ParamOutOfRange),
    ('d_infinity(10 ** 20)', ParamOutOfRange),
    ('coupled_partition(10 ** 20, (1, 1))', ParamOutOfRange),
    ('coupled_partition(10 ** 20, (-2, 2))', ParamOutOfRange),
    ('coupled_partition(10 ** 20, (-2, 1, 1))', ParamOutOfRange),
    ('coupled_partition(10 ** 20, (-4, 2, 2))', ParamOutOfRange),
    ('anti_ramification(10 ** 20)', ParamOutOfRange),
    # spin-refined classes of more than 2**28 bits, about g bits a key, on
    # bases that _check_size admits
    ('theta_characteristic_locus(16385)', ParamOutOfRange),
    ('d_infinity(11586)', ParamOutOfRange),
    ('coupled_partition(11586, (1, 1))', ParamOutOfRange),
    ('coupled_partition(11586, (-2, 2), "odd")', ParamOutOfRange),
    # a JSON document that is not text
    ('from_json(5)', MalformedJSON),
    ('from_json(None)', MalformedJSON),
    ('from_json([1])', MalformedJSON),
    # suite bounds
    ('run_suite("5")', ParamOutOfRange),
    ('run_suite(5, n_max=2.0)', ParamOutOfRange),
    ('run_suite(5, h_max="4")', ParamOutOfRange),
    # bounds that select no case, or are negative: a report of 0/0 is no success
    ('run_suite(1)', ParamOutOfRange),
    ('run_suite(-1)', ParamOutOfRange),
    ('run_suite(3, suite="R1")', ParamOutOfRange),
    ('run_suite(5, n_max=-3)', ParamOutOfRange),
    ('run_suite(5, h_max=-1)', ParamOutOfRange),
    # relation names that are not a registered str
    ('run_suite(3, suite=["R1"])', UnknownRelation),
    ('run_relation(["R1"], {})', UnknownRelation),
    ('run_relation(("R1", "R2"), {})', UnknownRelation),
    # a case parameter that names no case of the relation
    ('run_relation("R13", {"g": 3, "case": "z"})', UnknownRelation),
    ('run_relation("R18", {"g": 3, "curve": "Z", "i": 0})', UnknownRelation),
    # an R17 order with more digits than int() reads
    ('run_relation("R17", {"g": 4, "cls": "double-zero-k" + "1" * 5000, "expect": False})',
     UnknownRelation),
])
def test_a_malformed_argument_raises_pic_error(call, error):
    with pytest.raises(error):
        eval(call)
    assert issubclass(error, PicError)


def test_a_spin_class_of_too_many_bits_is_refused_before_it_is_computed():
    # R9b at h = 10**6 builds coupled_partition(10**6 + 4, (1, 1)): about
    # 2 * 10**6 keys, which _check_size admits, of about 10**6 bits each.
    # Computed, it passes 1 GB, so the child has a capped address space and
    # a time limit
    probe = ("import resource\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from artifact import ParamOutOfRange\n"
             "from artifact.verify import run_relation\n"
             "try:\n    run_relation('R9b', {'g': 4, 'h': 10 ** 6})\n"
             "except ParamOutOfRange:\n    print('refused')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(core.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.stdout == "refused\n", out.stderr


@pytest.mark.parametrize("name", ["__init__", "core", "maps", "catalog",
                                  "enumerative", "verify", "cli"])
def test_every_module_has_a_docstring(name):
    module = importlib.import_module(
        "artifact" if name == "__init__" else "artifact." + name)
    assert module.__doc__ and module.__doc__.strip()


_FROZEN_RULE = ("__setattr__", "__delattr__", "__reduce__")


def _package_trees():
    src = Path(importlib.import_module("artifact").__file__).parent
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))]


def test_the_immutability_rule_is_defined_once():
    # a method, or a name bound in a class body, anywhere in the package
    found = []
    for module, tree in _package_trees():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    names = [stmt.name] if isinstance(stmt, ast.FunctionDef) else [
                        t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)]
                    found += [(module, cls.name, n) for n in names if n in _FROZEN_RULE]
    assert sorted(found) == sorted(("core", "_Frozen", n) for n in _FROZEN_RULE)


def test_the_package_reads_no_read_only_view():
    # the package reads the private dicts; the views are for its users
    reads = [(module, node.lineno) for module, tree in _package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("boundary", "pairing")]
    assert reads == []



def _callers(test, kind=ast.Name):
    """(module, function) for each call in the package of a function of the
    given kind, a name or an attribute, for which test(call) holds, naming a
    method Class.method and a module-level call ""."""
    found = []

    def visit(module, node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(module, child, (owner + "." if owner else "") + child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, kind) and test(child):
                found.append((module, owner))
            visit(module, child, owner)

    for module, tree in _package_trees():
        visit(module, tree, "")
    return found


def test_both_doors_read_entries_by_one_rule():
    # the one reader of boundary entries has two callers, the constructor and
    # from_json, and each proposes the colouring that _colouring makes of
    # its psi, so that both store a class by one rule
    found = _callers(lambda call: call.func.id == "_read_boundary")
    assert sorted(found) == [("core", "DivisorClass.__init__"), ("core", "from_json")], found
    calls = [n for n in ast.walk(dict(_package_trees())["core"]) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "_read_boundary"]
    for call in calls:
        colours = call.args[5] if len(call.args) > 5 else next(
            (k.value for k in call.keywords if k.arg == "colours"), None)
        assert isinstance(colours, ast.Call) and ast.unparse(colours.func) == "_colouring", \
            ast.unparse(call)


def test_both_doors_read_a_coefficient_by_one_rule():
    # a coefficient string is parsed only inside _frac, and from_json's
    # coefficient reader is JSON's type gate in front of _frac
    assert _callers(lambda call: call.func.id == "_from_text") == [("core", "_frac")]
    assert ("core", "_json_coeff") in _callers(lambda call: call.func.id == "_frac")


def test_the_genus2_normal_form_has_one_caller():
    # equality, diff_first and hash all reach normalize_genus2 through _normal
    assert _callers(lambda call: call.func.id == "normalize_genus2") == [("core", "_normal")]


def _function(module, name):
    """The definition of the function or method called name in module."""
    return next(fn for fn in ast.walk(dict(_package_trees())[module])
                if isinstance(fn, ast.FunctionDef) and fn.name == name)


def test_each_class_rule_is_written_once_in_core():
    # every answer about a class reads the one normal form: equality through
    # diff_first, hash and is_zero
    assert sorted(set(_callers(lambda call: call.func.id == "_normal"))) == [
        ("core", "DivisorClass.__hash__"), ("core", "DivisorClass.is_zero"),
        ("core", "diff_first")]
    # the generator names are written once, by _generators, for the writers
    # and for diff_first
    found = [(module, fn.name) for module, tree in _package_trees() for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and any(
                 isinstance(n, ast.Constant) and n.value == "psi_%d" for n in ast.walk(fn))]
    assert found == [("core", "_generators")], found
    assert ("core", "diff_first") in _callers(lambda call: call.func.id == "_generators")
    # the coefficient of a key is looked up by one rule
    found = _callers(lambda call: call.func.id == "_coeff")
    assert ("core", "_KeyView.__getitem__") in found, found


def test_the_collector_is_paused_by_the_bulk_calls_only():
    # _expand runs paused inside relabel and the pullbacks, and unpaused in
    # the small calls that need a dict of every key
    decorators = {(module, name): [ast.unparse(d) for d in _function(module, name).decorator_list]
                  for module, name in [("core", "_expand"), ("core", "relabel"),
                                       ("core", "from_json"), ("maps", "pullback"),
                                       ("catalog", "memo")]}
    assert decorators.pop(("core", "_expand")) == []
    assert all(d[:1] == ["_nogc"] for d in decorators.values()), decorators
    assert "memo" in {fn.name for fn in ast.walk(_function("catalog", "_constructor"))
                      if isinstance(fn, ast.FunctionDef)}


def test_classes_enter_through_the_formulas_and_the_reader():
    # a catalog class is assembled on the caller's labels, never relabeled,
    # and from_json reads its entries through the constructor
    catalog = dict(_package_trees())["catalog"]
    names = {n.id for n in ast.walk(catalog) if isinstance(n, ast.Name)} | {
        a.name for n in ast.walk(catalog) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "relabel" not in names
    found = _callers(lambda call: call.func.id in ("_span", "canonical_index"))
    assert found and ("core", "from_json") not in found


def test_the_class_check_is_written_once():
    # every other test that a value is a class goes through _check_class or
    # _check_pair
    found = _callers(lambda call: call.func.id == "isinstance" and len(call.args) == 2
                     and any(isinstance(x, ast.Name) and x.id == "DivisorClass"
                             for x in ast.walk(call.args[1])))
    allowed = {("core", "_check_class"), ("core", "_check_pair"),
               ("core", "DivisorClass.__eq__"), ("verify", "_difference")}
    assert found and set(found) <= allowed, found


def test_the_mirror_rule_is_written_once():
    # the label set, from which a mirror S^c is made, is read only by the
    # span rule and the one mirror rule built on it
    found = _callers(lambda call: call.func.id == "_label_set")
    assert found and set(found) == {("core", "_span"), ("core", "_side")}, found


def test_the_pullbacks_walk_the_keys_through_core():
    # every handler maps the keys of a class with core._walk; none of them
    # reads the private coefficient dict itself
    maps = dict(_package_trees())["maps"]
    names = [n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(maps)
             if isinstance(n, (ast.Attribute, ast.Name))]
    assert "_walk" in names and "_boundary" not in names


def test_the_two_sided_lift_is_written_once():
    # forgetting a point, gluing a closed tail and identifying two points
    # lift the labels and psi in _pull_two_sided, and nowhere else in maps
    found = _callers(lambda call: call.func.id == "_lift_psi")
    assert [f for f in found if f[0] == "maps"] == [("maps", "_pull_two_sided")], found
    labels = _callers(lambda call: call.func.attr == "labels", ast.Attribute)
    handlers = {"_pull_glue_closed_tail", "_pull_identify_points", "_pull_forget"}
    assert ("maps", "_pull_two_sided") in labels
    assert not [f for f in labels if f[0] == "maps" and f[1] in handlers], labels


def _tool(name):
    """The module tools/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / (name + ".py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_counts_no_blank_comment_or_docstring_line(tmp_path):
    # the rule of the line counts that ROADMAP reports for src/
    tool = _tool("code_lines")
    source = tmp_path / "m.py"
    source.write_text('"""Module\ndocstring."""\n\n# a comment\nX = (1,\n     2)  # two\n\n\n'
                      'class C:\n    """One line."""\n\n    def f(self):\n'
                      '        """Two\n        lines."""\n        return """not a\n'
                      '        docstring"""\n')
    assert tool.code_lines(source) == 6


def test_unreached_lists_no_def_class_import_or_docstring(tmp_path):
    # the statements whose lines tools/unreached.py looks for in a trace:
    # a bare string after the docstring is a statement, and a compound
    # statement spans its body
    source = tmp_path / "m.py"
    source.write_text('"""Module\ndocstring."""\nimport os\nfrom sys import path\nX = 1\n\n\n'
                      'class C:\n    """One line."""\n    Y = (2,\n         3)\n\n'
                      '    def f(self):\n        """Doc."""\n        if X:\n'
                      '            return """not a\n        docstring"""\n'
                      '        "a bare string"\n')
    assert _tool("unreached").statement_lines(source) == {(5, 5), (10, 11), (15, 17), (16, 17),
                                                          (18, 18)}


def test_only_core_makes_cuts_and_carries_a_colouring():
    # the catalog names the weights it colours by, in one helper that also
    # stores every catalog class; the maps name their label and image rules,
    # and core._walk cuts and moves the colouring of the class it walks
    for name in ("_meet", "_moved", "_refined"):
        found = _callers(lambda call: call.func.id == name)
        assert found and {m for m, _ in found} == {"core"}, (name, found)
    found = _callers(lambda call: call.func.id == "_colouring")
    assert {m for m, _ in found} == {"core", "catalog"}, found
    assert [f for m, f in found if m == "catalog"] == ["_class"]
    found = _callers(lambda call: call.func.attr == "_from_canonical", ast.Attribute)
    assert [f for m, f in found if m == "catalog"] == ["_class"], found
    maps = dict(_package_trees())["maps"]
    assert not [n.attr for n in ast.walk(maps)
                if isinstance(n, ast.Attribute) and n.attr in ("_orbits", "_colours")]
    imported = {a.name for n in ast.walk(maps) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not imported & {"_colouring", "_meet", "_moved", "_refined", "_singletons"}


def test_the_own_key_sets_have_one_generator():
    # every set of labels is generated by core._parts: the key sets of a
    # base by core._own_sets, and the sets of the orbits a class holds by
    # core._members, which refinement and the serializers share; no module
    # builds all subsets with combinations, product, compress or a bit mask
    trees = dict(_package_trees())
    assert _callers(lambda call: call.func.id == "_parts") == [("core", "_own_sets"),
                                                               ("core", "_members")]
    assert _callers(lambda call: call.func.id == "_members") == [("core", "_split"),
                                                                 ("core", "_boundary_rows")]
    assert _callers(lambda call: call.func.id == "combinations") == []
    names = {a.name for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    attrs = {n.attr for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute)}
    assert not {"product", "compress", "itertools"} & (names | attrs)
    assert not [n for tree in trees.values() for n in ast.walk(tree)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.RShift)]


def test_the_span_thresholds_are_written_once():
    # |S| >= 2, |S| <= n - 2 and g // 2: in the key layer, only _bounds
    # compares with ">= 2" or with some "x - 2", or halves
    def two(node):
        return isinstance(node, ast.Constant) and node.value == 2

    def threshold(node):
        if isinstance(node, ast.BinOp):
            return isinstance(node.op, ast.FloorDiv) and two(node.right)
        return isinstance(node, ast.Compare) and any(
            isinstance(op, ast.GtE) and two(x)
            or isinstance(x, ast.BinOp) and isinstance(x.op, ast.Sub) and two(x.right)
            for op, x in zip(node.ops, node.comparators))

    trees = dict(_package_trees())
    found = {(module, fn.name) for module in ("core", "maps")
             for fn in ast.walk(trees[module]) if isinstance(fn, ast.FunctionDef)
             if any(map(threshold, ast.walk(fn)))}
    assert found == {("core", "_bounds")}, found
    # the pullbacks reach the span rule and canonicalizing through core
    names = {n.id for n in ast.walk(trees["maps"]) if isinstance(n, ast.Name)} | {
        a.name for n in ast.walk(trees["maps"]) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not {"_span", "try_canonical_index"} & names


def _cli():
    return importlib.import_module("artifact.cli"), dict(_package_trees())["cli"]


def test_the_cli_dispatches_every_verb_on_one_path():
    # each verb carries its call and writer from its own subparser, so
    # dispatch never asks which verb it runs
    _, tree = _cli()
    dispatch = next(n for n in tree.body
                    if isinstance(n, ast.FunctionDef) and n.name == "dispatch")
    assert not [n for n in ast.walk(dispatch)
                if isinstance(n, ast.Attribute) and n.attr == "verb"]


def test_the_parity_default_is_written_only_in_the_catalog():
    _, tree = _cli()
    assert not [n for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and n.value == "total"]


def _holds_package_function(v):
    if isinstance(v, dict):
        return any(map(_holds_package_function, [*v, *v.values()]))
    if isinstance(v, (list, tuple, set, frozenset)):
        return any(map(_holds_package_function, v))
    return callable(v) and (getattr(v, "__module__", None) or "").startswith("artifact")


def test_no_cli_table_holds_a_package_function():
    # the benchmark tracer swaps module attributes for wrappers after import,
    # so a table filled at import would keep calling the unwrapped functions;
    # catalog.CONSTRUCTORS, imported here, is rewritten in place by it
    cli, tree = _cli()
    names = {t.id for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
             for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
             if isinstance(t, ast.Name)}
    assert names and not [n for n in names if _holds_package_function(getattr(cli, n))]


def test_each_parameter_list_is_written_once():
    # a catalog class is declared by its signature under _constructor, which
    # also pauses the collector and keeps the class; a map variant is its
    # check, whose signature names the variant's parameters
    from artifact import catalog, maps
    tree = dict(_package_trees())["catalog"]
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "CONSTRUCTORS" for t in n.targets)
                and isinstance(n.value, ast.Dict) and n.value.keys]
    decorators = {ast.unparse(d) for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                  for d in fn.decorator_list}
    assert decorators and all(d.startswith("_constructor(") for d in decorators), decorators
    assert not [v for v in maps._VARIANTS.values() if isinstance(v, tuple)]
    for fn, names in catalog.CONSTRUCTORS.values():
        assert names == tuple(inspect.signature(fn).parameters)
        assert fn is getattr(catalog, fn.__name__)
