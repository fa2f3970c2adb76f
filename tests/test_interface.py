"""The public surface: every entry point refuses a malformed argument with a
PicError subclass, and every module documents itself."""

import importlib

import pytest

from artifact import (
    BaseMismatch,
    ModuliBase,
    OutOfRange,
    ParamOutOfRange,
    PicError,
    UnknownCurve,
    bn_coefficient_check,
    IntPolynomial,
    builtin_test_curve,
    count_distinct_nonzero_roots,
    coupled_partition,
    d1_holo,
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
from artifact.core import DivisorClass, canonical_index, diff_first, relabel, zero_class
from artifact.maps import GluingMap, InvalidMap
from artifact.verify import run_suite

B21 = ModuliBase(2, 1)
B32 = ModuliBase(3, 2)
B51 = ModuliBase(5, 1)


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
    # enumerative parameters
    ('de_jonquieres(5, [1, "2"])', OutOfRange),
    ('de_jonquieres(5.0, [1, 2])', OutOfRange),
    ('de_jonquieres(5, 3)', OutOfRange),
    ('plucker(1.5, 2, 3)', OutOfRange),
    ('picard_degree([1, 2], "2")', OutOfRange),
    ('residue_polynomial(2, "3", 1)', OutOfRange),
    ('IntPolynomial([1.5, 2])', OutOfRange),
    ('IntPolynomial(["x"])', OutOfRange),
    ('IntPolynomial([1, True])', OutOfRange),
    ('IntPolynomial(5)', OutOfRange),
    ('count_distinct_nonzero_roots(5)', OutOfRange),
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
    ('bn_coefficient_check(5)', BaseMismatch),
    # bases that are not a ModuliBase
    ('DivisorClass((3, 1))', ParamOutOfRange),
    ('zero_class(None)', ParamOutOfRange),
    ('core.TestCurve((3, 1), "A", {})', ParamOutOfRange),
    ('builtin_test_curve("A", (3, 1))', ParamOutOfRange),
    ('canonical_index(None, 1, {1})', ParamOutOfRange),
    # suite bounds
    ('run_suite("5")', ParamOutOfRange),
    ('run_suite(5, n_max=2.0)', ParamOutOfRange),
    ('run_suite(5, h_max="4")', ParamOutOfRange),
])
def test_a_malformed_argument_raises_pic_error(call, error):
    with pytest.raises(error):
        eval(call)
    assert issubclass(error, PicError)


@pytest.mark.parametrize("name", ["__init__", "core", "maps", "catalog",
                                  "enumerative", "verify", "cli"])
def test_every_module_has_a_docstring(name):
    module = importlib.import_module(
        "artifact" if name == "__init__" else "artifact." + name)
    assert module.__doc__ and module.__doc__.strip()
