"""The projection formula as an oracle of the maps: for a map xi of moduli
spaces, a curve B on its domain and a class D on its codomain,
D.xi_*B = xi^*D.B.  Each typed Harris-Morrison test curve of
``builtin_test_curve`` is the pushforward of the moving-point curve B_1
(``moving_point_curve``, derived from Riemann-Roch) along a gluing map, so
each side comes from a different source and neither is ``maps``.  The
identity is checked one generator D of the codomain at a time, which needs
no class to have a nonzero coefficient."""

import pytest

from artifact.core import (
    DivisorClass,
    ModuliBase,
    builtin_test_curve,
    enumerate_boundary,
    pair,
    relabel,
)
from artifact.maps import glue_closed_tail, glue_tail, identify_points, pullback

from test_positivity import moving_point_curve

ITEM_1 = ("identify-points omits the normal-bundle term -psi_1 - psi_2 of its "
          "delta_0 pullback (ROADMAP.md, open item 1)")


def generators(base):
    """(name, class) for every generator of the divisor classes on base."""
    yield "lambda", DivisorClass(base, 1)
    yield "delta0", DivisorClass(base, delta0=1)
    for j in base.labels():
        yield "psi_%d" % j, DivisorClass(base, psi=[int(k == j) for k in base.labels()])
    for k in enumerate_boundary(base):
        yield str(k), DivisorClass(base, boundary=[((k.i, k.S), 1)])


def mismatches(curve, pull, b, only=None):
    """(generator, D.curve, pull(D).b) for each generator D of the curve's base
    where the two differ; ``only`` "delta0" checks delta_0 alone and
    "others" every generator but delta_0."""
    out = []
    for name, d in generators(curve.base):
        if only is None or (name == "delta0") == (only == "delta0"):
            lhs, rhs = pair(curve, d), pair(b, pull(d))
            if lhs != rhs:
                out.append((curve.name, name, lhs, rhs))
    return out


@pytest.mark.parametrize("g", range(2, 8))
def test_curve_a_is_the_moving_point(g):
    base = ModuliBase(g, 1)
    curve = builtin_test_curve("A", base)
    assert mismatches(curve, lambda d: d, moving_point_curve(base, 1)) == []


@pytest.mark.parametrize("g", range(3, 8))
def test_curve_c_is_a_closed_tail_at_the_fixed_point(g):
    # C_i: a genus-(g - i) tail glued at point 2 of (i, 2) while point 1 moves
    bad = []
    for i in range(2, g):
        m = glue_closed_tail(ModuliBase(i, 2), g - i, 2)
        curve = builtin_test_curve("C", m.codomain, i=i)
        bad += mismatches(curve, lambda d: pullback(m, d), moving_point_curve(m.domain, 1))
    assert bad == []


@pytest.mark.parametrize("g", range(3, 7))
def test_curve_bin_is_a_pointed_tail_at_the_moving_point(g):
    # B_{i,n}: a genus-i tail carrying n - 1 new points glued at the moving
    # point 1 of (g - i, g - n + 1).  The tail holds 1 and the new labels
    # g - n + 2..g; the typed curve has its tail's points at 1..n, so a class
    # on the curve's base is moved onto the map's labels before the pullback.
    bad, cases = [], 0
    for i in range(1, g - 1):
        for n in range(i, g + 1):
            m = glue_tail(ModuliBase(g - i, g - n + 1), i, n - 1, 1)
            to_map = [1, *range(g - n + 2, g + 1), *range(2, g - n + 2)]
            curve = builtin_test_curve("Bin", m.codomain, i=i, n=n)
            bad += mismatches(curve, lambda d: pullback(m, relabel(d, to_map)),
                              moving_point_curve(m.domain, 1))
            cases += 1
    assert cases == {3: 3, 4: 7, 5: 12, 6: 18}[g]  # 40 in all
    assert bad == []


@pytest.mark.parametrize("only", [
    "others", pytest.param("delta0", marks=pytest.mark.xfail(strict=True, reason=ITEM_1)),
])
def test_curve_d_is_identify_points_of_the_moving_point(only):
    # D: points 1 and 2 of (g - 1, 3) glued to a node while point 1 moves.
    # Today delta_0 pairs to 2 - 2g on D and to 1 on the pullback side.
    bad = []
    for g in range(3, 8):
        m = identify_points(ModuliBase(g - 1, 3))
        curve = builtin_test_curve("D", m.codomain)
        bad += mismatches(curve, lambda d: pullback(m, d), moving_point_curve(m.domain, 1), only)
    assert bad == []
