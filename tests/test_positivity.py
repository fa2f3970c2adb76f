"""A second kind of oracle: an effective divisor pairs non-negatively with a
curve that moves in a family covering a dense open set of the moduli space,
since a general member of the family is not in the divisor (Harris-Morrison,
Invent. Math. 99, 1990).  The check shares no formula with the catalog, so it
can see an error that every identity of the registry repeats."""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from artifact.catalog import CONSTRUCTORS, PARITIES
from artifact import core
from artifact.core import ModuliBase, PicError, canonical_index, pair
from artifact.maps import forget_point, pullback

GENERA = range(2, 8)
WEIGHTS = range(-4, 6)
LENGTHS = range(1, 5)

# what each parameter of a catalog class ranges over, besides the genus
DOMAINS = {
    "d": [d for n in LENGTHS for d in product(WEIGHTS, repeat=n)],
    "k": list(WEIGHTS),
    "h": list(WEIGHTS),
    "parity": list(PARITIES),
}

# The classes with a negative pairing: coupled_partition(g, d, "total") with
# d an order of (1, 1, -1, -1) at g = 2 and 3, where every B_j pairs to
# -4 and -8.  At g >= 4 the same weights pair positively.  Either the locus
# is not a divisor at these genera, or the class is wrong; the registry
# cannot tell, as R13 ties this class to others that it matches.
KNOWN_NEGATIVE = {("coupled", (g, d, "total")): {2: -4, 3: -8}[g]
                  for g in (2, 3) for d in set(permutations((1, 1, -1, -1)))}


@lru_cache(maxsize=None)
def moving_point_curve(base, j):
    """B_j on base = (g, n): a fixed general curve of genus g with the points
    other than j fixed and general, and point j moving on the curve.  Point j
    meets each other point once, where a rational tail carrying the two
    bubbles off: deg psi_j = 2g - 2 + (n - 1), deg psi_k = 1 and
    deg delta_{0:{j,k}} = 1 for k != j, and every other degree is 0.  At
    n = 1 it is the curve A."""
    g, n = base
    vec = {("psi", j): 2 * g - 3 + n}
    for k in base.labels():
        if k != j:
            vec[("psi", k)] = 1
            vec[canonical_index(base, 0, {j, k})] = 1
    return core.TestCurve(base, "B_%d" % j, vec)


@lru_cache(maxsize=1)
def catalog_classes():
    """(name, args, class) for every class the catalog builds over the
    genera, weights and parities above; refused parameters are skipped.
    Built once and shared by the tests below."""
    out = []
    for name, (build, names) in CONSTRUCTORS.items():
        for g in GENERA:
            for rest in product(*(DOMAINS[p] for p in names[1:])):
                try:
                    out.append((name, (g, *rest), build(g, *rest)))
                except PicError:
                    pass
    return tuple(out)


def pairings(a):
    """D.B_j for every j, for the class a and for each pullback of it along a
    forgetful map (flat, so a pullback of an effective class is effective)."""
    g, n = a.base
    out = [pair(moving_point_curve(a.base, j), a) for j in a.base.labels()]
    for j in range(1, n + 2):
        b = pullback(forget_point(ModuliBase(g, n + 1), j), a)
        out += [pair(moving_point_curve(b.base, k), b) for k in b.base.labels()]
    return out


def test_catalog_classes_pair_non_negatively_with_moving_points():
    negative, count, built = {}, 0, set()
    for name, args, a in catalog_classes():
        built.add(name)
        values = pairings(a)
        count += len(values)
        if min(values) < 0:
            negative[name, args] = values
    assert built == set(CONSTRUCTORS)
    assert count > 30000, count
    assert set(negative) == set(KNOWN_NEGATIVE)
    for case, values in negative.items():
        # every moving point of the class itself pairs to the same value
        g, d, _ = case[1]
        assert values[:len(d)] == [KNOWN_NEGATIVE[case]] * len(d), (case, values)


# The slope a/b_0 of an effective divisor a*lambda - b_0*delta_0 - ... on the
# moduli space of unpointed genus-g curves is at least 6 + 12/(g + 1) for
# g <= 5 (Harris-Morrison, Invent. Math. 99, 1990).  Over the genera, weights
# and parities above, the unpointed catalog classes at g <= 5 are exactly
# diaz at g = 3, 4 and 5, so these are the three slopes checked.
SLOPES = {("diaz", (3,)): Fraction(19, 2), ("diaz", (4,)): Fraction(93, 10),
          ("diaz", (5,)): Fraction(46, 5)}


def test_unpointed_classes_keep_the_harris_morrison_slope_bound():
    slopes = {(name, args): Fraction(a.lam) / -a.delta0 for name, args, a in catalog_classes()
              if a.base.n == 0 and a.base.g <= 5}
    assert slopes == SLOPES
    for (_, (g,)), slope in slopes.items():
        assert slope >= 6 + Fraction(12, g + 1)
