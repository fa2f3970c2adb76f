import gc
import random
from fractions import Fraction

import pytest

from artifact import catalog
from artifact.core import DivisorClass, ModuliBase, enumerate_boundary


def random_class(rng, base=None):
    """A random sparse class with small rational coefficients."""
    if base is None:
        base = ModuliBase(rng.randint(2, 6), rng.randint(0, 4))

    def fr():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    bnd = [((k.i, k.S), fr()) for k in enumerate_boundary(base) if rng.random() < 0.5]
    return DivisorClass(base, fr(), [fr() for _ in range(base.n)], fr(), bnd)


def seeded(seed=0):
    return random.Random(seed)


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that leaves Python's cyclic garbage collector disabled."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture(autouse=True)
def fresh_catalog_memo():
    """Empty the memo of the catalog constructors before each test, so that a
    test that patches what a constructor calls sees a fresh build."""
    catalog._built.cache_clear()
