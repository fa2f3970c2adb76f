import copy
import itertools
import math
import os
from pathlib import Path
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from artifact import enumerative
from artifact.enumerative import (
    ArityMismatch,
    IntPolynomial,
    OutOfRange,
    ProfileTooLong,
    ZeroPolynomial,
    count_distinct_nonzero_roots,
    de_jonquieres,
    picard_degree,
    plucker,
    residue_polynomial,
)


class TestDeJonquieres:
    def test_empty_profile(self):
        assert de_jonquieres(3, ()) == 1

    def test_single_double_point(self):
        assert de_jonquieres(3, (2,)) == 8
        # 2g + 2 at every genus, also past the argument range of math.factorial
        assert de_jonquieres(10**20, (2,)) == 2 * 10**20 + 2

    def test_known_values(self):
        assert de_jonquieres(4, (1, 2, 2)) == 136
        assert de_jonquieres(4, (1, 2, 2), ordered=False) == 68

    def test_unordered_divides_by_repeats(self):
        assert de_jonquieres(5, (2, 2, 2, 1), ordered=False) \
            == Fraction(de_jonquieres(5, (2, 2, 2, 1)), 6)
        assert de_jonquieres(5, (1, 1, 2, 2), ordered=False) \
            == Fraction(de_jonquieres(5, (1, 1, 2, 2)), 4)

    def test_profile_length_limit(self):
        with pytest.raises(ProfileTooLong):
            de_jonquieres(3, (1, 1, 1))

    def test_positive_multiplicities_required(self):
        with pytest.raises(OutOfRange):
            de_jonquieres(4, (2, 0))
        with pytest.raises(OutOfRange):
            de_jonquieres(0, (1,))

    def test_simple_zeros_oracle(self):
        # with all multiplicities 1 the count is the falling factorial
        # g!/(g-rho-1)! times the evaluated inner sum; cross-check against a
        # direct inclusion-exclusion count of the same alternating sum
        for g in range(2, 8):
            for rho in range(0, g - 1):
                ks = (1,) * rho
                inner = Fraction((-1) ** rho, g)
                for j in range(rho):
                    inner += Fraction((-1) ** j * math.comb(rho, j), g - rho + j)
                want = Fraction(math.factorial(g), math.factorial(g - rho - 1)) * inner
                assert de_jonquieres(g, ks) == want


def de_jonquieres_by_subsets(g, ks):
    """The ordered count summed over every subset of dropped points, as
    first written: exponential in rho, kept as the reference."""
    ks = list(ks)
    rho = len(ks)
    inner = Fraction((-1) ** rho, g)
    idx = range(rho)
    for j in range(rho):
        tot = 0
        for drop in itertools.combinations(idx, j):
            dropped = set(drop)
            tot += math.prod(ks[t] for t in idx if t not in dropped)
        inner += Fraction((-1) ** j * tot, g - rho + j)
    return Fraction(math.factorial(g), math.factorial(g - rho - 1)) \
        * math.prod(ks) * inner


DJ_PROFILES = [
    (3, ()), (2, (5,)), (4, (1, 2, 2)), (5, (2, 2, 2, 1)), (6, (3, 1, 4, 1)),
    (7, (1, 1, 1, 1, 1)), (8, (2, 3, 5, 7, 11, 13)), (9, (9, 1, 8, 2, 7, 3, 6)),
    (10, (4,) * 8), (12, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
    (13, (2, 1) * 6), (15, tuple(range(14, 0, -1))), (20, (1,) * 14),
    (16, (3, 5, 1, 2, 8, 13, 21, 1, 1, 2, 4, 6, 9, 10)),
]


@pytest.mark.parametrize("g,ks", DJ_PROFILES)
def test_de_jonquieres_matches_subset_sum(g, ks):
    assert de_jonquieres(g, ks) == de_jonquieres_by_subsets(g, ks)


class TestPlucker:
    def test_canonical_series(self):
        # the canonical series g^{g-1}_{2g-2} has g(g^2-1) ramification weight
        for g in range(2, 9):
            assert plucker(g - 1, 2 * g - 2, g) == g * (g * g - 1)

    def test_pencils(self):
        assert plucker(1, 2, 0) == 2  # a double cover of the line branches twice
        assert plucker(1, 4, 3) == 12


class TestPicardDegree:
    def test_printed_value(self):
        assert picard_degree((5, 1), 2) == 50

    def test_formula(self):
        assert picard_degree((1, 1, 1), 3) == 6
        assert picard_degree((2, 3), 2) == 2 * 4 * 9

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            picard_degree((1, 2), 3)


class TestIntPolynomial:
    def test_trims_trailing_zeros(self):
        p = IntPolynomial([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert p.degree == 1

    def test_zero(self):
        z = IntPolynomial([0, 0])
        assert z.is_zero()
        with pytest.raises(ZeroPolynomial):
            z.degree
        with pytest.raises(ZeroPolynomial):
            count_distinct_nonzero_roots(z)

    def test_evaluation(self):
        p = IntPolynomial([1, -3, 2])  # 2t^2 - 3t + 1 = (2t-1)(t-1)
        assert p(1) == 0
        assert p(Fraction(1, 2)) == 0
        assert p(0) == 1

    def test_str(self):
        assert str(IntPolynomial([10, 20, 5])) == "10 + 20*t + 5*t^2"
        assert str(IntPolynomial([])) == "0"

    def test_equal_trimmed_coefficients_are_equal_and_hash_alike(self):
        p, q = IntPolynomial([1, 2, 0]), IntPolynomial((1, 2))
        assert p == q and hash(p) == hash(q)
        assert p != IntPolynomial([1, 3]) and p != (1, 2)
        assert len({p, q, IntPolynomial([2, 1])}) == 2

    def test_repr(self):
        assert repr(IntPolynomial([1, 2, 0])) == "IntPolynomial(coeffs=(1, 2))"
        assert repr(IntPolynomial([])) == "IntPolynomial(coeffs=())"

    @pytest.mark.parametrize("attr", ["coeffs", "other"])
    def test_attributes_cannot_be_set_or_deleted(self, attr):
        p = IntPolynomial([1, 2])
        with pytest.raises(AttributeError):
            setattr(p, attr, (3,))
        with pytest.raises(AttributeError):
            delattr(p, attr)
        assert p.coeffs == (1, 2)

    def test_copies_and_pickles(self):
        p = IntPolynomial([1, 2])
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and type(q) is IntPolynomial


class TestResiduePolynomial:
    def test_printed_instance(self):
        p = residue_polynomial(4, 5, 5)
        assert p.coeffs == (10, 20, 5)
        assert count_distinct_nonzero_roots(p) == 2

    def test_equal_pole_family(self):
        for h in range(3, 11):
            p = residue_polynomial(4, h, h)
            assert count_distinct_nonzero_roots(p) == 2

    def test_minimal_case(self):
        p = residue_polynomial(4, 2, 2)
        assert p.coeffs == (0, 2, 2)
        assert count_distinct_nonzero_roots(p) == 1

    def test_domain(self):
        with pytest.raises(OutOfRange):
            residue_polynomial(1, 5, 2)
        with pytest.raises(OutOfRange):
            residue_polynomial(4, 5, 0)
        with pytest.raises(OutOfRange):
            residue_polynomial(4, 5, 7)
        residue_polynomial(4, 5, 6)  # boundary m = j+k-3 is allowed

    def test_the_band_equals_the_dense_formula(self):
        # the formula term by term over every i < j, most terms 0
        for j in range(2, 13):
            for k in range(2, 13):
                for m in range(1, j + k - 2):
                    dense = [math.comb(j + k - m - 2, i) * math.comb(m, j - i - 1)
                             for i in range(j)]
                    assert residue_polynomial(j, k, m) == IntPolynomial(dense), (j, k, m)

    def test_only_the_nonzero_band_is_computed(self, monkeypatch):
        calls = []
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda *a: calls.append(a) or comb(*a))
        p = residue_polynomial(10 ** 4, 3, 2)
        assert len(calls) <= 2 * (2 + 1)
        assert p.degree == 10 ** 4 - 1 and sum(1 for c in p.coeffs if c) == 3
        assert count_distinct_nonzero_roots(p) == 2

    def test_terms_past_the_bits_budget_are_refused_before_they_are_computed(self):
        # computed, the 20000 terms hold about 1.8 * 10**9 bits: the child has
        # a capped address space and a time limit
        probe = ("import resource\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "from artifact.enumerative import OutOfRange, residue_polynomial\n"
                 "try:\n    residue_polynomial(20000, 10 ** 6, 10 ** 6)\n"
                 "except OutOfRange:\n    print('refused')\n")
        env = dict(os.environ, PYTHONPATH=str(Path(enumerative.__file__).parent.parent))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env, timeout=60)
        assert out.stdout == "refused\n", out.stderr

    def test_degree_and_positivity(self):
        for j in range(2, 7):
            for k in range(2, 7):
                for m in range(1, j + k - 2):
                    p = residue_polynomial(j, k, m)
                    assert len(p.coeffs) <= j
                    assert all(c >= 0 for c in p.coeffs)


class TestRootCountOracle:
    def test_against_numeric_roots(self):
        rng = random.Random(424242)
        checked = 0
        while checked < 100:
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
            if coeffs[-1] == 0:
                continue
            p = IntPolynomial(coeffs)
            roots = np.roots(list(reversed(p.coeffs)))
            nonzero = [r for r in roots if abs(r) > 1e-8]
            clusters = []
            for r in nonzero:
                if all(abs(r - c) > 1e-6 for c in clusters):
                    clusters.append(r)
            assert count_distinct_nonzero_roots(p) == len(clusters)
            checked += 1


def test_root_count_matches_sympy_on_residue_table():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    checked = 0
    for j in range(2, 13):
        for k in range(2, 13):
            for m in range(1, j + k - 2):
                p = residue_polynomial(j, k, m)
                if p.degree == 0:
                    want = 0
                else:
                    poly = sympy.Poly(list(reversed(p.coeffs)), t)
                    want = poly.quo(poly.gcd(poly.diff(t))).degree()
                    want -= p.coeffs[0] == 0
                assert count_distinct_nonzero_roots(p) == want, (j, k, m)
                checked += 1
    assert checked == 1331
