"""End-to-end acceptance checks: every number here is an exact identity."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from artifact.core import (
    ModuliBase,
    builtin_test_curve,
    equals,
    from_json,
    pair,
    to_json,
    try_canonical_index,
)
from artifact.catalog import (
    _assemble,
    anti_ramification,
    coupled_partition,
    d1_holo,
    d_infinity,
    logan_class,
    pinch_partition,
    residual,
    theta_characteristic_locus,
    theta_pullback_class,
    weierstrass,
)
from artifact.enumerative import (
    IntPolynomial,
    count_distinct_nonzero_roots,
    de_jonquieres,
    picard_degree,
    plucker,
    residue_polynomial,
)
from artifact.verify import run_suite

from conftest import random_class, seeded


def test_1_identity_suite_full_range():
    start = time.monotonic()
    report = run_suite(8, n_max=6, h_max=4)
    elapsed = time.monotonic() - start
    failures = [e for e in report.entries if not e.passed]
    assert not failures, failures[:5]
    assert len(report.entries) > 500
    assert elapsed < 60


def test_2_printed_theta_classes_genus3():
    odd = theta_characteristic_locus(3, "odd")
    assert to_json(odd) == (
        '{"g":3,"n":1,"lambda":"7","psi":["14"],"delta0":"-1",'
        '"boundary":[{"i":1,"S":[1],"c":"-9"},{"i":2,"S":[1],"c":"-5"}]}'
    )
    even = theta_characteristic_locus(3, "even")
    assert to_json(even) == (
        '{"g":3,"n":1,"lambda":"9","psi":["0"],"delta0":"-1",'
        '"boundary":[{"i":1,"S":[1],"c":"-3"},{"i":2,"S":[1],"c":"-3"}]}'
    )


class TestCriterion3CrossTheorem:
    @pytest.mark.parametrize("g", range(3, 11))
    def test_stratum_endpoints(self, g):
        assert equals(d1_holo(g, 0), (g - 2) * weierstrass(g))
        assert equals(d1_holo(g, g - 1), residual(g))

    def test_coupled_pair_is_antiramification(self):
        assert equals(coupled_partition(3, (1, 1)), anti_ramification(3))

    @pytest.mark.parametrize("g", range(3, 11))
    def test_antiramification_boundary_recursion(self, g):
        # c_{i:s} = c_{i-1:s-1} + 4(i-s) on the side where the s weight-one
        # points sit with the genus-i component, valid for s <= i-1
        a = anti_ramification(g)
        base = a.base
        checked = 0
        for i in range(2, g + 1):
            for s in range(1, min(i - 1, base.n) + 1):
                k1 = try_canonical_index(base, i, frozenset(range(1, s + 1)))
                k2 = try_canonical_index(base, i - 1, frozenset(range(1, s)))
                if k1 is None or k2 is None:
                    continue
                assert a.coeff(k1) == a.coeff(k2) + 4 * (i - s), (g, i, s)
                checked += 1
        assert checked >= g - 2


class TestCriterion4Enumerative:
    def test_ordered_count_against_pluecker(self):
        for d in range(2, 9):
            for r in range(d):
                for g in range(d - r + 1, 11):
                    ks = (r + 1,) + (1,) * (d - r - 1)
                    assert de_jonquieres(g, ks) \
                        == math.factorial(d - r - 1) * plucker(r, d, g), (r, d, g)

    @pytest.mark.parametrize("g", range(3, 11))
    def test_double_zero_configuration_count(self, g):
        ks = (1,) + (2,) * (g - 2)
        assert de_jonquieres(g, ks, ordered=False) \
            == 2 ** (g - 2) * ((g - 2) * 2 ** (g - 1) + 1)

    def test_picard_degree_value(self):
        assert picard_degree((5, 1), 2) == 50
        # consistent with the (g+h)^2 h tail multiplicity at (g,h) = (3,2)
        assert picard_degree((5, 1), 2) == (3 + 2) ** 2 * 2


class TestCriterion5TestCurvePairings:
    @pytest.mark.parametrize("g", range(3, 9))
    def test_pointed_curves_against_residual_and_weierstrass(self, g):
        base = ModuliBase(g, 1)
        R, W = residual(g), weierstrass(g)
        A = builtin_test_curve("A", base)
        assert pair(A, R) == (g + 1) * g * (g - 1) * (g - 2)
        E = builtin_test_curve("E", base)
        assert pair(E, R) == 0
        for i in range(1, g):
            C = builtin_test_curve("C", base, i=i)
            assert pair(C, R) == g * (g * g - 1) * (i - 1)
            # the companion family through the complementary component
            C2 = builtin_test_curve("C", base, i=g - i)
            assert pair(C2, W) == (g + 1) * (g - 1) * (g - i)

    @pytest.mark.parametrize("g", range(3, 9))
    def test_sliding_node_against_simple_zero_class(self, g):
        base = ModuliBase(g, g)
        D = logan_class(g, (1,) * g)
        for i in range(1, g):
            for n in range(i, g + 1):
                B = builtin_test_curve("Bin", base, i=i, n=n)
                assert pair(B, D) \
                    == (n - i) * (i * i + g * n - g * i - i * n - 1), (g, i, n)


class TestCriterion6ResidueCounts:
    def test_equal_order_collisions(self):
        for h in range(3, 11):
            assert count_distinct_nonzero_roots(residue_polynomial(4, h, h)) == 2
        assert count_distinct_nonzero_roots(residue_polynomial(4, 2, 2)) == 1

    def test_symbolic_count_against_numeric_roots(self):
        rng = random.Random(55221)
        checked = 0
        while checked < 100:
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-20, 20) for _ in range(deg + 1)]
            if coeffs[-1] == 0:
                continue
            p = IntPolynomial(coeffs)
            roots = np.roots(list(reversed(p.coeffs)))
            nonzero = [r for r in roots if abs(r) > 1e-8]
            clusters = []
            for r in nonzero:
                if all(abs(r - c) > 1e-6 for c in clusters):
                    clusters.append(r)
            assert count_distinct_nonzero_roots(p) == len(clusters), p.coeffs
            checked += 1


class TestCriterion7SpinAdditivity:
    @pytest.mark.parametrize("g", range(2, 9))
    def test_theta_characteristic(self, g):
        assert equals(
            theta_characteristic_locus(g, "total"),
            theta_characteristic_locus(g, "odd")
            + theta_characteristic_locus(g, "even"),
        )

    @pytest.mark.parametrize("g", range(2, 9))
    @pytest.mark.parametrize("d", [(-2, 2), (-4, 4), (-2, -4, 6), (-6, 2, 4)])
    def test_coupled_even_weights(self, g, d):
        assert equals(
            coupled_partition(g, d),
            coupled_partition(g, d, "odd") + coupled_partition(g, d, "even"),
        )

    @pytest.mark.parametrize("g", range(2, 9))
    def test_collision_limit(self, g):
        assert equals(
            d_infinity(g),
            d_infinity(g, "odd") + d_infinity(g, "even"),
        )


class TestCriterion8TilingAudit:
    def test_gap_raises(self):
        base = ModuliBase(4, 2)
        with pytest.raises(AssertionError):
            _assemble(base, [(lambda i, s: i == 0, lambda i, s: 1)])

    def test_overlap_raises(self):
        base = ModuliBase(4, 2)
        with pytest.raises(AssertionError):
            _assemble(
                base,
                [(lambda i, s: True, lambda i, s: 1), (lambda i, s: i == 1, lambda i, s: 1)],
            )

    def test_randomized_weight_vectors_tile(self):
        # every constructor call below runs the exactly-one-regime audit over
        # all canonical boundary generators; success means no gap/overlap
        rng = random.Random(140984)
        for _ in range(60):
            g = rng.randint(3, 8)
            n = rng.randint(1, min(6, g))
            cuts = sorted(rng.sample(range(1, g), n - 1)) if n > 1 else []
            parts = [b - a for a, b in zip([0] + cuts, cuts + [g])]
            logan_class(g, tuple(parts))

            if n <= g - 1:
                hcuts = sorted(rng.sample(range(1, g - 1), n - 1)) if n > 1 else []
                hparts = [b - a for a, b in zip([0] + hcuts, hcuts + [g - 1])]
                pinch_partition(g, tuple(hparts))
                if n >= 2:
                    pole = rng.randint(2, 4)
                    theta_pullback_class(
                        g, (-pole,) + tuple(hparts[1:]) + (hparts[0] + pole,)
                    )
        for g in range(2, 9):
            for h in range(2, 6):
                coupled_partition(g, (-h, h))
                d_infinity(g)


class TestCriterion9Serialization:
    def test_round_trip_1000(self):
        rng = seeded(314159)
        for _ in range(1000):
            a = random_class(rng)
            b = from_json(to_json(a))
            assert a.base == b.base and equals(a, b)

    def test_deterministic_bytes(self):
        fixed = [
            weierstrass(5),
            residual(4),
            theta_characteristic_locus(6, "odd"),
            coupled_partition(4, (-2, 1, 1)),
            pinch_partition(5, (1, 3)),
        ]
        for a in fixed:
            s1, s2 = to_json(a), to_json(from_json(to_json(a)))
            assert s1 == s2
        rng1, rng2 = seeded(8), seeded(8)
        for _ in range(100):
            assert to_json(random_class(rng1)) == to_json(random_class(rng2))
