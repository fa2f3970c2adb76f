"""
Closed-form enumerative quantities: counts of divisors with prescribed
vanishing in a linear series on a general curve, classical Pluecker numbers,
degrees of polarized Picard bundles, and the integer residue polynomials whose
distinct nonzero roots count the components appearing in certain boundary
degenerations.
"""

import math
from fractions import Fraction

from .core import PicError, _Frozen, _check_ints, _int_tuple


class ProfileTooLong(PicError):
    pass


class ArityMismatch(PicError):
    pass


class OutOfRange(PicError):
    pass


class ZeroPolynomial(PicError):
    pass


def de_jonquieres(g, ks, ordered=True):
    """Virtual count of divisors in the canonical series on a general genus-g
    curve with prescribed multiplicities k_1..k_rho at rho moving points.

    With ``ordered`` the zeros are labelled; otherwise the count is divided by
    the orderings of equal multiplicities.  ``ordered`` must be a bool, as
    any nonempty string, "false" too, is true.  Requires g - rho >= 1.  The
    empty profile gives 1.
    """
    _check_ints(OutOfRange, g=g)
    ks = _int_tuple(OutOfRange, "multiplicities", ks)
    if type(ordered) is not bool:
        raise OutOfRange("ordered must be a bool, got %r" % (ordered,))
    if not ordered:
        label = math.prod(math.factorial(ks.count(v)) for v in set(ks))
        return Fraction(de_jonquieres(g, ks), label)
    rho = len(ks)
    if g < 1:
        raise OutOfRange("genus must be positive")
    if any(k < 1 for k in ks):
        raise OutOfRange("multiplicities must be positive")
    if g - rho < 1:
        raise ProfileTooLong(
            "profile of length %d needs genus > %d" % (rho, rho)
        )
    prod = math.prod(ks)
    # elementary symmetric sums e_0..e_rho of ks, one multiplicity at a time;
    # dropping j of the rho points leaves the products summed in e_{rho-j}
    esym = [1] + [0] * rho
    for m, k in enumerate(ks, start=1):
        for t in range(m, 0, -1):
            esym[t] += k * esym[t - 1]
    inner = Fraction((-1) ** rho, g)
    for j in range(rho):
        inner += Fraction((-1) ** j * esym[rho - j], g - rho + j)
    # g! / (g - rho - 1)!, exactly
    return math.perm(g, rho + 1) * prod * inner


def plucker(r, d, g):
    """Number of ramification points, counted with weight, of a general
    degree-d dimension-r linear series on a genus-g curve."""
    _check_ints(OutOfRange, r=r, d=d, g=g)
    return (r + 1) * d + (r + 1) * r * (g - 1)


def picard_degree(ks, g):
    """Top self-intersection degree attached to a full-length multiplicity
    vector: g! times the product of the squared multiplicities."""
    _check_ints(OutOfRange, g=g)
    ks = _int_tuple(OutOfRange, "multiplicities", ks)
    if len(ks) != g:
        raise ArityMismatch(
            "expected %d multiplicities, got %d" % (g, len(ks))
        )
    return math.factorial(g) * math.prod(k * k for k in ks)


class IntPolynomial(_Frozen):
    """A univariate integer polynomial, coefficients in increasing degree,
    trailing zeros trimmed.  Immutable; equal and hashed by its coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(_int_tuple(OutOfRange, "coefficients", coeffs))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def _init_args(self):
        return (self.coeffs,), {}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "IntPolynomial(coeffs=%r)" % (self.coeffs,)

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    def __call__(self, x):
        if type(x) is not int and type(x) is not Fraction:
            raise OutOfRange("a polynomial is evaluated at an int or a Fraction, "
                             "got %r" % (x,))
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                mono = "t" if e == 1 else "t^%d" % e
                parts.append(mono if c == 1 else "%d*%s" % (c, mono))
        return " + ".join(parts).replace("+ -", "- ")


# The highest degree a residue polynomial may have: its coefficients are
# stored one per degree, and a larger j is refused before any is built.
_MAX_DEGREE = 1 << 22
# The most bits that the terms of a residue polynomial may hold in all, by an
# upper bound read from j, k and m before any is built: its band has at most
# min(j, m + 1) terms, and each is at most C(j + k - 2, j - 1) (Vandermonde),
# which is below both 2**(j + k - 2) and (j + k)**min(j, k).  A binomial near
# the centre costs about the square of its bits, so the budget is small: the
# dearest call it admits, two terms of 2**18 bits, takes seconds.
_MAX_BITS = 1 << 19


def residue_polynomial(j, k, m):
    """The degree-(j-1) integer polynomial
    sum_i C(j+k-m-2, i) C(m, j-i-1) t^i controlling which boundary
    configurations of a (j, k) collision carry an m-fold residue condition.

    Requires j, k >= 2 and 1 <= m <= j+k-3 so that both poles have order at
    least two and both zero orders are positive, j - 1 <= 2**22, and an
    upper bound on the bits of its terms of at most 2**19 (``_MAX_BITS``).
    The second factor is 0 below i = j-1-m, so only the band of at most
    m + 1 terms above it is computed.
    """
    _check_ints(OutOfRange, j=j, k=k, m=m)
    if j < 2 or k < 2:
        raise OutOfRange("need pole orders j, k >= 2, got j=%d k=%d" % (j, k))
    if not 1 <= m <= j + k - 3:
        raise OutOfRange("need 1 <= m <= j+k-3, got m=%d" % m)
    if j - 1 > _MAX_DEGREE:
        raise OutOfRange("a residue polynomial of degree past %d is refused, got j=%d"
                         % (_MAX_DEGREE, j))
    if min(j, m + 1) * min(j + k - 2, min(j, k) * (j + k).bit_length()) > _MAX_BITS:
        raise OutOfRange("a residue polynomial whose terms may pass %d bits is refused, "
                         "got j=%d k=%d m=%d" % (_MAX_BITS, j, k, m))
    low = max(0, j - 1 - m)
    return IntPolynomial([0] * low + [math.comb(j + k - m - 2, i) * math.comb(m, j - i - 1)
                                      for i in range(low, j)])


def _rem(a, b):
    """Remainder of a divided by b; Fraction coefficient lists in increasing
    degree, trimmed, with b nonzero."""
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for t, c in enumerate(b):
            a[shift + t] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def count_distinct_nonzero_roots(p):
    """Number of distinct nonzero complex roots of an integer polynomial,
    computed exactly via a square-free reduction: p = t^v q with q(0) != 0,
    and the square-free part of q has degree deg q - deg gcd(q, q')."""
    if not isinstance(p, IntPolynomial):
        raise OutOfRange("%r is not an IntPolynomial" % (p,))
    if p.is_zero():
        raise ZeroPolynomial("root count of the zero polynomial is undefined")
    v = next(e for e, c in enumerate(p.coeffs) if c)
    q = a = [Fraction(c) for c in p.coeffs[v:]]
    b = [e * c for e, c in enumerate(a)][1:]
    while b:  # Euclid: a ends as gcd(q, q')
        a, b = b, _rem(a, b)
    return len(q) - len(a)
