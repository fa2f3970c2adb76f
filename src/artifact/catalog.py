"""
The catalog of effective divisor classes: closures of Weierstrass-type,
ramification and differential-stratum loci, expressed in the standard
generators.  Every constructor assembles its boundary coefficients through a
regime audit: each canonical boundary generator must be matched by exactly one
formula regime, so a gap or an overlap in the piecewise formulas raises
immediately instead of silently producing a wrong class.

A coefficient of delta_{i:S} depends on the key only through a short view
(i, w) of one side of the degeneration: its genus i and w = view(S), such as
the weight sum d_S.  Both the regime predicates and the formulas read the
view and nothing else, so w is computed once per distinct S, and the audit
and the formula run once per distinct view, not once per key.  The other
side has genus g - i and weight sum sum(d) - d_S, so a formula stated for
the other side is evaluated there without building the complement of S.

Every constructor returns ``_class``, the one builder of a catalog class:
it takes the lambda, psi and delta_0 coefficients, the regimes and the view,
and the weights d when they colour the labels.  A class whose weights repeat
is then built in orbit form (``core``): its labels are coloured by weight,
every view is the same on the keys of an orbit of that colouring, and
``_assemble`` evaluates the representative of each orbit only.  No other
function here makes a colouring or stores a class.  The spin-refined
coefficients are 2**(g - 3) times products of numbers of about g bits,
written out as shifts and adds (``_spin``), so that a class costs about its
output length; as ``_class`` evaluates them before ``_assemble`` counts the
keys, the constructors with such coefficients refuse a class of too many
bits first, about g times the keys of its base (``_check_spin_size``).

Every class is assembled on the caller's label order; none is built in a
standard order and relabeled.  A class with one pole reads the view
(x_S, pole in S), where x is the weight sum (pinch partitions) or the label
count |S| (coupled classes with one double pole), and the pole's side
decides whether the side without the pole has genus i or g - i
(``_pole_free``).

Genera, orders and weights must be ints (a bool is refused): anything else
raises ParamOutOfRange.

Each public constructor is declared once, by ``_constructor(name)``, which
enters it in ``CONSTRUCTORS`` under that name with the parameter names of
its signature, keeps its classes in the one memo and runs each call as a
whole with the cyclic collector paused (core._nogc), not only its audit:
the class it returns, its psi list and its boundary dict are built without
a collection walking them part-way.

The public constructors share one memo, ``_built``, a ``functools.lru_cache``
that keeps the last 1024 classes: the registry suite rebuilds a few hundred
classes thousands of times.  It sits inside the pause, so its keys and
entries are allocated with the collector off.  A key is the constructor and
its arguments as one positional tuple, the defaults filled in and lists made
tuples, so ``logan_class(3, [1, 1, 1])`` and ``logan_class(3, (1, 1, 1))``
share one class.  Only exact ints, strs and tuples of exact ints enter a
key: 3.0, True and (1, 1.0) equal 3 and (1, 1) as dict keys, but the
constructor refuses them, so a call with any other argument runs the
constructor as is.  A refusal raises through the cache and is never kept,
so it raises again on every call.  Classes are immutable (``core._Frozen``),
so every caller can share one.
"""

from fractions import Fraction
import functools

from .core import (
    BaseMismatch,
    DivisorClass,
    ModuliBase,
    ParamOutOfRange,
    PicError,
    _check_class,
    _check_ints,
    _check_size,
    _colouring,
    _frac,
    _int_tuple,
    _nogc,
    _orbit_keys,
)


class GenusTooSmall(PicError):
    pass


class BadWeights(PicError):
    pass


class UnsupportedWeights(PicError):
    pass


class ParityUnavailable(PicError):
    pass


PARITIES = ("odd", "even", "total")


def _check_parity(parity):
    if parity not in PARITIES:
        raise ParamOutOfRange("parity must be one of %s" % (PARITIES,))


def _check_genus(g, least):
    _check_ints(ParamOutOfRange, g=g)
    if g < least:
        raise GenusTooSmall("needs genus >= %d" % least)


def _check_weights(g, d):
    """The weight vector d as a tuple, after checking that g and every weight
    are ints."""
    _check_ints(ParamOutOfRange, g=g)
    return _int_tuple(ParamOutOfRange, "weights", d)


def _by_parity(parity, f):
    """A coefficient of a spin-refined class from its formula f(e) in the
    sign e: -1 for odd and +1 for even theta characteristics.  The total
    class is the sum of the odd and even classes."""
    _check_parity(parity)
    if parity == "total":
        return f(-1) + f(1)
    return f(-1 if parity == "odd" else 1)


def _tri(u):
    # u(u+1)/2, the coefficient pattern C(u+1, 2); u(u+1) is always even
    return u * (u + 1) // 2


def _div(num, den):
    """num/den exactly: an int when den divides num, a Fraction otherwise."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _scaled(x, e):
    """x * 2**e exactly, by a shift: an int when it is integral, a Fraction
    otherwise."""
    return x << e if e >= 0 else _div(x, 1 << -e)


def _spin(g, i, s, e):
    """-(2**i + e)(2**(g - i) + s) for s and e in {-1, 0, 1}, multiplied
    out into shifts and adds: the spin-refined coefficients are 2**(g - 3)
    times such products, of numbers of about g bits, and a product of two of
    them would cost more than the coefficient's length."""
    return -(1 << g) - s * (1 << i) - e * (1 << (g - i)) - s * e


# the most bits a spin-refined class may hold, about g bits a key:
# theta_characteristic_locus(15000) holds about 2.25 * 10**8 and is admitted
_MAX_SPIN_BITS = 1 << 28


def _check_spin_size(base):
    """Refuse with ParamOutOfRange a spin-refined class on base of more
    than _MAX_SPIN_BITS: about g bits for each key of the base, as
    ``core._check_size`` counts them (and refuses too many).  A constructor
    calls it before it computes a coefficient."""
    if base.g * _check_size(base) > _MAX_SPIN_BITS:
        raise ParamOutOfRange("a spin-refined class of more than %d bits is refused"
                              % _MAX_SPIN_BITS)


@_nogc
def _assemble(base, regimes, view=len, colours=None):
    """Boundary dict from piecewise regimes [(predicate, formula)], enforcing
    that exactly one regime claims each canonical generator.  Predicates and
    formulas are called as f(i, w) on the view of a key (i, S), w = view(S),
    and read nothing else of the key.  So view runs once per distinct S, and
    the audit and the formula once per distinct view: a later key with the
    same view takes the same coefficient.  The first key in output order
    with a failing view is the first failing key, as in a per-key audit.

    The keys are the representatives of the orbits under colours, every key
    for the singleton colouring None (``core._orbit_keys``), and the dict
    holds one coefficient per orbit.  view must be the same on the keys of
    an orbit, as a weight sum is under the colouring by weight; then every
    key of an orbit has the view of its representative, which is the
    orbit's first key in output order, and the audit of the representatives
    is the audit of every key.

    The default view len suffices where a regime reads only |S|: every key
    of a pointed base holds label 1, and S is empty on an unpointed base."""
    # per_set maps S to view(S), and coef maps view(S) to the coefficient for
    # the current i: the keys come sorted by i.  A coefficient is never None;
    # a view that is None is only computed again.  Equal views share one
    # object (shared): a tuple view kept for every S would pass to the tuple
    # free list on return without lowering the collector's allocation count,
    # and so start a deferred collection in the caller.
    per_set = {}
    shared = {}
    bnd = {}
    coef_i = None
    for key in _orbit_keys(base, colours):
        i, S = key
        x = per_set.get(S)
        if x is None:
            x = view(S)
            x = per_set[S] = shared.setdefault(x, x)
        if i != coef_i:
            coef, coef_i = {}, i
        c = coef.get(x)
        if c is None:
            # a loop: before Python 3.12 a list comprehension is one more call
            claims = 0
            for p, f in regimes:
                if p(i, x):
                    claims += 1
                    formula = f
            if claims != 1:
                raise AssertionError("%d regimes claim %s on %s" % (claims, key, base))
            c = coef[x] = _frac(formula(i, x))
        if c:
            bnd[key] = c
    return bnd


def _class(base, lam, psi, delta0, regimes, view=len, d=None):
    """The class on base with these lambda, psi and delta_0 coefficients and
    the boundary that regimes assemble under view (``_assemble``), in orbit
    form under the colouring of the labels by the weights d when they are
    given: every view must then be the same on the sets of an orbit.  This
    is the one place in the catalog that colours labels or stores a
    class."""
    colours = None if d is None else _colouring(d)
    bnd = _assemble(base, regimes, view, colours)
    return DivisorClass._from_canonical(base, lam, psi, delta0, bnd, colours)


def _memo_key(names, defaults, tails, args, kw):
    """args and kw as one positional tuple of exact ints, strs and tuples of
    exact ints: the unset parameters take their defaults and lists become
    tuples.  None when an argument is anything else, or when args and kw do
    not fill the parameters names once each.  A call with no keyword takes
    its unset parameters from tails, the defaults after the first k
    parameters for each k they may be left from, so it makes no set and no
    generator."""
    if not kw:
        tail = tails.get(len(args))
        if tail is None:
            return None
        args += tail
    else:
        rest = names[len(args):]
        if len(args) > len(names) or not set(kw).issubset(rest):
            return None
        try:
            args += tuple(kw[w] if w in kw else defaults[w] for w in rest)
        except KeyError:
            return None
    key = []
    for x in args:
        t = type(x)
        if t is int or t is str:
            key.append(x)
        elif (t is tuple or t is list) and {int}.issuperset(map(type, x)):
            key.append(tuple(x))
        else:
            return None
    return tuple(key)


@functools.lru_cache(maxsize=1024)
def _built(fn, key):
    """fn(*key), kept: the one memo of the public constructors
    (``_constructor``).  The registry suite at genus 12 and up to 10 points
    builds 733 distinct classes, at most 231 of them with one constructor;
    the last 1024 are kept, and no more, as a caller may name any class."""
    return fn(*key)


CONSTRUCTORS = {}  # name -> (constructor, its parameter names), in definition order


def _constructor(name):
    """Declare fn as the public constructor ``name``: enter it in
    ``CONSTRUCTORS`` with the parameter names of its signature, keep its
    classes in ``_built`` under fn and the key that ``_memo_key`` makes of
    its arguments (a call that makes no key runs fn as is), and pause the
    collector for the whole call."""
    def declare(fn):
        code = fn.__code__
        names = code.co_varnames[:code.co_argcount]
        given = fn.__defaults__ or ()
        first = len(names) - len(given)
        defaults = dict(zip(names[first:], given))
        tails = {k: given[k - first:] for k in range(first, len(names) + 1)}

        @_nogc
        @functools.wraps(fn)
        def memo(*args, **kw):
            key = _memo_key(names, defaults, tails, args, kw)
            return fn(*args, **kw) if key is None else _built(fn, key)

        CONSTRUCTORS[name] = (memo, names)
        return memo

    return declare


def _dsum(d, S):
    return sum(d[s - 1] for s in S)


@_constructor("weierstrass")
def weierstrass(g):
    """Closure of the locus where the marked point is a Weierstrass point."""
    _check_genus(g, 2)
    return _class(ModuliBase(g, 1), -1, [_tri(g)], 0,
                  [(lambda i, s: True, lambda i, s: -_tri(g - i))])


@_constructor("residual")
def residual(g):
    """Closure of the locus of 1-pointed curves carrying a differential with
    a zero of maximal order away from the marked point."""
    _check_genus(g, 3)
    psi = _div(g * (g + 1) * (g - 2), 2)
    lam = _div(g * (3 * g**3 - 3 * g + 2), 2)
    delta0 = _div(g**2 - g**4, 6)

    def c(i, s):
        return _div(g * (i - g) * (g * g * i + g * i - g + i - 1), 2)

    return _class(ModuliBase(g, 1), lam, [psi], delta0, [(lambda i, s: True, c)])


@_constructor("diaz")
def diaz(g):
    """Closure of the locus of curves with an exceptional Weierstrass point,
    the pushforward to the unpointed space of the residual construction one
    genus up."""
    _check_genus(g, 3)
    G = g + 1
    lam = _div(G * (G + 1) * (3 * G * G - 3 * G + 2), 2)
    delta0 = -_div(G * G * (G - 1) * (G + 1), 6)

    def c(i, s):
        return -_div(G * i * (G - i - 1) * (G + 1) ** 2, 2)

    return _class(ModuliBase(g, 0), lam, [], delta0, [(lambda i, s: True, c)])


@_constructor("d1-holo")
def d1_holo(g, k):
    """Closure of the stratum of 1-pointed curves with a differential
    vanishing to order k at the marked point and to maximal order elsewhere."""
    _check_genus(g, 3)
    _check_ints(ParamOutOfRange, k=k)
    if not 0 <= k <= g - 1:
        raise ParamOutOfRange("needs 0 <= k <= g-1")
    psi = _div(
        (k + 1) * (g - k) * ((k + 1) * g * g - (k * k + k + 1) * g - 2), 2
    )
    lam = _div(
        (k + 1)
        * (4 - 2 * g + 10 * k - 2 * g * k + 11 * k * k + 3 * k**3),
        2,
    )
    delta0 = _div((k + 1) ** 2 - (k + 1) ** 4, 6)

    def low(i, s):
        return -_div(
            (k + 1)
            * (
                i * (g - i + 1) * (g - i) * (k + 1)
                + (g - i - k)
                * ((k + 1) * (g - i) ** 2 - (k * k + k + 1) * (g - i) - 2)
            ),
            2,
        )

    def high(i, s):
        return -_div(
            (g - i)
            * (k + 1)
            * (
                -3 * g + g * g + 4 * i - g * i + 3 * k - 4 * g * k
                + g * g * k + 5 * i * k - g * i * k + 3 * k * k
                - 2 * g * k * k + 2 * i * k * k + k**3
            ),
            2,
        )

    return _class(
        ModuliBase(g, 1), lam, [psi], delta0,
        [
            (lambda i, s: i <= g - k, low),
            (lambda i, s: i > g - k, high),
        ],
    )


@_constructor("d1-mero")
def d1_mero(g, h):
    """Closure of the stratum of 1-pointed curves with a differential having
    a pole of order h at the marked point and a zero of maximal order."""
    _check_genus(g, 2)
    _check_ints(ParamOutOfRange, h=h)
    if h < 2:
        raise ParamOutOfRange("needs pole order h >= 2")
    psi = _div(
        g * (g + h + 1) * (h - 1) * (h * h + g * h + g + 1), 2
    )
    lam = _div(
        (1 + g + h)
        * (
            2 - 3 * g * g + 3 * g**3 - 2 * h - 4 * g * h
            + 9 * g * g * h - h * h + 9 * g * h * h + 3 * h**3
        ),
        2,
    )
    delta0 = _div((g + h) ** 2 - (g + h) ** 4, 6)

    def c(i, s):
        return -_div(
            (g - i)
            * (g + h + 1)
            * (
                g * g * i + g * h * h + 3 * g * h * i - g
                + h**3 + 2 * h * h * i - h * h - h * i + h + i - 1
            ),
            2,
        )

    return _class(ModuliBase(g, 1), lam, [psi], delta0, [(lambda i, s: True, c)])


@_constructor("logan")
def logan_class(g, d):
    """Closure of the locus of pointed curves whose weighted marked points
    move in the canonical series: weights positive, summing to g."""
    d = _check_weights(g, d)
    if not d or any(x < 1 for x in d) or sum(x for x in d) != g:
        raise BadWeights("weights must be positive and sum to the genus")
    return _class(
        ModuliBase(g, len(d)), -1, [_tri(x) for x in d], 0,
        [(lambda i, ds: True, lambda i, ds: -_tri(abs(ds - i)))],
        lambda S: _dsum(d, S),
        d,
    )


@_constructor("theta-pullback")
def theta_pullback_class(g, d):
    """Pullback of the theta divisor along the weighted section of the
    universal Jacobian: weights nonzero, at least one negative, summing
    to g - 1."""
    d = _check_weights(g, d)
    if not d or any(x == 0 for x in d) or sum(d) != g - 1:
        raise BadWeights("weights must be nonzero and sum to g-1")
    if not any(x < 0 for x in d):
        raise BadWeights("at least one weight must be negative")
    P = frozenset(j + 1 for j, x in enumerate(d) if x < 0)

    def pole_free(i, ds):
        return -_tri(abs(ds - i))

    # the view of S is (d_S, the number of poles in S), the same on an orbit
    # of the colouring by weight
    return _class(
        ModuliBase(g, len(d)), -1, [_tri(x) for x in d], 0,
        [
            # all poles on the other side: evaluate here
            (lambda i, w: not w[1], lambda i, w: pole_free(i, w[0])),
            # all poles on this side: evaluate at the pole-free other side,
            # of genus g - i and weight sum g - 1 - d_S
            (lambda i, w: w[1] == len(P), lambda i, w: pole_free(g - i, g - 1 - w[0])),
            # poles on both sides; u(u+1)/2 is invariant under u -> -(u+1),
            # which is exactly what passing to the other side does here
            (lambda i, w: 0 < w[1] < len(P), lambda i, w: -_tri(w[0] - i)),
        ],
        lambda S: (_dsum(d, S), len(S & P)),
        d,
    )


@_constructor("theta-char")
def theta_characteristic_locus(g, parity="total"):
    """Divisor of 1-pointed curves with a theta characteristic vanishing at
    the marked point, split by the parity of the characteristic;
    ``parity="total"`` is the sum of the odd and even classes."""
    _check_genus(g, 2)
    base = ModuliBase(g, 1)
    _check_spin_size(base)
    lam = _scaled(_by_parity(parity, lambda e: (1 << g) + e), g - 3)
    psi = _scaled(_by_parity(parity, lambda e: (1 - e) * ((1 << g) + e)), g - 3)
    delta0 = _scaled(_by_parity(parity, lambda e: -1), 2 * g - 6)

    def c(i, s):
        return _scaled(_by_parity(parity, lambda e: _spin(g, i, -1, -e)), g - 3)

    return _class(base, lam, [psi], delta0, [(lambda i, s: True, c)])


@_constructor("antiram")
def anti_ramification(g):
    """Closure of the locus of (g-1)-pointed curves whose marked points
    support a differential with a double zero elsewhere; the weight-one
    member of the pinch family."""
    _check_genus(g, 3)
    _check_size(ModuliBase(g, g - 1))
    return pinch_partition(g, (1,) * (g - 1))


def _coupled_11(g):
    def both(i, s):
        return _scaled(_spin(g, i, -1, 0), g - 2)

    def first_only(i, s):
        return -_scaled(1, 2 * g - 4)

    return _class(
        ModuliBase(g, 2),
        _scaled(1, 2 * g - 2),
        [_scaled(1, 2 * g - 4)] * 2,
        -_scaled(1, 2 * g - 5),
        [
            (lambda i, s: s == 2, both),
            (lambda i, s: s == 1, first_only),
        ],
    )


def _pole_free(g, total, f):
    """f(j, x) at the side of a key (i, S) that misses the pole, from the
    view (x_S, pole in S) of S, where x is additive over the labels and sums
    to total on the whole base: S is that side when it misses the pole, of
    genus i and x_S, and otherwise the other side is, of genus g - i and
    total - x_S."""
    return lambda i, w: f(g - i, total - w[0]) if w[1] else f(i, w[0])


def _coupled_m2_1_1(g, d):
    # one double pole and two simple zeros, on the view (|S|, pole in S);
    # the pole-free side of a key holds k zeros
    pole = d.index(-2) + 1

    def all_three(i, w):
        return _scaled(_spin(g, i, -1, 0), g - 2)

    def pole_and_zero(i, w):
        return -_scaled(1, 2 * g - 4)

    def two_zeros(j, k):
        # j is the genus of the side holding the two zeros alone
        return _scaled(_spin(g, j, 1, 0), g - 2)

    return _class(
        ModuliBase(g, 3),
        _scaled(1, 2 * g - 2),
        [_scaled(1, 2 * g - 1) if x < 0 else _scaled(1, 2 * g - 4) for x in d],
        -_scaled(1, 2 * g - 5),
        [
            (lambda i, w: w[0] == 3, all_three),
            (_pole_free(g, 3, lambda j, k: k == 1), pole_and_zero),
            (_pole_free(g, 3, lambda j, k: k == 2), _pole_free(g, 3, two_zeros)),
        ],
        lambda S: (len(S), pole in S),
        d,
    )


def _coupled_m2_2(g, d, parity):
    # one double pole and one double zero, on the view (|S|, pole in S)
    lam = _scaled(_by_parity(parity, lambda e: (1 << g) + e), g - 3)
    zero = _scaled(_by_parity(parity, lambda e: (1 + e) * ((1 << g) + 1)), g - 3)
    delta0 = _scaled(_by_parity(parity, lambda e: -1), 2 * g - 6)
    pole = d.index(-2) + 1

    def both(i, w):
        return _scaled(_by_parity(parity, lambda e: _spin(g, i, -1, -e)), g - 3)

    def zero_only(j, k):
        # j is the genus of the side holding the zero alone
        return _scaled(_by_parity(parity, lambda e: _spin(g, j, 1, e)), g - 3)

    return _class(
        ModuliBase(g, 2), lam, [2 * lam if x < 0 else zero for x in d], delta0,
        [
            (lambda i, w: w[0] == 2, both),
            (lambda i, w: w[0] == 1, _pole_free(g, 2, zero_only)),
        ],
        lambda S: (len(S), pole in S),
    )


def _coupled_general(g, d, parity):
    n = len(d)
    lam = _by_parity(parity, lambda e: (1 << g) + e) << (g - 2)
    qpsi = _scaled(_by_parity(parity, lambda e: (1 << g) + e), g - 4)
    delta0 = _scaled(_by_parity(parity, lambda e: -1), 2 * g - 5)

    def side(i, e):
        # (2**i - 1)(2**(g - i) - e)
        return -_spin(g, i, -e, -1)

    def balanced(i, w):
        # a sum over the sides that miss a marked point; the other side
        # never holds label 1, so it always misses one
        return -(_by_parity(
            parity, lambda e: (side(i, e) if w[0] != n else 0) + side(g - i, e)) << (g - 2))

    # the view of S is (|S|, d_S)
    return _class(
        ModuliBase(g, n), lam, [qpsi * x * x for x in d], delta0,
        [
            (lambda i, w: w[1] == 0, balanced),
            (lambda i, w: w[1] != 0, lambda i, w: -qpsi * w[1] * w[1]),
        ],
        lambda S: (len(S), _dsum(d, S)),
        d,
    )


@_constructor("coupled")
def coupled_partition(g, d, parity="total"):
    """Divisor class of curves carrying a differential whose zeros and poles
    at the marked points are coupled through a spin structure; ``d`` is the
    weight vector at the marked points (nonzero, summing to zero, or the
    distinguished pair (1,1)).  ``parity="total"`` is the sum of the odd and
    even classes."""
    d = _check_weights(g, d)
    _check_parity(parity)
    if not d or any(x == 0 for x in d):
        raise UnsupportedWeights("weights must be nonzero")
    # every branch builds on (g, len(d)) and computes numbers of about g bits
    _check_genus(g, 2)
    _check_spin_size(ModuliBase(g, len(d)))
    if sorted(d) == [1, 1]:
        if parity != "total":
            raise ParityUnavailable("odd weights admit no spin refinement")
        return _coupled_11(g)
    if sum(d) != 0:
        raise UnsupportedWeights("weights must sum to zero")
    negs = sorted(-x for x in d if x < 0)
    if negs == [2]:
        # the other weights are positive and sum to 2: (2) or (1, 1)
        if sorted(d) == [-2, 2]:
            return _coupled_m2_2(g, d, parity)
        if parity != "total":
            raise ParityUnavailable("odd weights admit no spin refinement")
        return _coupled_m2_1_1(g, d)
    if parity != "total" and any(x % 2 for x in d):
        raise ParityUnavailable("spin refinement needs all weights even")
    return _coupled_general(g, d, parity)


def _pinch_holo(g, d):
    _check_genus(g, 3)
    lam = -4 * (g - 7)
    psi = [(2 * g * (x + 1) - 3 * x - 5) * x for x in d]

    def c(i, ds):
        return (
            (3 - 2 * g) * ds * ds
            + (4 * g * i + 2 * g - 10 * i + 1) * ds
            - 2 * g * i * i + 7 * i * i - 2 * g * i - i - 2
        )

    return _class(
        ModuliBase(g, len(d)), lam, psi, -2,
        [
            (lambda i, ds: ds <= i - 1, c),
            # evaluate at the other side, of weight sum g - 1 - d_S
            (lambda i, ds: ds >= i, lambda i, ds: c(g - i, g - 1 - ds)),
        ],
        lambda S: _dsum(d, S),
        d,
    )


def _pinch_mero(g, d, j):
    base = ModuliBase(g, len(d))
    h = -d[j - 1]
    if h == 2:
        lam = 27 - 4 * g
        psi = [
            4 * g
            if t == j
            else _div((4 * g * (d[t - 1] + 1) - 5 * d[t - 1] - 9) * d[t - 1], 2)
            for t in base.labels()
        ]

        def cA(i, ds):
            return _div(
                (5 - 4 * g) * ds * ds
                + (8 * g * i + 4 * g - 18 * i + 3) * ds
                - 4 * g * i * i - 4 * g * i + 13 * i * i - 3 * i - 4,
                2,
            )

        def cB(i, ds):
            return _div(
                (5 - 4 * g) * ds * ds
                + (8 * g * i - 4 * g - 18 * i + 9) * ds
                - 4 * g * i * i + 4 * g * i + 13 * i * i - 17 * i,
                2,
            )

    else:
        lam = 26 - 4 * g
        psi = [
            2 * d[t - 1] * ((g - 1) * d[t - 1] + g - 2)
            for t in base.labels()
        ]

        def cA(i, ds):
            return (
                (2 - 2 * g) * ds * ds
                + 2 * (2 * g * i + g - 4 * i + 1) * ds
                - 2 * (g * i * i + g * i - 3 * i * i + i + 1)
            )

        def cB(i, ds):
            return (
                (2 - 2 * g) * ds * ds
                + 2 * (2 * g * i - g - 4 * i + 2) * ds
                - 2 * (g * i * i - 3 * i * i - g * i + 4 * i)
            )

    # each formula reads the (genus, weight sum) of the side without the pole
    # j; the weights sum to g - 2
    return _class(
        base, lam, psi, -2,
        [
            (_pole_free(g, g - 2, lambda i, ds: ds <= i - 1), _pole_free(g, g - 2, cA)),
            (_pole_free(g, g - 2, lambda i, ds: ds >= i), _pole_free(g, g - 2, cB)),
        ],
        lambda S: (_dsum(d, S), j in S),
        d,
    )


@_constructor("pinch")
def pinch_partition(g, d):
    """Divisor class of pointed curves carrying a differential with the given
    weights at the marked points and one extra double zero; holomorphic
    weights sum to g-1, a single pole of order >= 2 drops the sum to g-2."""
    d = _check_weights(g, d)
    if not d:
        raise UnsupportedWeights("empty weight vector")
    if all(x >= 0 for x in d):
        if sum(d) != g - 1:
            raise BadWeights("holomorphic weights must sum to g-1")
        return _pinch_holo(g, d)
    poles = [t for t, x in enumerate(d, start=1) if x < 0]
    if len(poles) == 1 and d[poles[0] - 1] <= -2:
        if sum(d) != g - 2:
            raise BadWeights("weights with one pole must sum to g-2")
        return _pinch_mero(g, d, poles[0])
    raise UnsupportedWeights(
        "supported shapes: all weights >= 0, or exactly one pole of order >= 2"
    )


@_constructor("bn")
def brill_noether(g):
    """The pulled-back Brill-Noether divisor class on the 1-pointed space."""
    _check_genus(g, 3)
    return _class(ModuliBase(g, 1), g + 3, [0], -_div(g + 1, 6),
                  [(lambda i, s: True, lambda i, s: -i * (g - i))])


@_constructor("dinf")
def d_infinity(g, parity="total"):
    """The boundary-at-infinity class of the coupled family: the limit
    divisor supported where the two marked points collide;
    ``parity="total"`` is the sum of the odd and even classes."""
    _check_genus(g, 2)
    base = ModuliBase(g, 2)
    _check_spin_size(base)
    q = _scaled(_by_parity(parity, lambda e: (1 << g) + e), g - 4)
    return _class(base, 0, [q, q], 0, [(lambda i, s: True, lambda i, s: -q if s == 1 else 0)])


def bn_coefficient_check(a):
    """Whether a class on a 1-pointed base satisfies the linear coefficient
    identity characterizing rational combinations of the Brill-Noether and
    Weierstrass classes."""
    _check_class(a)
    if a.base.n != 1:
        raise BaseMismatch("check applies to classes on a 1-pointed base")
    g = a.base.g
    return 2 * a.psi[0] + 6 * (g + 3) * g * a.delta0 + g * (g + 1) * a.lam == 0

