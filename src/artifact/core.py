"""
Exact rational divisor classes on the moduli space of stable n-pointed genus-g
curves.

A divisor class is a finite Q-linear combination of the standard generators:
lambda, the cotangent classes psi_1..psi_n, the irreducible boundary class
delta_0, and the reducible boundary classes delta_{i:S} indexed by a genus
0 <= i <= g and a subset S of the marked points.  The pair (i, S) and its
mirror (g - i, S^c) name the same class; every class is stored under a single
canonical representative.  Every coefficient is exact and stored in one
canonical form: an int when it is integral and a Fraction otherwise, so that
integral arithmetic never builds a Fraction.  There is no floating point
anywhere in this package.
"""

from collections import namedtuple
from fractions import Fraction
import functools
import gc
import json


class PicError(Exception):
    pass


class InvalidBoundary(PicError):
    pass


class BaseMismatch(PicError):
    pass


class NotGenus2(PicError):
    pass


class UnknownCurve(PicError):
    pass


class ParamOutOfRange(PicError):
    pass


class MalformedJSON(PicError):
    pass


def _nogc(fn):
    """Run fn with the cyclic garbage collector paused.  The bulk builders make
    no reference cycles, so a collection during them walks the whole heap and
    frees nothing; reference counting still frees their garbage.  When the
    collector is already off (a nested call, or a caller that turned it off)
    fn runs as is, and the collector is turned back on only by the call that
    turned it off, also when fn raises."""

    @functools.wraps(fn)
    def wrapper(*args, **kw):
        if not gc.isenabled():
            return fn(*args, **kw)
        gc.disable()
        try:
            return fn(*args, **kw)
        finally:
            gc.enable()

    return wrapper


class ModuliBase(namedtuple("ModuliBase", "g n")):
    """The pair (g, n) naming a moduli space of stable pointed curves.

    A tuple, so that hashing and equality run in C: the hash is hash((g, n))
    and a base equals the plain pair (g, n)."""

    __slots__ = ()

    def __new__(cls, g, n):
        if type(g) is not int or type(n) is not int:
            raise ParamOutOfRange("g and n must be integers, got %r and %r" % (g, n))
        if g < 2:
            raise ParamOutOfRange("genus must be at least 2, got %r" % (g,))
        if n < 0:
            raise ParamOutOfRange("number of marked points must be nonnegative")
        return tuple.__new__(cls, (g, n))

    def labels(self):
        return range(1, self.n + 1)

    def __str__(self):
        return "(%d,%d)" % self


class BoundaryIndex(namedtuple("BoundaryIndex", "i S")):
    """Canonical index (i, S) of a reducible boundary class delta_{i:S}.

    A tuple, so that hashing and equality run in C: the hash is hash((i, S))
    and a key equals the plain pair (i, S).  Order is the output order of
    ``sort_key``, never the tuple order (which would compare S by subset)."""

    __slots__ = ()

    def sorted_S(self):
        return sorted(self.S)

    def __str__(self):
        if not self.S:
            return "delta_%d" % self.i
        return "delta_{%d:{%s}}" % (self.i, ",".join(map(str, self.sorted_S())))

    # lexicographic on (i, sorted members); used for deterministic output
    def sort_key(self):
        return (self.i, self.sorted_S())

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other):
        return self.sort_key() > other.sort_key()

    def __ge__(self, other):
        return self.sort_key() >= other.sort_key()


def _sorted_keys(keys):
    """Boundary keys in output order, the order of ``__lt__``; each sort key is
    computed once per sort instead of once per comparison."""
    return sorted(keys, key=BoundaryIndex.sort_key)


@functools.cache
def _label_set(base):
    return frozenset(base.labels())


def _key(i, S):
    """A BoundaryIndex made by tuple.__new__, without the Python-level __new__
    of the named tuple; the caller has checked (i, S)."""
    return tuple.__new__(BoundaryIndex, (i, S))


def try_canonical_index(base, i, S):
    """Canonical representative of (i, S), or None when the pair does not name
    a boundary class (genus out of range or an unstable side).  Used by formula
    code that treats such pairs as zero."""
    S = frozenset(S)
    g, n = base
    if i < 0 or i > g or not S <= _label_set(base):
        return None
    # a pair names a class when each side of the degeneration is stable
    if i == 0 and len(S) < 2 or i == g and len(S) > n - 2:
        return None
    return _stable_key(base, i, S)


def _stable_key(base, i, S):
    """Canonical key of a pair (i, S) that names a boundary class: S is a
    frozenset of labels of the base, 0 <= i <= g and both sides are stable.
    The caller has checked this; the pullbacks and ``relabel`` prove it for
    each image instead of testing it.  The key is the pair itself when it
    holds the first marked point (n >= 1) or has 2i <= g (n = 0), and its
    mirror (g - i, S^c) otherwise."""
    g, n = base
    if n:
        if 1 in S:
            return _key(i, S)
        return _key(g - i, _label_set(base) - S)
    if 2 * i <= g:
        return _key(i, S)
    return _key(g - i, S)


class _PerSet(dict):
    """f(S) for each label set S, computed on the first lookup and kept.  The
    keys of a class repeat each set S for many genera i, so a pullback or a
    relabeling maps each distinct S once rather than once per key."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __missing__(self, S):
        v = self[S] = self.f(S)
        return v


def _set_map(new):
    """S -> frozenset(new[s] for s in S) for a label map given as a list
    (new[0] unused), once per distinct S; S itself when new keeps every
    label."""
    if new == list(range(len(new))):
        return _PerSet(lambda S: S)
    return _PerSet(lambda S: frozenset(map(new.__getitem__, S)))


def canonical_index(base, i, S):
    """Canonical representative of the boundary class delta_{i:S}.

    The mirror pair (g - i, S^c) names the same class; the canonical
    representative contains the first marked point when n >= 1 and has
    i <= g/2 when n = 0.  Raises ParamOutOfRange for a base that is not a
    ModuliBase, and InvalidBoundary for a genus or a label that is not an int
    and for pairs that do not name a class.
    """
    _check_base(base)
    try:
        S = frozenset(S)
    except TypeError:
        raise InvalidBoundary("%r is not a set of marked points" % (S,)) from None
    if type(i) is not int or not {int}.issuperset(map(type, S)):
        raise InvalidBoundary(
            "boundary genus and labels must be integers, got %r and %r" % (i, set(S))
        )
    key = try_canonical_index(base, i, S)
    if key is None:
        raise InvalidBoundary(
            "delta_{%d:%s} is not a boundary class on %s" % (i, sorted(S), base)
        )
    return key


def mirror_index(base, key):
    """The non-canonical mirror representative of a canonical key."""
    return (base.g - key.i, _label_set(base) - key.S)


@functools.cache
def _boundary_keys(base):
    # The keys of a base depend only on (g, n), and a process meets few bases.
    # They are built in output order, without canonicalizing a raw pair.
    #
    # For n >= 1 the canonical keys are exactly the stable pairs (i, S) with
    # 1 in S, 0 <= i <= g; a pair is stable unless i = 0 and |S| < 2, or i = g
    # and |S| > n - 2.  try_canonical_index returns a stable pair with 1 in S
    # as it is, and maps a stable pair without 1 to its mirror (g - i, S^c),
    # which holds 1.  The mirror is stable too: i = 0 with |S| < 2 is the same
    # condition as g - i = g with |S^c| > n - 2, and i = g with |S| > n - 2 the
    # same as g - i = 0 with |S^c| < 2.  So every key has 1 in S, and every
    # stable pair with 1 in S is its own key.  Output order is (i, sorted(S)):
    # the subsets holding 1 are sorted once by their sorted members, and the
    # loop over i goes outside.
    #
    # For n = 0 the only subset is the empty one, (i, {}) is stable exactly
    # for 0 < i < g, and the key of i and g - i is the one with 2i <= g.
    g, n = base
    if not n:
        return tuple(_key(i, frozenset()) for i in range(1, g // 2 + 1))
    subsets = sorted(
        (
            frozenset([1] + [s for s in range(2, n + 1) if mask >> (s - 2) & 1])
            for mask in range(1 << (n - 1))
        ),
        key=sorted,
    )
    keys = []
    for i in range(g + 1):
        lo = 2 if i == 0 else 1
        hi = n - 2 if i == g else n
        keys += [_key(i, S) for S in subsets if lo <= len(S) <= hi]
    return tuple(keys)


def enumerate_boundary(base):
    """All canonical boundary keys of the base, sorted.

    The keys are computed once per base and cached; each call returns a fresh
    list, so a caller may change it without affecting later calls."""
    return list(_boundary_keys(base))


def _frac(x):
    """The canonical form of an exact number: an int (never a bool) when x is
    integral, a Fraction otherwise.  A float is refused: it is not exact, and
    one would mean that some formula divided two ints with ``/``.  Anything
    else that Fraction refuses raises ParamOutOfRange."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise ParamOutOfRange("coefficient %r is a float, not an exact number" % (x,))
    if not isinstance(x, Fraction):
        try:
            x = Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError):
            raise ParamOutOfRange("coefficient %r is not an exact number" % (x,)) from None
    return x.numerator if x.denominator == 1 else x


def _acc(acc, key, c):
    """Add c to acc[key] in a sparse coefficient dict, dropping a zero sum.
    A None key (an unstable pair) or a zero c contributes nothing.  c must be
    in the canonical form of ``_frac``: a new key stores it as given, and a
    sum is canonicalized, since two Fractions can add up to an integer."""
    if key is None or not c:
        return
    old = acc.get(key)
    if old is None:
        acc[key] = c
        return
    c2 = old + c
    if c2 == 0:
        del acc[key]
    else:
        acc[key] = _frac(c2)


class DivisorClass:
    """An exact rational divisor class on a fixed base (g, n).

    Instances are immutable; all arithmetic returns new objects.  Boundary
    coefficients are stored sparsely on canonical keys with zeros pruned.
    """

    __slots__ = ("base", "lam", "psi", "delta0", "boundary")

    def __init__(self, base, lam=0, psi=None, delta0=0, boundary=None):
        _check_base(base)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "lam", _frac(lam))
        if psi is None:
            psi = [0] * base.n
        try:
            psi = tuple(_frac(c) for c in psi)
        except TypeError:  # _frac raises none, so psi is not iterable
            raise ParamOutOfRange("psi coefficients %r are not a sequence" % (psi,)) from None
        if len(psi) != base.n:
            raise BaseMismatch(
                "expected %d psi coefficients, got %d" % (base.n, len(psi))
            )
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "delta0", _frac(delta0))
        acc = {}
        if boundary:
            try:
                items = iter(boundary.items() if isinstance(boundary, dict) else boundary)
            except TypeError:
                raise InvalidBoundary(
                    "boundary %r is not a collection of ((i, S), c) pairs" % (boundary,)
                ) from None
            for entry in items:
                try:
                    (i, S), c = entry
                except (TypeError, ValueError):
                    raise InvalidBoundary(
                        "boundary entry %r is not an ((i, S), c) pair" % (entry,)
                    ) from None
                c = _frac(c)
                if c:
                    _acc(acc, canonical_index(base, i, S), c)
        object.__setattr__(self, "boundary", acc)

    @classmethod
    def _from_canonical(cls, base, lam, psi, delta0, boundary):
        """Trusted constructor: ``boundary`` must already be a dict on canonical
        keys with nonzero coefficients, and is stored as given."""
        out = cls(base, lam, psi, delta0)
        object.__setattr__(out, "boundary", boundary)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("DivisorClass is immutable")

    def coeff(self, key):
        return self.boundary.get(key, 0)

    def delta(self, i, S):
        """Coefficient of delta_{i:S} (any representative)."""
        return self.coeff(canonical_index(self.base, i, S))

    def is_zero(self):
        return (
            self.lam == 0
            and all(c == 0 for c in self.psi)
            and self.delta0 == 0
            and not self.boundary
        )

    def _check(self, other):
        if not isinstance(other, DivisorClass):
            raise BaseMismatch("cannot combine DivisorClass with %r" % (other,))
        if self.base != other.base:
            raise BaseMismatch(
                "base mismatch: %s vs %s" % (self.base, other.base)
            )

    def __add__(self, other):
        self._check(other)
        acc = dict(self.boundary)
        for k, c in other.boundary.items():
            _acc(acc, k, c)
        return DivisorClass._from_canonical(
            self.base,
            self.lam + other.lam,
            [a + b for a, b in zip(self.psi, other.psi)],
            self.delta0 + other.delta0,
            acc,
        )

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __mul__(self, c):
        c = _frac(c)
        if c == 0:
            return DivisorClass(self.base)
        return DivisorClass._from_canonical(
            self.base,
            self.lam * c,
            [a * c for a in self.psi],
            self.delta0 * c,
            {k: _frac(v * c) for k, v in self.boundary.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DivisorClass) or self.base != other.base:
            return NotImplemented
        return equals(self, other)

    def __hash__(self):
        # hash the form that ``equals`` compares, so equal classes hash alike
        a = normalize_genus2(self) if self.base.g == 2 else self
        return hash((a.base, a.lam, a.psi, a.delta0, frozenset(a.boundary.items())))

    def __repr__(self):
        return "DivisorClass(%s, %s)" % (self.base, to_latex_expr(self))


def _check_ints(error, **params):
    """Raise error unless each value is an int.  A bool is an int, but never a
    genus, a count, a label or a weight."""
    for name, x in params.items():
        if type(x) is not int:
            raise error("%s must be an integer, got %r" % (name, x))


def _int_tuple(error, name, xs):
    """xs as a tuple, after checking that it is a sequence of ints."""
    try:
        xs = tuple(xs)
    except TypeError:
        raise error("%s %r are not a sequence" % (name, xs)) from None
    if not {int}.issuperset(map(type, xs)):
        raise error("%s must be integers, got %r" % (name, xs))
    return xs


def _check_class(a):
    """Raise BaseMismatch unless a is a DivisorClass."""
    if not isinstance(a, DivisorClass):
        raise BaseMismatch("expected a DivisorClass, got %r" % (a,))


def _check_base(base):
    """Raise ParamOutOfRange unless base is a ModuliBase."""
    if not isinstance(base, ModuliBase):
        raise ParamOutOfRange("%r is not a ModuliBase" % (base,))


def zero_class(base):
    return DivisorClass(base)


@_nogc
def relabel(a, perm):
    """Apply a marked-point relabeling to a class.

    ``perm`` maps each old label to its new label (a dict or sequence of the
    new labels in old-label order); must be a bijection of {1..n}.
    """
    _check_class(a)
    base = a.base
    if not isinstance(perm, dict):
        try:
            perm = dict(enumerate(perm, 1))
        except TypeError:
            raise ParamOutOfRange("relabeling %r is not a sequence or a dict" % (perm,)) from None
    labels = list(base.labels())
    # labels are ints, never a bool, as in ModuliBase; checked before indexing
    if not {int}.issuperset(map(type, [*perm, *perm.values()])) \
            or sorted(perm) != labels or sorted(perm.values()) != labels:
        raise ParamOutOfRange("relabeling must permute {1..%d}" % base.n)
    psi = [0] * base.n
    for j in base.labels():
        psi[perm[j] - 1] = a.psi[j - 1]
    # A permutation keeps i and |S|, so it maps a stable pair to a stable
    # pair, and it maps distinct classes to distinct classes: each image is
    # stored under its key, without a stability test or a sum.
    image = _set_map([0, *map(perm.__getitem__, labels)])
    bnd = {_stable_key(base, i, image[S]): c for (i, S), c in a.boundary.items()}
    return DivisorClass._from_canonical(base, a.lam, psi, a.delta0, bnd)


def normalize_genus2(a):
    """Eliminate lambda on a genus-2 base using the relation
    lambda = (1/10) delta_0 + (1/5) sum_{1 in S or S empty} delta_{1:S}."""
    if a.base.g != 2:
        raise NotGenus2("normalization applies only to genus 2, base is %s" % (a.base,))
    if a.lam == 0:
        return a
    # R = -lambda + delta_0/10 + (1/5) sum delta_{1:S} is zero on genus 2
    fifth = Fraction(1, 5)
    bnd = {key: fifth for key in _boundary_keys(a.base) if key.i == 1}
    R = DivisorClass._from_canonical(a.base, -1, None, Fraction(1, 10), bnd)
    return a + a.lam * R


def equals(a, b):
    """Exact equality of divisor classes.  On a genus-2 base both sides are
    normalized first, since lambda is not independent there."""
    if not isinstance(a, DivisorClass) or not isinstance(b, DivisorClass):
        raise BaseMismatch("equals expects two DivisorClass values")
    if a.base != b.base:
        raise BaseMismatch("base mismatch: %s vs %s" % (a.base, b.base))
    if a.base.g == 2:
        a = normalize_genus2(a)
        b = normalize_genus2(b)
    return (
        a.lam == b.lam
        and a.psi == b.psi
        and a.delta0 == b.delta0
        and a.boundary == b.boundary
    )


def diff_first(a, b):
    """First generator (in output order) where two classes differ, with both
    coefficients; None when the classes are equal.  Genus 2 normalizes first."""
    _check_class(a)
    a._check(b)
    if a.base.g == 2:
        a = normalize_genus2(a)
        b = normalize_genus2(b)
    if a.lam != b.lam:
        return ("lambda", a.lam, b.lam)
    for j in a.base.labels():
        if a.psi[j - 1] != b.psi[j - 1]:
            return ("psi_%d" % j, a.psi[j - 1], b.psi[j - 1])
    if a.delta0 != b.delta0:
        return ("delta_0", a.delta0, b.delta0)
    for key in _sorted_keys(a.boundary.keys() | b.boundary.keys()):
        if a.coeff(key) != b.coeff(key):
            return (str(key), a.coeff(key), b.coeff(key))
    return None


# ---------------------------------------------------------------------------
# one-dimensional test families and intersection pairing

class TestCurve:
    """A curve class in the moduli space, recorded through its intersection
    numbers with the divisor generators (a sparse pairing vector)."""

    def __init__(self, base, name, pairing):
        _check_base(base)
        self.base = base
        self.name = name
        vec = {}
        for k, c in (pairing.items() if isinstance(pairing, dict) else pairing):
            if isinstance(k, BoundaryIndex):
                k = canonical_index(base, k.i, k.S)
            elif isinstance(k, tuple) and k and k[0] == "psi":
                if not (len(k) == 2 and isinstance(k[1], int) and 1 <= k[1] <= base.n):
                    raise UnknownCurve("bad psi label %r on %s" % (k, base))
            elif k not in ("lambda", "delta0"):
                raise UnknownCurve("bad pairing key %r" % (k,))
            _acc(vec, k, _frac(c))
        self.pairing = vec

    def __repr__(self):
        return "TestCurve(%s, %s)" % (self.name, self.base)


def pair(curve, a):
    """Exact intersection number of a test curve with a divisor class."""
    if not isinstance(curve, TestCurve):
        raise UnknownCurve("%r is not a TestCurve" % (curve,))
    _check_class(a)
    if curve.base != a.base:
        raise BaseMismatch("base mismatch: %s vs %s" % (curve.base, a.base))
    total = 0
    for k, c in curve.pairing.items():
        if k == "lambda":
            total += c * a.lam
        elif k == "delta0":
            total += c * a.delta0
        elif isinstance(k, BoundaryIndex):
            total += c * a.coeff(k)
        else:
            total += c * a.psi[k[1] - 1]
    return _frac(total)


def builtin_test_curve(name, base, i=None, n=None):
    """Standard one-parameter families used by the verification suite.

    On (g, 1): "A" (moving point on a fixed curve), "B" (elliptic bridge
    sliding, needs 0 < i < g-1), "C" (genus-i tail through the point,
    1 <= i <= g-1), "D" (pencil attached at the point), "E" (elliptic tail
    pencil).  On (g, g): "Bin" (sliding node with n of the g points on one
    side, needs i and n).
    """
    _check_base(base)
    given = {"i": i, "n": n}
    _check_ints(ParamOutOfRange, **{k: v for k, v in given.items() if v is not None})
    g = base.g

    def key(ii, S):
        return canonical_index(base, ii, S)

    if name in ("A", "B", "C", "D", "E") and base.n != 1:
        raise UnknownCurve("curve %s lives on a 1-pointed base" % name)
    if name == "A":
        return TestCurve(base, "A", {("psi", 1): 2 * g - 2})
    if name == "B":
        if i is None or not 0 < i < g - 1:
            raise ParamOutOfRange("curve B needs 0 < i < g-1")
        return TestCurve(base, "B_%d" % i, {key(i, {1}): 2 - 2 * (g - i)})
    if name == "C":
        if i is None or not 1 <= i <= g - 1:
            raise ParamOutOfRange("curve C needs 1 <= i <= g-1")
        vec = {("psi", 1): 2 * i - 1}
        for kk, c in ((key(i, {1}), -1), (key(g - i, {1}), 1)):
            vec[kk] = vec.get(kk, 0) + c
        return TestCurve(base, "C_%d" % i, vec)
    if name == "D":
        return TestCurve(
            base, "D", {("psi", 1): 1, "delta0": 2 - 2 * g, key(g - 1, {1}): 1}
        )
    if name == "E":
        return TestCurve(base, "E", {"lambda": 1, "delta0": 12, key(g - 1, {1}): -1})
    if name == "Bin":
        if base.n != g:
            raise UnknownCurve("curve Bin lives on a g-pointed base")
        if i is None or n is None or not 1 <= i <= g - 1 or not i <= n <= g:
            raise ParamOutOfRange("curve Bin needs 1 <= i <= g-1 and i <= n <= g")
        # the attachment point moves on the side carrying the last g-n marked
        # points; colliding with each of them contributes one psi degree and
        # one extra boundary degree
        vec = {key(i, set(range(1, n + 1))): 2 - 2 * (g - i) - (g - n)}
        for extra in range(n + 1, g + 1):
            vec[("psi", extra)] = vec.get(("psi", extra), 0) + 1
            k2 = key(i, set(range(1, n + 1)) | {extra})
            vec[k2] = vec.get(k2, 0) + 1
        return TestCurve(base, "B_{%d,%d}" % (i, n), vec)
    raise UnknownCurve("unknown test curve %r" % (name,))


# ---------------------------------------------------------------------------
# serialization

@_nogc
def to_json_dict(a):
    _check_class(a)
    return {
        "g": a.base.g,
        "n": a.base.n,
        "lambda": str(a.lam),
        "psi": [str(c) for c in a.psi],
        "delta0": str(a.delta0),
        "boundary": [
            {"i": k.i, "S": k.sorted_S(), "c": str(a.boundary[k])}
            for k in _sorted_keys(a.boundary)
        ],
    }


def to_json(a):
    return json.dumps(to_json_dict(a), separators=(",", ":"), sort_keys=False)


def _json_coeff(x):
    # an int (not a bool) or a rational string; a JSON float is never exact
    if type(x) is int:
        return x
    if type(x) is str:
        try:
            # the common case, an ASCII integer, skips the Fraction regex;
            # int() and Fraction agree on it, and both refuse too many digits
            if x.isascii() and (x[1:] if x[:1] == "-" else x).isdigit():
                return int(x)
            return _frac(Fraction(x))
        except (ValueError, ZeroDivisionError):
            pass
    raise MalformedJSON("coefficient %r is not an integer or a rational string" % (x,))


def _json_fields(d, names):
    if type(d) is not dict:
        raise MalformedJSON("expected a JSON object, got %s" % type(d).__name__)
    try:
        return [d[k] for k in names]
    except KeyError as e:
        raise MalformedJSON("missing field %s" % e) from None


@_nogc
def from_json_dict(d):
    """Inverse of ``to_json_dict``.  g, n, i and the members of S must be
    integers and every coefficient an integer or a rational string; anything
    else raises MalformedJSON (or the PicError of the class it would name)."""
    g, n, lam, psi, delta0, boundary = _json_fields(
        d, ("g", "n", "lambda", "psi", "delta0", "boundary")
    )
    if type(g) is not int or type(n) is not int:
        raise MalformedJSON("g and n must be integers, got %r and %r" % (g, n))
    if type(psi) is not list or type(boundary) is not list:
        raise MalformedJSON("psi and boundary must be lists")
    bnd = []
    for e in boundary:
        i, S, c = _json_fields(e, ("i", "S", "c"))
        if type(i) is not int or type(S) is not list or not all(type(s) is int for s in S):
            raise MalformedJSON("bad boundary entry %r" % (e,))
        bnd.append(((i, frozenset(S)), _json_coeff(c)))
    return DivisorClass(
        ModuliBase(g, n),
        _json_coeff(lam),
        [_json_coeff(c) for c in psi],
        _json_coeff(delta0),
        bnd,
    )


@_nogc
def from_json(s):
    try:
        d = json.loads(s)
    except (ValueError, RecursionError) as e:
        raise MalformedJSON("not JSON: %s" % e) from None
    return from_json_dict(d)


def _rows(a):
    """(name, key, coefficient) per generator in output order; key is the
    BoundaryIndex of a boundary row and None otherwise."""
    _check_class(a)
    yield ("lambda", None, a.lam)
    for j in a.base.labels():
        yield ("psi_%d" % j, None, a.psi[j - 1])
    yield ("delta_0", None, a.delta0)
    for k in _sorted_keys(a.boundary):
        yield (str(k), k, a.boundary[k])


@_nogc
def to_csv(a):
    lines = ["generator,coefficient"]
    for name, _, c in _rows(a):
        lines.append('%s,%s' % (name, c))
    return "\n".join(lines) + "\n"


def _latex_frac(c):
    if c.denominator == 1:
        return str(c.numerator)
    s = "-" if c < 0 else ""
    return r"%s\tfrac{%d}{%d}" % (s, abs(c.numerator), c.denominator)


def _latex_gen(name, key):
    if key is not None:
        if not key.S:
            return r"\delta_{%d}" % key.i
        return r"\delta_{%d:\{%s\}}" % (key.i, ",".join(map(str, key.sorted_S())))
    if name == "lambda":
        return r"\lambda"
    if name == "delta_0":
        return r"\delta_{0}"
    return r"\psi_{%s}" % name[4:]


def to_latex_expr(a):
    """The class as a one-line LaTeX linear combination."""
    terms = []
    for name, key, c in _rows(a):
        if c == 0:
            continue
        sym = _latex_gen(name, key)
        mag = abs(c)
        body = sym if mag == 1 else _latex_frac(mag) + sym
        if not terms:
            terms.append(("-" if c < 0 else "") + body)
        else:
            terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    return " ".join(terms)


@_nogc
def to_latex(a):
    """The class as a LaTeX coefficient table, one row per generator."""
    lines = [r"\begin{tabular}{ll}", r"generator & coefficient \\"]
    for name, key, c in _rows(a):
        lines.append(r"$%s$ & $%s$ \\" % (_latex_gen(name, key), _latex_frac(c)))
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"
