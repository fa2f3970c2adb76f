"""
Exact rational divisor classes on the moduli space of stable n-pointed genus-g
curves.

A divisor class is a finite Q-linear combination of the standard generators:
lambda, the cotangent classes psi_1..psi_n, the irreducible boundary class
delta_0, and the reducible boundary classes delta_{i:S} indexed by a genus
0 <= i <= g and a subset S of the marked points.  The pair (i, S) and its
mirror (g - i, S^c) name the same class; every class is stored under a single
canonical representative.  One rule, ``_span``, decides which: it gives the
genera i for which (i, S) is its own canonical key, and ``_bounds`` writes
its thresholds once, by |S|.  Canonicalizing, reading JSON, relabeling and
the pullbacks derive their keys and stability tests from ``_span``.
``_own_sets`` is the one generator of the sets that are their own keys, size
by size, each with its span: ``_orbit_keys`` sorts its output into the keys
of a base, every key or one per orbit of a colouring, and the
identify-points pullback takes its delta_0 keys from it; ``_check_size``
counts the same sizes from ``_bounds``.  ``_orbit_keys`` is the one source of
the keys of a base, for enumerating and for the catalog; like every cache in
the package, it keeps a bounded number of entries.  ``_side`` is the one
mirror rule on top of ``_span``: it keys the pairs (i - h, S) for every i at
once, under S or its mirror, and ``try_canonical_index`` asks it about one
pair.
``_walk`` is the one loop that moves the keys of a class, asking its image
rule once per distinct set: ``relabel`` and every pullback are a walk.  Every
coefficient is exact and stored in one canonical form: an int when it is
integral and a Fraction otherwise, so that integral arithmetic never builds a
Fraction.  There is no floating point anywhere in this package.

A class is stored in orbit form: it keeps a colouring of its labels, with
label 1 always a colour of its own, and one coefficient per orbit of its keys
under the colour-preserving permutations, the keys (i, S) with one i and one
count of each colour in S.  The coefficient is stored at the orbit's
representative, which takes the first labels of each colour and is the
orbit's first key in output order.  A catalog class colours its labels by
weight.  A class given entry by entry (the constructor, a copy, which the
constructor rebuilds, or ``from_json``) is coloured by its psi when the sums
of its entries fill the orbits of that colouring, and otherwise has the
singleton colouring, None, where every key is its own orbit.  Builds,
``relabel`` and the pullbacks cost orbits, not keys: ``_walk`` runs over the
representatives, and keys each image by the representatives of the
colouring it carries along.  Only this
module makes, cuts and moves a colouring: the catalog names the weights it
colours by, which ``catalog._class`` hands to ``_colouring``, and a map
names its label rule and its image rule; ``_walk`` cuts the colouring of
the class by a value per label, moves it by the label rule and returns it
with the images.  ``_split`` is the one refinement, to a finer colouring:
every orbit of the finer colouring takes the coefficient of the orbit that
holds it, and ``_members`` gives the sets it splits into.  A sum,
``equals`` and ``diff_first`` refine both classes to the coarsest colouring
finer than both (``_meet``), and ``hash`` reads every key, so that it does
not depend on the colouring; ``delta``, ``pair`` and a lookup in
``boundary`` read one key at its representative (``_coeff``).  Full
expansion is the refinement to the singleton colouring (``_expand``), a
dict made for the one call that needs it: ``hash``, a copy, and a sum or
comparison with a class stored key by key; no class keeps it.
``boundary`` expands nothing: it is a view that reads the orbits
(``_KeyView``), where a lookup costs one orbit and iteration yields the keys
one at a time.  Nor do the serializers: ``_boundary_rows`` writes the rows
of every key from the orbits and a rank table that the class makes on its
first write and keeps (``_table``): the member sets of its orbits in output
order, the text of each and the orbit that owns it.  The rows of one genus
are one pass over the table, a row as the text of its label set between
the two ends its writer makes once per genus and coefficient; no row is
sorted.  Copies do not carry the table, and ``hash`` and ``equals`` never
read it.

Classes are compared in one place: ``diff_first`` finds the first generator
where two classes differ, and ``equals`` is ``diff_first(a, b) is None``.
Both, ``hash`` and ``is_zero`` read the one normal form ``_normal``, which
on a genus-2 base eliminates lambda (``normalize_genus2``); ``diff_first``
names the generators as the writers do (``_generators``).  ``_check_pair``
is the one test of when two classes may be combined, and ``_lift_psi`` the
one rule for where psi_k goes when the labels are moved.

Boundary coefficients enter a class through two doors: a catalog formula
(``catalog._assemble``), or entry by entry through ``_read_boundary``, the one
reader of (i, S, c) entries, which spans each distinct label set once and
visits each entry once.  The constructor hands it its ((i, S), c) pairs,
and ``from_json`` the entries of a parsed document, each with its error
class and its coefficient reader: ``_frac``, the one reader of a number,
or ``_json_coeff``, which is JSON's type gate in front of ``_frac``; a
string is read by the one parse, ``_from_text``, which only ``_frac``
calls.  The labels of a constructor's entry are checked every time; those
of every document once per distinct label list, when one proof per
document shows that none of its values equals an int without being one.
A pair that is not its own key is read after every entry is checked, so a
malformed entry anywhere is reported before a bad base or pair.  The
reader adds up the entries of each key in one representation, a dict per
label set, and both doors propose the colouring of their psi: the sums
decide once, at the end, whether the class is stored one coefficient per
orbit or key by key, so that both doors store a class by one rule.
``_items`` is the one reading of a raw collection of (key, c) entries,
which ``TestCurve`` shares for its pairing.  ``_check_size`` refuses a
base with more than 2**22 boundary keys before any key is built.  The text
serializers share ``_writer``, which refuses a coefficient past Python's
int-to-str digit limit with ParamOutOfRange.
"""

from collections import namedtuple
from collections.abc import ItemsView, Mapping
from fractions import Fraction
import functools
import gc
import json
from math import comb, prod
import operator
import re
import sys
from types import MappingProxyType


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


def _writer(fn):
    """A serializer: fn under ``_nogc``, refusing with ParamOutOfRange a
    coefficient longer than the digits Python writes as text, where str()
    raises ValueError.  The limit is left as it is, since it is process-wide."""

    @functools.wraps(fn)
    def wrapper(*args, **kw):
        try:
            return fn(*args, **kw)
        except ValueError:
            raise ParamOutOfRange("a coefficient has more than the %d digits Python "
                                  "writes as text" % sys.get_int_max_str_digits()) from None

    return _nogc(wrapper)


def _rebuild(cls, args, kwargs):
    """The constructor call that copy and pickle make for a ``_Frozen``."""
    return cls(*args, **kwargs)


class _Frozen:
    """Base of the package's value types: an instance cannot change after its
    constructor has checked it, since the checks hold only for the values they
    ran on.  Setting or deleting an attribute raises AttributeError, and copy,
    deepcopy and pickle rebuild the value through the class's constructor,
    from ``_init_args() -> (args, kwargs)``, so a copy passes the same checks
    as a new value.  A subclass stores its attributes with
    ``object.__setattr__`` in its constructor, and exposes a mapping as a
    read-only view."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __reduce__(self):
        return _rebuild, (type(self), *self._init_args())


# what a constructor reads as a mapping: a dict, or a value's read-only view
_MAPPINGS = (dict, MappingProxyType)


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
        head, tail = _delta_ends(self.S)
        return head % self.i + ",".join(map(str, self.sorted_S())) + tail

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


def _delta_ends(pointed, latex=False):
    r"""(head, tail): the name of a key (i, S) is head % i, the sorted labels of
    S joined by commas, and tail: delta_{i:{1,3}}, or delta_i for the empty
    S, the one set of the keys of an unpointed base; in LaTeX
    \delta_{i:\{1,3\}} and \delta_{i}.  pointed is true for a nonempty S."""
    if latex:
        return (r"\delta_{%d:\{", r"\}}") if pointed else (r"\delta_{%d}", "")
    return ("delta_{%d:{", "}}") if pointed else ("delta_%d", "")


@functools.lru_cache(maxsize=32)
def _label_set(n):
    """The labels 1..n as a frozenset, cached on n: an int hashes at once,
    where a base would hash as a tuple on every call.  The sets of the last
    32 n are kept, and no more, as a caller may name any n;
    ``run_suite(12, n_max=10)`` meets 10."""
    return frozenset(range(1, n + 1))


def _key(i, S):
    """A BoundaryIndex made by tuple.__new__, without the Python-level __new__
    of the named tuple; the caller has checked (i, S)."""
    return tuple.__new__(BoundaryIndex, (i, S))


# ---------------------------------------------------------------------------
# colourings of the labels: a class stores one coefficient per orbit
#
# A colouring of the labels 1..n is a tuple of blocks, each an ascending
# tuple of labels, ordered by their first labels, with label 1 a block of
# its own; None is the singleton colouring, where every label is a block.
# The colour-preserving permutations move a key (i, S) within its orbit, the
# keys with the same i and the same count of labels of each colour in S; as
# label 1 is its own colour, an orbit holds 1 in every set or in none, and
# all its keys have one span.  The representative of an orbit takes the
# first labels of each colour, and is the orbit's first key in output order:
# the k-th smallest label of any other set of the orbit is at least the k-th
# smallest of the representative.  Each function below that makes a
# colouring gives None for the singleton one, so that a class built key by
# key pays one test of None for its colouring.

def _singletons(n):
    """The blocks of the singleton colouring of the labels 1..n."""
    return tuple((k,) for k in range(1, n + 1))


def _coarse(blocks):
    """The colouring with these blocks, in order: None when each is one
    label."""
    blocks = tuple(sorted(blocks))
    return blocks if any(len(b) > 1 for b in blocks) else None


@functools.lru_cache(maxsize=256)
def _colouring(values):
    """The colouring of the labels 1..len(values) in which label k > 1 has the
    colour values[k - 1], and label 1 a colour of its own; values is a
    tuple, such as a weight vector.  The last colourings made are kept, and
    no more, as a caller may pass any number of weight vectors."""
    blocks = {}
    for k, v in enumerate(values[1:], 2):
        blocks.setdefault(v, []).append(k)
    return _coarse([(1,), *map(tuple, blocks.values())] if values else [])


def _meet(c1, c2):
    """The coarsest colouring finer than both: two labels share a colour when
    they share one in c1 and one in c2."""
    if c1 is None or c2 is None:
        return None
    if c1 == c2:
        return c1
    where = {x: k for k, b in enumerate(c2) for x in b}
    blocks = {}
    for k, b in enumerate(c1):
        for x in b:
            blocks.setdefault((k, where[x]), []).append(x)
    return _coarse(map(tuple, blocks.values()))


def _moved(colours, move, extra=()):
    """The colouring of the images of the blocks of colours under move, a
    label to its new label or to 0 when it is dropped, with each label of
    extra a colour of its own."""
    if colours is None:
        return None
    blocks = [tuple(sorted(filter(None, map(move, b)))) for b in colours]
    return _coarse([b for b in blocks if b] + [(x,) for x in extra])


def _rep(colours, S):
    """The representative of the orbit of the set S under colours."""
    if colours is None:
        return S
    return frozenset([x for b in colours for x in b[:len(S.intersection(b))]])


def _parts(blocks):
    """{k: the label tuples of size k made of the first few labels of each
    block}: one set per orbit of the k-sets of their labels under the
    colouring whose colours are the blocks, and every k-set when the blocks
    are single labels."""
    parts = {0: [()]}
    for b in blocks:
        grown = {}
        for k, ps in parts.items():
            for t in range(len(b) + 1):
                grown.setdefault(k + t, []).extend([p + b[:t] for p in ps])
        parts = grown
    return parts


def _bounds(g, n, s):
    """(lo, hi): on the base (g, n), the pair (i, S) is its own key exactly
    when lo <= i <= hi, for S a set of s labels holding 1 when n >= 1, and
    for the empty set (s = 0) when n = 0.  The span thresholds are written
    here and nowhere else; ``_span`` says where they come from."""
    if not n:
        return 1, g // 2
    return 0 if s >= 2 else 1, g if s <= n - 2 else g - 1


def _span(base, S):
    """(lo, hi): the pair (i, S) is its own canonical key, and names a class
    on base = (g, n), exactly when lo <= i <= hi.  Every other key rule is
    derived from this one.

    A pair names a class when both sides of the node are stable: the genus-i
    side carries S and the node, so i = 0 needs |S| >= 2; the genus-(g - i)
    side carries S^c and the node, so i = g needs |S| <= n - 2.  The mirror
    (g - i, S^c) names the same class, and it is stable exactly when (i, S)
    is: i = 0 with |S| < 2 is the same condition as g - i = g with
    |S^c| > n - 2.  Of the two, the key is the one holding label 1 when
    n >= 1, and the one with 2i <= g when n = 0, where S is empty and both
    sides are stable for 0 < i < g.  So for n >= 1 the span of a set of labels
    holding 1 is the stable range, and for n = 0 the span of the empty set is
    1..g // 2; ``_bounds`` gives both by |S|.  Any other S (one without 1, or
    with a label the base lacks) is never its own key, and its span is
    empty."""
    g, n = base
    if (not n or 1 in S) and S <= _label_set(n):
        return _bounds(g, n, len(S))
    return 1, 0


def _own_sets(base, colours=None, skip=1):
    """(S, lo, hi) for each set S of labels that is its own key on base for
    the genera lo <= i <= hi, as ``_span`` gives them, and the representative
    of its orbit under colours (``_parts``), by default the singleton
    colouring, under which every set is a representative, size by size.  On
    a pointed base each S holds 1 and its other labels come from the blocks
    of colours after the first skip: label 1's alone by default, and 1's
    and 2's for the identify-points keys, which miss 2.  On an unpointed
    base, which has no blocks, S is the empty set.  Every span is nonempty,
    as g >= 2.  This is the one generator of key sets."""
    g, n = base
    head = (1,) if n else ()
    parts = _parts((colours or _singletons(n))[skip:])
    for k in sorted(parts):
        lo, hi = _bounds(g, n, len(head) + k)
        for T in parts[k]:
            yield frozenset(head + T), lo, hi


def _side(base, S, h=0):
    """The keys of the pairs (i - h, S) on base for every i at once, as pieces
    (T, flip, c, lo, hi): for lo <= i <= hi the pair names the class keyed
    (c - i, T) when flip, and (i - c, T) otherwise.  This is the one mirror
    rule; it spans one set.  On a pointed base there is one piece: S when it
    holds 1, and its mirror (g + h - i, S^c) otherwise; a label foreign to the
    base stays in S^c, so that its range is empty.  On an unpointed base the
    one set with a span is the empty set, which is its own mirror, so there
    are two pieces, S and its mirror; they meet at i - h = g / 2."""
    g, n = base
    if n and 1 not in S:
        T = S ^ _label_set(n)
        lo, hi = _span(base, T)
        return ((T, True, g + h, g + h - hi, g + h - lo),)
    lo, hi = _span(base, S)
    own = (S, False, h, lo + h, hi + h)
    return (own,) if n else (own, (S, True, g + h, g + h - hi, g + h - lo))


def _walk(a, move, images, cut=None, extra=()):
    """(bnd, colours): the coefficient of each orbit (i, S) of a stored under
    the key of each of its images, and the colouring of the images.  The
    colouring of a is first cut by cut, a value per label, when it is given:
    the labels of one colour keep one colour only where their values agree.
    The cut colouring is then moved by move, a label to its image or to 0
    when it is dropped, with each label of extra a colour of its own
    (``_moved``); a caller cuts so that its image rule maps each orbit of the
    cut colouring onto an orbit of the moved one.  images(S) gives the
    ``_side`` pieces of the images, and is called once per distinct S, the
    first time S is met; each piece's set is then replaced by its
    representative under the moved colouring, as a mirror image of a
    representative is not a representative.  This is the one loop of relabel
    and the pullbacks over the orbits of a class, and the one place where a
    map cuts and carries a colouring.  Its callers show that images of
    distinct keys are distinct, so a key is stored without adding; two
    images of one key that name one class store the one coefficient twice.
    A key is made as ``_key`` makes it, without the call per key."""
    colours = a._colours
    if cut is not None:
        colours = _meet(colours, _colouring(cut))
    orbits, colours = _refined(a, colours), _moved(colours, move, extra)
    sides, bnd, new = {}, {}, tuple.__new__
    for (i, S), c in orbits.items():
        pieces = sides.get(S)
        if pieces is None:
            pieces = images(S)
            if colours is not None:
                pieces = tuple((_rep(colours, T), *p) for T, *p in pieces)
            sides[S] = pieces
        for T, flip, k, lo, hi in pieces:
            if lo <= i <= hi:
                bnd[new(BoundaryIndex, (k - i if flip else i - k, T))] = c
    return bnd, colours


def _members(a, colours):
    """{R: the representative sets of the orbits of colours inside the orbit
    of R} for the set R of each orbit of a; colours is a refinement of a's
    colouring, and for the singleton one, None, they are every set of R's
    orbit.  An orbit of a is a count of labels in S for each colour of a,
    and its parts are the ways to share each count among the colours of
    colours inside that colour (``_parts``); a colour that colours keeps
    whole keeps its labels.  This is the one refinement rule of sets; it
    makes each set once, whatever the number of genera of R."""
    coarse = a._colours or _singletons(a.base.n)
    owner = {x: k for k, b in enumerate(coarse) for x in b}
    within = [[] for _ in coarse]
    for b in colours or _singletons(a.base.n):
        within[owner[b[0]]].append(b)
    cut = [(b, _parts(w)) for b, w in zip(coarse, within) if len(w) > 1]
    if not cut:
        return {R: [R] for _, R in a._orbits}
    moved = frozenset([x for b, _ in cut for x in b])
    sets = {}
    for _, R in a._orbits:
        if R not in sets:
            Ss = [()]
            for b, parts in cut:
                t = len(R.intersection(b))
                if t:
                    Ss = [p + q for p in Ss for q in parts[t]]
            kept = R - moved
            sets[R] = [kept.union(p) for p in Ss]
    return sets


def _split(a, colours):
    """(key, c) for each orbit of colours, a refinement of a's colouring,
    keyed by its representative, one at a time: each orbit of a splits into
    the orbits of colours that it holds (``_members``), which take its
    coefficient.  With colours None these are every key of a and its
    coefficient, in the order of ``boundary``.  It reads only the orbits
    that a holds."""
    sets, new = _members(a, colours), tuple.__new__
    for (i, R), c in a._orbits.items():
        for S in sets[R]:
            yield new(BoundaryIndex, (i, S)), c


def _expand(a):
    """The coefficient of every key of a, as a new dict: its orbits split
    into single keys.  It is made for the call that needs a dict (``hash``,
    a copy, and a sum or comparison with a class stored key by key), and no
    class keeps it.  It does not pause the collector itself: its large
    callers, ``relabel`` and the pullbacks, run paused already."""
    return dict(_split(a, None))


def _refined(a, colours):
    """The orbits of a under colours, a refinement of a's colouring, as a
    dict; every key of a, for the singleton colouring."""
    if colours == a._colours:
        return a._orbits
    if colours is None:
        return _expand(a)
    return dict(_split(a, colours))


def _size(colours, S):
    """The number of keys in the orbit of (i, S) under colours, a colouring
    that is not None: the ways to choose, from each colour, as many labels
    as S holds."""
    return prod([comb(len(b), len(S.intersection(b))) for b in colours])


class _KeyView(Mapping):
    """The coefficient of every key of a class in orbit form, read from its
    orbits and keeping nothing; ``boundary`` shows it read-only.  A lookup
    costs one orbit: the key must be a pair (i, S) with a frozenset S that
    ``_span`` admits, and its coefficient is read by ``_coeff``, the lookup
    of ``delta`` and ``pair``, at the representative of S.  Iteration yields
    the keys one at a time, in the order of ``_split``, and the length is the
    sum of the orbit sizes.  What must see every key at once (a copy, ``|``,
    ``reversed`` and ``repr``) gets a dict made for that call."""

    __slots__ = ("_a",)

    def __init__(self, a):
        self._a = a

    def __getitem__(self, key):
        a = self._a
        if isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], frozenset):
            lo, hi = _span(a.base, key[1])
            c = _coeff(a, key) if lo <= hi else 0
            if c:
                return c
        hash(key)  # an unhashable key raises TypeError, as a dict does
        raise KeyError(key)

    def __iter__(self):
        for k, _ in _split(self._a, None):
            yield k

    def __len__(self):
        a = self._a
        return sum(_size(a._colours, R) for _, R in a._orbits)

    def items(self):
        return _KeyItems(self)

    def copy(self):
        return dict(self.items())

    def __reversed__(self):
        return reversed(self.copy())

    def __or__(self, other):
        return self.copy() | other

    def __ror__(self, other):
        return other | self.copy()

    def __repr__(self):
        return repr(self.copy())


class _KeyItems(ItemsView):
    """The (key, c) pairs of a ``_KeyView``, made one at a time by ``_split``."""

    def __iter__(self):
        return _split(self._mapping._a, None)


def _coeff(a, key):
    """The coefficient of a at the canonical key (i, S): the coefficient of
    the orbit of the key, stored at its representative."""
    return a._orbits.get((key[0], _rep(a._colours, key[1])), 0)


def _labels(i, S):
    """S as a frozenset, after checking that the pair (i, S) has the shape of
    a boundary key: a genus and labels that are ints (never a bool, as in
    ``_check_ints``).  Anything else raises InvalidBoundary."""
    try:
        S = frozenset(S)
    except TypeError:
        raise InvalidBoundary("%r is not a set of marked points" % (S,)) from None
    if type(i) is not int or not {int}.issuperset(map(type, S)):
        raise InvalidBoundary(
            "boundary genus and labels must be integers, got %r and %r" % (i, set(S))
        )
    return S


def try_canonical_index(base, i, S):
    """Canonical representative of (i, S), or None when the pair does not name
    a boundary class (genus out of range or an unstable side).  Used by formula
    code that treats such pairs as zero.  Raises ParamOutOfRange for a base
    that is not a ModuliBase, and InvalidBoundary for a genus or a label that
    is not an int, so None always answers a well-formed pair."""
    _check_base(base)
    S = _labels(i, S)
    for T, flip, c, lo, hi in _side(base, S):
        if lo <= i <= hi:
            return _key(c - i if flip else i - c, T)
    return None


def canonical_index(base, i, S):
    """Canonical representative of the boundary class delta_{i:S}.

    The mirror pair (g - i, S^c) names the same class; the canonical
    representative contains the first marked point when n >= 1 and has
    i <= g/2 when n = 0.  Raises as ``try_canonical_index``, and
    InvalidBoundary for a pair that does not name a class.
    """
    key = try_canonical_index(base, i, S)
    if key is None:
        raise InvalidBoundary(
            "delta_{%d:%s} is not a boundary class on %s" % (i, sorted(S), base)
        )
    return key


# The most boundary keys a base may have: g = n = 18 has 2 490 349 and is
# admitted, g = n = 19 has 5 242 860 and is refused.
_MAX_KEYS = 1 << 22


def _check_size(base):
    """The number of boundary keys of base, counted without building a key;
    ParamOutOfRange when it exceeds _MAX_KEYS.  The keys are counted by |S|
    from the spans of ``_bounds``, as ``_own_sets`` yields them: on a pointed
    base, C(n - 1, s - 1) sets of s labels hold 1, and on an unpointed base
    the one set is empty; each spans hi - lo + 1 genera.  The count stops
    once it is over the limit, so a huge base costs a few terms."""
    g, n = base
    p = min(n, 1)  # how many labels every own set holds: label 1, when n >= 1
    count = 0
    for s in range(p, n + 1):
        if count > _MAX_KEYS:
            break
        lo, hi = _bounds(g, n, s)
        count += comb(n - p, s - p) * (hi - lo + 1)
    if count > _MAX_KEYS:
        raise ParamOutOfRange("a base with more than %d boundary keys is refused" % _MAX_KEYS)
    return count


@functools.lru_cache(maxsize=128)
def _orbit_keys(base, colours):
    """The representative keys of the orbits under colours, every key for the
    singleton colouring None, in output order: the pairs (i, S) with i in the
    span of S, over the sets of ``_own_sets``.  They are built without
    canonicalizing a raw pair: the sets are sorted once by their members, and
    the loop over i goes outside.  This is the one source of the keys of a
    base.  Catalog builds repeat a few bases and colourings, so the keys of
    the last 128 pairs are kept, and no more, as a process may meet any
    number of colourings of one base; ``run_suite(12, n_max=10)`` meets 99.
    colours is passed by position, so that each pair has one entry.  No
    refinement reads these keys (``_split``)."""
    _check_size(base)
    sides = sorted((sorted(S), S, lo, hi) for S, lo, hi in _own_sets(base, colours))
    return tuple(_key(i, S) for i in range(base.g + 1)
                 for _, S, lo, hi in sides if lo <= i <= hi)


def enumerate_boundary(base):
    """All canonical boundary keys of the base, sorted, as a fresh list, so a
    caller may change it without affecting later calls."""
    _check_base(base)
    return list(_orbit_keys(base, None))


def _frac(x):
    """The canonical form of an exact number: an int (never a bool) when x is
    integral, a Fraction otherwise.  This is the one reader of a coefficient
    given from outside: to the constructor, a product or a test curve, and,
    behind JSON's type gate (``_json_coeff``), in a document; a string is
    read by ``_from_text``.  A float is refused: it is not exact, and one
    would mean that some formula divided two ints with ``/``.  A bool is
    refused as a float is: it is a truth value, not a number.  Anything
    else that Fraction refuses raises ParamOutOfRange."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        if isinstance(x, (float, bool)):
            raise ParamOutOfRange("coefficient %r is a %s, not an exact number"
                                  % (x, type(x).__name__))
        try:
            x = _from_text(x) if type(x) is str else Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError):
            raise ParamOutOfRange("coefficient %s is not an exact number" % _shown(x)) from None
    return x.numerator if x.denominator == 1 else x


def _shown(x):
    """x as an error message quotes it: its repr, or, when its text (its
    repr, unless x is a str) is longer than 40 characters, the first 40 and
    the length, so that a refused value of any size makes a short message."""
    text = x if type(x) is str else repr(x)
    if len(text) <= 40:
        return repr(x)
    return "%r... (%d characters)" % (text[:40], len(text))


def _from_text(s):
    """The Fraction that the text s names, read as Fraction reads it; text
    that Fraction refuses raises ValueError.  This is the one parse of a
    coefficient string, and ``_frac`` its one caller, for the constructor
    and for a JSON document alike.  A value with more digits than Python
    writes as text (``sys.get_int_max_str_digits()``, where 0 sets no
    limit), which the writers would refuse, raises ParamOutOfRange.  Text
    with a run of more digits than the limit, which Fraction would refuse
    as no number, and text whose exponent alone reaches it are refused
    before they are read, the latter before its power of ten is computed,
    as Fraction would compute it at any size; any other s once it is
    read."""
    limit = sys.get_int_max_str_digits()
    _, e, power = s.lower().rpartition("e")
    # int() refuses a run of digits past the limit inside Fraction
    longest = max(map(len, re.findall(r"\d+", s.replace("_", ""))), default=0)
    try:
        too_long = limit and (longest > limit or e and abs(int(power)) >= limit)
    except ValueError:  # no exponent that Fraction reads, so it refuses s
        too_long = False
    if not too_long:
        x = Fraction(s)
        try:
            str(x)  # what the writers write, which raises ValueError past the limit
            return x
        except ValueError:
            pass
    raise ParamOutOfRange("coefficient %s has more than the %d digits Python writes as text"
                          % (_shown(s), limit))


def _acc(acc, key, c):
    """Add c to acc[key] in a sparse coefficient dict, dropping a zero sum.
    A zero c contributes nothing.  c must be in the canonical form of
    ``_frac``: a new key stores it as given, and a sum is canonicalized,
    since two Fractions can add up to an integer."""
    if not c:
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


def _items(entries, error, what):
    """An iterator over the (key, c) pairs of entries, a mapping or a
    collection of pairs; entries that are not a collection raise error,
    naming them as what."""
    try:
        return iter(entries.items() if isinstance(entries, _MAPPINGS) else entries)
    except TypeError:
        raise error("%s %r is not a collection of (key, c) pairs" % (what, entries)) from None


def _pairs(entries):
    """(i, S, c) for each ((i, S), c) entry of a mapping or a collection of
    pairs, the boundary that the constructor is given; anything else raises
    InvalidBoundary."""
    for entry in _items(entries, InvalidBoundary, "boundary"):
        try:
            (i, S), c = entry
        except (TypeError, ValueError):
            raise InvalidBoundary("boundary entry %r is not a (key, c) pair" % (entry,)) from None
        yield i, S, c


def _psi(base, psi):
    """The psi coefficients of a class on base, one per marked point, as a
    tuple in the form of ``_frac``; all 0 when psi is None."""
    if psi is None:
        return (0,) * base.n
    try:
        psi = tuple(_frac(c) for c in psi)
    except TypeError:  # _frac raises none, so psi is not iterable
        raise ParamOutOfRange("psi coefficients %r are not a sequence" % (psi,)) from None
    if len(psi) != base.n:
        raise BaseMismatch("expected %d psi coefficients, got %d" % (base.n, len(psi)))
    return psi


def _read_boundary(base, entries, coeff, error, held=None, colours=None, fields=None,
                   proved=False):
    """(bnd, colours): the sparse coefficient dict on base of entries, each
    of a genus i, a collection of labels S and a coefficient c, and its
    colouring.  The constructor's entries are (i, S, c) triples.  The
    entries of ``from_json`` are the objects of its boundary list, and
    fields (``_ENTRY``) reads (i, S, c) out of each; one that is not an
    object, lacks a field or has an S that is not a list raises
    MalformedJSON.  Repeated keys add up, a zero sum drops out, and an entry
    must name a class even when its coefficient is 0.  This is the one
    reader of entries, of the constructor and of ``from_json``.  coeff reads
    a coefficient into the form of ``_frac``, once per distinct string, and
    error is raised for an entry whose genus is not an int or whose labels
    are not a collection of ints: never a bool or a float, which equal an
    int as dict keys.  So the genus of every entry is checked, and so are
    the labels, unless proved says that no label of the entries can be a
    bool or a float, as ``from_json`` proves once per document.  A label
    tuple that equals one already checked then has the same types, and the
    labels are checked once per distinct tuple, when it is first met.

    Every entry is checked and read in one loop.  Each distinct label
    collection is made a frozenset and spanned once, the first time it is
    met; a pair whose genus lies in the span is its own key, and its
    coefficient is added (``_acc``) to those of its set, kept by genus in
    an int-keyed dict, so no key is made in the loop.  Any other pair (a
    mirror form, or a pair that names no class) is read after the loop by
    ``canonical_index``, which keys it or raises InvalidBoundary, and is
    added to the same dicts.  held is an error that the caller met before
    reading, as ``from_json`` does for a bad base or psi: base is then None,
    no set is spanned, and held is raised after the loop.  So an error of an
    entry anywhere comes before one of the caller's, and both before a pair
    that names no class.

    colours is the colouring that the caller proposes, that of its psi
    (``_colouring``).  The sets that hold a key are grouped by orbit, which
    a set's count of labels of each colour names, at a cost per label.  The
    keys fill their orbits, with one coefficient on each, exactly when every
    group holds all the sets of its orbit, the product of C(|b|, k) over the
    colours b with k of their labels in a set, and every set of a group has
    the same genera and coefficients.  bnd then holds one coefficient per
    orbit, at its representative (``_rep``), under colours; otherwise it
    holds every key, under the singleton colouring None."""
    sides, coeffs, later, ints, new = {}, {}, [], {int}, tuple.__new__
    own = {}  # T -> {i: c}, the coefficients of the own keys of each set T
    for e in entries:
        if fields is None:
            i, S, c = e
        else:
            try:
                i, S, c = fields(e)
            except (TypeError, KeyError):  # not an object, or a field missing
                i, S, c = _json_fields(e, fields)
            if type(S) is not list:
                raise MalformedJSON("bad boundary entry %r: S is not a list" % (e,))
        try:
            t = tuple(S)
            side = sides.get(t)
            ok = type(i) is int and (proved and side is not None
                                     or ints.issuperset(map(type, t)))
        except TypeError:  # S is not a collection, or holds a list or an object
            ok = False
        if not ok:
            raise error("bad boundary entry %r: the genus and labels must be integers"
                        % ((i, S, c),))
        if side is None:
            T = frozenset(t)
            lo, hi = _span(base, T) if base else (1, 0)
            side = sides[t] = (T, lo, hi, own.setdefault(T, {}) if lo <= hi else None)
        T, lo, hi, read = side
        if type(c) is str:
            v = coeffs.get(c)
            if v is None:
                v = coeffs[c] = coeff(c)
        else:
            v = coeff(c)
        if lo <= i <= hi:
            # a first nonzero entry of its key is stored as read: a call of
            # _acc per entry costs a tenth of the reader on a large document
            if v and i not in read:
                read[i] = v
            else:
                _acc(read, i, v)
        else:
            later.append((i, T, v))
    if held is not None:
        raise held
    for i, S, v in later:
        i, T = canonical_index(base, i, S)
        _acc(own.setdefault(T, {}), i, v)
    if colours is not None:
        # a set's orbit is named by the colours of its labels, sorted
        where, orbits = {x: k for k, b in enumerate(colours) for x in b}, {}
        for T, read in own.items():
            if read:
                orbits.setdefault(tuple(sorted(map(where.__getitem__, T))), []).append((T, read))
        if all(len(sets) == _size(colours, sets[0][0])
               and all(read == sets[0][1] for _, read in sets)
               for sets in orbits.values()):
            firsts = [sets[0] for sets in orbits.values()]
            return {new(BoundaryIndex, (i, _rep(colours, T))): c
                    for T, read in firsts for i, c in read.items()}, colours
    return {new(BoundaryIndex, (i, T)): c
            for T, read in own.items() for i, c in read.items()}, None


class DivisorClass(_Frozen):
    """An exact rational divisor class on a fixed base (g, n).

    Instances are immutable; all arithmetic returns new objects.  Boundary
    coefficients are stored sparsely with zeros pruned, one per orbit of the
    keys under a colouring of the labels (``_colours``), at the orbit's
    representative key (``_orbits``): the class has the same coefficient on
    every key of an orbit, and its psi coefficients are constant on each
    colour.  The constructor reads its boundary entries by the rule of
    ``from_json`` (``_read_boundary``): they are stored in the orbit form of
    the colouring of psi when their sums fill its orbits, and otherwise key
    by key, under the singleton colouring None, where every key is its own
    orbit.  A copy or a pickle, which the constructor rebuilds from the
    expansion (``_expand``), is read by the same rule.  ``boundary`` is a
    read-only view of the coefficient of every key, read from the orbits
    (``_KeyView``): a lookup costs one orbit, iteration yields the keys one
    at a time, and the class keeps no key.  ``hash``, a copy, and a sum or
    comparison with a class stored key by key expand the class for that call
    and keep nothing.  The first write keeps the rank table of the rows
    (``_table``, made by ``_boundary_rows``), so a later write in any format
    costs only its rows.  It is not an argument of the constructor, so a
    copy or a pickle does not carry it.
    """

    __slots__ = ("base", "lam", "psi", "delta0", "_orbits", "_colours", "_table")

    def __init__(self, base, lam=0, psi=None, delta0=0, boundary=None):
        _check_base(base)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "lam", _frac(lam))
        object.__setattr__(self, "psi", _psi(base, psi))
        object.__setattr__(self, "delta0", _frac(delta0))
        orbits, colours = _read_boundary(
            base, _pairs(boundary), _frac, InvalidBoundary,
            colours=_colouring(self.psi)) if boundary else ({}, None)
        object.__setattr__(self, "_orbits", orbits)
        object.__setattr__(self, "_colours", colours)

    @classmethod
    def _from_canonical(cls, base, lam, psi, delta0, boundary, colours=None):
        """Trusted constructor: ``boundary`` must already be a dict from the
        representative keys of the orbits under colours (by default every
        key) to nonzero coefficients, constant on each orbit as psi is on
        each colour, and is stored as given."""
        out = cls(base, lam, psi, delta0)
        object.__setattr__(out, "_orbits", boundary)
        if colours is not None:
            object.__setattr__(out, "_colours", colours)
        return out

    def _init_args(self):
        return (self.base, self.lam, self.psi, self.delta0, _refined(self, None)), {}

    @property
    def boundary(self):
        """The coefficient of every key, read-only: a view of the orbits
        themselves under the singleton colouring, and otherwise of a
        ``_KeyView``, which reads them and keeps nothing."""
        return MappingProxyType(self._orbits if self._colours is None else _KeyView(self))

    def coeff(self, key):
        """Coefficient of the boundary class keyed by the pair key = (i, S),
        in either mirror form, as ``delta(i, S)`` gives it; anything that is
        not such a pair raises InvalidBoundary."""
        try:
            i, S = key
        except (TypeError, ValueError):
            raise InvalidBoundary("%r is not a boundary key (i, S)" % (key,)) from None
        return self.delta(i, S)

    def delta(self, i, S):
        """Coefficient of delta_{i:S} (any representative)."""
        return _coeff(self, canonical_index(self.base, i, S))

    def is_zero(self):
        """Whether the class is 0, as ``equals`` answers it: read from the
        normal form (``_normal``), so that on a genus-2 base a class that is
        0 by the relation of ``normalize_genus2`` is zero.  Zeros are pruned,
        so the boundary is 0 exactly when it holds no orbit."""
        a = _normal(self)
        return not (a.lam or any(a.psi) or a.delta0 or a._orbits)

    def __add__(self, other):
        _check_pair(self, other)
        colours = _meet(self._colours, other._colours)
        acc = dict(_refined(self, colours))
        for k, c in _refined(other, colours).items():
            _acc(acc, k, c)
        return DivisorClass._from_canonical(
            self.base,
            self.lam + other.lam,
            [a + b for a, b in zip(self.psi, other.psi)],
            self.delta0 + other.delta0,
            acc,
            colours,
        )

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        _check_pair(self, other)
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
            {k: _frac(v * c) for k, v in self._orbits.items()},
            self._colours,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DivisorClass) or self.base != other.base:
            return NotImplemented
        return equals(self, other)

    def __hash__(self):
        # hash the form that ``equals`` compares, so equal classes hash alike,
        # on every key, so that the hash does not depend on the colouring
        a = _normal(self)
        return hash((a.base, a.lam, a.psi, a.delta0, frozenset(_refined(a, None).items())))

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


def _check_pair(a, b):
    """Raise BaseMismatch unless a and b are classes on one base, the
    condition for combining or comparing them."""
    _check_class(a)
    _check_class(b)
    if a.base != b.base:
        raise BaseMismatch("base mismatch: %s vs %s" % (a.base, b.base))


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
    # A permutation keeps i and |S|, so it maps a key to a stable pair, and
    # distinct classes to distinct classes.  It maps the orbits of a
    # colouring onto those of the moved colouring, once the label it takes
    # to 1 has a colour of its own.
    bnd, colours = _walk(a, perm.__getitem__,
                         lambda S: _side(base, frozenset(map(perm.__getitem__, S))),
                         tuple(perm[k] == 1 for k in labels))
    return DivisorClass._from_canonical(base, a.lam, _lift_psi(base, a, perm), a.delta0, bnd,
                                        colours)


def _lift_psi(base, a, lift):
    """The psi coefficients on base of a class whose psi_k goes to
    psi_{lift[k]}, for each label k of a's base; lift is one-to-one, and a
    label of base that no k reaches gets 0."""
    psi = [0] * base.n
    for k, c in enumerate(a.psi, 1):
        psi[lift[k] - 1] = c
    return psi


def normalize_genus2(a):
    """Eliminate lambda on a genus-2 base using the relation
    lambda = (1/10) delta_0 + (1/5) sum_{1 in S or S empty} delta_{1:S}."""
    _check_class(a)
    if a.base.g != 2:
        raise NotGenus2("normalization applies only to genus 2, base is %s" % (a.base,))
    if a.lam == 0:
        return a
    # R = -lambda + delta_0/10 + (1/5) sum delta_{1:S} is zero on genus 2
    # R is symmetric in the labels other than 1, so it is built on one key per
    # orbit of the coarsest colouring
    fifth = Fraction(1, 5)
    colours = _colouring((0,) * a.base.n)
    bnd = {key: fifth for key in _orbit_keys(a.base, colours) if key.i == 1}
    R = DivisorClass._from_canonical(a.base, -1, None, Fraction(1, 10), bnd, colours)
    return a + a.lam * R


def _normal(a):
    """The form of a that equality and hash compare: on a genus-2 base, where
    lambda is not independent, a with lambda eliminated; a itself otherwise."""
    return normalize_genus2(a) if a.base.g == 2 else a


def equals(a, b):
    """Exact equality of divisor classes: ``diff_first`` finds no generator
    where they differ."""
    return diff_first(a, b) is None


def diff_first(a, b):
    """First generator (in output order) where two classes differ, with both
    coefficients, in their normal forms (``_normal``); None when the classes
    are equal."""
    _check_pair(a, b)
    a, b = _normal(a), _normal(b)
    x, y = (a.lam, *a.psi, a.delta0), (b.lam, *b.psi, b.delta0)
    if x != y:
        return next((name, u, v) for (name, _, u), v in zip(_generators(a), y) if u != v)
    # Under one colouring, and zeros pruned, equal dicts are exactly equal
    # coefficients, and unequal ones differ on some orbit, that is on all its
    # keys.  So the classes are compared on their common refinement, and the
    # first key where they differ is the representative of a differing orbit.
    colours = _meet(a._colours, b._colours)
    x, y = _refined(a, colours), _refined(b, colours)
    if x == y:
        return None
    # a key whose coefficients differ is in the entries (k, c) of just one
    diff = {k for k, _ in x.items() ^ y.items()}
    key = min(diff, key=BoundaryIndex.sort_key)
    return (str(key), x.get(key, 0), y.get(key, 0))


# ---------------------------------------------------------------------------
# one-dimensional test families and intersection pairing

class TestCurve(_Frozen):
    """A curve class in the moduli space, recorded through its intersection
    numbers with the divisor generators (a sparse pairing vector).  Immutable;
    ``pairing`` is a read-only view of the vector."""

    __slots__ = ("base", "name", "_pairing")

    def __init__(self, base, name, pairing):
        _check_base(base)
        vec = {}
        for entry in _items(pairing, UnknownCurve, "pairing"):
            try:
                k, c = entry
                k = _pairing_key(base, k)
            except (TypeError, ValueError):
                raise UnknownCurve("pairing entry %r is not a (key, c) pair" % (entry,)) from None
            _acc(vec, k, _frac(c))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_pairing", vec)

    def _init_args(self):
        return (self.base, self.name, self._pairing), {}

    @property
    def pairing(self):
        return MappingProxyType(self._pairing)

    def __repr__(self):
        return "TestCurve(%s, %s)" % (self.name, self.base)


def _pairing_key(base, k):
    """The stored form of a pairing key on base: a boundary index in
    canonical form, ("psi", label), "lambda" or "delta0"."""
    if isinstance(k, BoundaryIndex):
        return canonical_index(base, k.i, k.S)
    if isinstance(k, tuple) and k and k[0] == "psi":
        # a label is an int, never a bool, as in _check_ints
        if not (len(k) == 2 and type(k[1]) is int and 1 <= k[1] <= base.n):
            raise UnknownCurve("bad psi label %r on %s" % (k, base))
    elif k not in ("lambda", "delta0"):
        raise UnknownCurve("bad pairing key %r" % (k,))
    return k


def pair(curve, a):
    """Exact intersection number of a test curve with a divisor class."""
    if not isinstance(curve, TestCurve):
        raise UnknownCurve("%r is not a TestCurve" % (curve,))
    _check_class(a)
    if curve.base != a.base:
        raise BaseMismatch("base mismatch: %s vs %s" % (curve.base, a.base))
    total = 0
    for k, c in curve._pairing.items():
        if k == "lambda":
            total += c * a.lam
        elif k == "delta0":
            total += c * a.delta0
        elif isinstance(k, BoundaryIndex):
            total += c * _coeff(a, k)
        else:
            total += c * a.psi[k[1] - 1]
    return _frac(total)


def builtin_test_curve(name, base, i=None, n=None):
    """Standard one-parameter families used by the verification suite.

    On (g, 1): "A" (moving point on a fixed curve), "B" (elliptic bridge
    sliding, needs 0 < i < g-1), "C" (genus-i tail through the point,
    1 <= i <= g-1), "D" (pencil attached at the point), "E" (elliptic tail
    pencil).  On (g, g): "Bin" (sliding node with n of the g points on one
    side, needs i and n).  A parameter the curve does not take raises
    ParamOutOfRange: A, D and E take neither, B and C take i only.
    """
    _check_base(base)
    _check_size(base)
    takes = {"A": (), "B": ("i",), "C": ("i",), "D": (), "E": (), "Bin": ("i", "n")}
    if type(name) is not str or name not in takes:
        raise UnknownCurve("unknown test curve %r" % (name,))
    given = {k: v for k, v in (("i", i), ("n", n)) if v is not None}
    _check_ints(ParamOutOfRange, **given)
    unused = [k for k in given if k not in takes[name]]
    if unused:
        raise ParamOutOfRange("curve %s takes no parameter %s" % (name, ", ".join(unused)))
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
        # a pairing list may repeat a key: TestCurve adds the coefficients
        vec = [(("psi", 1), 2 * i - 1), (key(i, {1}), -1), (key(g - i, {1}), 1)]
        return TestCurve(base, "C_%d" % i, vec)
    if name == "D":
        return TestCurve(
            base, "D", {("psi", 1): 1, "delta0": 2 - 2 * g, key(g - 1, {1}): 1}
        )
    if name == "E":
        return TestCurve(base, "E", {"lambda": 1, "delta0": 12, key(g - 1, {1}): -1})
    # the one curve left is Bin
    if base.n != g:
        raise UnknownCurve("curve Bin lives on a g-pointed base")
    if i is None or n is None or not 1 <= i <= g - 1 or not i <= n <= g:
        raise ParamOutOfRange("curve Bin needs 1 <= i <= g-1 and i <= n <= g")
    # the attachment point moves on the side carrying the last g-n marked
    # points; colliding with each of them contributes one psi degree and
    # one extra boundary degree
    S = set(range(1, n + 1))
    vec = [(key(i, S), 2 - 2 * (g - i) - (g - n))]
    for extra in range(n + 1, g + 1):
        vec += [(("psi", extra), 1), (key(i, S | {extra}), 1)]
    return TestCurve(base, "B_{%d,%d}" % (i, n), vec)


# ---------------------------------------------------------------------------
# serialization

def _boundary_rows(a, ends):
    """The row of each boundary key (i, S) of a, in output order: the order
    of ``BoundaryIndex.__lt__``, (i, sorted(S)).  The row of a key with
    coefficient c is head + text + tail, where (head, tail) = ends(i, c) and
    text is the sorted members of S joined by commas, "" for an empty S.
    The rows are read from the orbits and a rank table that the class makes
    on its first write and keeps (``_table``): the member sets of its orbits
    (``_members``), sorted once into output order, as the text of each and
    the orbit that owns it.  ends is called once per distinct genus and
    coefficient, and the rows of one genus are one pass over the table,
    which keeps the sets whose orbit the class holds at that genus.  No key
    is built, no two keys are compared and no row is sorted; what is
    allocated is the table, once, and one string per row."""
    try:
        owners, texts = a._table
    except AttributeError:
        labels, owners = [], []
        for R, Ss in _members(a, None).items():
            labels += map(sorted, Ss)
            owners += [R] * len(Ss)
        order = sorted(range(len(labels)), key=labels.__getitem__)
        owners = [owners[r] for r in order]
        names = [str(x) for x in range(a.base.n + 1)]  # each label's text, once
        texts = [",".join([names[x] for x in labels[r]]) for r in order]
        object.__setattr__(a, "_table", (owners, texts))
    genera, made = {}, {}
    for (i, R), c in a._orbits.items():
        e = made.get((i, c))
        if e is None:
            e = made[i, c] = ends(i, c)
        genera.setdefault(i, {})[R] = e
    out = []
    for i in sorted(genera):
        # a row is its text between the two ends of its orbit: text.join(ends)
        out += [t.join(e) for e, t in zip(map(genera[i].get, owners), texts) if e]
    return out


@_writer
def to_json(a):
    """The class as compact JSON: g, n, the coefficients of lambda, psi and
    delta_0, and one {"i", "S", "c"} object per boundary key in output order.
    The text is written directly; every field is an int or the str of an int
    or a Fraction, so nothing needs escaping, and the bytes are those of
    ``json.dumps`` with separators (",", ":")."""
    _check_class(a)
    return '{"g":%d,"n":%d,"lambda":"%s","psi":[%s],"delta0":"%s","boundary":[%s]}' % (
        a.base.g, a.base.n, a.lam, ",".join('"%s"' % c for c in a.psi), a.delta0,
        ",".join(_boundary_rows(a, lambda i, c: ('{"i":%d,"S":[' % i, '],"c":"%s"}' % c))))


def _json_coeff(x):
    """The coefficient that a JSON value names, read by ``_frac`` behind
    JSON's type gate: the value must be an int (not a bool) or a string.  Any
    other value (a float, a bool, null, a list or an object) raises
    MalformedJSON, and so does anything that ``_frac`` refuses."""
    if type(x) is not int and type(x) is not str:
        raise MalformedJSON("coefficient %s is not an integer or a rational string" % _shown(x))
    try:
        return _frac(x)
    except ParamOutOfRange as e:
        raise MalformedJSON(str(e)) from None


def _json_fields(d, fields):
    """fields(d): the values of a JSON object's fields that the itemgetter
    fields names, in its order; anything but an object with every field
    raises MalformedJSON."""
    if type(d) is not dict:
        raise MalformedJSON("expected a JSON object, got %s" % type(d).__name__)
    try:
        return fields(d)
    except KeyError as e:
        raise MalformedJSON("missing field %s" % e) from None


# the fields of a document, and of each boundary entry (``_read_boundary``)
_HEAD = operator.itemgetter("g", "n", "lambda", "psi", "delta0", "boundary")
_ENTRY = operator.itemgetter("i", "S", "c")


@_nogc
def from_json(s):
    """Inverse of ``to_json``.  s is text: a str, or bytes or a bytearray
    in UTF-8, UTF-16 or UTF-32, decoded as ``json.loads`` decodes it.  The
    text must be JSON, g, n, i and the members of S integers and every
    coefficient an integer or a rational string; anything else raises
    MalformedJSON (or the PicError of the class it would name).  The
    entries are read in one pass by the constructor's reader,
    ``_read_boundary``, so every boundary entry must name a class, one with
    a zero coefficient too.  The genus, the list S and the coefficient of
    every entry are checked there.  The labels are checked once per distinct
    label list when one proof holds for the whole document: it has no
    ``true`` or ``false`` in its text and no number with a fraction or an
    exponent, which a ``parse_float`` hook of ``json.loads`` records, so no
    label can equal an int without being one.  Without the proof, the
    labels of every entry are checked.  An error of the base or
    of psi is held until every entry is checked: a malformed entry anywhere
    in the document is reported first, and a pair that names no class last.
    The reader is handed the colouring of psi (``_colouring``), as the
    constructor hands it, and the class is in orbit form under it when the
    sums of the entries fill its orbits, each with one coefficient; it is
    stored key by key otherwise."""
    floats = []  # the float tokens of the document
    try:
        # bytes decoded once, as json.loads decodes them
        text = (s.decode(json.detect_encoding(s), "surrogatepass")
                if isinstance(s, (bytes, bytearray)) else s)
        d = json.loads(text, parse_float=lambda x: floats.append(x) or float(x))
    except (TypeError, ValueError, RecursionError) as e:  # TypeError: s is not text
        raise MalformedJSON("not JSON: %s" % e) from None
    g, n, lam, psi, delta0, boundary = _json_fields(d, _HEAD)
    if type(g) is not int or type(n) is not int:
        raise MalformedJSON("g and n must be integers, got %r and %r" % (g, n))
    if type(psi) is not list or type(boundary) is not list:
        raise MalformedJSON("psi and boundary must be lists")
    lam, psi, delta0 = _json_coeff(lam), [_json_coeff(c) for c in psi], _json_coeff(delta0)
    held = None
    try:
        base = ModuliBase(g, n)
        psi = _psi(base, psi)
    except (ParamOutOfRange, BaseMismatch) as e:
        base, held, psi = None, e, ()  # the reader raises held
    # only the tokens true and false and a number with a fraction or an
    # exponent give a value that equals an int without being one
    proved = not floats and "true" not in text and "false" not in text
    boundary, colours = _read_boundary(base, boundary, _json_coeff, MalformedJSON, held,
                                       _colouring(psi), _ENTRY, proved)
    return DivisorClass._from_canonical(base, lam, psi, delta0, boundary, colours)


def _generators(a):
    """(name, LaTeX symbol, c) for lambda, psi_1..psi_n and delta_0 of a, in
    output order; the boundary keys follow them (``_boundary_rows``)."""
    _check_class(a)
    return [("lambda", r"\lambda", a.lam),
            *[("psi_%d" % j, r"\psi_{%d}" % j, c) for j, c in enumerate(a.psi, 1)],
            ("delta_0", r"\delta_{0}", a.delta0)]


@_writer
def to_csv(a):
    """The class as CSV: a header line, then one "generator,coefficient" line
    per generator in output order."""
    lines = ["generator,coefficient", *["%s,%s" % (name, c) for name, _, c in _generators(a)]]
    head, tail = _delta_ends(a.base.n)
    lines += _boundary_rows(a, lambda i, c: (head % i, "%s,%s" % (tail, c)))
    return "\n".join(lines) + "\n"


def _latex_frac(c):
    if c.denominator == 1:
        return str(c.numerator)
    s = "-" if c < 0 else ""
    return r"%s\tfrac{%d}{%d}" % (s, abs(c.numerator), c.denominator)


def _latex_term(c):
    """What opens the term of c in a LaTeX sum: its sign, "+ " or "- ", and
    |c| unless it is 1."""
    mag = abs(c)
    return ("- " if c < 0 else "+ ") + ("" if mag == 1 else _latex_frac(mag))


@_writer
def to_latex_expr(a):
    """The class as a one-line LaTeX linear combination."""
    terms = [_latex_term(c) + sym for _, sym, c in _generators(a) if c]
    head, tail = _delta_ends(a.base.n, latex=True)
    terms += _boundary_rows(a, lambda i, c: (_latex_term(c) + head % i, tail))
    if not terms:
        return "0"
    first = terms[0]  # the first term keeps a minus sign only, with no space
    terms[0] = first[2:] if first[0] == "+" else "-" + first[2:]
    return " ".join(terms)


@_writer
def to_latex(a):
    """The class as a LaTeX coefficient table, one row per generator."""
    lines = [r"\begin{tabular}{ll}", r"generator & coefficient \\",
             *[r"$%s$ & $%s$ \\" % (sym, _latex_frac(c)) for _, sym, c in _generators(a)]]
    head, tail = _delta_ends(a.base.n, latex=True)
    lines += _boundary_rows(
        a, lambda i, c: ("$" + head % i, r"%s$ & $%s$ \\" % (tail, _latex_frac(c))))
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"
