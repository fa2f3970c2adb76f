"""
Pullback of divisor classes along the standard gluing, identification and
point-forgetting maps between moduli spaces of stable pointed curves.

Each map is a ``GluingMap``: its variant, its domain and the variant's
parameters, checked once when it is built, with the codomain derived from
them.  A variant is its check (``_VARIANTS``), and the check's signature
names the variant's parameters, after the domain.  The four named
constructors are calls to it.  ``pullback`` applies the
generator-by-generator substitution table to the canonical representative of
every class in the input.  Each handler is a ``core._walk`` over the orbits
of the class (``core``), one representative key each: it names the image
pairs of each distinct set once, and ``core._side`` keys them in canonical
form and drops those that name an unstable (hence empty) degeneration as
zero.  A handler names only its label rule and its image rule, and the walk
carries the colouring of the labels along, which only ``core`` makes, cuts
and moves: forgetting a point, gluing a closed tail and identifying two
points move each label by the lift and give each point they add a colour of
its own, and gluing a pointed tail cuts by whether a label is one of the
tail's points or the attach point.  Forgetting a point, gluing a closed
tail and identifying two points share one setup, ``_pull_two_sided``: it
lifts the codomain labels onto the domain labels outside the points the map
forgets or glues, moves psi by that lift and walks the boundary by one image
rule.  Its comment and the one in the glue-tail handler say which images
exist and why they are distinct.
"""

from types import MappingProxyType

from .core import (
    BaseMismatch,
    DivisorClass,
    ModuliBase,
    PicError,
    _Frozen,
    _acc,
    _check_class,
    _check_ints,
    _check_size,
    _key,
    _lift_psi,
    _nogc,
    _own_sets,
    _rep,
    _side,
    _walk,
    canonical_index,
)


class InvalidMap(PicError):
    pass


class GluingMap(_Frozen):
    """A map between moduli spaces, given by its variant, its domain base and
    the variant's integer parameters; the codomain is derived from them.

    Variants:
      glue-tail          h, j, attach: attach a genus-h tail carrying j new
                         points at marked point ``attach``; codomain (g+h, n+j)
      glue-closed-tail   h, attach: attach a genus-h tail at marked point
                         ``attach`` and absorb that point; codomain (g+h, n-1)
      identify-points    glue marked points 1 and 2 to a node; codomain (g+1, n-2)
      forget             j: forget marked point j; codomain (g, n-1)

    A domain that is not a ModuliBase, an unknown variant, a missing or extra
    parameter, a parameter that is not an int and a value the variant cannot
    take all raise InvalidMap.  A map is immutable, as the checks hold only
    for the values they ran on (``core._Frozen``): ``params`` is a read-only
    mapping."""

    __slots__ = ("variant", "domain", "codomain", "params")

    def __init__(self, variant, domain, **params):
        if not isinstance(domain, ModuliBase):
            raise InvalidMap("domain %r is not a ModuliBase" % (domain,))
        if type(variant) is not str or variant not in _VARIANTS:
            raise InvalidMap("unknown map variant %r" % (variant,))
        check = _VARIANTS[variant]
        names = check.__code__.co_varnames[1:check.__code__.co_argcount]
        if set(params) != set(names):
            raise InvalidMap("%s takes parameters (%s), got (%s)" % (
                variant, ", ".join(names), ", ".join(sorted(params))))
        _check_ints(InvalidMap, **params)
        dg, dn = check(domain, **params)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", ModuliBase(domain.g + dg, domain.n + dn))
        object.__setattr__(self, "params", MappingProxyType(dict(params)))

    def _init_args(self):
        return (self.variant, self.domain), dict(self.params)

    def __repr__(self):
        extra = ",".join("%s=%s" % kv for kv in sorted(self.params.items()))
        return "GluingMap(%s%s, %s -> %s)" % (
            self.variant, ":" + extra if extra else "", self.domain, self.codomain
        )


def _check_label(domain, what, k):
    if not 1 <= k <= domain.n:
        raise InvalidMap("%s index %r out of range on %s" % (what, k, domain))


# Each variant's check refuses the parameter values the variant cannot take
# and returns the codomain's shift (dg, dn) from the domain; its signature
# names the variant's parameters, after the domain.

def _tail_shift(domain, h, j, attach):
    if h < 0 or j < 0 or (h == 0 and j == 0):
        raise InvalidMap("tail needs genus h >= 0 and j >= 0, not both trivial")
    _check_label(domain, "attach", attach)
    return h, j


def _closed_tail_shift(domain, h, attach):
    if h < 1:
        raise InvalidMap("closed tail needs genus h >= 1")
    _check_label(domain, "attach", attach)
    return h, -1


def _identify_shift(domain):
    if domain.n < 2:
        raise InvalidMap("identification needs at least two marked points")
    return 1, -2


def _forget_shift(domain, j):
    _check_label(domain, "forgotten", j)
    return 0, -1


_VARIANTS = {  # variant -> check
    "glue-tail": _tail_shift,
    "glue-closed-tail": _closed_tail_shift,
    "identify-points": _identify_shift,
    "forget": _forget_shift,
}


def glue_tail(domain, h, j, attach=1):
    return GluingMap("glue-tail", domain, h=h, j=j, attach=attach)


def glue_closed_tail(domain, h, attach=1):
    return GluingMap("glue-closed-tail", domain, h=h, attach=attach)


def identify_points(domain):
    return GluingMap("identify-points", domain)


def forget_point(domain, j=None):
    """Forget marked point j, by default the last one."""
    # a domain without n is refused by GluingMap before j is read
    return GluingMap("forget", domain, j=getattr(domain, "n", None) if j is None else j)


@_nogc
def pullback(m, a):
    """Pull a divisor class on the codomain of ``m`` back to the domain."""
    if not isinstance(m, GluingMap):
        raise InvalidMap("%r is not a GluingMap" % (m,))
    _check_class(a)
    if a.base != m.codomain:
        raise BaseMismatch(
            "class lives on %s, map has codomain %s" % (a.base, m.codomain)
        )
    return _HANDLERS[m.variant](m, a)


def _pull_glue_tail(m, a):
    dom, cod = m.domain, m.codomain
    h, j, at = m.params["h"], m.params["j"], m.params["attach"]
    new = frozenset(range(dom.n + 1, dom.n + j + 1))  # the tail's own points
    T = new | {at}
    # the class whose generic member is the glued tail itself pulls back to
    # minus psi at the attach point; it names a class, as h = j = 0 is
    # refused.  Every other psi_k restricts to the domain's psi_k, and the
    # tail's own points are not in the domain.
    tail = a.delta(h, T)
    psi = [-tail if k == at else a.psi[k - 1] for k in dom.labels()]

    # A key (i, S) restricts to the domain when the tail lies on one side of
    # its node: the far side when S misses T, giving (i, S), or the side of S
    # when S holds T, giving (i - h, S - new); a set that meets T without
    # holding it restricts to nothing.  Images of the first kind miss at and
    # those of the second hold it, and each kind determines its key, so all
    # images are distinct.  The tail class goes to psi, above, and the span
    # rule drops its image: (0, {1}), unstable, when at = 1, and otherwise
    # (g, T^c), whose n - 1 points put genus g out of range.
    def images(S):
        if S.isdisjoint(T):
            return _side(dom, S)
        return _side(dom, S - new, h) if T <= S else ()

    # Once the colours are cut along T, whether S misses T or holds it is
    # the same on an orbit, and the domain's colours are the cut colours on
    # its own labels, where at has a colour of its own.
    bnd, colours = _walk(a, lambda k: k if k <= dom.n else 0, images,
                         tuple(k in T for k in cod.labels()))
    return DivisorClass._from_canonical(dom, a.lam, psi, a.delta0, bnd, colours)


def _pull_two_sided(dom, a, h, A):
    """(psi, bnd, colours): the psi coefficients of a on the domain, and the
    image keys of the boundary of a and the domain's colouring, along a map
    that forgets the domain points A (h = 0) or glues them into a genus-h
    piece.  A key (i, S) pulls back to its far image (i, S') and its near
    image (i - h, S' + A), with S' = lift(S), on the two sides of A, and
    psi_k goes to psi_{lift(k)}.  (h, A) is (0, {j}) for forgetting j,
    (h, {at}) for a closed tail glued at at and (1, {1, 2}) for identifying
    1 and 2."""
    # lift is the order-preserving bijection of the codomain labels onto the
    # domain labels outside A.  The node of an image's generic member becomes
    # a node of the key's type under the map, so an image determines its key,
    # and images of distinct keys are distinct.  The two images of one key
    # are one class only when the near one is the far one's mirror: then S'
    # is empty and A is every label, so the codomain is unpointed, and
    # 2i = g + h.  That symmetric class meets the image of the map in one
    # divisor, through the one separating node, transversally, so it is
    # counted once: the second store writes the same coefficient again.
    lift = [0, *(x for x in dom.labels() if x not in A)]  # cod label k -> dom label

    def images(S):
        F = frozenset(map(lift.__getitem__, S))
        return _side(dom, F) + _side(dom, F | A, h)

    # The lift maps the orbits of a's colouring onto those of the lifted
    # colouring, in which each point of A has a colour of its own.
    return (_lift_psi(dom, a, lift), *_walk(a, lift.__getitem__, images, extra=A))


def _pull_glue_closed_tail(m, a):
    dom = m.domain
    h, at = m.params["h"], m.params["attach"]
    psi, bnd, colours = _pull_two_sided(dom, a, h, {at})
    # the class whose generic member is the tail itself (h >= 1) also meets psi
    psi[at - 1] = -a.delta(h, ())
    return DivisorClass._from_canonical(dom, a.lam, psi, a.delta0, bnd, colours)


def _pull_identify_points(m, a):
    dom = m.domain
    psi, bnd, colours = _pull_two_sided(dom, a, 1, {1, 2})
    # every class separating the two glued points maps into the irreducible
    # boundary; each such class has exactly one representative (i, S) with 1
    # in S and 2 outside, and that is its key when it names a class, that is
    # when i is in the span of S: the own sets over the labels 3..n.  They
    # all take delta_0's coefficient, so one key per orbit is stored: the own
    # sets over the colours of 3..n.  The images above hold 1 and 2, so none
    # of them is one of these keys, and each of these is met once: it is
    # stored without canonicalizing or adding.
    if a.delta0:
        _check_size(dom)
        for S, lo, hi in _own_sets(dom, colours, 2):
            for i in range(lo, hi + 1):
                bnd[_key(i, S)] = a.delta0
    return DivisorClass._from_canonical(dom, a.lam, psi, a.delta0, bnd, colours)


def _pull_forget(m, a):
    dom = m.domain
    j = m.params["j"]
    psi, bnd, colours = _pull_two_sided(dom, a, 0, {j})
    # psi_k pulls back to psi_k less the class where k and j bubble off,
    # which is stable: the far side has genus g >= 2.  These classes for the
    # labels k of one colour make one orbit, and psi_k is the same on them,
    # so only the one keyed by the orbit's representative is stored.  The
    # domain's psi_j is 0, as no codomain label lifts to j.
    for k, c in enumerate(psi, 1):
        if c:
            key = canonical_index(dom, 0, (k, j))
            if _rep(colours, key.S) == key.S:
                _acc(bnd, key, -c)
    return DivisorClass._from_canonical(dom, a.lam, psi, a.delta0, bnd, colours)


_HANDLERS = {
    "glue-tail": _pull_glue_tail,
    "glue-closed-tail": _pull_glue_closed_tail,
    "identify-points": _pull_identify_points,
    "forget": _pull_forget,
}
