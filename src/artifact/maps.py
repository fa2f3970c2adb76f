"""
Pullback of divisor classes along the standard gluing, identification and
point-forgetting maps between moduli spaces of stable pointed curves.

Each map is recorded by its combinatorial data; ``pullback`` applies the
generator-by-generator substitution table to the canonical representative of
every class in the input.  Each handler builds the image keys in canonical
form directly, and drops the image pairs that name an unstable (hence empty)
degeneration as zero; the comment in each handler proves which images are
stable, canonical and distinct.
"""

from .core import (
    BaseMismatch,
    BoundaryIndex,
    DivisorClass,
    ModuliBase,
    PicError,
    _acc,
    _check_class,
    _check_ints,
    _PerSet,
    _key,
    _nogc,
    _set_map,
    _stable_key,
    try_canonical_index,
)


class InvalidMap(PicError):
    pass


class GluingMap:
    """A map between moduli spaces, given by domain base and variant data.

    Variants:
      glue-tail          attach a genus-h tail carrying j new points at marked
                         point ``attach``; codomain (g+h, n+j)
      glue-closed-tail   attach a genus-h tail at marked point ``attach`` and
                         absorb that point; codomain (g+h, n-1)
      identify-points    glue marked points 1 and 2 to a node; codomain (g+1, n-2)
      forget             forget marked point j; codomain (g, n-1)
    """

    def __init__(self, variant, domain, codomain, **params):
        self.variant = variant
        self.domain = domain
        self.codomain = codomain
        self.params = params

    def __repr__(self):
        extra = ",".join("%s=%s" % kv for kv in sorted(self.params.items()))
        return "GluingMap(%s%s, %s -> %s)" % (
            self.variant, ":" + extra if extra else "", self.domain, self.codomain
        )


def _check_domain(domain):
    if not isinstance(domain, ModuliBase):
        raise InvalidMap("domain %r is not a ModuliBase" % (domain,))


def glue_tail(domain, h, j, attach=1):
    _check_domain(domain)
    _check_ints(InvalidMap, h=h, j=j, attach=attach)
    if h < 0 or j < 0 or (h == 0 and j == 0):
        raise InvalidMap("tail needs genus h >= 0 and j >= 0, not both trivial")
    if h == 0 and j < 1:
        raise InvalidMap("a rational tail needs at least one extra point")
    if domain.n < 1 or not 1 <= attach <= domain.n:
        raise InvalidMap("attach index %r out of range on %s" % (attach, domain))
    cod = ModuliBase(domain.g + h, domain.n + j)
    return GluingMap("glue-tail", domain, cod, h=h, j=j, attach=attach)


def glue_closed_tail(domain, h, attach=1):
    _check_domain(domain)
    _check_ints(InvalidMap, h=h, attach=attach)
    if h < 1:
        raise InvalidMap("closed tail needs genus h >= 1")
    if domain.n < 1 or not 1 <= attach <= domain.n:
        raise InvalidMap("attach index %r out of range on %s" % (attach, domain))
    cod = ModuliBase(domain.g + h, domain.n - 1)
    return GluingMap("glue-closed-tail", domain, cod, h=h, attach=attach)


def identify_points(domain):
    _check_domain(domain)
    if domain.n < 2:
        raise InvalidMap("identification needs at least two marked points")
    cod = ModuliBase(domain.g + 1, domain.n - 2)
    return GluingMap("identify-points", domain, cod)


def forget_point(domain, j=None):
    _check_domain(domain)
    if j is None:
        j = domain.n
    _check_ints(InvalidMap, j=j)
    if domain.n < 1 or not 1 <= j <= domain.n:
        raise InvalidMap("forgotten index %r out of range on %s" % (j, domain))
    cod = ModuliBase(domain.g, domain.n - 1)
    return GluingMap("forget", domain, cod, j=j)


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
    handler = _HANDLERS[m.variant]
    return handler(m, a)


def _pull_glue_tail(m, a):
    dom, cod = m.domain, m.codomain
    h, j, at = m.params["h"], m.params["j"], m.params["attach"]
    new = frozenset(range(dom.n + 1, dom.n + j + 1))  # the tail's own points
    T = new | {at}
    lam = a.lam
    psi = [0] * dom.n
    psi_at = 0  # coefficient picked up on psi at the attach point
    for k in cod.labels():
        c = a.psi[k - 1]
        if k in T:
            continue
        psi[k - 1] += c
    delta0 = a.delta0
    bnd = {}
    # the class whose generic member is the glued tail itself pulls back to
    # minus psi at the attach point; detect it canonically since either
    # mirror representative may be stored
    tail_key = try_canonical_index(cod, h, T)
    # Every other key (i, S) holds 1, as n + j >= 1.  Its class restricts to
    # the domain when the tail lies on one side of the node: the far side
    # when S misses T, giving (i, S), or the side of S when S holds T and
    # i >= h, giving (i - h, S - new), as at is in S.  Both images hold 1, so
    # each is its own key when it is stable.  The key is stable, so i = 0 has
    # |S| >= 2 and i = g + h has |S| <= n + j - 2; what is left to check:
    # - (i, S) has at most n - 1 points, as at is not in S.  It needs i <= g,
    #   and i = g with n - 1 points is the key (g, T^c), the tail class.
    # - (i - h, S - new) has |S| - j >= 1 points, and at most n - 2 when
    #   i - h = g.  At i = h with one point, S = T: the tail class.
    # Images of the first kind miss at and those of the second hold it, and
    # each kind determines its key, so all images are distinct.
    for key, c in a.boundary.items():
        i, S = key
        if key == tail_key:
            psi_at -= c
        elif S.isdisjoint(T):
            if i <= dom.g:
                bnd[key] = c
        elif i >= h and T <= S:
            bnd[_key(i - h, S - new)] = c
        # remaining cases (S meets T without containing it, or the tail side
        # would get negative genus) restrict to nothing
    psi[at - 1] += psi_at
    return DivisorClass._from_canonical(dom, lam, psi, delta0, bnd)


def _pull_glue_closed_tail(m, a):
    dom, cod = m.domain, m.codomain
    g, n = dom
    h, at = m.params["h"], m.params["attach"]
    lift = [0, *(x for x in dom.labels() if x != at)]  # cod label k -> dom label
    lam = a.lam
    psi = [0] * dom.n
    for k in cod.labels():
        psi[lift[k] - 1] += a.psi[k - 1]
    delta0 = a.delta0
    bnd = {}
    # the class whose generic member is the tail itself also meets psi
    tail_key = try_canonical_index(cod, h, ())
    # A key (i, S) pulls back to the two classes whose node has the tail on
    # the far side, (i, S'), or on the side of S, (i - h, S' + {at}), with
    # S' = lift(S) and |S'| = |S| <= n - 1.  The key is stable, so i = 0 has
    # |S| >= 2 and i = g + h has |S| <= n - 3.  Hence (i, S') is stable when
    # i < g, or i = g and |S| < n - 1; (i - h, S' + {at}) is stable when
    # i > h, or i = h and S is not empty.  The second holds 1: at is 1, or
    # the codomain is pointed, so 1 is in S and lift keeps it.  The first
    # is keyed by its mirror when at is 1.  Each class of the domain maps to
    # one class of the codomain, so images of distinct keys are distinct.
    # The two images of one key are the same class only on an unpointed
    # codomain, for delta_i with 2i = g + h, and _acc adds the two there.
    far = _set_map(lift)
    near = _PerSet(lambda S: far[S] | {at})
    for key, c in a.boundary.items():
        i, S = key
        if i < g or i == g and len(S) < n - 1:
            bnd[_stable_key(dom, i, far[S])] = c
        if i > h or i == h and S:
            if cod.n:
                bnd[_key(i - h, near[S])] = c
            else:
                _acc(bnd, _key(i - h, near[S]), c)
        if key == tail_key:
            psi[at - 1] -= c
    return DivisorClass._from_canonical(dom, lam, psi, delta0, bnd)


def _pull_identify_points(m, a):
    dom, cod = m.domain, m.codomain
    lam = a.lam
    psi = [0] * dom.n
    for k in cod.labels():
        psi[k + 1] += a.psi[k - 1]
    delta0 = a.delta0
    bnd = {}
    # every class separating the two glued points maps into the irreducible
    # boundary; each such class has exactly one representative (i, S) with 1
    # in S and 2 outside, and that is its canonical key, since 1 is in S.  The
    # pair names a class when both sides are stable: i = 0 needs |S| >= 2, and
    # i = g needs |S^c| >= 2, that is |S| < n - 1.  Each key is met once and
    # bnd is still empty, so it is stored without canonicalizing or adding.
    g, n = dom
    if delta0 != 0:
        for mask in range(1 << (n - 2)):
            S = frozenset([1] + [x for x in range(3, n + 1) if mask >> (x - 3) & 1])
            lo = 0 if len(S) >= 2 else 1
            hi = g if len(S) < n - 1 else g - 1
            for i in range(lo, hi + 1):
                bnd[BoundaryIndex(i, S)] = delta0
    # A key (i, S) pulls back to the classes with both glued points on the
    # far side, (i, S'), and on the side of S, (i - 1, S' + {1, 2}), with
    # S' = S shifted by 2 and |S'| = |S| <= n - 2.  The key is stable, so
    # i = 0 has |S| >= 2, and at i = g + 1 it has |S| <= n - 4.  Hence
    # (i, S') is stable when i <= g, and (i - 1, S' + {1, 2}) when i >= 1.
    # The second is its own key; the first is keyed by its mirror, which
    # holds 1 and 2 as well, so no image meets a delta_0 key above.  Images
    # of distinct keys are distinct, as each class of the domain maps to one
    # class of the codomain; the two images of one key are the same class
    # only on an unpointed codomain, for delta_i with 2i = g + 1, where _acc
    # adds the two.
    far = _set_map([0, *range(3, n + 1)])  # cod label k -> dom label
    near = _PerSet(lambda S: far[S] | {1, 2})
    for (i, S), c in a.boundary.items():
        if i <= g:
            bnd[_stable_key(dom, i, far[S])] = c
        if i:
            if cod.n:
                bnd[_key(i - 1, near[S])] = c
            else:
                _acc(bnd, _key(i - 1, near[S]), c)
    return DivisorClass._from_canonical(dom, lam, psi, delta0, bnd)


def _pull_forget(m, a):
    dom, cod = m.domain, m.codomain
    j = m.params["j"]
    lift = [0, *range(1, j), *range(j + 1, dom.n + 1)]  # cod label k -> dom label
    lam = a.lam
    psi = [0] * dom.n
    bnd = {}
    # A key (i, S) pulls back to the two classes with j on either side,
    # (i, S') and (i, S' + {j}), with S' = lift(S) on n + 1 points.  Both are
    # stable: the key is, so i = 0 has |S| >= 2, and i = g has |S| <= n - 2,
    # which leaves both images at most (n + 1) - 2 points.  Forgetting j maps
    # each image back to the key's class, so images of distinct keys are
    # distinct.  The two images of one key are the same class only on an
    # unpointed codomain, for delta_i with 2i = g; the class appears once in
    # the preimage, and the second store writes the same coefficient again.
    far = _set_map(lift)
    near = _PerSet(lambda S: far[S] | {j})
    for (i, S), c in a.boundary.items():
        bnd[_stable_key(dom, i, far[S])] = c
        bnd[_stable_key(dom, i, near[S])] = c
    for k in cod.labels():
        c = a.psi[k - 1]
        if c == 0:
            continue
        psi[lift[k] - 1] += c
        _acc(bnd, _stable_key(dom, 0, frozenset([lift[k], j])), -c)
    delta0 = a.delta0
    return DivisorClass._from_canonical(dom, lam, psi, delta0, bnd)


_HANDLERS = {
    "glue-tail": _pull_glue_tail,
    "glue-closed-tail": _pull_glue_closed_tail,
    "identify-points": _pull_identify_points,
    "forget": _pull_forget,
}
