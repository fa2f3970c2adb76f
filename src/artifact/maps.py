"""
Pullback of divisor classes along the standard gluing, identification and
point-forgetting maps between moduli spaces of stable pointed curves.

Each map is recorded by its combinatorial data; ``pullback`` applies the
generator-by-generator substitution table to the canonical representative of
every class in the input and re-canonicalizes the result.  Image boundary
pairs that name an unstable (hence empty) degeneration are dropped as zero.
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
    _nogc,
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


def glue_tail(domain, h, j, attach=1):
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
    _check_ints(InvalidMap, h=h, attach=attach)
    if h < 1:
        raise InvalidMap("closed tail needs genus h >= 1")
    if domain.n < 1 or not 1 <= attach <= domain.n:
        raise InvalidMap("attach index %r out of range on %s" % (attach, domain))
    cod = ModuliBase(domain.g + h, domain.n - 1)
    return GluingMap("glue-closed-tail", domain, cod, h=h, attach=attach)


def identify_points(domain):
    if domain.n < 2:
        raise InvalidMap("identification needs at least two marked points")
    cod = ModuliBase(domain.g + 1, domain.n - 2)
    return GluingMap("identify-points", domain, cod)


def forget_point(domain, j=None):
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
    T = frozenset({at} | set(range(dom.n + 1, dom.n + j + 1)))
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
    for key, c in a.boundary.items():
        if key == tail_key:
            psi_at -= c
            continue
        i, S = key.i, key.S
        if not S & T:
            _acc(bnd, try_canonical_index(dom, i, S), c)
        elif T <= S and i >= h:
            _acc(bnd, try_canonical_index(dom, i - h, (S - T) | {at}), c)
        # remaining cases (S meets T without containing it, or the tail side
        # would get negative genus) restrict to nothing
    psi[at - 1] += psi_at
    return DivisorClass._from_canonical(dom, lam, psi, delta0, bnd)


def _pull_glue_closed_tail(m, a):
    dom, cod = m.domain, m.codomain
    h, at = m.params["h"], m.params["attach"]
    cd2dom = [x for x in dom.labels() if x != at]  # cod label k -> dom label
    lam = a.lam
    psi = [0] * dom.n
    for k in cod.labels():
        psi[cd2dom[k - 1] - 1] += a.psi[k - 1]
    delta0 = a.delta0
    bnd = {}
    # the class whose generic member is the tail itself also meets psi
    tail_key = try_canonical_index(cod, h, ())
    for key, c in a.boundary.items():
        i, S = key.i, key.S
        Sd = frozenset(cd2dom[s - 1] for s in S)
        _acc(bnd, try_canonical_index(dom, i, Sd), c)
        _acc(bnd, try_canonical_index(dom, i - h, Sd | {at}), c)
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
    if delta0 != 0:
        g, n = dom.g, dom.n
        for mask in range(1 << (n - 2)):
            S = frozenset([1] + [x for x in range(3, n + 1) if mask >> (x - 3) & 1])
            lo = 0 if len(S) >= 2 else 1
            hi = g if len(S) < n - 1 else g - 1
            for i in range(lo, hi + 1):
                bnd[BoundaryIndex(i, S)] = delta0
    for key, c in a.boundary.items():
        i, S = key.i, key.S
        Sd = frozenset(s + 2 for s in S)
        _acc(bnd, try_canonical_index(dom, i, Sd), c)
        _acc(bnd, try_canonical_index(dom, i - 1, Sd | {1, 2}), c)
    return DivisorClass._from_canonical(dom, lam, psi, delta0, bnd)


def _pull_forget(m, a):
    dom, cod = m.domain, m.codomain
    j = m.params["j"]

    def lift(k):
        return k if k < j else k + 1

    lam = a.lam
    psi = [0] * dom.n
    bnd = {}
    for k in cod.labels():
        c = a.psi[k - 1]
        if c == 0:
            continue
        psi[lift(k) - 1] += c
        _acc(bnd, try_canonical_index(dom, 0, {lift(k), j}), -c)
    delta0 = a.delta0
    for key, c in a.boundary.items():
        i, S = key.i, key.S
        Sd = frozenset(lift(s) for s in S)
        k1 = try_canonical_index(dom, i, Sd)
        k2 = try_canonical_index(dom, i, Sd | {j})
        if k1 is not None and k1 == k2:
            # both images name the same class; it appears once in the preimage
            _acc(bnd, k1, c)
        else:
            _acc(bnd, k1, c)
            _acc(bnd, k2, c)
    return DivisorClass._from_canonical(dom, lam, psi, delta0, bnd)


_HANDLERS = {
    "glue-tail": _pull_glue_tail,
    "glue-closed-tail": _pull_glue_closed_tail,
    "identify-points": _pull_identify_points,
    "forget": _pull_forget,
}
