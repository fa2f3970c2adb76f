"""
Pullback of divisor classes along the standard gluing, identification and
point-forgetting maps between moduli spaces of stable pointed curves.

Each map is a ``GluingMap``: its variant, its domain and the variant's
parameters, checked once when it is built, with the codomain derived from
them.  The four named constructors are calls to it.  ``pullback`` applies the
generator-by-generator substitution table to the canonical representative of
every class in the input.  Each handler builds the image keys in canonical
form directly, and drops the image pairs that name an unstable (hence empty)
degeneration as zero.  Forgetting a point, gluing a closed tail and
identifying two points share one image rule, ``_pull_two_sided``; its comment
and the one in the glue-tail handler prove which images are stable,
canonical and distinct.
"""

from .core import (
    BaseMismatch,
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
    take all raise InvalidMap."""

    def __init__(self, variant, domain, **params):
        if not isinstance(domain, ModuliBase):
            raise InvalidMap("domain %r is not a ModuliBase" % (domain,))
        if type(variant) is not str or variant not in _VARIANTS:
            raise InvalidMap("unknown map variant %r" % (variant,))
        names, check = _VARIANTS[variant]
        if set(params) != set(names):
            raise InvalidMap("%s takes parameters (%s), got (%s)" % (
                variant, ", ".join(names), ", ".join(sorted(params))))
        _check_ints(InvalidMap, **params)
        dg, dn = check(domain, **params)
        self.variant = variant
        self.domain = domain
        self.codomain = ModuliBase(domain.g + dg, domain.n + dn)
        self.params = params

    def __repr__(self):
        extra = ",".join("%s=%s" % kv for kv in sorted(self.params.items()))
        return "GluingMap(%s%s, %s -> %s)" % (
            self.variant, ":" + extra if extra else "", self.domain, self.codomain
        )


def _check_label(domain, what, k):
    if not 1 <= k <= domain.n:
        raise InvalidMap("%s index %r out of range on %s" % (what, k, domain))


# Each variant's check refuses the parameter values the variant cannot take
# and returns the codomain's shift (dg, dn) from the domain.

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


_VARIANTS = {  # variant -> (parameter names, check)
    "glue-tail": (("h", "j", "attach"), _tail_shift),
    "glue-closed-tail": (("h", "attach"), _closed_tail_shift),
    "identify-points": ((), _identify_shift),
    "forget": (("j",), _forget_shift),
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


def _pull_two_sided(dom, a, lift, h, A, bnd):
    """Store in bnd the image keys of the boundary of a along a map that
    forgets the domain points A (h = 0) or glues them into a genus-h piece:
    a key (i, S) pulls back to its far image (i, S') and its near image
    (i - h, S' + A), with S' = lift(S), on the two sides of A.  (h, A) is
    (0, {j}) for forgetting j, (h, {at}) for a closed tail glued at at and
    (1, {1, 2}) for identifying 1 and 2."""
    # The codomain is (g + h, n - |A|), and lift is the order-preserving
    # bijection of its labels onto the domain labels outside A.  The key is
    # stable, so i = 0 has |S| >= 2 and i = g + h has |S| <= n - |A| - 2.
    # Hence the far image (i, S'), with |S'| = |S| <= n - |A|, is stable when
    # i < g, or i = g and |S| <= n - 2; the near image is stable when i > h,
    # or i = h and |S| + |A| >= 2, as i - h = g leaves it at most n - 2 points.
    # The near image holds 1: A holds it, or the codomain is pointed, so S
    # holds its point 1 and lift keeps it; so it is its own key.  The far
    # image is keyed by _stable_key.  The node of an image's generic member
    # becomes a node of the key's type under the map, so an image determines
    # its key, and images of distinct keys are distinct.  The two images of
    # one key are one class only when the near one is the far one's mirror:
    # then S' is empty and A is every label, so the codomain is unpointed,
    # and 2i = g + h.  That symmetric class meets the image of the map in one
    # divisor, through the one separating node, transversally, so it is
    # counted once: the second store writes the same coefficient again.
    g, n = dom
    far = _set_map(lift)
    near = _PerSet(lambda S: far[S] | A)
    for (i, S), c in a.boundary.items():
        if i < g or i == g and len(S) <= n - 2:
            bnd[_stable_key(dom, i, far[S])] = c
        if i > h or i == h and len(S) + len(A) >= 2:
            bnd[_key(i - h, near[S])] = c
    return bnd


def _pull_glue_closed_tail(m, a):
    dom, cod = m.domain, m.codomain
    h, at = m.params["h"], m.params["attach"]
    lift = [0, *(x for x in dom.labels() if x != at)]  # cod label k -> dom label
    psi = [0] * dom.n
    for k in cod.labels():
        psi[lift[k] - 1] += a.psi[k - 1]
    # the class whose generic member is the tail itself also meets psi
    psi[at - 1] -= a.coeff(try_canonical_index(cod, h, ()))
    bnd = _pull_two_sided(dom, a, lift, h, {at}, {})
    return DivisorClass._from_canonical(dom, a.lam, psi, a.delta0, bnd)


def _pull_identify_points(m, a):
    dom, cod = m.domain, m.codomain
    g, n = dom
    lift = [0, *range(3, n + 1)]  # cod label k -> dom label
    psi = [0] * n
    for k in cod.labels():
        psi[lift[k] - 1] += a.psi[k - 1]
    bnd = {}
    # every class separating the two glued points maps into the irreducible
    # boundary; each such class has exactly one representative (i, S) with 1
    # in S and 2 outside, and that is its canonical key, since 1 is in S.  The
    # pair names a class when both sides are stable: i = 0 needs |S| >= 2, and
    # i = g needs |S^c| >= 2, that is |S| < n - 1.  Each key is met once and
    # bnd is still empty, so it is stored without canonicalizing or adding.
    # The images below hold 1 and 2, so none of them meets these keys.
    if a.delta0:
        for mask in range(1 << (n - 2)):
            S = frozenset([1] + [x for x in range(3, n + 1) if mask >> (x - 3) & 1])
            lo = 0 if len(S) >= 2 else 1
            hi = g if len(S) < n - 1 else g - 1
            for i in range(lo, hi + 1):
                bnd[_key(i, S)] = a.delta0
    _pull_two_sided(dom, a, lift, 1, {1, 2}, bnd)
    return DivisorClass._from_canonical(dom, a.lam, psi, a.delta0, bnd)


def _pull_forget(m, a):
    dom, cod = m.domain, m.codomain
    j = m.params["j"]
    lift = [0, *range(1, j), *range(j + 1, dom.n + 1)]  # cod label k -> dom label
    psi = [0] * dom.n
    bnd = _pull_two_sided(dom, a, lift, 0, {j}, {})
    # psi_k pulls back to psi_k less the class where k and j bubble off
    for k in cod.labels():
        c = a.psi[k - 1]
        if c == 0:
            continue
        psi[lift[k] - 1] += c
        _acc(bnd, _stable_key(dom, 0, frozenset([lift[k], j])), -c)
    return DivisorClass._from_canonical(dom, a.lam, psi, a.delta0, bnd)


_HANDLERS = {
    "glue-tail": _pull_glue_tail,
    "glue-closed-tail": _pull_glue_closed_tail,
    "identify-points": _pull_identify_points,
    "forget": _pull_forget,
}
