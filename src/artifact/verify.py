"""
Registry of exact identities between pulled-back divisor classes and linear
combinations of catalog classes, together with test-curve pairing values and
coefficient checks.  Every identity is evaluated in exact rational arithmetic
as a list of (lhs, rhs) pairs compared in order; a failing entry reports the
first pair that differs, for two classes the first canonical generator whose
coefficients disagree.

Each relation is declared once, by ``_identity(name, cases)`` over its run
function, which enters it in ``RELATIONS``; its parameter names and the
catalog constructors it calls are read from the code of that function.
"""

import json
from collections import namedtuple
from fractions import Fraction
from types import CodeType

from .core import (
    DivisorClass,
    ModuliBase,
    ParamOutOfRange,
    PicError,
    _Frozen,
    _check_ints,
    builtin_test_curve,
    diff_first,
    pair,
)
from .maps import forget_point, glue_closed_tail, glue_tail, pullback
from .catalog import (
    CONSTRUCTORS,
    PARITIES,
    anti_ramification,
    bn_coefficient_check,
    brill_noether,
    coupled_partition,
    d1_holo,
    d1_mero,
    d_infinity,
    diaz,
    logan_class,
    pinch_partition,
    residual,
    theta_characteristic_locus,
    theta_pullback_class,
    weierstrass,
)

class UnknownRelation(PicError):
    pass


class ReportEntry(namedtuple("ReportEntry", "relation params passed detail",
                             defaults=(None,))):
    """The outcome of one identity at one parameter point: ``params`` holds
    the sorted (name, value) pairs, and ``detail`` the first difference of a
    failing entry (None when it passed)."""

    __slots__ = ()

    def to_json_dict(self):
        d = {
            "relation": self.relation,
            "params": {k: v for k, v in self.params},
            "passed": self.passed,
        }
        if self.detail is not None:
            label, ca, cb = self.detail
            d["first_difference"] = {
                "generator": label,
                "lhs": str(ca),
                "rhs": str(cb),
            }
        return d


class Report(_Frozen):
    """The entries of a suite run, in the order they ran.  The list grows in
    place; the attribute cannot be set or deleted."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        object.__setattr__(self, "entries", [] if entries is None else entries)

    def _init_args(self):
        return (self.entries,), {}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None  # equal reports can differ later: the list is mutable

    def __repr__(self):
        return "Report(entries=%r)" % (self.entries,)

    @property
    def ok(self):
        return all(e.passed for e in self.entries)

    def to_json_dict(self):
        return {
            "passed": self.ok,
            "total": len(self.entries),
            "failed": sum(1 for e in self.entries if not e.passed),
            "entries": [e.to_json_dict() for e in self.entries],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)

    def summary(self):
        lines = []
        for e in self.entries:
            if not e.passed:
                ps = ",".join("%s=%s" % kv for kv in e.params)
                lines.append("FAIL %s[%s] first difference %r" % (e.relation, ps, e.detail))
        lines.append(
            "%d/%d identities hold" % (sum(e.passed for e in self.entries), len(self.entries))
        )
        return "\n".join(lines)


class Relation:
    """One family of identities: a case enumerator plus the sides of each case.
    ``run`` returns (lhs, rhs) pairs of two DivisorClasses, two pairing values
    or two bools (a coefficient check and its expected outcome), in the order
    they are checked; it compares nothing, ``run_relation`` does.

    ``params`` and ``uses`` are read from the code of ``run`` when the
    relation is made, so a later wrapper of ``run`` changes neither."""

    def __init__(self, name, cases, run):
        self.name = name
        self.cases = cases  # (g_max, n_max, h_max) -> list of param dicts
        self.run = run  # (**params) -> [(lhs, rhs), ...], at least one pair
        # the parameter names of run, which a param dict must match exactly
        code = run.__code__
        self.params = frozenset(code.co_varnames[:code.co_argcount])
        # the catalog constructors that run, or a function nested in it, names
        names = _names(code)
        self.uses = tuple(c for c, (fn, _) in CONSTRUCTORS.items() if fn.__name__ in names)


def _names(code):
    """The global and attribute names that code and the code nested in it
    (lambdas, comprehensions) load."""
    names = set(code.co_names)
    for c in code.co_consts:
        if isinstance(c, CodeType):
            names |= _names(c)
    return names


RELATIONS = {}

# the parameters that are genera, orders, counts or labels; the others name a
# case (parity, case, curve, cls) or an expected outcome (expect)
_INT_PARAMS = frozenset("ghijkn")


def _identity(name, cases):
    """Declare the decorated run function as the relation ``name`` with the
    case enumerator ``cases``, and enter it in ``RELATIONS``."""
    def declare(run):
        RELATIONS[name] = Relation(name, cases, run)
        return run

    return declare


# A run function that branches on a parameter tests every value each branch
# stands for and refuses any other value: under an unguarded branch, an
# entry would name a parameter point whose identity was never checked.

def _refuse(name, **params):
    raise ParamOutOfRange("%s has no case %s" % (
        name, ", ".join("%s=%r" % kv for kv in sorted(params.items()))))


# -- residual / Weierstrass / marked-point classes ---------------------------

@_identity("R1", lambda G, N, H: [{"g": g} for g in range(4, G + 1)])
def _r1(g):
    dom = ModuliBase(g - 1, 1)
    lhs = pullback(glue_tail(dom, 1, 0, 1), residual(g))
    rhs = g * g * weierstrass(g - 1) + pullback(forget_point(dom, 1), diaz(g - 1))
    return [(lhs, rhs)]


@_identity("R2", lambda G, N, H: [{"g": g, "h": h}
                                  for h in range(2, H + 1)
                                  for g in range(2, G - h + 1) if g + h >= 4])
def _r2(g, h):
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, h, 0, 1), residual(g + h))
    rhs = ((g + h) ** 2 * h - (h - 1)) * weierstrass(g) + d1_mero(g, h)
    return [(lhs, rhs)]


def _r3_cases(G, N, H):
    out = []
    for g in range(4, G + 1):
        for k in range(0, g):
            for i in range(2, g - k):
                if g - i >= 3:
                    out.append({"g": g, "k": k, "i": i})
            for i in range(max(2, g - k + 1), g - 1):
                out.append({"g": g, "k": k, "i": i})
    return out


@_identity("R3", _r3_cases)
def _r3(g, k, i):
    if i == g - k:
        _refuse("R3", g=g, i=i, k=k)
    dom = ModuliBase(g - i, 1)
    lhs = pullback(glue_tail(dom, i, 0, 1), d1_holo(g, k))
    if i < g - k:
        rhs = (k + 1) ** 2 * i * weierstrass(g - i) + d1_holo(g - i, k)
    else:
        rhs = ((k + 1) ** 2 * i - (k - g + i)) * weierstrass(g - i) \
            + d1_mero(g - i, k + 1 - g + i)
    return [(lhs, rhs)]


@_identity("R4", lambda G, N, H: [{"g": g} for g in range(3, min(G, N) + 1)])
def _r4(g):
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, 0, g - 1, 1), logan_class(g, (1,) * g))
    return [(lhs, weierstrass(g))]


@_identity("R4b", lambda G, N, H: [{"g": g, "i": i, "n": n}
                                   for g in range(3, min(G, N) + 1)
                                   for i in range(1, g)
                                   for n in range(i, g + 1)])
def _r4b(g, i, n):
    curve = builtin_test_curve("Bin", ModuliBase(g, g), i=i, n=n)
    return [(pair(curve, logan_class(g, (1,) * g)),
             (n - i) * (i * i + g * n - g * i - i * n - 1))]


@_identity("R5", lambda G, N, H: [{"g": g} for g in range(3, min(G - 1, N - 1) + 1)])
def _r5(g):
    dom = ModuliBase(g, g)
    lhs = pullback(glue_tail(dom, 1, 1, attach=g), logan_class(g + 1, (1,) * (g + 1)))
    return [(lhs, logan_class(g, (1,) * g))]


# -- meromorphic theta-type reductions ---------------------------------------

@_identity("R6a", lambda G, N, H: [{"g": g, "h": h, "n": n}
                                   for n in (2, 3)
                                   for h in range(1, H + 1)
                                   for g in range((3 if n == 2 else 4), G - h + 1)])
def _r6a(g, h, n):
    if n == 2:
        dom = ModuliBase(g, 2)
        lhs = pullback(glue_tail(dom, h, 0, attach=2),
                       logan_class(g + h, (g - 1 + h, 1)))
        rhs = theta_pullback_class(g, (g - 1 + h, -h))
    elif n == 3:
        dom = ModuliBase(g, 3)
        lhs = pullback(glue_tail(dom, h, 0, attach=3),
                       logan_class(g + h, (2, g - 3 + h, 1)))
        rhs = theta_pullback_class(g, (2, g - 3 + h, -h))
    else:
        _refuse("R6a", n=n)
    return [(lhs, rhs)]


@_identity("R6b", lambda G, N, H: [{"g": g, "j": j}
                                   for j in (1, 2) for g in range(3, G + 1)])
def _r6b(g, j):
    dom = ModuliBase(g, 2)
    if j == 1:
        lhs = pullback(glue_tail(dom, 0, 1, attach=2),
                       theta_pullback_class(g, (g + 4, -2, -3)))
        rhs = theta_pullback_class(g, (g + 4, -5))
    elif j == 2:
        lhs = pullback(glue_tail(dom, 0, 2, attach=2),
                       theta_pullback_class(g, (g + 7, -2, -3, -3)))
        rhs = theta_pullback_class(g, (g + 7, -8))
    else:
        _refuse("R6b", j=j)
    return [(lhs, rhs)]


def _spin_mix(t, parity, odd, even):
    """Pullback of a spin class of the given parity along a genus-t tail, in
    the odd and even classes of the genus that remains: 2^(t-1)(2^t + 1)
    times the same parity plus 2^(t-1)(2^t - 1) times the other."""
    a, b = 2 ** (t - 1) * (2 ** t + 1), 2 ** (t - 1) * (2 ** t - 1)
    return a * odd + b * even if parity == "odd" else b * odd + a * even


@_identity("R7", lambda G, N, H: ([{"g": 3, "h": 0}] if G >= 3 else [])
                 + [{"g": g, "h": h}
                    for h in range(1, H + 1) for g in range(2, G - h + 1)])
def _r7(g, h):
    if h == 0 and g == 3:  # genus-3 decomposition of the double-zero class
        rhs = theta_characteristic_locus(3, "odd") + theta_characteristic_locus(3, "even")
        return [(d1_holo(3, 1), rhs)]
    if h < 1:
        _refuse("R7", g=g, h=h)
    m = glue_tail(ModuliBase(g, 1), h, 0, 1)
    odd_g, even_g = (theta_characteristic_locus(g, p) for p in ("odd", "even"))
    return [(pullback(m, theta_characteristic_locus(g + h, p)),
             _spin_mix(h, p, odd_g, even_g))
            for p in ("odd", "even")]


# -- anti-ramification -------------------------------------------------------

@_identity("R8a", lambda G, N, H: [{"g": g} for g in range(3, min(G, N + 1) + 1)])
def _r8a(g):
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, 0, g - 2, 1), anti_ramification(g))
    return [(lhs, d1_holo(g, 1))]


@_identity("R8b", lambda G, N, H: [{"g": g} for g in range(3, min(G - 1, N) + 1)])
def _r8b(g):
    dom = ModuliBase(g, g)
    lhs = pullback(glue_tail(dom, 1, 0, 1), anti_ramification(g + 1))
    rhs = 4 * logan_class(g, (1,) * g) \
        + pullback(forget_point(dom, 1), anti_ramification(g))
    return [(lhs, rhs)]


# -- coupled-partition classes -----------------------------------------------

@_identity("R9a", lambda G, N, H: [{"g": g} for g in range(2, G + 1)])
def _r9a(g):
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, 0, 1, 1), coupled_partition(g, (1, 1)))
    return [(lhs, theta_characteristic_locus(g, "total"))]


@_identity("R9b", lambda G, N, H: [{"g": g, "h": h}
                                   for h in range(1, H + 1) for g in range(2, G - h + 1)])
def _r9b(g, h):
    dom = ModuliBase(g, 2)
    lhs = pullback(glue_tail(dom, h, 0, 1), coupled_partition(g + h, (1, 1)))
    return [(lhs, 4 ** h * coupled_partition(g, (1, 1)))]


@_identity("R10", lambda G, N, H: [{"g": g} for g in range(2, G)])
def _r10(g):
    dom = ModuliBase(g, 3)
    lhs = pullback(glue_closed_tail(dom, 1, 1), coupled_partition(g + 1, (1, 1)))
    rhs = coupled_partition(g, (-2, 1, 1)) \
        + 3 * pullback(forget_point(dom, 1), coupled_partition(g, (1, 1)))
    return [(lhs, rhs)]


@_identity("R11a", lambda G, N, H: [{"g": g} for g in range(2, G + 1)])
def _r11a(g):
    dom = ModuliBase(g, 2)
    lhs = pullback(glue_tail(dom, 0, 1, attach=2), coupled_partition(g, (-2, 1, 1)))
    return [(lhs, coupled_partition(g, (-2, 2)))]


@_identity("R11b", lambda G, N, H: [{"g": g, "parity": p}
                                    for g in range(2, G) for p in ("odd", "even", "total")])
def _r11b(g, parity):
    dom = ModuliBase(g, 2)
    if parity not in PARITIES:
        raise UnknownRelation("R11b parity %r" % (parity,))
    swap = {"odd": "even", "even": "odd", "total": "total"}[parity]
    lhs = pullback(glue_closed_tail(dom, 1, 1), theta_characteristic_locus(g + 1, parity))
    rhs = coupled_partition(g, (-2, 2), swap) \
        + 3 * pullback(forget_point(dom, 1), theta_characteristic_locus(g, parity))
    return [(lhs, rhs)]


@_identity("R12a", lambda G, N, H: [{"g": g, "h": h, "parity": "total"}
                                    for h in range(3, max(H, 3) + 1) for g in range(2, G + 1)]
                   + [{"g": g, "h": 4, "parity": p}
                      for g in range(2, G + 1) for p in ("odd", "even")])
def _r12a(g, h, parity):
    # the cases start at h = 3: at h = 2 the weights are the single double
    # pole, which coupled_partition builds by a formula of its own
    if h < 3:
        _refuse("R12a", h=h)
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, 0, 1, 1), coupled_partition(g, (-h, h), parity))
    return [(lhs, 2 * theta_characteristic_locus(g, parity))]


@_identity("R12b", lambda G, N, H: [{"g": g, "h": h, "j": j, "parity": "total"}
                                    for h in (3, 4)
                                    for j in range(1, H + 1)
                                    for g in range(2, G - j + 1)]
                   + [{"g": g, "h": 4, "j": j, "parity": p}
                      for j in range(1, H + 1)
                      for g in range(2, G - j + 1)
                      for p in ("odd", "even")])
def _r12b(g, h, j, parity):
    dom = ModuliBase(g, 2)
    m = glue_tail(dom, j, 0, attach=2)
    if parity == "total":
        lhs = pullback(m, coupled_partition(g + j, (-h, h)))
        return [(lhs, 4 ** j * coupled_partition(g, (-h, h)))]
    if parity not in ("odd", "even"):
        _refuse("R12b", parity=parity)
    odd_g, even_g = (coupled_partition(g, (-h, h), p) for p in ("odd", "even"))
    lhs = pullback(m, coupled_partition(g + j, (-h, h), parity))
    return [(lhs, _spin_mix(j, parity, odd_g, even_g))]


@_identity("R13", lambda G, N, H: [{"g": g, "case": c}
                                   for g in range(2, G + 1)
                                   for c in ("t", "t-spin", "a", "b", "c", "d", "e", "g", "h")])
def _r13(g, case):
    C = coupled_partition
    theta = theta_characteristic_locus
    if case == "t":
        dom = ModuliBase(g, 1)
        lhs = pullback(glue_tail(dom, 0, 2, 1), C(g, (3, -1, -2)))
        return [(lhs, 2 * theta(g, "total"))]
    if case == "t-spin":
        m = glue_tail(ModuliBase(g, 1), 0, 2, 1)
        return [(pullback(m, C(g, (2, 2, -4), p)), 2 * theta(g, p))
                for p in ("odd", "even")]
    dom2 = ModuliBase(g, 2)
    m2 = glue_tail(dom2, 0, 1, attach=2)
    if case == "a":
        return [(pullback(m2, C(g, (3, -1, -2))), C(g, (3, -3)))]
    if case == "b":
        return [(pullback(m2, C(g, (-1, 3, -2))), 2 * C(g, (1, 1)))]
    if case == "c":
        rhs = C(g, (-2, 2)) + pullback(forget_point(dom2, 1), theta(g, "total"))
        return [(pullback(m2, C(g, (-2, -1, 3))), rhs)]
    if case == "d":
        rhs = C(g, (2, -2)) + pullback(forget_point(dom2, 2), theta(g, "total"))
        return [(pullback(m2, C(g, (2, -1, -1))), rhs)]
    dom3 = ModuliBase(g, 3)
    m3 = glue_tail(dom3, 0, 1, attach=1)
    if case == "e":
        return [(pullback(m3, C(g, (2, -1, -2, 1))), C(g, (3, -1, -2)))]
    if case == "g":
        rhs = C(g, (-2, 1, 1)) + pullback(forget_point(dom3, 1), C(g, (1, 1)))
        return [(pullback(m3, C(g, (-1, 1, 1, -1))), rhs)]
    if case == "h":
        rhs = C(g, (1, 1, -2)) + pullback(forget_point(dom3, 3), C(g, (1, 1)))
        return [(pullback(m3, C(g, (2, 1, -2, -1))), rhs)]
    raise UnknownRelation("R13 case %r" % case)


# -- pinch-partition classes -------------------------------------------------

def _r14_cases(G, N, H):
    out = []
    for h in range(1, H + 1):
        for n in (2, 3):
            gmin = 3 if n == 2 else 4
            for g in range(gmin, G - h + 1):
                out.append({"g": g, "h": h, "n": n})
    return out


@_identity("R14", _r14_cases)
def _r14(g, h, n):
    if h < 1:
        _refuse("R14", h=h)
    dom = ModuliBase(g, n)
    if n == 2:
        cod_d = (1, g + h - 2)
        dom_d = (-h, g + h - 2)
        rest = (g + h - 2,) if h <= 2 else None
    elif n == 3:
        if h <= 2:
            cod_d = (1, 1, g + h - 3)
            dom_d = (-h, 1, g + h - 3)
            rest = (1, g + h - 3)
        else:
            cod_d = (1, 2, g + h - 4)
            dom_d = (-h, 2, g + h - 4)
            rest = None
    else:
        _refuse("R14", n=n)
    lhs = pullback(glue_tail(dom, h, 0, 1), pinch_partition(g + h, cod_d))
    if h == 1:
        # the elliptic-tail case replaces the pole by a simple zero
        rhs = 4 * logan_class(g, (1,) + dom_d[1:]) \
            + pullback(forget_point(dom, 1), pinch_partition(g, dom_d[1:]))
    elif h == 2:
        rhs = pinch_partition(g, dom_d) \
            + 7 * pullback(forget_point(dom, 1), logan_class(g, rest))
    else:
        rhs = pinch_partition(g, dom_d) \
            + (4 * h - 2) * theta_pullback_class(g, (-h + 1,) + dom_d[1:])
    return [(lhs, rhs)]


@_identity("R15", lambda G, N, H: [{"g": g, "h": h}
                                   for h in range(2, max(H, 3) + 1) for g in range(3, G + 1)])
def _r15(g, h):
    if h < 2:
        _refuse("R15", h=h)
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, 0, 1, 1), pinch_partition(g, (-h, g + h - 2)))
    mult = 1 if h == 2 else 2
    return [(lhs, d1_holo(g, 1) + mult * weierstrass(g))]


@_identity("R16", lambda G, N, H: [{"g": g, "h": h, "parity": "total"}
                                   for h in range(3, max(H, 3) + 1) for g in range(2, G + 1)]
                  + [{"g": g, "h": h, "parity": p}
                     for h in range(4, max(H, 3) + 1, 2)
                     for g in range(2, G + 1)
                     for p in ("odd", "even")])
def _r16(g, h, parity):
    if h < 3:
        _refuse("R16", h=h)
    lhs = coupled_partition(g, (-h, h), parity)
    rhs = coupled_partition(g, (-2, 2), parity) \
        + pullback(forget_point(ModuliBase(g, 2), 1),
                   theta_characteristic_locus(g, parity)) \
        + (h * h - 4) * d_infinity(g, parity)
    return [(lhs, rhs)]


# -- coefficient obstruction and test-curve pairings -------------------------

def _r17_cases(G, N, H):
    out = []
    for g in range(4, G + 1):
        for cls in ("weierstrass", "double-zero-0", "bn-combination"):
            out.append({"g": g, "cls": cls, "expect": True})
        neg = ["residual", "theta-odd", "theta-even", "theta-total"]
        neg += ["double-zero-k%d" % k for k in range(1, g)]
        neg += ["pole-order-h%d" % h for h in range(2, H + 1)]
        for cls in neg:
            out.append({"g": g, "cls": cls, "expect": False})
    return out


@_identity("R17", _r17_cases)
def _r17(g, cls, expect):
    # a case expects the check to hold or to fail; 1 == True would pass
    if type(expect) is not bool:
        _refuse("R17", expect=expect)
    builders = {
        "weierstrass": lambda: weierstrass(g),
        "double-zero-0": lambda: d1_holo(g, 0),
        "bn-combination": lambda: 3 * brill_noether(g) + 7 * weierstrass(g),
        "residual": lambda: residual(g),
        "theta-odd": lambda: theta_characteristic_locus(g, "odd"),
        "theta-even": lambda: theta_characteristic_locus(g, "even"),
        "theta-total": lambda: theta_characteristic_locus(g, "total"),
    }
    orders = {"double-zero-k": d1_holo, "pole-order-h": d1_mero}
    if type(cls) is not str:
        raise UnknownRelation("R17 class %r" % (cls,))
    stem = cls.rstrip("0123456789")
    if stem in orders and stem != cls:
        try:
            k = int(cls[len(stem):])
        except ValueError:  # more digits than int() will read
            raise UnknownRelation("R17 class %r" % (cls,)) from None
        a = orders[stem](g, k)
    elif cls in builders:
        a = builders[cls]()
    else:
        raise UnknownRelation("R17 class %r" % (cls,))
    return [(bn_coefficient_check(a), expect)]


def _r18_cases(G, N, H):
    out = []
    for g in range(3, G + 1):
        out.append({"g": g, "curve": "A", "i": 0})
        for i in range(1, g - 1):
            out.append({"g": g, "curve": "B", "i": i})
        for i in range(1, g):
            out.append({"g": g, "curve": "C", "i": i})
        out.append({"g": g, "curve": "D", "i": 0})
        out.append({"g": g, "curve": "E", "i": 0})
    return out


@_identity("R18", _r18_cases)
def _r18(g, curve, i):
    # A, D and E take no index: their cases carry i = 0
    if curve in ("A", "D", "E") and i != 0:
        _refuse("R18", curve=curve, i=i)
    base = ModuliBase(g, 1)
    R, W = residual(g), weierstrass(g)
    if curve == "A":
        c = builtin_test_curve("A", base)
        return [(pair(c, R), (g + 1) * g * (g - 1) * (g - 2)),
                (pair(c, W), (g + 1) * g * (g - 1))]
    if curve == "B":
        c = builtin_test_curve("B", base, i=i)
        return [(pair(c, R),
                 g * (g * g * i + g * i - g + i - 1) * (g - i) * (g - i - 1))]
    if curve == "C":
        c = builtin_test_curve("C", base, i=i)
        # the companion curve with the roles of the two components exchanged
        c2 = builtin_test_curve("C", base, i=g - i)
        return [(pair(c, R), g * (g * g - 1) * (i - 1)),
                (pair(c, W), (g + 1) * (g - 1) * i),
                (pair(c2, W), (g + 1) * (g - 1) * (g - i))]
    if curve == "D":
        c = builtin_test_curve("D", base)
        want = g * g * (g - 1) * (g - 2) \
            + Fraction(g * g * (2 * g ** 3 - 11 * g * g + 19 * g - 10), 6)
        return [(pair(c, R), want)]
    if curve == "E":
        c = builtin_test_curve("E", base)
        return [(pair(c, R), 0)]
    raise UnknownRelation("R18 curve %r" % curve)


# A failure detail holds each computed number as a Fraction, also where it is
# stored as an int, so the FAIL line that prints it with %r keeps its bytes.

def _difference(lhs, rhs):
    """The failure detail of one (lhs, rhs) pair, or None when its sides agree:
    the first differing generator of two classes, ("value", got, want) for two
    pairing values and ("check", got, expect) for two bools."""
    if isinstance(lhs, DivisorClass):
        d = diff_first(lhs, rhs)
        return None if d is None else (d[0], Fraction(d[1]), Fraction(d[2]))
    if lhs == rhs:
        return None
    if isinstance(lhs, bool):
        return ("check", lhs, rhs)
    return ("value", Fraction(lhs), rhs)


def _relation(name):
    """The identity registered as name; UnknownRelation for anything else."""
    if type(name) is not str or name not in RELATIONS:
        raise UnknownRelation("no relation named %r" % (name,))
    return RELATIONS[name]


def run_relation(name, params):
    """Evaluate one registered identity at one parameter point; the entry
    fails on the first of its (lhs, rhs) pairs whose sides differ."""
    rel = _relation(name)
    if not isinstance(params, dict) or params.keys() != rel.params:
        raise ParamOutOfRange("%s takes the parameters %s, got %r"
                              % (name, sorted(rel.params), params))
    _check_ints(ParamOutOfRange, **{k: v for k, v in params.items() if k in _INT_PARAMS})
    key = tuple(sorted(params.items()))
    for lhs, rhs in rel.run(**params):
        detail = _difference(lhs, rhs)
        if detail is not None:
            return ReportEntry(name, key, False, detail)
    return ReportEntry(name, key, True)


def run_suite(g_max, suite="all", n_max=6, h_max=4):
    """Run every registered identity (or one named family) over its parameter
    domain capped at the given genus, marked-point and tail-genus bounds.
    Bounds that are negative, or that select no case, raise ParamOutOfRange:
    a report that checked nothing would read as a success."""
    _check_ints(ParamOutOfRange, g_max=g_max, n_max=n_max, h_max=h_max)
    if n_max < 0 or h_max < 0:
        raise ParamOutOfRange("n_max and h_max must be nonnegative, got %d and %d"
                              % (n_max, h_max))
    names = list(RELATIONS) if suite == "all" else [suite]
    report = Report()
    for name in names:
        for params in _relation(name).cases(g_max, n_max, h_max):
            report.entries.append(run_relation(name, params))
    if not report.entries:
        raise ParamOutOfRange("suite %s has no case with g_max=%d, n_max=%d, h_max=%d"
                              % (suite, g_max, n_max, h_max))
    return report
