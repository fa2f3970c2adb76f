"""
Registry of exact identities between pulled-back divisor classes and linear
combinations of catalog classes, together with test-curve pairing values and
coefficient checks.  Every identity is evaluated in exact rational arithmetic
as a list of (lhs, rhs) pairs compared in order; a failing entry reports the
first pair that differs, for two classes the first canonical generator whose
coefficients disagree.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    DivisorClass,
    ModuliBase,
    ParamOutOfRange,
    PicError,
    _check_ints,
    builtin_test_curve,
    diff_first,
    pair,
)
from .maps import forget_point, glue_closed_tail, glue_tail, pullback
from .catalog import (
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


@dataclass(frozen=True)
class ReportEntry:
    relation: str
    params: tuple  # sorted (name, value) pairs
    passed: bool
    detail: tuple = None  # (generator label, lhs coeff, rhs coeff) on failure

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


@dataclass
class Report:
    entries: list = field(default_factory=list)

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
    they are checked; it compares nothing, ``run_relation`` does."""

    def __init__(self, name, uses, cases, run):
        self.name = name
        self.uses = uses  # catalog constructor names this family exercises
        self.cases = cases  # (g_max, n_max, h_max) -> list of param dicts
        self.run = run  # (**params) -> [(lhs, rhs), ...], at least one pair


RELATIONS = {}


def _register(name, uses, cases, run):
    RELATIONS[name] = Relation(name, tuple(uses), cases, run)


# -- residual / Weierstrass / marked-point classes ---------------------------

def _r1(g):
    dom = ModuliBase(g - 1, 1)
    lhs = pullback(glue_tail(dom, 1, 0, 1), residual(g))
    rhs = g * g * weierstrass(g - 1) + pullback(forget_point(dom, 1), diaz(g - 1))
    return [(lhs, rhs)]

_register("R1", ["residual", "weierstrass", "diaz"],
          lambda G, N, H: [{"g": g} for g in range(4, G + 1)], _r1)


def _r2(g, h):
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, h, 0, 1), residual(g + h))
    rhs = ((g + h) ** 2 * h - (h - 1)) * weierstrass(g) + d1_mero(g, h)
    return [(lhs, rhs)]

_register("R2", ["residual", "weierstrass", "d1-mero"],
          lambda G, N, H: [{"g": g, "h": h}
                           for h in range(2, H + 1)
                           for g in range(2, G - h + 1) if g + h >= 4],
          _r2)


def _r3(g, k, i):
    dom = ModuliBase(g - i, 1)
    lhs = pullback(glue_tail(dom, i, 0, 1), d1_holo(g, k))
    if i <= g - k - 1:
        rhs = (k + 1) ** 2 * i * weierstrass(g - i) + d1_holo(g - i, k)
    else:
        rhs = ((k + 1) ** 2 * i - (k - g + i)) * weierstrass(g - i) \
            + d1_mero(g - i, k + 1 - g + i)
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

_register("R3", ["d1-holo", "d1-mero", "weierstrass"], _r3_cases, _r3)


def _r4(g):
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, 0, g - 1, 1), logan_class(g, (1,) * g))
    return [(lhs, weierstrass(g))]

_register("R4", ["logan", "weierstrass"],
          lambda G, N, H: [{"g": g} for g in range(3, min(G, N) + 1)], _r4)


def _r4b(g, i, n):
    curve = builtin_test_curve("Bin", ModuliBase(g, g), i=i, n=n)
    return [(pair(curve, logan_class(g, (1,) * g)),
             (n - i) * (i * i + g * n - g * i - i * n - 1))]

_register("R4b", ["logan"],
          lambda G, N, H: [{"g": g, "i": i, "n": n}
                           for g in range(3, min(G, N) + 1)
                           for i in range(1, g)
                           for n in range(i, g + 1)],
          _r4b)


def _r5(g):
    dom = ModuliBase(g, g)
    lhs = pullback(glue_tail(dom, 1, 1, attach=g), logan_class(g + 1, (1,) * (g + 1)))
    return [(lhs, logan_class(g, (1,) * g))]

_register("R5", ["logan"],
          lambda G, N, H: [{"g": g} for g in range(3, min(G - 1, N - 1) + 1)], _r5)


# -- meromorphic theta-type reductions ---------------------------------------

def _r6a(g, h, n):
    if n == 2:
        dom = ModuliBase(g, 2)
        lhs = pullback(glue_tail(dom, h, 0, attach=2),
                       logan_class(g + h, (g - 1 + h, 1)))
        rhs = theta_pullback_class(g, (g - 1 + h, -h))
    else:
        dom = ModuliBase(g, 3)
        lhs = pullback(glue_tail(dom, h, 0, attach=3),
                       logan_class(g + h, (2, g - 3 + h, 1)))
        rhs = theta_pullback_class(g, (2, g - 3 + h, -h))
    return [(lhs, rhs)]

_register("R6a", ["logan", "theta-pullback"],
          lambda G, N, H: [{"g": g, "h": h, "n": n}
                           for n in (2, 3)
                           for h in range(1, H + 1)
                           for g in range((3 if n == 2 else 4), G - h + 1)],
          _r6a)


def _r6b(g, j):
    dom = ModuliBase(g, 2)
    if j == 1:
        lhs = pullback(glue_tail(dom, 0, 1, attach=2),
                       theta_pullback_class(g, (g + 4, -2, -3)))
        rhs = theta_pullback_class(g, (g + 4, -5))
    else:
        lhs = pullback(glue_tail(dom, 0, 2, attach=2),
                       theta_pullback_class(g, (g + 7, -2, -3, -3)))
        rhs = theta_pullback_class(g, (g + 7, -8))
    return [(lhs, rhs)]

_register("R6b", ["theta-pullback"],
          lambda G, N, H: [{"g": g, "j": j}
                           for j in (1, 2) for g in range(3, G + 1)],
          _r6b)


def _spin_mix(t, parity, odd, even):
    """Pullback of a spin class of the given parity along a genus-t tail, in
    the odd and even classes of the genus that remains: 2^(t-1)(2^t + 1)
    times the same parity plus 2^(t-1)(2^t - 1) times the other."""
    a, b = 2 ** (t - 1) * (2 ** t + 1), 2 ** (t - 1) * (2 ** t - 1)
    return a * odd + b * even if parity == "odd" else b * odd + a * even


def _r7(g, h):
    if h == 0:  # genus-3 decomposition of the double-zero class
        rhs = theta_characteristic_locus(3, "odd") + theta_characteristic_locus(3, "even")
        return [(d1_holo(3, 1), rhs)]
    m = glue_tail(ModuliBase(g, 1), h, 0, 1)
    odd_g, even_g = (theta_characteristic_locus(g, p) for p in ("odd", "even"))
    return [(pullback(m, theta_characteristic_locus(g + h, p)),
             _spin_mix(h, p, odd_g, even_g))
            for p in ("odd", "even")]

_register("R7", ["theta-char", "d1-holo"],
          lambda G, N, H: ([{"g": 3, "h": 0}] if G >= 3 else [])
          + [{"g": g, "h": h}
             for h in range(1, H + 1) for g in range(2, G - h + 1)],
          _r7)


# -- anti-ramification -------------------------------------------------------

def _r8a(g):
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, 0, g - 2, 1), anti_ramification(g))
    return [(lhs, d1_holo(g, 1))]

_register("R8a", ["antiram", "d1-holo"],
          lambda G, N, H: [{"g": g} for g in range(3, min(G, N + 1) + 1)], _r8a)


def _r8b(g):
    dom = ModuliBase(g, g)
    lhs = pullback(glue_tail(dom, 1, 0, 1), anti_ramification(g + 1))
    rhs = 4 * logan_class(g, (1,) * g) \
        + pullback(forget_point(dom, 1), anti_ramification(g))
    return [(lhs, rhs)]

_register("R8b", ["antiram", "logan"],
          lambda G, N, H: [{"g": g} for g in range(3, min(G - 1, N) + 1)], _r8b)


# -- coupled-partition classes -----------------------------------------------

def _r9a(g):
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, 0, 1, 1), coupled_partition(g, (1, 1)))
    return [(lhs, theta_characteristic_locus(g, "total"))]

_register("R9a", ["coupled", "theta-char"],
          lambda G, N, H: [{"g": g} for g in range(2, G + 1)], _r9a)


def _r9b(g, h):
    dom = ModuliBase(g, 2)
    lhs = pullback(glue_tail(dom, h, 0, 1), coupled_partition(g + h, (1, 1)))
    return [(lhs, 4 ** h * coupled_partition(g, (1, 1)))]

_register("R9b", ["coupled"],
          lambda G, N, H: [{"g": g, "h": h}
                           for h in range(1, H + 1) for g in range(2, G - h + 1)],
          _r9b)


def _r10(g):
    dom = ModuliBase(g, 3)
    lhs = pullback(glue_closed_tail(dom, 1, 1), coupled_partition(g + 1, (1, 1)))
    rhs = coupled_partition(g, (-2, 1, 1)) \
        + 3 * pullback(forget_point(dom, 1), coupled_partition(g, (1, 1)))
    return [(lhs, rhs)]

_register("R10", ["coupled"],
          lambda G, N, H: [{"g": g} for g in range(2, G)], _r10)


def _r11a(g):
    dom = ModuliBase(g, 2)
    lhs = pullback(glue_tail(dom, 0, 1, attach=2), coupled_partition(g, (-2, 1, 1)))
    return [(lhs, coupled_partition(g, (-2, 2)))]

_register("R11a", ["coupled"],
          lambda G, N, H: [{"g": g} for g in range(2, G + 1)], _r11a)


def _r11b(g, parity):
    dom = ModuliBase(g, 2)
    swap = {"odd": "even", "even": "odd", "total": "total"}[parity]
    lhs = pullback(glue_closed_tail(dom, 1, 1), theta_characteristic_locus(g + 1, parity))
    rhs = coupled_partition(g, (-2, 2), swap) \
        + 3 * pullback(forget_point(dom, 1), theta_characteristic_locus(g, parity))
    return [(lhs, rhs)]

_register("R11b", ["coupled", "theta-char"],
          lambda G, N, H: [{"g": g, "parity": p}
                           for g in range(2, G) for p in ("odd", "even", "total")],
          _r11b)


def _r12a(g, h, parity):
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, 0, 1, 1), coupled_partition(g, (-h, h), parity))
    return [(lhs, 2 * theta_characteristic_locus(g, parity))]

_register("R12a", ["coupled", "theta-char"],
          lambda G, N, H: [{"g": g, "h": h, "parity": "total"}
                           for h in range(3, max(H, 3) + 1) for g in range(2, G + 1)]
          + [{"g": g, "h": 4, "parity": p}
             for g in range(2, G + 1) for p in ("odd", "even")],
          _r12a)


def _r12b(g, h, j, parity):
    dom = ModuliBase(g, 2)
    m = glue_tail(dom, j, 0, attach=2)
    if parity == "total":
        lhs = pullback(m, coupled_partition(g + j, (-h, h)))
        return [(lhs, 4 ** j * coupled_partition(g, (-h, h)))]
    odd_g, even_g = (coupled_partition(g, (-h, h), p) for p in ("odd", "even"))
    lhs = pullback(m, coupled_partition(g + j, (-h, h), parity))
    return [(lhs, _spin_mix(j, parity, odd_g, even_g))]

_register("R12b", ["coupled"],
          lambda G, N, H: [{"g": g, "h": h, "j": j, "parity": "total"}
                           for h in (3, 4)
                           for j in range(1, H + 1)
                           for g in range(2, G - j + 1)]
          + [{"g": g, "h": 4, "j": j, "parity": p}
             for j in range(1, H + 1)
             for g in range(2, G - j + 1)
             for p in ("odd", "even")],
          _r12b)


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

_register("R13", ["coupled", "theta-char"],
          lambda G, N, H: [{"g": g, "case": c}
                           for g in range(2, G + 1)
                           for c in ("t", "t-spin", "a", "b", "c", "d", "e", "g", "h")],
          _r13)


# -- pinch-partition classes -------------------------------------------------

def _r14(g, h, n):
    dom = ModuliBase(g, n)
    if n == 2:
        cod_d = (1, g + h - 2)
        dom_d = (-h, g + h - 2)
        rest = (g + h - 2,) if h <= 2 else None
    else:
        if h <= 2:
            cod_d = (1, 1, g + h - 3)
            dom_d = (-h, 1, g + h - 3)
            rest = (1, g + h - 3)
        else:
            cod_d = (1, 2, g + h - 4)
            dom_d = (-h, 2, g + h - 4)
            rest = None
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

def _r14_cases(G, N, H):
    out = []
    for h in range(1, H + 1):
        for n in (2, 3):
            gmin = 3 if n == 2 else 4
            for g in range(gmin, G - h + 1):
                out.append({"g": g, "h": h, "n": n})
    return out

_register("R14", ["pinch", "logan", "theta-pullback"], _r14_cases, _r14)


def _r15(g, h):
    dom = ModuliBase(g, 1)
    lhs = pullback(glue_tail(dom, 0, 1, 1), pinch_partition(g, (-h, g + h - 2)))
    mult = 2 if h >= 3 else 1
    return [(lhs, d1_holo(g, 1) + mult * weierstrass(g))]

_register("R15", ["pinch", "d1-holo", "weierstrass"],
          lambda G, N, H: [{"g": g, "h": h}
                           for h in range(2, max(H, 3) + 1) for g in range(3, G + 1)],
          _r15)


def _r16(g, h, parity):
    lhs = coupled_partition(g, (-h, h), parity)
    rhs = coupled_partition(g, (-2, 2), parity) \
        + pullback(forget_point(ModuliBase(g, 2), 1),
                   theta_characteristic_locus(g, parity)) \
        + (h * h - 4) * d_infinity(g, parity)
    return [(lhs, rhs)]

_register("R16", ["coupled", "theta-char", "dinf"],
          lambda G, N, H: [{"g": g, "h": h, "parity": "total"}
                           for h in range(3, max(H, 3) + 1) for g in range(2, G + 1)]
          + [{"g": g, "h": h, "parity": p}
             for h in range(4, max(H, 3) + 1, 2)
             for g in range(2, G + 1)
             for p in ("odd", "even")],
          _r16)


# -- coefficient obstruction and test-curve pairings -------------------------

def _r17(g, cls, expect):
    builders = {
        "weierstrass": lambda: weierstrass(g),
        "double-zero-0": lambda: d1_holo(g, 0),
        "bn-combination": lambda: 3 * brill_noether(g) + 7 * weierstrass(g),
        "residual": lambda: residual(g),
        "theta-odd": lambda: theta_characteristic_locus(g, "odd"),
        "theta-even": lambda: theta_characteristic_locus(g, "even"),
        "theta-total": lambda: theta_characteristic_locus(g, "total"),
    }
    if cls.startswith("double-zero-k"):
        k = int(cls.rsplit("k", 1)[1])
        a = d1_holo(g, k)
    elif cls.startswith("pole-order-h"):
        h = int(cls.rsplit("h", 1)[1])
        a = d1_mero(g, h)
    else:
        a = builders[cls]()
    return [(bn_coefficient_check(a), expect)]

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

_register("R17", ["bn", "weierstrass", "residual", "d1-holo", "d1-mero", "theta-char"],
          _r17_cases, _r17)


def _r18(g, curve, i):
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

_register("R18", ["residual", "weierstrass"], _r18_cases, _r18)


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


def run_relation(name, params):
    """Evaluate one registered identity at one parameter point; the entry
    fails on the first of its (lhs, rhs) pairs whose sides differ."""
    if name not in RELATIONS:
        raise UnknownRelation("no relation named %r" % name)
    key = tuple(sorted(params.items()))
    for lhs, rhs in RELATIONS[name].run(**params):
        detail = _difference(lhs, rhs)
        if detail is not None:
            return ReportEntry(name, key, False, detail)
    return ReportEntry(name, key, True)


def run_suite(g_max, suite="all", n_max=6, h_max=4):
    """Run every registered identity (or one named family) over its parameter
    domain capped at the given genus, marked-point and tail-genus bounds."""
    _check_ints(ParamOutOfRange, g_max=g_max, n_max=n_max, h_max=h_max)
    if suite != "all" and suite not in RELATIONS:
        raise UnknownRelation("no relation named %r" % suite)
    names = list(RELATIONS) if suite == "all" else [suite]
    report = Report()
    for name in names:
        for params in RELATIONS[name].cases(g_max, n_max, h_max):
            report.entries.append(run_relation(name, params))
    return report
