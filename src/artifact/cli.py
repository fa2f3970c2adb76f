"""Command-line front end: build catalog classes, pull them back along the
standard maps, pair them with test curves, evaluate the enumerative formulas
and run the verification suite.  All output is byte-deterministic.

Each verb is defined in one place, one ``verb(...)`` call in
``build_parser``: its flags, the call that computes its result from the
parsed flags, and the writer that turns the result into text.  ``dispatch``
is one path for every verb: parse, call, write to stdout or ``--out``, and
map errors to exit codes.  A class flag that the named class does not take
is refused, as is a map parameter that the map kind does not take.

A verb loads only what it runs: the identity registry (``verify``) is
imported by the ``verify`` verb alone, so the other verbs do not compile it
at start-up."""

import argparse
import json
import sys

from .core import (
    ModuliBase,
    PicError,
    builtin_test_curve,
    pair,
    to_csv,
    to_json,
    to_latex,
)
from .maps import (
    InvalidMap,
    forget_point,
    glue_closed_tail,
    glue_tail,
    identify_points,
    pullback,
)
from .enumerative import (
    count_distinct_nonzero_roots,
    de_jonquieres,
    picard_degree,
    plucker,
    residue_polynomial,
)
from .catalog import CONSTRUCTORS, PARITIES


def _int_list(s):
    return tuple(int(x) for x in s.split(","))


def _build_class(args):
    """The catalog class named by --name, built from the class flags given,
    passed by keyword.  A flag the class does not take is refused; --parity
    may be left out, and the catalog function's default then applies."""
    name = args.name
    if name not in CONSTRUCTORS:
        raise PicError("unknown class %r (choose from %s)"
                       % (name, ", ".join(sorted(CONSTRUCTORS))))
    fn, wants = CONSTRUCTORS[name]
    # every class flag is a parameter of some catalog class
    flags = {w for _, ws in CONSTRUCTORS.values() for w in ws}
    given = {w: getattr(args, w) for w in flags if getattr(args, w) is not None}
    extra = sorted(set(given) - set(wants))
    if extra:
        raise PicError("class %r takes no flag %s"
                       % (name, ", ".join("--" + w for w in extra)))
    for w in wants:
        if w not in given and w != "parity":
            raise PicError("--%s is required for %r" % (w, name))
    return fn(**given)


def _parse_map(spec, codomain):
    """Parse a map descriptor such as ``glue-tail:h=1,j=0,at=1`` and derive
    the domain from the codomain of the class being pulled back.  A parameter
    the kind does not take, one given twice, or one whose value is not an
    integer raises InvalidMap before any map is built."""
    kind, _, rest = spec.partition(":")
    g, n = codomain
    # each kind: its parameters with their defaults, and how the map is built
    kinds = {
        "glue-tail": (dict(h=0, j=0, at=1),
                      lambda h, j, at: glue_tail(ModuliBase(g - h, n - j), h, j, at)),
        "glue-closed-tail": (dict(h=1, at=1),
                             lambda h, at: glue_closed_tail(ModuliBase(g - h, n + 1), h, at)),
        "identify-points": ({}, lambda: identify_points(ModuliBase(g - 1, n + 2))),
        "forget": (dict(j=n + 1), lambda j: forget_point(ModuliBase(g, n + 1), j)),
    }
    if kind not in kinds:
        raise InvalidMap("unknown map kind %r" % kind)
    params, build = kinds[kind]
    given = {}
    for part in rest.split(",") if rest else ():
        key, _, val = part.partition("=")
        if not val or key in given:
            raise InvalidMap("bad or repeated map parameter %r" % part)
        if key not in params:
            raise InvalidMap("map %s takes no parameter %s" % (kind, key))
        try:
            given[key] = int(val)
        except ValueError:
            raise InvalidMap("map parameter %s is not an integer: %r" % (key, val)) from None
    return build(**{**params, **given})


def _json(doc):
    return json.dumps(doc, separators=(",", ":"))


# a class is written as JSON, CSV or a LaTeX table; a value as JSON or bare text
_CLASS_FORMATS = ["json", "csv", "latex"]
_VALUE_FORMATS = ["json", "text"]


def _class_text(a, args):
    return {"json": to_json, "csv": to_csv, "latex": to_latex}[args.format](a)


def _value_text(v, args):
    return _json({"value": str(v)}) if args.format == "json" else str(v)


def _verify(args):
    from .verify import run_suite

    return run_suite(args.gmax, suite=args.suite, n_max=args.nmax, h_max=args.hmax)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="artifact",
        description="Exact divisor-class calculus on moduli of stable pointed curves.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, help, call, write, flags, formats=_VALUE_FORMATS):
        """A verb: its flags, then --format (unless formats is None) and
        --out; call(args) computes its result and write(result, args) the
        text that is printed."""
        p = sub.add_parser(name, help=help)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        if formats:
            p.add_argument("--format", default="json", choices=formats)
        p.add_argument("--out")
        p.set_defaults(call=call, write=write)

    need = dict(type=int, required=True)
    kappa = ("--kappa", dict(type=_int_list, required=True))
    # every class flag defaults to None, so that _build_class sees what is given
    cls = [("--name", dict(required=True)), ("--g", dict(type=int)),
           ("--k", dict(type=int)), ("--h", dict(type=int)),
           ("--d", dict(type=_int_list)), ("--parity", dict(choices=PARITIES))]

    verb("class", "print a catalog divisor class", _build_class, _class_text,
         cls, _CLASS_FORMATS)
    # the class is built first, then the map or the curve on its base
    verb("pullback", "pull a catalog class back along a map",
         lambda a: pullback(_parse_map(a.map, (c := _build_class(a)).base), c),
         _class_text, cls + [("--map", dict(
             required=True, help="descriptor, e.g. glue-tail:h=1,j=0,at=1 or forget:j=1"))],
         _CLASS_FORMATS)
    verb("pair", "pair a catalog class with a test curve",
         lambda a: pair(builtin_test_curve(a.curve, (c := _build_class(a)).base,
                                           i=a.i, n=a.n), c),
         _value_text, cls + [("--curve", dict(required=True)),
                             ("--i", dict(type=int)), ("--n", dict(type=int))])
    verb("dj", "count of canonical divisors with a zero profile",
         lambda a: de_jonquieres(a.g, a.kappa, ordered=a.ordered), _value_text,
         [("--g", need), kappa, ("--ordered", dict(
             action="store_true", help="count ordered zeros instead of configurations"))])
    verb("plucker", "ramification count of a linear series",
         lambda a: plucker(a.r, a.d, a.g), _value_text,
         [("--r", need), ("--d", need), ("--g", need)])
    verb("picdeg", "degree of the multiplication map on the Picard variety",
         lambda a: picard_degree(a.kappa, a.g), _value_text, [("--g", need), kappa])
    verb("residue", "residue polynomial of a two-pole rational differential",
         lambda a: residue_polynomial(a.j, a.k, a.m),
         lambda p, a: str(p) if a.format == "text" else _json(
             {"coeffs": list(p.coeffs),
              "distinct_nonzero_roots": count_distinct_nonzero_roots(p)}),
         [("--j", need), ("--k", need), ("--m", need)])
    verb("verify", "run the identity verification suite", _verify,
         lambda r, a: r.to_json() if a.as_json else r.summary(),
         [("--suite", dict(default="all")), ("--gmax", dict(type=int, default=5)),
          ("--nmax", dict(type=int, default=6)), ("--hmax", dict(type=int, default=4)),
          ("--json", dict(action="store_true", dest="as_json"))], None)
    return ap


def _join_list_flags(argv):
    # values like "-2,1,1" start with a dash and would be mistaken for flags;
    # fold them into the preceding option as --flag=value
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--d", "--kappa"):
            val = next(it, None)
            out.append(tok if val is None else "%s=%s" % (tok, val))
        else:
            out.append(tok)
    return out


def dispatch(argv):
    try:
        args = build_parser().parse_args(_join_list_flags(argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        result = args.call(args)
        text = args.write(result, args)
        if not text.endswith("\n"):
            text += "\n"
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    except (PicError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    # a verification report that fails exits 1; every other result succeeds
    return 0 if getattr(result, "ok", True) else 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
