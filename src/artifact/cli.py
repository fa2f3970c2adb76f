"""Command-line front end: build catalog classes, pull them back along the
standard maps, pair them with test curves, evaluate the enumerative formulas
and run the verification suite.  All output is byte-deterministic.

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
    name = args.name
    if name not in CONSTRUCTORS:
        raise PicError("unknown class %r (choose from %s)"
                       % (name, ", ".join(sorted(CONSTRUCTORS))))
    fn, wants = CONSTRUCTORS[name]
    kw = []
    for w in wants:
        v = getattr(args, w)
        if v is None:
            raise PicError("--%s is required for %r" % (w, name))
        kw.append(v)
    return fn(*kw)


def _parse_map(spec, codomain):
    """Parse a map descriptor such as ``glue-tail:h=1,j=0,at=1`` and derive
    the domain from the codomain of the class being pulled back.  A parameter
    the kind does not take, or one given twice, raises InvalidMap."""
    kind, _, rest = spec.partition(":")
    params = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            if not val or key in params:
                raise InvalidMap("bad or repeated map parameter %r" % part)
            params[key] = int(val)
    g, n = codomain
    if kind == "glue-tail":
        h, j = params.pop("h", 0), params.pop("j", 0)
        m = glue_tail(ModuliBase(g - h, n - j), h, j, params.pop("at", 1))
    elif kind == "glue-closed-tail":
        h = params.pop("h", 1)
        m = glue_closed_tail(ModuliBase(g - h, n + 1), h, params.pop("at", 1))
    elif kind == "identify-points":
        m = identify_points(ModuliBase(g - 1, n + 2))
    elif kind == "forget":
        m = forget_point(ModuliBase(g, n + 1), params.pop("j", n + 1))
    else:
        raise InvalidMap("unknown map kind %r" % kind)
    if params:
        raise InvalidMap("map %s takes no parameter %s" % (kind, ", ".join(params)))
    return m


def _emit(text, args):
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_class(a, args):
    if args.format == "json":
        _emit(to_json(a), args)
    elif args.format == "csv":
        _emit(to_csv(a), args)
    else:
        _emit(to_latex(a), args)


def _emit_value(v, args):
    if args.format == "json":
        _emit(json.dumps({"value": str(v)}, separators=(",", ":")), args)
    else:
        _emit(str(v), args)


def _add_class_flags(p):
    p.add_argument("--name", required=True)
    p.add_argument("--g", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--d", type=_int_list)
    p.add_argument("--parity", default="total", choices=PARITIES)


# a class is written as JSON, CSV or a LaTeX table; a value as JSON or bare text
_CLASS_FORMATS = ["json", "csv", "latex"]
_VALUE_FORMATS = ["json", "text"]


def _add_common(p, formats):
    p.add_argument("--format", default="json", choices=formats)
    p.add_argument("--out")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="artifact",
        description="Exact divisor-class calculus on moduli of stable pointed curves.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("class", help="print a catalog divisor class")
    _add_class_flags(p)
    _add_common(p, _CLASS_FORMATS)

    p = sub.add_parser("pullback", help="pull a catalog class back along a map")
    _add_class_flags(p)
    p.add_argument("--map", required=True,
                   help="descriptor, e.g. glue-tail:h=1,j=0,at=1 or forget:j=1")
    _add_common(p, _CLASS_FORMATS)

    p = sub.add_parser("pair", help="pair a catalog class with a test curve")
    _add_class_flags(p)
    p.add_argument("--curve", required=True)
    p.add_argument("--i", type=int)
    p.add_argument("--n", type=int)
    _add_common(p, _VALUE_FORMATS)

    p = sub.add_parser("dj", help="count of canonical divisors with a zero profile")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--kappa", type=_int_list, required=True)
    p.add_argument("--ordered", action="store_true",
                   help="count ordered zeros instead of configurations")
    _add_common(p, _VALUE_FORMATS)

    p = sub.add_parser("plucker", help="ramification count of a linear series")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    _add_common(p, _VALUE_FORMATS)

    p = sub.add_parser("picdeg", help="degree of the multiplication map on the Picard variety")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--kappa", type=_int_list, required=True)
    _add_common(p, _VALUE_FORMATS)

    p = sub.add_parser("residue", help="residue polynomial of a two-pole rational differential")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p, _VALUE_FORMATS)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--gmax", type=int, default=5)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--hmax", type=int, default=4)
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--out")
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
    ap = build_parser()
    try:
        args = ap.parse_args(_join_list_flags(argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.verb == "class":
            _emit_class(_build_class(args), args)
        elif args.verb == "pullback":
            a = _build_class(args)
            m = _parse_map(args.map, a.base)
            _emit_class(pullback(m, a), args)
        elif args.verb == "pair":
            a = _build_class(args)
            curve = builtin_test_curve(args.curve, a.base, i=args.i, n=args.n)
            _emit_value(pair(curve, a), args)
        elif args.verb == "dj":
            _emit_value(de_jonquieres(args.g, args.kappa, ordered=args.ordered), args)
        elif args.verb == "plucker":
            _emit_value(plucker(args.r, args.d, args.g), args)
        elif args.verb == "picdeg":
            _emit_value(picard_degree(args.kappa, args.g), args)
        elif args.verb == "residue":
            p = residue_polynomial(args.j, args.k, args.m)
            if args.format == "json":
                _emit(json.dumps(
                    {"coeffs": list(p.coeffs),
                     "distinct_nonzero_roots": count_distinct_nonzero_roots(p)},
                    separators=(",", ":")), args)
            else:
                _emit(str(p), args)
        elif args.verb == "verify":
            from .verify import run_suite

            report = run_suite(args.gmax, suite=args.suite,
                               n_max=args.nmax, h_max=args.hmax)
            if args.as_json:
                _emit(report.to_json(), args)
            else:
                _emit(report.summary(), args)
            if not report.ok:
                return 1
    except (PicError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
