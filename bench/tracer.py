"""Span tracing of the artifact package from outside.

``Tracer.install`` replaces the package's functions with wrappers that record
one span (name, start, end, parent) per call.  Each function is patched under
every name it is reachable by: its own module attribute, the copies that other
modules re-imported (``catalog.enumerate_boundary``, ``verify.pullback`` ...),
and the dispatch tables that hold it (``catalog.CONSTRUCTORS``,
``maps._HANDLERS``, ``verify.RELATIONS``).  Without that, inner calls would
escape the trace.  Spans stay in memory; ``summary`` folds them into calls and
self time per name, and ``write`` stores them once the pass is over.  A target
that the package no longer has is listed in ``missing``, so that its metrics
can be reported as absent rather than as zero.
"""

import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

MODULES = ["core", "maps", "catalog", "enumerative", "verify", "cli"]

# the plain functions that are wrapped; each span is named "<module>.<attr>"
FUNCTIONS = [
    ("core", "try_canonical_index"),
    ("core", "enumerate_boundary"),
    ("core", "equals"),
    ("core", "diff_first"),
    ("core", "normalize_genus2"),
    ("core", "relabel"),
    ("core", "pair"),
    ("core", "to_json"),
    ("core", "to_csv"),
    ("core", "to_latex"),
    ("core", "from_json"),
    ("catalog", "_assemble"),
    ("enumerative", "de_jonquieres"),
    ("enumerative", "count_distinct_nonzero_roots"),
    ("enumerative", "residue_polynomial"),
]

# fixed so that the metric names do not depend on the tree being measured
CONSTRUCTORS = ["weierstrass", "residual", "diaz", "d1-holo", "d1-mero", "logan",
                "theta-pullback", "theta-char", "antiram", "coupled", "pinch",
                "bn", "dinf"]
RELATIONS = ["R1", "R2", "R3", "R4", "R4b", "R5", "R6a", "R6b", "R7", "R8a",
             "R8b", "R9a", "R9b", "R10", "R11a", "R11b", "R12a", "R12b", "R13",
             "R14", "R15", "R16", "R17", "R18"]
MAP_VARIANTS = ["glue-tail", "glue-closed-tail", "identify-points", "forget"]
CLI_LABELS = ["class", "pullback", "pair", "latex", "residue", "dj", "verify"]
CLI_CHILD = ["small", "latex", "residue", "dj", "verify"]

# per-layer metrics beyond .calls and .self_s, as (suffix, unit, better)
EXTRA = {
    "core.enumerate_boundary": [("keys", "count", "lower"),
                                ("distinct_ratio", "ratio", "higher")],
    "core.to_json": [("bytes", "count", "lower")],
    "core.to_csv": [("bytes", "count", "lower")],
    "core.to_latex": [("bytes", "count", "lower")],
    "catalog._assemble": [("keys", "count", "lower")],
    "enumerative.count_distinct_nonzero_roots": [("first_s", "s", "lower")],
}

# counts that must repeat exactly between two traced passes of one seed
COUNTERS = ["core.enumerate_boundary.keys", "core.enumerate_boundary.bases",
            "catalog._assemble.keys", "core.to_json.bytes", "core.to_csv.bytes",
            "core.to_latex.bytes", "maps.pullback.keys_in",
            "maps.pullback.keys_out"]


def _timed(span, count="calls"):
    return [(span + "." + count, "count", "lower"), (span + ".self_s", "s", "lower")]


def layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, attr in FUNCTIONS + [("core", "DivisorClass")]:
        span = module + "." + attr
        out += _timed(span) + [(span + "." + k, u, b) for k, u, b in EXTRA.get(span, [])]
    out += [("maps.pullback.keys_in", "count", "lower"),
            ("maps.pullback.keys_out", "count", "lower")]
    for v in MAP_VARIANTS:
        out += _timed("maps.pullback." + v)
    out += [("catalog.%s.self_s" % c, "s", "lower") for c in CONSTRUCTORS]
    for r in RELATIONS:
        out += _timed("verify." + r, "cases")
    out += [("cli.interpreter_s", "s", "lower"), ("cli.import_s", "s", "lower")]
    out += [("cli.dispatch.%s.self_s" % v, "s", "lower") for v in CLI_LABELS]
    out += [("cli.child.%s_ms" % v, "ms", "lower") for v in CLI_CHILD]
    out += [("trace.overhead_s", "s", "lower"), ("trace.untraced_layers", "count", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._bases = set()
        self.missing = []  # span names of targets the package does not have
        self.active = True  # cleared when the pass ends, before its answers are checked

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.start)
        self.span_name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        tracer = self

        def traced(*args, **kw):
            if not tracer.active:
                return fn(*args, **kw)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kw)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _after(self, span):
        c = self.counters
        if span == "core.enumerate_boundary":
            def after(args, r):
                c["core.enumerate_boundary.keys"] += len(r)
                if args[0] not in self._bases:
                    self._bases.add(args[0])
                    c["core.enumerate_boundary.bases"] += 1
            return after
        if span == "catalog._assemble":
            def after(args, r):
                c["catalog._assemble.keys"] += len(r)
            return after
        if span in ("core.to_json", "core.to_csv", "core.to_latex"):
            key = span + ".bytes"

            def after(args, r):
                c[key] += len(r.encode())
            return after
        return None

    def install(self):
        """Wrap every target in the artifact package; list the absent ones."""
        missing = self.missing
        for name in MODULES:
            importlib.import_module("artifact." + name)
        mods = {n.split(".")[-1]: m for n, m in list(sys.modules.items())
                if n == "artifact" or n.startswith("artifact.")}
        for modname, attr in FUNCTIONS:
            span = modname + "." + attr
            fn = getattr(mods.get(modname), attr, None)
            if fn is None:
                missing.append(span)
                continue
            self._patch(mods, fn, self.wrap(span, fn, self._after(span)))

        cls = getattr(mods["core"], "DivisorClass", None)
        if cls is None:
            missing.append("core.DivisorClass")
        else:
            cls.__init__ = self.wrap("core.DivisorClass", cls.__init__)

        constructors = getattr(mods["catalog"], "CONSTRUCTORS", {})
        for name in CONSTRUCTORS:
            entry = constructors.get(name)
            if entry is None:
                missing.append("catalog." + name)
                continue
            fn, wants = entry
            w = self.wrap("catalog." + name, fn)
            self._patch(mods, fn, w)
            constructors[name] = (w, wants)

        handlers = getattr(mods["maps"], "_HANDLERS", None)
        if handlers is None:
            missing.append("maps.pullback")  # the key counts as well
            handlers = {}
        for v in MAP_VARIANTS:
            if v not in handlers:
                missing.append("maps.pullback." + v)
                continue
            handlers[v] = self.wrap("maps.pullback." + v, handlers[v],
                                    self._count_pullback)

        relations = getattr(mods["verify"], "RELATIONS", {})
        for name in RELATIONS:
            if name not in relations:
                missing.append("verify." + name)
        for name, rel in relations.items():
            rel.run = self.wrap("verify." + name, rel.run)

    def _count_pullback(self, args, r):
        self.counters["maps.pullback.keys_in"] += len(args[1].boundary)
        self.counters["maps.pullback.keys_out"] += len(r.boundary)

    @staticmethod
    def _patch(mods, fn, wrapper):
        for m in mods.values():
            for attr, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, attr, wrapper)

    # -- results ----------------------------------------------------------

    def span_cost(self, calls=20000, rounds=5):
        """Seconds one traced call adds to a plain one: the best of a few
        rounds of wrapped and bare calls of a no-op, on a throwaway tracer."""
        def noop():
            return None

        wrapped = Tracer().wrap("probe", noop)
        best = float("inf")
        for _ in range(rounds):
            t0 = perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = perf_counter()
            for _ in range(calls):
                noop()
            t2 = perf_counter()
            best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
        return best


    def summary(self):
        """{span name: [calls, self seconds]}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            row = out.setdefault(self.names[self.span_name[i]], [0, 0.0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path):
        """Store every span as parallel columns, times in ns from the first."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
        }
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))
