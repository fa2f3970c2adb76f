"""One pass of one benchmark workload, in a fresh process.

Reads a job (JSON) on stdin, imports the package, runs the pass op by op with
each op timed, checks every answer after the timed region, and prints one
JSON line: when set-up ended (``time.monotonic``, comparable with the parent's
clock), per-op seconds and verdicts and, untraced, each op's factor to
reference seconds (see speed.py); traced, the per-span summary, the targets
not found and the time the tracing added.  Program caches start cold because every pass
gets its own process, as every CLI invocation does.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import speed
from tracer import Tracer


def expected():
    return json.loads((Path(__file__).parent / "expected.json").read_text())


def sha(data):
    return hashlib.sha256(data.encode()).hexdigest()


def class_digest(a):
    """Digest of a class's exact coefficients, independent of the package's
    serializers and of boundary key order."""
    rows = ["%d,%d" % (a.base.g, a.base.n), str(a.lam),
            ",".join(map(str, a.psi)), str(a.delta0)]
    rows += sorted("%d:%s:%s" % (k.i, ",".join(map(str, sorted(k.S))), c)
                   for k, c in a.boundary.items())
    return sha("\n".join(rows))


def reference_de_jonquieres(g, ks, ordered):
    """The de Jonquieres count through elementary symmetric sums, O(rho^2)."""
    rho = len(ks)
    e = [1] + [0] * rho
    for k in ks:
        for t in range(rho, 0, -1):
            e[t] += e[t - 1] * k
    inner = Fraction((-1) ** rho, g)
    for j in range(rho):
        inner += Fraction((-1) ** j * e[rho - j], g - rho + j)
    val = Fraction(math.factorial(g), math.factorial(g - rho - 1)) * math.prod(ks) * inner
    if not ordered:
        val /= math.prod(math.factorial(c) for c in Counter(ks).values())
    return val


# -- workloads: setup(job) -> state; ops(job, state) -> [(label, thunk)];
#    check(job, state, labels, results) -> [bool per op]

def setup_suite(job):
    from artifact import verify
    return {"run": verify.run_relation}


def ops_suite(job, st):
    run = st["run"]
    return [(name, lambda n=name, p=params: run(n, p)) for name, params in job["cases"]]


def check_suite(job, st, labels, results):
    return [e is not None and e.passed and e.relation == name
            for (name, _), e in zip(job["cases"], results)]


def setup_wide(job):
    import artifact
    return {"a": artifact}


def ops_wide(job, st):
    A = st["a"]  # names are looked up at call time, so a traced pass sees wrappers
    g, sigma = job["g"], job["sigma"]
    inverse = [0] * g
    for old, new in enumerate(sigma, start=1):
        inverse[new - 1] = old
    M = A.ModuliBase
    r = st["r"] = {}

    def step(label, fn):
        def run():
            r[label] = fn()
            return r[label]
        return label, run

    return [
        step("logan", lambda: A.logan_class(g, (1,) * g)),
        step("theta", lambda: A.theta_pullback_class(g, job["theta_d"])),
        step("pinch", lambda: A.pinch_partition(g, job["pinch_d"])),
        step("pull_tail_point", lambda: A.pullback(
            A.glue_tail(M(g, 1), 0, g - 1, 1), r["logan"])),
        step("pull_tail_genus", lambda: A.pullback(
            A.glue_tail(M(g - 1, g - 1), 1, 1, attach=g - 1), r["logan"])),
        step("pull_closed_tail", lambda: A.pullback(
            A.glue_closed_tail(M(g - 1, g + 1), 1, 1), r["logan"])),
        step("pull_identify", lambda: A.pullback(
            A.identify_points(M(g - 1, g + 2)), r["pinch"])),
        step("pull_forget", lambda: A.pullback(
            A.forget_point(M(g, g + 1), g + 1), r["logan"])),
        step("relabel_logan", lambda: A.core.relabel(r["logan"], sigma)),
        step("relabel_theta", lambda: A.core.relabel(r["theta"], inverse)),
        step("to_json", lambda: A.to_json(r["logan"])),
        step("to_csv", lambda: A.to_csv(r["logan"])),
        step("from_json", lambda: A.from_json(r["to_json"])),
        step("equals", lambda: A.equals(r["from_json"], r["logan"])),
        step("latex_class", lambda: A.logan_class(job["latex_g"], (1,) * job["latex_g"])),
        step("to_latex", lambda: A.to_latex(r["latex_class"])),
    ]


def check_wide(job, st, labels, results):
    A, r, g = st["a"], st["r"], job["g"]
    want = expected()[job["size"]]["wide"]
    if len(r) != len(results):
        return [False] * len(results)
    digest = {k: class_digest(v) for k, v in r.items()
              if isinstance(v, A.DivisorClass)}
    ok = {
        # the R4 and R5 identities at n = g
        "pull_tail_point": digest["pull_tail_point"] == class_digest(A.weierstrass(g)),
        "pull_tail_genus": digest["pull_tail_genus"]
        == class_digest(A.logan_class(g - 1, (1,) * (g - 1))),
        "relabel_logan": digest["relabel_logan"] == digest["logan"],
        "from_json": digest["from_json"] == digest["logan"],
        "equals": r["equals"] is True,
        "to_json": sha(r["to_json"]) == want["to_json"],
        "to_csv": sha(r["to_csv"]) == want["to_csv"],
        "to_latex": sha(r["to_latex"]) == want["to_latex"],
    }
    # the seeded theta class is checked through its relabeling back to the
    # recorded unpermuted weights
    ok["relabel_theta"] = digest["relabel_theta"] == want["theta"]
    ok["theta"] = ok["relabel_theta"]
    for label in ("logan", "pinch", "pull_closed_tail", "pull_identify",
                  "pull_forget", "latex_class"):
        ok[label] = digest[label] == want[label]
    return [ok[label] for label in labels]


def setup_counts(job):
    from artifact import enumerative as E
    t0 = time.perf_counter()
    E.count_distinct_nonzero_roots(E.residue_polynomial(2, 2, 1))
    return {"E": E, "first_s": time.perf_counter() - t0}


def ops_counts(job, st):
    E = st["E"]
    out = []
    for op in job["ops"]:
        if op[0] == "roots":
            j, k, m = op[1:]
            out.append(("roots", lambda j=j, k=k, m=m: E.count_distinct_nonzero_roots(
                E.residue_polynomial(j, k, m))))
        else:
            g, ks, ordered = op[1:]
            out.append(("dj", lambda g=g, ks=ks, o=ordered: E.de_jonquieres(g, ks, ordered=o)))
    return out


def check_counts(job, st, labels, results):
    roots = expected()["roots"]
    ok = []
    for op, got in zip(job["ops"], results):
        if op[0] == "roots":
            ok.append(got == roots.get("%d,%d,%d" % tuple(op[1:])))
        else:
            ok.append(got == reference_de_jonquieres(*op[1:]))
    return ok


def setup_cold_cli(job):
    from artifact import cli
    return {"cli": cli}


def ops_cold_cli(job, st):
    """In-process ``dispatch`` of the CLI invocations, used by traced runs."""
    cli = st["cli"]

    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.dispatch(argv)
        return rc, buf.getvalue()

    return [(label, lambda a=argv: call(a)) for label, argv in job["cli"]]


def check_cold_cli(job, st, labels, results):
    want = expected()[job["size"]]["cold_cli"]
    return [res is not None and res[0] == 0 and sha(res[1]) == want[label]
            for (label, _), res in zip(job["cli"], results)]


WORKLOADS = {
    "suite": (setup_suite, ops_suite, check_suite),
    "wide": (setup_wide, ops_wide, check_wide),
    "counts": (setup_counts, ops_counts, check_counts),
    "cold_cli": (setup_cold_cli, ops_cold_cli, check_cold_cli),
}


def main():
    job = json.loads(sys.stdin.read())
    setup, make_ops, check = WORKLOADS[job["workload"]]
    st = setup(job)
    ready = time.monotonic()
    out = {"ready": ready, "first_s": st.get("first_s", 0.0)}
    if job.get("setup_only"):
        print(json.dumps(out))
        return
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    ops = make_ops(job, st)
    sampler = None if tracer else speed.Sampler()  # untraced: reference seconds
    spans, results, errors = [], [], []
    if sampler:
        sampler.start()
    for label, thunk in ops:
        span = tracer.open("op." + label) if tracer else None
        t0 = time.perf_counter()
        try:
            res = thunk()
        except Exception as e:  # one failed op must not hide the others
            res = None
            errors.append("%s: %s: %s" % (label, type(e).__name__, e))
        spans.append((t0, time.perf_counter()))
        if tracer:
            tracer.close(span)
        results.append(res)
    if sampler:
        sampler.stop()
        times, out["scale"] = sampler.rescale(spans)
    else:
        times = [t1 - t0 for t0, t1 in spans]
    if tracer:
        tracer.active = False
    try:
        ok = check(job, st, [label for label, _ in ops], results)
    except Exception as e:  # an op that left no usable result
        errors.append("check: %s: %s" % (type(e).__name__, e))
        ok = [False] * len(results)
    out.update(op_s=times, ok=ok, errors=errors[:20])
    if tracer:
        out["spans"] = tracer.summary()
        out["counters"] = tracer.counters
        out["missing"] = tracer.missing
        out["overhead"] = tracer.span_cost() * len(tracer.start)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
