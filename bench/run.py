"""Benchmark of the artifact package: one workload per invocation.

    python3 bench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Every pass runs in a fresh worker process (bench/worker.py) started from this
one, one at a time, so caches, imports and memory never carry over from one
pass to the next.  Passes repeat until ``--seconds`` is used up (at least
two).  Every answer is checked; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, in reference seconds (see bench/speed.py);
``--trace 1`` runs two traced passes and reports the per-layer metrics (see
bench/README.md).  The exit code is 0 only when every answer was right.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
import worker  # noqa: E402
from tracer import CLI_CHILD, CLI_LABELS, COUNTERS, layer_metrics  # noqa: E402

WORKLOADS = ["suite", "wide", "counts", "cold_cli"]
CHILD_TIMEOUT = 170
SETUPS = 5  # set-up times per run, at least; setup_s is their median

# inputs at the benchmark's size and at the small size used by --smoke
SIZES = {
    "full": {
        "suite": (12, 6, 4),  # gmax, nmax, hmax
        "wide_g": 12,  # g = n of the wide base
        "latex_g": 8,  # to_latex is quadratic on the seed tree; see README
        "jk_max": 12,
        "rho_max": 18,
        "cli": [
            ("class", ["class", "--name", "weierstrass", "--g", "5"]),
            ("pullback", ["pullback", "--name", "residual", "--g", "4",
                          "--map", "glue-tail:h=1,j=0,at=1"]),
            ("pair", ["pair", "--name", "residual", "--g", "4", "--curve", "E"]),
            ("latex", ["class", "--name", "logan", "--g", "7",
                       "--d", "1,1,1,1,1,1,1", "--format", "latex"]),
            ("residue", ["residue", "--j", "4", "--k", "5", "--m", "5"]),
            ("dj", ["dj", "--g", "20", "--kappa", ",".join(["2", "2"] + ["1"] * 16)]),
            ("verify", ["verify", "--gmax", "5"]),
        ],
    },
    "smoke": {
        "suite": (4, 4, 2),
        "wide_g": 5,
        "latex_g": 4,
        "jk_max": 5,
        "rho_max": 6,
        "cli": [
            ("class", ["class", "--name", "weierstrass", "--g", "3"]),
            ("pullback", ["pullback", "--name", "residual", "--g", "4",
                          "--map", "forget:j=1"]),
            ("pair", ["pair", "--name", "weierstrass", "--g", "3", "--curve", "A"]),
            ("latex", ["class", "--name", "logan", "--g", "4",
                       "--d", "1,1,1,1", "--format", "latex"]),
            ("residue", ["residue", "--j", "3", "--k", "3", "--m", "2"]),
            ("dj", ["dj", "--g", "8", "--kappa", "2,1,1,1,1,1"]),
            ("verify", ["verify", "--gmax", "3"]),
        ],
    },
}


class BenchError(Exception):
    pass


def child_env():
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return min(left, CHILD_TIMEOUT)


# -- inputs -------------------------------------------------------------------

def theta_weights(g):
    """Nonzero weights summing to g-1 with two poles: (3, 2, 1, ..., 1, -1, -1)."""
    return [3, 2] + [1] * (g - 4) + [-1, -1]


def pinch_weights(g):
    """Holomorphic weights summing to g-1: (2, 1, ..., 1, 0, 0)."""
    return [2] + [1] * (g - 3) + [0, 0]


def suite_cases(size):
    from artifact.verify import RELATIONS
    return [[name, params] for name, rel in RELATIONS.items()
            for params in rel.cases(*SIZES[size]["suite"])]


def make_job(workload, seed, size):
    """The workload's inputs, drawn from the seed.  The seed fixes the case
    order, the wide permutation and the de Jonquieres profiles; the amount of
    work does not depend on it."""
    rng = random.Random(seed)
    cfg = SIZES[size]
    job = {"workload": workload, "size": size, "trace": False}
    if workload == "suite":
        job["cases"] = suite_cases(size)
        rng.shuffle(job["cases"])
    elif workload == "wide":
        g = cfg["wide_g"]
        sigma = list(range(1, g + 1))
        rng.shuffle(sigma)
        d0 = theta_weights(g)
        theta_d = [0] * g
        for old, new in enumerate(sigma):
            theta_d[new - 1] = d0[old]
        job.update(g=g, sigma=sigma, theta_d=theta_d, pinch_d=pinch_weights(g),
                   latex_g=cfg["latex_g"])
    elif workload == "counts":
        top = cfg["jk_max"]
        ops = [["roots", j, k, m] for j in range(2, top + 1)
               for k in range(2, top + 1) for m in range(1, j + k - 2)]
        for rho in range(1, cfg["rho_max"] + 1):
            ks = [rng.randint(1, 3) for _ in range(rho)]
            g = rho + 1 + rng.randint(0, 3)
            ops += [["dj", g, ks, True], ["dj", g, ks, False]]
        rng.shuffle(ops)
        job["ops"] = ops
    else:
        job["cli"] = [list(x) for x in cfg["cli"]]
        rng.shuffle(job["cli"])
    return job


# -- processes ----------------------------------------------------------------

def run_worker(job, deadline, **extra):
    """One pass in a fresh worker.  Untraced, its op times are turned into
    reference seconds, and ``setup`` (spawn to ready) is added in reference
    seconds, between two bare interpreter starts."""
    timed = not extra.get("trace")
    before = bare_start(deadline) if timed else None
    t0 = time.monotonic()
    try:
        p = subprocess.run([sys.executable, str(HERE / "worker.py")],
                           input=json.dumps(dict(job, **extra)), capture_output=True,
                           text=True, env=child_env(), cwd=ROOT,
                           timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out")
    if p.returncode != 0:
        raise BenchError("worker failed:\n" + p.stderr[-2000:])
    out = json.loads(p.stdout.strip().splitlines()[-1])
    if timed:
        out["raw_setup"] = out["ready"] - t0
        out["setup"] = out["raw_setup"] * speed.factor(
            speed.REF_START_S, [before, bare_start(deadline)])
    if "scale" in out:
        out["raw_wall"] = sum(out["op_s"])
        out["op_s"] = [t * f for t, f in zip(out["op_s"], out["scale"])]
        out["wall"] = sum(out["op_s"])
    for e in out.get("errors", []):
        print("op error: " + e, file=sys.stderr)
    return out


def run_child(argv, deadline):
    """Wall seconds, exit code and stdout of one short-lived interpreter."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                           env=child_env(), cwd=ROOT, timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("child timed out: %s" % " ".join(argv))
    return time.perf_counter() - t0, p.returncode, p.stdout


def bare_start(deadline):
    """Raw seconds of ``python -c pass``, the calibration of process times."""
    dt, rc, _ = run_child(["-c", "pass"], deadline)
    if rc != 0:
        raise BenchError("cannot start python")
    return dt


def cli_pass(job, deadline):
    """Each CLI invocation as its own ``python -m artifact.cli`` process,
    timed in reference seconds between bare interpreter starts."""
    starts = [bare_start(deadline)]
    raw, op_s, results = [], [], []
    for _, argv in job["cli"]:
        dt, rc, stdout = run_child(["-m", "artifact.cli"] + argv, deadline)
        starts.append(bare_start(deadline))
        raw.append(dt)
        op_s.append(dt * speed.factor(speed.REF_START_S, starts[-2:]))
        results.append((rc, stdout))
    labels = [label for label, _ in job["cli"]]
    ok = worker.check_cold_cli(job, None, labels, results)
    for label, good, (rc, _) in zip(labels, ok, results):
        if not good:
            print("op error: %s exited %d or printed other bytes" % (label, rc),
                  file=sys.stderr)
    return {"wall": sum(op_s), "raw_wall": sum(raw), "op_s": op_s, "ok": ok,
            "by_label": dict(zip(labels, op_s))}


def import_cli(deadline):
    """Raw seconds of ``python -c "import artifact.cli"``."""
    dt, rc, _ = run_child(["-c", "import artifact.cli"], deadline)
    if rc != 0:
        raise BenchError("cannot import artifact.cli")
    return dt


def pin_cpu():
    """Keep this process and its children on one CPU, so that a calibration
    and the work beside it run on the same one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- runs ---------------------------------------------------------------------

def untraced(job, seconds, deadline):
    """Passes until ``seconds`` are used up; returns passes and set-up times."""
    t_start = time.monotonic()
    passes, setups = [], []
    if job["workload"] == "cold_cli":
        for _ in range(SETUPS):
            before = bare_start(deadline)
            dt = import_cli(deadline)
            setups.append(dt * speed.factor(speed.REF_START_S, [before, bare_start(deadline)]))
    while True:
        t0 = time.monotonic()
        if job["workload"] == "cold_cli":
            p = cli_pass(job, deadline)
        else:
            p = run_worker(job, deadline)
            setups.append(p["setup"])
        passes.append(dict(p, life=time.monotonic() - t0))
        per_pass = statistics.median(q["life"] for q in passes)
        if len(passes) >= 2 and time.monotonic() - t_start + per_pass > seconds:
            break
    while len(setups) < SETUPS:
        setups.append(run_worker(job, deadline, setup_only=True)["setup"])
    return passes, setups


def end_to_end(passes, setups):
    # every pass runs the same ops in the same order; each op's latency is
    # its median over the passes
    op_s = [statistics.median(ts) for ts in zip(*(p["op_s"] for p in passes))]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "ops_per_s": (statistics.median(len(p["op_s"]) / p["wall"] for p in passes), "1/s"),
        "op_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(op_s, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


def per_layer(job, deadline):
    """Two traced passes of the same inputs.  Returns the passes, the
    per-layer metrics and the counts that differed between the two passes
    (they must not: the package is deterministic).  A metric of a layer the
    tracer could not find is None, so that it cannot read as a gain."""
    OUT.mkdir(exist_ok=True)
    a = run_worker(job, deadline, trace=True)
    b = run_worker(job, deadline, trace=True,
                   spans_path=str(OUT / ("%s.spans.json.gz" % job["workload"])))
    passes = [a, b]
    mismatched = [k for k in COUNTERS if a["counters"][k] != b["counters"][k]]
    mismatched += [k for k in set(a["spans"]) | set(b["spans"])
                   if a["spans"].get(k, [0])[0] != b["spans"].get(k, [0])[0]]

    def self_s(span):
        return statistics.mean(p["spans"].get(span, [0, 0.0])[1] for p in (a, b))

    values = dict(a["counters"])
    for name, _, _ in layer_metrics():
        stem, _, kind = name.rpartition(".")
        if kind in ("calls", "cases"):
            values[name] = a["spans"].get(stem, [0])[0]
        elif kind == "self_s":
            values[name] = self_s(stem)
    calls = values["core.enumerate_boundary.calls"]
    values["core.enumerate_boundary.distinct_ratio"] = (
        values["core.enumerate_boundary.bases"] / calls if calls else 0.0)
    values["enumerative.count_distinct_nonzero_roots.first_s"] = statistics.mean(
        [a["first_s"], b["first_s"]])
    values["trace.overhead_s"] = statistics.mean([a["overhead"], b["overhead"]])
    # the CLI layer: only cold_cli calls it; its ops are the dispatch spans
    for label in CLI_LABELS:
        values["cli.dispatch.%s.self_s" % label] = (
            self_s("op." + label) if job["workload"] == "cold_cli" else 0.0)
    values.update(dict.fromkeys(["cli.interpreter_s", "cli.import_s"]
                                + ["cli.child.%s_ms" % v for v in CLI_CHILD], 0.0))
    if job["workload"] == "cold_cli":
        bare = statistics.median(bare_start(deadline) for _ in range(3))
        imp = statistics.median(import_cli(deadline) for _ in range(3))
        child = cli_pass(job, deadline)
        passes.append(child)
        ms = {k: v * 1e3 for k, v in child["by_label"].items()}
        values.update({
            "cli.interpreter_s": bare,
            "cli.import_s": imp - bare,
            "cli.child.small_ms": statistics.median([ms["class"], ms["pullback"], ms["pair"]]),
            "cli.child.latex_ms": ms["latex"],
            "cli.child.residue_ms": ms["residue"],
            "cli.child.dj_ms": ms["dj"],
            "cli.child.verify_ms": ms["verify"],
        })
    missing = sorted(set(a["missing"]))
    if missing:
        print("tracer: not found, reported as null: %s" % ", ".join(missing),
              file=sys.stderr)
    values["trace.untraced_layers"] = len(missing)
    metrics = {}
    for name, unit, _ in layer_metrics():
        absent = any(name.startswith(m + ".") for m in missing)
        metrics[name] = (None if absent else values[name], unit)
    return passes, metrics, mismatched


def run(workload, seed, seconds, trace, size="full"):
    """Run one workload; returns the result object that is printed."""
    deadline = time.monotonic() + 175
    pin_cpu()
    if not (SRC / "artifact").is_dir():
        raise BenchError("no package source at %s" % SRC)
    job = make_job(workload, seed, size)
    problems = []
    if workload == "suite":
        want = json.loads((HERE / "expected.json").read_text())[size]["suite"]
        got = {}
        for name, _ in job["cases"]:
            got[name] = got.get(name, 0) + 1
        if got != want:
            problems.append("suite cases differ from the recorded registry: %r" % got)
    if trace:
        passes, values, mismatched = per_layer(job, deadline)
        if mismatched:
            problems.append("traced counts differ between two passes: %s"
                            % ", ".join(sorted(mismatched)))
    else:
        passes, setups = untraced(job, seconds, deadline)
        values = end_to_end(passes, setups)
        print("raw median pass %.4f s; machine speed %.3f of the reference"
              % (statistics.median(p["raw_wall"] for p in passes),
                 statistics.median(p["wall"] / p["raw_wall"] for p in passes)),
              file=sys.stderr)
    attempted = sum(len(p["ok"]) for p in passes)
    failed = sum(not ok for p in passes for ok in p["ok"])
    for msg in problems:
        print("check failed: " + msg, file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def smoke():
    """Every workload at the small size, untraced and traced; checks that the
    answers are right and the metric names are those of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    ok = [w["name"] for w in spec["workloads"]] == WORKLOADS
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run(workload, seed=1, seconds=1, trace=trace, size="smoke")
            good = res["correct"] and sorted(res["metrics"]) == sorted(names[trace])
            ok &= good
            print("%-8s trace=%d %s (%d ops)" % (workload, trace,
                                                 "ok" if good else "FAILED", res["attempted"]))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly at a small size")
    args = ap.parse_args()
    try:
        if args.smoke:
            return 0 if smoke() else 1
        if args.workload is None:
            ap.error("--workload is required")
        res = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
