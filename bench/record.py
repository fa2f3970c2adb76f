"""Record the benchmark's expected answers from the current tree.

    python3 bench/record.py

Writes bench/expected.json: for each size, the number of suite cases per
relation, the digests of the wide classes and of their JSON, CSV and LaTeX
bytes, and the stdout digest of every CLI invocation; and the number of
distinct nonzero roots of every residue polynomial with j, k <= 12.  Run it
only on a tree whose answers are trusted; the benchmark compares against them.
"""

import json
import subprocess
import sys

import run
import worker


def wide(size):
    job = run.make_job("wide", 0, size)
    g = job["g"]
    # with the identity permutation the theta class has the unpermuted weights
    job.update(sigma=list(range(1, g + 1)), theta_d=run.theta_weights(g))
    st = worker.setup_wide(job)
    for _, thunk in worker.ops_wide(job, st):
        thunk()
    r = st["r"]
    out = {k: worker.class_digest(r[k]) for k in
           ("logan", "theta", "pinch", "pull_closed_tail", "pull_identify",
            "pull_forget", "latex_class")}
    out.update({k: worker.sha(r[k]) for k in ("to_json", "to_csv", "to_latex")})
    return out


def cold_cli(size):
    out = {}
    for label, argv in run.SIZES[size]["cli"]:
        p = subprocess.run([sys.executable, "-m", "artifact.cli"] + argv,
                           capture_output=True, text=True, env=run.child_env(),
                           cwd=run.ROOT, check=True)
        out[label] = worker.sha(p.stdout)
    return out


def main():
    from artifact.enumerative import count_distinct_nonzero_roots, residue_polynomial
    top = run.SIZES["full"]["jk_max"]
    doc = {"roots": {"%d,%d,%d" % (j, k, m):
                     count_distinct_nonzero_roots(residue_polynomial(j, k, m))
                     for j in range(2, top + 1) for k in range(2, top + 1)
                     for m in range(1, j + k - 2)}}
    for size in ("full", "smoke"):
        counts = {}
        for name, _ in run.suite_cases(size):
            counts[name] = counts.get(name, 0) + 1
        doc[size] = {"suite": counts, "wide": wide(size), "cold_cli": cold_cli(size)}
    (run.HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
