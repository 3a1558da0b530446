#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload briefly with tracing off and on, and checks that
the result line names every metric of BENCHMARK.json with its unit, that
every op passed, and that perfbench/metrics.json maps every per-layer
metric.  It then runs one workload against a corrupted copy of the
reference digests and checks that its ops are counted as failed, which
shows the digest check can fail.  Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)]
    out = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                         text=True, timeout=900)
    if out.returncode != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace, out.returncode,
                                            out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def check_metrics(result, expected, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (label, sorted(result)))
    names = [m["name"] for m in expected]
    if sorted(result["metrics"]) != sorted(names):
        fail("%s: metrics %s, expected %s" % (label, sorted(result["metrics"]),
                                              sorted(names)))
    for m in expected:
        got = result["metrics"][m["name"]]
        if got.get("unit") != m["unit"]:
            fail("%s: %s has unit %r, expected %r" % (label, m["name"],
                                                     got.get("unit"), m["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            fail("%s: %s has no numeric value" % (label, m["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        layer_map = json.load(f)["per_layer"]
    for m in bench["per_layer"]:
        if m["name"] not in layer_map:
            fail("metrics.json does not map %s" % m["name"])

    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = "%s trace=%d" % (w["name"], trace)
            result = run(w["name"], trace)
            check_metrics(result, expected, label)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail("%s: correct=%s attempted=%d failed=%d" % (
                    label, result["correct"], result["attempted"], result["failed"]))
            print("selftest: ok   %s (%d ops)" % (label, result["attempted"]))

    # A corrupted reference digest must fail ops.
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    corrupt = os.path.join(build, "perfbench", "selftest-digests")
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "digests"), corrupt)
    workload = bench["workloads"][0]["name"]
    path = os.path.join(corrupt, workload + ".txt")
    with open(path) as f:
        lines = f.read().split()
    lines = ["%08x" % (int(d, 16) ^ 1) for d in lines]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    result = run(workload, 0, ["--digests", corrupt])
    fail_frac = result["failed"] / result["attempted"]
    if result["correct"] or fail_frac <= 0:
        fail("corrupted digests left fail_frac at %s" % fail_frac)
    print("selftest: ok   corrupted digests give fail_frac %.3f" % fail_frac)
    shutil.rmtree(corrupt, ignore_errors=True)
    print("selftest: PASS")


if __name__ == "__main__":
    main()
