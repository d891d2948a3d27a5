#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the driver and the
gfc libraries from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only check that the build is current.
The driver (perfbench/driver.cpp) repeats whole rounds of the workload for
S seconds and checks its outputs. The last line of standard output is one
JSON object: correct, attempted, failed and metrics -- the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A record of
the run, with the per-check results and the work counts, goes to
.bench_out/. A failed check exits 1; a failed build or a bad argument
exits 2.

--smoke runs seconds-long sizes of every workload; --selftest adds the
check self-test (each check must fail on a corrupted record). Both are for
perfbench/test_perfbench.py.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("k16_timeline", "k4_campaign", "k8_failure_sweep")

END_TO_END = {
    "setup_s": "s",
    "peak_heap_mb": "MB",
    "heap_allocs": "count",
}

PER_LAYER = {
    "bench.round_s": "s",
    "bench.ops_per_s": "1/s",
    "topo.spf_s": "s",
    "topo.cbd_screen_s": "s",
    "topo.bdg_edges": "count",
    "runner.fabric_s": "s",
    "runner.fabric_rss_mb": "MB",
    "sim.run_s": "s",
    "sim.ns_per_event": "ns",
    "sim.events": "count",
    "sim.wake_arms": "count",
    "sim.wake_cancels": "count",
    "sim.wake_fires": "count",
    "net.port_events": "count",
    "net.control_frames": "count",
    "flowctl.pfc_frames": "count",
    "flowctl.credit_frames": "count",
    "core.gfc_feedback_frames": "count",
    "core.rate_sets": "count",
    "mech.dcfit_triggers": "count",
    "stats.deadlock_detections": "count",
    "workload.flows_started": "count",
    "fault.flaps": "count",
    "fault.wire_lost": "count",
    "analyze.reverdicts": "count",
    "analyze.sweep_s": "s",
    "analyze.scratch_s": "s",
    "analyze.cycles": "count",
    "analyze.truncated_combos": "count",
    "exp.trial_s_p50": "s",
    "exp.trial_s_p90": "s",
    "exp.pool_efficiency": "ratio",
    "par.speedup_2": "ratio",
    "trace.overhead": "ratio",
}

DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the driver up to date. Returns its path."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no gfc sources at %s; run from the root of a checkout"
             % os.path.join(root, "src"))
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                       os.path.join(root, ".bench_build"), "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler temporaries stay inside
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "gfc-perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "gfc-perfbench")


def metrics_line(doc, trace):
    names = PER_LAYER if trace else END_TO_END
    source = doc["per_layer"] if trace else doc["end_to_end"]
    # A layer the workload never calls reads 0 (see perfbench/README.md).
    metrics = {n: {"value": source.get(n, 0), "unit": u}
               for n, u in names.items()}
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")

    driver = build()
    out_dir = ".bench_out"
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    if args.selftest:
        cmd.append("--selftest")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S, 1)
    if r.returncode != 0:
        fail("driver exited with %d" % r.returncode, 1)
    doc = json.loads(r.stdout.strip().splitlines()[-1])

    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    detail = ", ".join("%s %s" % (k, v) for k, v in doc["detail"].items())
    print("%s seed %d: attempted %d, failed %d; %s"
          % (args.workload, args.seed, doc["attempted"], doc["failed"],
             detail), file=sys.stderr)
    if doc.get("self_s_per_round"):
        print("self time per round by layer: " + ", ".join(
            "%s %.4f s" % kv for kv in sorted(doc["self_s_per_round"].items(),
                                               key=lambda kv: -kv[1])),
            file=sys.stderr)
    for c in doc["checks"]:
        if not c["ok"]:
            print("CHECK FAILED %s: %s" % (c["name"], c["detail"]),
                  file=sys.stderr)
    if args.selftest:
        print(json.dumps(doc["selftest"]))
    print(json.dumps(metrics_line(doc, args.trace)))
    sys.exit(0 if doc["correct"] else 1)


if __name__ == "__main__":
    main()
