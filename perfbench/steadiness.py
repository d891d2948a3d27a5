#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same commit.

    python3 perfbench/steadiness.py [--runs 10] [--gap 60] [--seconds S]
                                    [--workloads k16_timeline,...]

Run from the root of a checkout. Each set runs every workload --runs
times, one seed per run, alternating workloads run by run; the second set
starts --gap seconds after the first ends and uses other seeds. For every
end-to-end metric of BENCHMARK.json, and for the round time, rate and
peak RSS that every run reports but the benchmark does not gate, it
prints each set's median and quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median, and the gap between the two medians in the
metric's worse direction, next to the metric's bound. One rule holds for
every gated metric: a gap above the bound fails, and so does a spread
above it, except for setup_s. Set-up time is compared by its median
gap alone; what its bound guards against is work moved into set-up, and
a set-up of a few milliseconds moves in steps with the machine's state
(see perfbench/README.md). A different share of failed operations between
the sets fails too. On any failure the script exits 1. Results also go to
.bench_out/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Reported by every run but not gated (see perfbench/README.md).
UNGATED = {"wall_s": "lower", "ops_per_s": "higher", "peak_rss_mb": "lower"}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    if r.returncode != 0:
        raise SystemExit("run failed (%d): %s" % (r.returncode, " ".join(cmd)))
    result = json.loads(r.stdout.strip().splitlines()[-1])
    # The run's record also holds the figures it reports but does not gate.
    with open(".bench_out/%s-seed%d-trace0.json" % (workload, seed)) as f:
        record = json.load(f)["end_to_end"]
    for name in UNGATED:
        result["metrics"][name] = {"value": record[name]}
    return result


def run_set(workloads, seeds, seconds, label):
    results = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        # Alternate the workload order so no workload always runs first.
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            t0 = time.time()
            res = run_once(w, seed, seconds)
            results[w].append(res)
            print("%s run %d/%d %-17s seed %-5d %5.1f s" %
                  (label, i + 1, len(seeds), w, seed, time.time() - t0),
                  file=sys.stderr, flush=True)
    return results


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--gap", type=float, default=60.0,
                    help="seconds between the two sets")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset of the workloads")
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")

    bench = json.load(open("BENCHMARK.json"))
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workloads is None else args.workloads.split(","))
    seconds = args.seconds or bench["run_seconds"]
    seeds1 = [101 + i for i in range(args.runs)]
    seeds2 = [1101 + i for i in range(args.runs)]

    sets = [run_set(workloads, seeds1, seconds, "set 1")]
    time.sleep(args.gap)
    sets.append(run_set(workloads, seeds2, seconds, "set 2"))

    ok = True
    report = {}
    print("%-17s %-12s %5s | %-37s | %-37s | %s" %
          ("workload", "metric", "bound", "set 1: median [Q1, Q3] spread",
           "set 2: median [Q1, Q3] spread", "gap"))
    for w in workloads:
        shares = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                  for s in sets]
        if shares[0] != shares[1]:
            ok = False
            print("%-17s failed share differs: %r vs %r" % (w, *shares))
        report[w] = {"failed_share": shares}
        ungated = [{"name": n, "better": b, "bound": None}
                   for n, b in UNGATED.items()]
        for m in bench["end_to_end"] + ungated:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in s[w]])
                     for s in sets]
            sign = 1 if m["better"] == "lower" else -1
            gap = sign * (stats[1]["median"] - stats[0]["median"]) / \
                stats[0]["median"]
            if bound is None:
                row_ok = True
            else:
                spread_ok = name == "setup_s" or max(
                    st["spread"] for st in stats) <= bound
                row_ok = spread_ok and gap <= bound
            ok = ok and row_ok
            report[w][name] = {"bound": bound, "sets": stats, "gap": gap,
                               "ok": row_ok}
            cells = ["%9.4g [%8.4g, %8.4g] %5.1f%%" %
                     (st["median"], st["q1"], st["q3"], 100 * st["spread"])
                     for st in stats]
            print("%-17s %-12s %5s | %s | %s | %+5.1f%% %s" %
                  (w, name, "-" if bound is None else "%.2f" % bound,
                   cells[0], cells[1], 100 * gap,
                   "(not gated)" if bound is None else
                   "ok" if row_ok else "FAIL"))
    os.makedirs(".bench_out", exist_ok=True)
    with open(".bench_out/steadiness.json", "w") as f:
        json.dump({"seconds": seconds, "runs": args.runs, "seeds": [seeds1, seeds2],
                   "workloads": report}, f, indent=1)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
