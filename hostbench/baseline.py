#!/usr/bin/env python3
"""Record and summarise sets of benchmark runs.

Record a set (every workload, one run per seed, plus one traced run each):

    python3 hostbench/baseline.py record --set a --seeds 1-10 \
        --out hostbench/baseline/a.jsonl

Each untraced run also keeps the benchmark's unscaled estimates and its
host-speed probe times (the "hostbench-raw" line it prints to stderr).

Summarise one or more sets:

    python3 hostbench/baseline.py summary hostbench/baseline/*.jsonl

For each set, workload and end-to-end metric it prints the median, the
spread (interquartile range over median, quartiles as
statistics.quantiles computes them), the drift of the median from the
first set's, and the same spread for the unscaled value.  Per workload
it prints the median ratio of the probe time during the timed phase to
the probe time before any workload code ran.  Last, for each metric,
the bound the sets support: three times the widest spread or one and a
half times the widest drift, whichever is larger, rounded up to 0.05
(setup_s takes the largest bound of all).  It exits non-zero when a
spread exceeds a third of the bound in BENCHMARK.json, a drift exceeds
that bound, a run took 30 s or more, or an output was wrong.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_RUN_S = 30


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    t0 = time.time()
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    elapsed = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-3000:]}")
    r = {"workload": workload, "seed": seed, "trace": trace,
         "elapsed_s": round(elapsed, 2), "result": json.loads(lines[-1])}
    for line in p.stderr.splitlines():
        if line.startswith("hostbench-raw "):
            r["raw"] = json.loads(line.split(" ", 1)[1])
    return r


def record(args):
    s = spec()
    with open(args.out, "w") as out:
        for w in s["workloads"]:
            runs = [run(w["name"], seed, s["run_seconds"], 0) for seed in seeds(args.seeds)]
            runs.append(run(w["name"], seeds(args.seeds)[0], s["run_seconds"], 1))
            for r in runs:
                r["set"] = args.set
                out.write(json.dumps(r, sort_keys=True) + "\n")
                out.flush()
                print(f"{r['set']} {r['workload']} seed {r['seed']} trace {r['trace']}: "
                      f"{r['elapsed_s']} s", file=sys.stderr)


def spread(vals):
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)


def summary(args):
    s = spec()
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    sets = {}
    for path in args.files:
        with open(path) as f:
            for line in f:
                r = json.loads(line)
                sets.setdefault(r["set"], {}).setdefault(r["workload"], []).append(r)
    first = sorted(sets)[0]
    ok = True
    widest = {m: 0.0 for m in bounds}
    print("set workload    metric        median          spread  vs-first  raw-spread  bound  flag")
    for name in sorted(sets):
        for w in [w["name"] for w in s["workloads"]]:
            runs = [r for r in sets[name].get(w, []) if r["trace"] == 0]
            if len(runs) < 2:
                continue
            for m, bound in bounds.items():
                value = lambda r: r["result"]["metrics"][m]["value"]
                vals = [value(r) for r in runs]
                med = statistics.median(vals)
                sp = spread(vals)
                base = [value(r) for r in sets[first][w] if r["trace"] == 0]
                drift = med / statistics.median(base) - 1
                widest[m] = max(widest[m], 3 * sp, 1.5 * abs(drift))
                raw = [r["raw"][m] for r in runs if m in r.get("raw", {})]
                raw_sp = f"{spread(raw):10.4f}" if len(raw) >= 2 else " " * 10
                flag = ""
                if sp > bound / 3 or drift > bound:
                    flag = "<--"
                    ok = False
                print(f"{name:3s} {w:11s} {m:12s} {med:14.6g} {sp:8.4f} {drift:+9.4f} "
                      f"{raw_sp}  {bound:5.2f}  {flag}")
            ratios = [r["raw"]["probe_timed_us"] / r["raw"]["probe_idle_us"]
                      for r in runs if "raw" in r]
            if ratios:
                print(f"{name:3s} {w:11s} probe timed/idle median {statistics.median(ratios):.3f} "
                      f"(range {min(ratios):.3f}-{max(ratios):.3f})")
    derived = {m: min(0.25, math.ceil(v * 20 - 1e-9) / 20) for m, v in widest.items()}
    if "setup_s" in derived:
        derived["setup_s"] = max(derived.values())
    print("bounds the sets support: " +
          ", ".join(f"{m} {b:.2f} (declared {bounds[m]:.2f})" for m, b in derived.items()))
    runs = [r for ws in sets.values() for rs in ws.values() for r in rs]
    slow = [r for r in runs if r["elapsed_s"] >= MAX_RUN_S]
    for r in slow:
        print(f"{r['set']} {r['workload']} seed {r['seed']} took {r['elapsed_s']} s")
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"runs: {len(runs)}, longest {max(r['elapsed_s'] for r in runs)} s; "
          f"failed outputs: {failed}")
    sys.exit(0 if ok and not slow and failed == 0 else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("--set", required=True)
    r.add_argument("--seeds", required=True, help="N or N-M")
    r.add_argument("--out", required=True)
    sm = sub.add_parser("summary")
    sm.add_argument("files", nargs="+")
    args = ap.parse_args()
    record(args) if args.cmd == "record" else summary(args)


if __name__ == "__main__":
    main()
