#!/usr/bin/env python3
"""A/B two spikebench binaries in alternating-order pairs.

    python3 tools/bench_ab.py PARENT_BIN CHANGE_BIN --pairs 10 \\
        --workloads dss-scan oltp-search [--seconds 20] [--seed 7] \\
        [--layers sim.resolve_s replay.icache_grid_s] [--out AB.json]

Each pair runs both binaries once per workload, one fresh process each,
in alternating order (parent first in even pairs, change first in odd
ones), with the arguments benchmark/run.py uses: 2 worker threads, 5
set-ups, the given measured window. For every end-to-end metric of
BENCHMARK.json it prints the parent's and the change's median, the
parent's interquartile range, the change's median relative to the
parent's, and in how many pairs the change was better. With --layers it
prints the same for those per-layer metrics (each run's median over its
iterations).

Exits non-zero when any run fails or reports a failed check, or when a
simulated end-to-end metric (every one but the host measurements
setup_s, run_s, run_cpu_s and peak_rss_mb) differs between any two
runs of a workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
HOST_METRICS = {"setup_s", "run_s", "run_cpu_s", "peak_rss_mb"}
THREADS = 2
SETUPS = 5
RUN_TIMEOUT_S = 300


def run_one(binary, workload, seed, seconds, work_dir):
    """One spikebench process: (end-to-end metrics, layer medians,
    failures)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--threads", str(THREADS), "--seconds", str(seconds),
           "--setups", str(SETUPS), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, [f"timed out after {RUN_TIMEOUT_S} s"]
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, None, [f"no result line (exit {proc.returncode})"]
    failures = list(raw.get("failures", []))
    if proc.returncode != 0 and not failures:
        failures.append(f"exit code {proc.returncode}")
    e2e = dict(raw["sim"])
    e2e["setup_s"] = statistics.median(raw["setup_s"])
    e2e["run_s"] = statistics.median(raw["run_s"])
    e2e["run_cpu_s"] = statistics.median(raw["run_cpu_s"])
    e2e["peak_rss_mb"] = raw["peak_rss_mb"]
    layers = {}
    for it in raw.get("layers", []):
        for k, v in it.items():
            layers.setdefault(k, []).append(v)
    layers = {k: statistics.median(v) for k, v in layers.items()}
    return e2e, layers, failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(name, better, parent, change):
    """One metric line; parent/change are per-pair lists."""
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if better == "lower" else c > p))
    rel = (cm - pm) / pm * 100.0 if pm else 0.0
    print(f"  {name:30s} {pm:12.6g} -> {cm:12.6g} ({rel:+6.2f}%)  "
          f"parent IQR [{q1:.6g}, {q3:.6g}] ({q3 - q1:.3g})  "
          f"wins {wins}/{len(parent)}")
    return {"parent_median": pm, "change_median": cm, "parent_q1": q1,
            "parent_q3": q3, "change_wins": wins, "pairs": len(parent),
            "parent": parent, "change": change}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="spikebench binary of the parent")
    p.add_argument("change", help="spikebench binary of the change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=None,
                   help="measured window (default: run_seconds)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--layers", nargs="*", default=[],
                   help="per-layer metrics to report too")
    p.add_argument("--out", help="write every run's numbers as JSON")
    args = p.parse_args()
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    layer_better = {m["name"]: m["better"] for m in spec["per_layer"]}
    bins = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}

    bad = 0
    out = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for w in args.workloads:
        runs = {"parent": [], "change": []}
        print(f"== {w} ({args.pairs} pairs, seed {args.seed}, "
              f"{seconds} s each)", flush=True)
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else \
                ["change", "parent"]
            for side in order:
                with tempfile.TemporaryDirectory(prefix="bench_ab.") as d:
                    e2e, layers, failures = run_one(
                        bins[side], w, args.seed, seconds, d)
                for f in failures:
                    print(f"  FAILED ({side}, pair {i + 1}): {f}")
                    bad += 1
                runs[side].append((e2e, layers))
                rs = e2e["run_s"] if e2e else float("nan")
                print(f"  pair {i + 1} {side}: run_s {rs:.4g}",
                      file=sys.stderr, flush=True)
        rec = {"end_to_end": {}, "layers": {}}
        ok_runs = {s: [r for r in runs[s] if r[0] is not None]
                   for s in runs}
        pairs = min(len(ok_runs["parent"]), len(ok_runs["change"]))
        if pairs == 0:
            print("  no complete pair")
            out["workloads"][w] = rec
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            par = [r[0][name] for r in ok_runs["parent"][:pairs]]
            chg = [r[0][name] for r in ok_runs["change"][:pairs]]
            if name not in HOST_METRICS and len(set(par + chg)) != 1:
                print(f"  SIMULATED METRIC DIFFERS: {name}: parent "
                      f"{sorted(set(par))}, change {sorted(set(chg))}")
                bad += 1
            rec["end_to_end"][name] = report(name, m["better"], par, chg)
        if args.layers:
            print("  per layer:")
        for name in args.layers:
            par = [r[1].get(name) for r in ok_runs["parent"][:pairs]]
            chg = [r[1].get(name) for r in ok_runs["change"][:pairs]]
            if None in par or None in chg:
                print(f"  {name}: missing")
                continue
            rec["layers"][name] = report(
                name, layer_better.get(name, "lower"), par, chg)
        out["workloads"][w] = rec
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
    print("bench_ab: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
