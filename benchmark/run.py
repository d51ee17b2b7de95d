#!/usr/bin/env python3
"""spikebench: the one command that builds, runs and checks the benchmark.

One run of one workload (the form a benchmark harness calls):

    python3 benchmark/run.py --workload oltp-fig15 --seed 7 --seconds 15 --trace 0

builds benchmark/build/spikebench from ../src when needed,
runs it once in a fresh process, checks its outputs, prints every metric
with its name and unit, and prints as its last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics (from a run with span collection on; the Chrome trace is written
to benchmark/build/trace-<workload>.json).

Every workload, several reps, one process per rep:

    python3 benchmark/run.py [--reps 3] [--seed 7] [--traced] [--out A.json]

Two result files against the BENCHMARK.json bounds (relative for host
times, exact for simulated metrics):

    python3 benchmark/run.py --compare A.json B.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "spikebench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN_PATH = os.path.join(HERE, "goldens.json")

THREADS = 2
SETUPS = 5
RUN_TIMEOUT_S = 170

# Host measurements; every other end-to-end metric is simulated and
# repeats exactly for a given seed.
HOST_METRICS = {"setup_s", "run_s", "run_cpu_s", "peak_rss_mb"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configure (once) and build spikebench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("spikebench: no library sources at "
                         f"{os.path.join(ROOT, 'src')}; run from a full "
                         "checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "--target", "spikebench",
                    "-j", jobs], stdout=sys.stderr, check=True, timeout=700)


def run_spikebench(workload, seed, seconds, trace):
    """One spikebench process; returns its parsed result and exit code,
    or None and the reason when it printed no result in time."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--threads", str(THREADS), "--seconds", str(seconds),
           "--setups", str(SETUPS),
           "--work-dir", os.path.join(BUILD, "work")]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"spikebench timed out after {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        return None, f"spikebench printed no result (exit {proc.returncode})"


def median_of(dicts, key):
    values = [d[key] for d in dicts if key in d]
    return statistics.median(values) if values else None


def golden_failures(raw):
    """Compare seed-7 capture and base-layout numbers to the goldens."""
    with open(GOLDEN_PATH) as f:
        goldens = json.load(f)
    if raw["seed"] != goldens["seed"]:
        return []
    want = goldens["workloads"].get(raw["workload"], {})
    return [f"golden {k}: want {v}, got {raw['golden'].get(k)}"
            for k, v in want.items() if raw["golden"].get(k) != v]


def end_to_end(raw):
    m = dict(raw["sim"])
    m["setup_s"] = statistics.median(raw["setup_s"])
    m["run_s"] = statistics.median(raw["run_s"])
    m["run_cpu_s"] = statistics.median(raw["run_cpu_s"])
    m["peak_rss_mb"] = raw["peak_rss_mb"]
    return m


def per_layer(raw, names):
    m = {}
    for name in names:
        v = median_of(raw["layers"], name)
        if v is None:
            v = median_of(raw["setup_layers"], name)
        m[name] = v
    traced = raw["traced_run_s"]
    m["obs.trace_overhead_pct"] = (
        (statistics.median(traced) / statistics.median(raw["run_s"]) - 1.0)
        * 100.0 if traced and raw["run_s"] else None)
    m["check_s"] = sum(raw["check_s"])
    m["sim.kernel_calibrate_s"] = raw["calibrate_s"]
    return m


def run_once(spec, workload, seed, seconds, trace):
    """One checked run: (result line, failures, raw spikebench output)."""
    raw, code = run_spikebench(workload, seed, seconds, trace)
    if raw is None:
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
        return result, [code], None
    failures = list(raw["failures"]) + golden_failures(raw)
    if code != 0 and not failures:
        failures.append(f"spikebench exit code {code}")
    section = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in section]
    values = per_layer(raw, names) if trace else end_to_end(raw)
    metrics = {}
    for m in section:
        v = values.get(m["name"])
        if v is None:
            failures.append(f"metric {m['name']} missing")
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    failed = raw["failed"] + (1 if failures and raw["failed"] == 0 else 0)
    result = {"correct": not failures, "attempted": raw["attempted"],
              "failed": failed, "metrics": metrics}
    return result, failures, raw


def print_metrics(workload, result, failures, raw):
    if raw is not None:
        print(f"# {workload} seed {raw['seed']}: kernel {raw['kernel']} "
              f"({raw['kernel_reason']}), {len(raw['run_s'])} iterations, "
              f"{len(raw['setup_s'])} set-ups, final layout "
              f"{raw['final_layout']}")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for name, v in (raw or {}).get("info", {}).items():
        print(f"# {name} = {v:.6g}")
    for f in failures:
        print(f"FAILED: {f}")


def single(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"spikebench: unknown workload {args.workload}; "
                         f"one of {', '.join(names)}")
    build()
    result, failures, raw = run_once(spec, args.workload, args.seed,
                                     args.seconds, args.trace == 1)
    print_metrics(args.workload, result, failures, raw)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def suite(args, spec):
    build()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds
    out = {"seed": args.seed, "reps": args.reps, "seconds": seconds,
           "workloads": {w: {"runs": [], "kernels": []} for w in workloads}}
    bad = 0
    for rep in range(args.reps):
        for w in workloads:
            result, failures, raw = run_once(spec, w, args.seed, seconds,
                                             False)
            kernel = raw["kernel"] if raw else None
            log(f"[rep {rep + 1}/{args.reps}] {w}: "
                f"run_s {result['metrics'].get('run_s', {}).get('value')}"
                f" kernel {kernel}"
                + ("" if result["correct"] else " FAILED"))
            rec = out["workloads"][w]
            rec["runs"].append({k: v["value"]
                                for k, v in result["metrics"].items()})
            rec["kernels"].append(kernel)
            rec.setdefault("failures", []).extend(failures)
            bad += 0 if result["correct"] else 1
    if args.traced:
        for w in workloads:
            result, failures, raw = run_once(spec, w, args.seed, seconds,
                                             True)
            out["workloads"][w]["traced"] = {
                k: v["value"] for k, v in result["metrics"].items()}
            out["workloads"][w].setdefault("failures", []).extend(failures)
            bad += 0 if result["correct"] else 1
    report(spec, out)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
        log(f"wrote {args.out}")
    return 0 if bad == 0 else 1


def report(spec, out):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for w, rec in out["workloads"].items():
        runs = rec["runs"]
        print(f"\n== {w} ({len(runs)} reps, seed {out['seed']}, "
              f"{out['seconds']} s each)")
        if len(set(rec["kernels"])) > 1:
            print(f"WARNING: reps picked different SIMD kernels: "
                  f"{rec['kernels']}")
        for name, unit in units.items():
            vals = [r[name] for r in runs if name in r]
            if not vals:
                continue
            if name in HOST_METRICS:
                print(f"{name:22s} median {statistics.median(vals):12.6g} "
                      f"{unit:14s} min {min(vals):.6g} max {max(vals):.6g} "
                      f"n={len(vals)}")
            else:
                same = "exact" if len(set(vals)) == 1 else "DIFFERS"
                print(f"{name:22s}        {vals[0]:12.6g} {unit:14s} "
                      f"({same} over {len(vals)} reps)")
        traced = rec.get("traced")
        if traced:
            print("per-layer (traced rep):")
            for m in spec["per_layer"]:
                if m["name"] in traced:
                    print(f"  {m['name']:34s} {traced[m['name']]:14.6g} "
                          f"{m['unit']}")
        for f in rec.get("failures", []):
            print(f"FAILED: {f}")


def compare(spec, path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    violations = 0
    same_seed = a["seed"] == b["seed"]
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        ra, rb = a["workloads"][w]["runs"], b["workloads"][w]["runs"]
        print(f"== {w}")
        for m in spec["end_to_end"]:
            name = m["name"]
            va = [r[name] for r in ra if name in r]
            vb = [r[name] for r in rb if name in r]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            if name in HOST_METRICS or not same_seed:
                ok = worse <= m["bound"]
                rule = f"bound {m['bound']:.0%}"
            else:
                # Simulated metrics repeat exactly per seed: any change
                # for the worse is a regression, and reps that disagree
                # are nondeterminism.
                ok = len(set(va)) == 1 and len(set(vb)) == 1 and worse <= 0
                rule = "exact"
            verdict = "VIOLATION" if not ok else \
                "better" if rule == "exact" and worse < 0 else "ok"
            violations += 0 if ok else 1
            print(f"  {name:22s} {ma:12.6g} -> {mb:12.6g} "
                  f"({change:+.2%}, {rule}) {verdict}")
        for f in a["workloads"][w].get("failures", []) + \
                b["workloads"][w].get("failures", []):
            violations += 1
            print(f"  FAILED: {f}")
    print(f"{violations} violation(s)")
    return 0 if violations == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload once")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=0,
                   help="measured window per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--traced", action="store_true",
                   help="one extra traced rep per workload (suite)")
    p.add_argument("--out", help="write suite results to this file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if args.seconds <= 0:
        args.seconds = spec["run_seconds"]
    if args.workload:
        return single(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
