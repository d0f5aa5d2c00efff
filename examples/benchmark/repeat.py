#!/usr/bin/env python3
"""Repeatability harness: the evidence behind the bounds in BENCHMARK.json.

    python3 examples/benchmark/repeat.py [--runs 10] [--first-seed 101] [--out REPEAT.md]

Run from the repository root. Makes two sets of runs of the same code,
back to back. A set is every workload `--runs` times, each time with
another seed. Per end-to-end metric and workload it prints the median,
the quartiles, the spread (distance between the first and third
quartile as a share of the median, `statistics.quantiles(values, n=4)`)
and the largest relative deviation from the median. It then makes two
traced runs per workload on one seed, checks that they report exactly
the per-layer metrics BENCHMARK.json lists, and that the exact counts
among them repeat exactly.

Exits non-zero if a spread (other than that of `setup_s`) leaves the
metric's bound, if the second set's median is worse than the first's by
more than the bound, if a run fails or reports a wrong output, or if an
exact count differs between the two traced runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Per-layer metrics that are counts of decisions or bytes, not timings:
# the same seed must give the same value.
EXACT = (
    "tile.census.",
    "tile.footprint_bytes",
    "tile.band_size_dense",
    "tile.wire_bytes.",
    "linalg.aca_mean_rank",
    "linalg.rsvd_mean_rank",
    "cholesky.shard_tile_bytes",
    "cholesky.shard_frames",
    "runtime.conversions",
    "core.llh_rel_err",
)


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{' '.join(cmd)} reported wrong outputs: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--out", default=None, help="also write the report to this file")
    args = ap.parse_args()
    if args.runs < 3:
        sys.exit("--runs must be at least 3")

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = bench["end_to_end"]
    lines = []
    bad = []

    def say(line=""):
        print(line, flush=True)
        lines.append(line)

    say("# Repeatability of the benchmark")
    say()
    say(f"`{' '.join(sys.argv)}`: two sets of {args.runs} runs per workload, seeds "
        f"{args.first_seed}..{args.first_seed + args.runs - 1}, `--seconds {bench['run_seconds']}`, "
        "same code, back to back.")
    say()

    # values[set][workload][metric] -> list over seeds
    values = []
    walls = []
    for s in range(2):
        per_workload = {}
        for w in workloads:
            runs = []
            for i in range(args.runs):
                metrics, wall = run(bench, w, args.first_seed + i, 0)
                runs.append(metrics)
                walls.append(wall)
            per_workload[w] = {m["name"]: [r[m["name"]] for r in runs] for m in e2e}
        values.append(per_workload)

    say(f"Wall time of one untraced run, build excluded: median {statistics.median(walls):.1f} s, "
        f"max {max(walls):.1f} s over {len(walls)} runs.")
    say()
    say("Spread = (Q3 - Q1) / median. Shift = how much worse the second set's median is than the "
        "first's (negative = better). Both must stay within the bound; `setup_s` only its shift.")
    say()
    say("| workload | metric | unit | set | median | Q1 | Q3 | spread | max dev | bound | shift | ok |")
    say("|---|---|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in e2e:
            name, bound = m["name"], m["bound"]
            meds = []
            for s in range(2):
                v = values[s][w][name]
                q1, med, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                meds.append(med)
                spread = (q3 - q1) / med
                maxdev = max(abs(x - med) for x in v) / med
                shift = ""
                ok = name == "setup_s" or spread <= bound
                if s == 1:
                    worse = (meds[1] - meds[0]) / meds[0]
                    if m["better"] == "higher":
                        worse = -worse
                    shift = f"{worse:+.1%}"
                    ok = ok and worse <= bound
                if not ok:
                    bad.append(f"{w} {name} set {s + 1}")
                say(f"| {w} | {name} | {m['unit']} | {s + 1} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                    f"{spread:.1%} | {maxdev:.1%} | {bound:.0%} | {shift} | {'yes' if ok else 'NO'} |")

    say()
    say("## Traced runs")
    say()
    expected = sorted(m["name"] for m in bench["per_layer"])
    say("| workload | per-layer metrics | exact counts equal | wall s |")
    say("|---|---|---|---|")
    for w in workloads:
        a, wall_a = run(bench, w, args.first_seed, 1)
        b, wall_b = run(bench, w, args.first_seed, 1)
        names_ok = sorted(a) == expected and sorted(b) == expected
        differing = [k for k in a if k.startswith(EXACT) and a[k] != b.get(k)]
        if not names_ok:
            bad.append(f"{w} per-layer names")
        if differing:
            bad.append(f"{w} exact counts {differing}")
        say(f"| {w} | {len(a)} {'as listed' if names_ok else 'NOT AS LISTED'} | "
            f"{'yes' if not differing else 'NO: ' + ', '.join(differing)} | {wall_a:.0f}, {wall_b:.0f} |")

    say()
    say("**Result: " + ("all within bounds.**" if not bad else "OUT OF BOUNDS: " + "; ".join(bad) + "**"))
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(lines) + "\n")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
