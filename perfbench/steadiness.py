#!/usr/bin/env python3
"""Run every workload under several seeds and report how steady each
end-to-end metric is.

    python3 perfbench/steadiness.py --seeds 10 [--workloads table3_cold ...]
        [--seconds N] [--first-seed S] [--out runs.json]
    python3 perfbench/steadiness.py --load runs.json    # re-tabulate saved runs
    python3 perfbench/steadiness.py --compare a.json b.json  # two saved sets

For each workload and metric it prints the median and quartiles of the
per-run values and the quartile spread, (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4), next to the metric's bound from
BENCHMARK.json. A spread above a third of the bound is flagged. Every
run must also be correct; a failed run stops the script. --compare
takes two saved sets of the same code and prints, per workload and
metric, both spreads and how much worse the second set's median is than
the first's, each against the bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect run")
    return result


def spread(values: list) -> tuple:
    """Median, quartiles and quartile spread (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first if first else 0.0
    return change if metric["better"] == "lower" else -change


def compare(bench: dict, first: dict, second: dict) -> int:
    print("| workload | metric | median 1 | spread 1 | median 2 | spread 2 | 2 worse by | bound | holds |")
    print("|---|---|---|---|---|---|---|---|---|")
    failures = 0
    for workload in first:
        for metric in bench["end_to_end"]:
            sets = [[r["metrics"][metric["name"]]["value"] for r in runs[workload]]
                    for runs in (first, second)]
            (m1, _, _, s1), (m2, _, _, s2) = spread(sets[0]), spread(sets[1])
            shift = worse_by(metric, m1, m2)
            gated = [shift] + ([] if metric["name"] == "setup_s" else [s1, s2])
            holds = max(gated) <= metric["bound"]
            failures += not holds
            print(f"| {workload} | {metric['name']} | {m1:.4g} | {s1:.3f} | {m2:.4g} | {s2:.3f} | "
                  f"{shift:+.3f} | {metric['bound']} | {'yes' if holds else 'NO'} |")
    return 1 if failures else 0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", help="also write every run's result here (JSON)")
    parser.add_argument("--load", help="tabulate the runs saved by an earlier --out instead")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON",
                        help="compare two sets saved by earlier --out runs")
    args = parser.parse_args()
    if args.compare:
        return compare(bench, *(json.loads(pathlib.Path(f).read_text()) for f in args.compare))

    runs = json.loads(pathlib.Path(args.load).read_text()) if args.load else {}
    for workload in [] if args.load else args.workloads:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.monotonic()
            result = run_once(workload, seed, args.seconds)
            runs[workload].append(result)
            print(f"# {workload} seed {seed}: {time.monotonic() - start:.1f} s", file=sys.stderr)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")

    print("| workload | metric | unit | median | q1 | q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload, results in runs.items():
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            flag = "" if sp < metric["bound"] / 3 else " (over a third)"
            print(f"| {workload} | {metric['name']} | {metric['unit']} | {med:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {sp:.4f} | {metric['bound']} | {sp / metric['bound']:.2f}{flag} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
