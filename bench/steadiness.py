"""Steadiness check: runs the benchmark over several seeds and reports spreads.

Usage (from the root of a checkout):

    python3 bench/steadiness.py --workloads readme_cli,fluid_analysis --seeds 10 --sets 2

For every workload, each set runs ``bench/run.py --trace 0`` once per seed
(seeds F..F+N-1 from ``--first-seed``, the same seeds in every set), for
BENCHMARK.json's ``run_seconds``. For each end-to-end metric it prints the
quartiles of the per-run values and the spread, the distance between the
first and third quartile as a share of the median. A metric is
``steady`` when its spread is below a third of its bound in BENCHMARK.json,
``within`` when below the bound, and ``unresolved`` when wider: a change of
that size could not be told from noise. With two or more sets, each later
set's median is compared with the first set's, and work counts and trace
fingerprints must agree exactly for the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("work "):
            result["work"] = json.loads(line[5:])
        elif line.startswith("fingerprint "):
            result["fingerprint"] = line.split()[1]
    return result


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    for w in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            results = []
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                r = run_once(w, seed, spec["run_seconds"])
                results.append(r)
                print(f"{w} set {s + 1} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                      flush=True)
                if not r["correct"]:
                    problems.append(f"{w} set {s + 1} seed {seed}: correct is false")
            sets.append(results)
        if args.seeds < 2:
            continue
        works = {json.dumps(r["work"], sort_keys=True) for rs in sets for r in rs}
        if len(works) != 1:
            problems.append(f"{w}: work counts differ between runs: {sorted(works)}")
        for k in range(args.seeds):
            if len({rs[k]["fingerprint"] for rs in sets}) != 1:
                problems.append(f"{w} seed {args.first_seed + k}: trace fingerprints "
                                "differ between sets")
        for name, bound in bounds.items():
            medians = []
            for s, results in enumerate(sets):
                q1, med, q3, sp = spread([r["metrics"][name]["value"] for r in results])
                medians.append(med)
                state = ("steady" if sp < bound / 3 else "within" if sp <= bound
                         else "unresolved")
                if state == "unresolved":
                    problems.append(f"{w} {name}: spread {sp:.3f} exceeds bound {bound}")
                print(f"{w} set {s + 1} {name}: q1 {q1:.6g} median {med:.6g} q3 {q3:.6g} "
                      f"spread {sp:.4f} bound {bound} {state}")
            better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
            for s, med in enumerate(medians[1:], start=2):
                worse = (med - medians[0]) / medians[0] * (1 if better == "lower" else -1)
                if worse > bound:
                    problems.append(f"{w} {name}: set {s} median is {worse:.3f} worse than set 1")
    for p in problems:
        print(f"problem: {p}")
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
