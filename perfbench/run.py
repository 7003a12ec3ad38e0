#!/usr/bin/env python3
"""Build and run the top-k benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload stab_read --seed 1 --seconds 15 --trace 0

builds `perfbench` from source (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs one workload, and passes its result line
through as the last line of stdout. `--trace 1` prints the per-layer
metrics instead of the end-to-end ones.

Steadiness mode runs every workload repeatedly, one seed per run, and
prints each end-to-end metric's median, quartiles and spread against the
bound BENCHMARK.json fixes for it:

    python3 perfbench/run.py --steadiness --runs 10 [--workloads a,b] [--seed0 100]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Build the benchmark binary; None when the sources are not all there."""
    manifest = ROOT / "perfbench" / "Cargo.toml"
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest)]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return target_dir() / "release" / "perfbench"


def run_once(binary, workload, seed, seconds, trace):
    """One workload run; returns (exit code, stdout lines)."""
    data = target_dir() / "perfbench-data"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--data-dir", str(data)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, check=False)
    return done.returncode, done.stdout.splitlines()


def steadiness(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    worst = 0.0
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            code, lines = run_once(binary, w, seed, seconds, 0)
            if code != 0 or not lines:
                print(f"{w} seed {seed}: run failed (exit {code})")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: wrong answers")
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(json.dumps({"workload": w, "values": values}), file=sys.stderr)
        print(f"\n{w}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, {seconds} s each")
        print(f"{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}  ok")
        for name in sorted(values):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            ok = "-" if bound is None or name == "setup_s" else ("yes" if spread <= bound / 3 else "NO")
            if name != "setup_s" and bound is not None:
                worst = max(worst, spread / bound)
            print(f"{name:<24}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.4f}{bound if bound is not None else '-':>8}  {ok}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args()
    if not args.steadiness and (args.workload is None or args.seconds is None):
        p.error("--workload and --seconds are required")
    binary = build()
    if binary is None:
        return 1
    if args.steadiness:
        return steadiness(binary, args)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
