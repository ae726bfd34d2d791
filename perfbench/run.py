#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-195 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --steady [--seed N] [--workload W ...]
    python3 perfbench/run.py --selftest

The first form runs one workload and prints its metrics, then one JSON
line. `--all` runs every workload with tracing off and prints every
end-to-end metric by name, unit and sample count. `--steady` runs two sets
of seeded runs per workload and prints each end-to-end metric's spread
against its bound. Without `--seconds`, runs last `run_seconds` from
BENCHMARK.json. `--selftest` runs the benchmark's own unit tests.

The benchmark and the `coevo` binary it serves from are built from source
with cargo into $CARGO_TARGET_DIR (default: .bench_build in the checkout).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["paper-195", "shards-2k", "serve-mixed"]
# The paper corpus's own seed. README.md records the held-out seed.
DEFAULT_SEED = 0x5EED2019
# Seeded runs per set in --steady.
RUNS = 10


def cargo_env():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return dict(os.environ, CARGO_TARGET_DIR=str(target)), target


def cargo(args, env):
    done = subprocess.run(["cargo", *args, "--offline"], cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: cargo {' '.join(args)} failed ({done.returncode})")


def build():
    """Build perfbench and the coevo CLI; return their paths."""
    env, target = cargo_env()
    cargo(["build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"], env)
    cargo(["build", "--release", "--quiet", "-p", "coevo-cli", "--bin", "coevo"], env)
    return target / "release" / "perfbench", target / "release" / "coevo"


def run_one(binaries, workload, seed, seconds, trace, trace_out=None, capture=False):
    perfbench, coevo = binaries
    cmd = [str(perfbench), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--coevo", str(coevo)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    return subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE if capture else None)


def result_of(done):
    """The JSON result line of a captured run."""
    if done.returncode != 0:
        sys.exit(f"perfbench: run failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def steady(binaries, args, seconds):
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    workloads = args.workload or WORKLOADS
    ok = True
    for workload in workloads:
        sets = []
        for s in range(2):
            values = {name: [] for name in bounds}
            for i in range(RUNS):
                seed = args.seed + s * RUNS + i
                res = result_of(run_one(binaries, workload, seed, seconds, 0, capture=True))
                if not res["correct"]:
                    print(f"{workload} seed {seed}: incorrect result {res}")
                    ok = False
                for name in bounds:
                    values[name].append(res["metrics"][name]["value"])
                print(f"  {workload} set {s + 1} seed {seed}: "
                      + " ".join(f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
            sets.append(values)
        print(f"{workload}: spread = (Q3-Q1)/median per set; drift = set 2's median against set 1's, "
              "positive = worse")
        for name, m in bounds.items():
            spreads = [quartile_spread(v[name]) for v in sets]
            m1, m2 = (statistics.median(v[name]) for v in sets)
            drift = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            good = max(spreads) <= m["bound"] and abs(drift) <= m["bound"]
            ok &= good
            print(f"  {name:<16} bound {m['bound']:<5} spread {spreads[0]:.4f} / {spreads[1]:.4f} "
                  f"(third of bound {m['bound'] / 3:.4f})  drift {drift:+.4f}  {'ok' if good else 'OUT OF BOUND'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--trace-out", help="write the traced run's spans here as JSON lines")
    p.add_argument("--all", action="store_true", help="every workload, tracing off")
    p.add_argument("--steady", action="store_true", help=f"two sets of {RUNS} seeded runs per workload")
    p.add_argument("--selftest", action="store_true", help="the benchmark's own unit tests")
    args = p.parse_args()

    if args.selftest:
        env, _ = cargo_env()
        cargo(["test", "--release", "--manifest-path", "perfbench/Cargo.toml"], env)
        return 0
    binaries = build()
    seconds = args.seconds or spec()["run_seconds"]
    if args.steady:
        return steady(binaries, args, seconds)
    if args.all:
        for workload in WORKLOADS:
            done = run_one(binaries, workload, args.seed, seconds, 0, capture=True)
            if done.returncode != 0:
                return done.returncode
            print("\n".join(done.stdout.strip().splitlines()[:-1]), flush=True)
        return 0
    if not args.workload or len(args.workload) != 1:
        p.error("give exactly one --workload, or --all, --steady or --selftest")
    return run_one(binaries, args.workload[0], args.seed, seconds, args.trace, args.trace_out).returncode


if __name__ == "__main__":
    sys.exit(main())
