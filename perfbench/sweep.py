"""Run the benchmark over several seeds and record every result.

    python3 perfbench/sweep.py --out runs.jsonl --workload census-inline \\
        --seeds 1-10 [--seconds 10] [--trace 0]
    python3 perfbench/sweep.py --out new.jsonl --base-checkout ../parent \\
        --base-out base.jsonl --workload census-inline --seeds 1-10

Runs execute one after another from the current directory (a checkout).
With ``--base-checkout``, every seed runs on both checkouts, alternating
which side goes first, so the two files form the pairs ``compare.py``
judges.  A run that fails stops the sweep with its exit code.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_one(checkout: str, out: str, workload: str, seed: int, seconds: str, trace: int) -> int:
    command = [
        sys.executable, os.path.join(checkout, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", seconds,
        "--trace", str(trace), "--record", os.path.abspath(out),
    ]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - started
    summary = completed.stdout.strip().splitlines()[-1] if completed.stdout.strip() else ""
    print(f"[{os.path.basename(os.path.abspath(checkout))}] {workload} seed {seed}: "
          f"exit {completed.returncode} in {elapsed:.1f} s {summary[:120]}", flush=True)
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
    return completed.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base-checkout", default=None)
    parser.add_argument("--base-out", default=None)
    args = parser.parse_args(argv)
    if (args.base_checkout is None) != (args.base_out is None):
        parser.error("--base-checkout and --base-out go together")
    here = os.getcwd()
    for workload in args.workload:
        for position, seed in enumerate(parse_seeds(args.seeds)):
            sides = [(here, args.out)]
            if args.base_checkout is not None:
                base = (os.path.abspath(args.base_checkout), args.base_out)
                sides = [base, sides[0]] if position % 2 == 0 else [sides[0], base]
            for checkout, out in sides:
                code = run_one(checkout, out, workload, seed, args.seconds, args.trace)
                if code != 0:
                    return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
