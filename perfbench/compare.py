"""Summarize one result set, or compare two, per workload and end-to-end metric.

A result set is a JSON-lines file written by ``run.py --record FILE`` (or by
``sweep.py``); only untraced runs (``"trace": 0``) count.  Given one set that
also holds traced runs, the summary adds the measured tracing overhead.

    python3 perfbench/compare.py BASE.jsonl            # medians, quartiles, spread
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # plus a verdict per metric

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With two
sets, runs are paired in file order within each workload (``sweep.py``
alternates which side runs first), and each metric gets one verdict:

* ``better``: at least ten pairs, the new side wins at least nine tenths of
  them (ties count for neither), and the medians differ by more than the
  base side's quartile distance;
* ``worse``: the new median is worse than the base median by more than the
  metric's bound (a share of the base median, from ``BENCHMARK.json``);
* ``unresolved``: neither, and either side's spread exceeds the bound,
  unless every new run reads better than every base run;
* ``within-bound``: otherwise.

The exit code is 1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_definitions() -> list[dict]:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def load(path: str, trace: int = 0) -> dict[str, list[dict[str, float]]]:
    """Correct runs with the given trace flag, by workload, in file order.

    Each run is a flat ``{metric: value}`` dict: the printed metrics
    (``*_raw`` twins included) plus the ones in the result line.
    """
    runs: dict[str, list[dict[str, float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"] != trace or not record["result"]["correct"]:
                continue
            values = dict(record["all_metrics"])
            values.update({k: m["value"] for k, m in record["result"]["metrics"].items()})
            runs.setdefault(record["workload"], []).append(values)
    return runs


def overhead_line(untraced: list[dict], traced: list[dict]) -> str:
    """Traced against untraced median raw epoch wall: the measured tracing cost."""
    plain = statistics.median(run["epoch_s_p50_raw"] for run in untraced)
    with_spans = statistics.median(run["trace.epoch_s_p50"] for run in traced)
    estimate = statistics.median(run["trace.overhead_s"] for run in traced)
    return (
        f"  tracing overhead: traced epoch wall p50 {with_spans:.4f} s vs untraced "
        f"{plain:.4f} s ({with_spans / plain - 1:+.1%}, n={len(traced)}/{len(untraced)}); "
        f"span-count estimate {estimate:.4f} s per epoch"
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    _, base_median, _ = quartiles(base)
    _, new_median, _ = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    base_q1, _, base_q3 = quartiles(base)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (new_median - base_median) < 0
        and abs(new_median - base_median) > base_q3 - base_q1
    ):
        return "better"
    if sign * (new_median - base_median) > bound * abs(base_median):
        return "worse"
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if (spread(base) > bound or spread(new) > bound) and not all_better:
        return "unresolved"
    return "within-bound"


def describe(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    definitions = load_definitions()
    sets = [load(path) for path in argv]
    status = 0
    for workload in sorted(set().union(*sets)):
        print(f"{workload}")
        for metric in definitions:
            name, bound = metric["name"], metric["bound"]
            columns = []
            for runs in sets:
                values = [run[name] for run in runs.get(workload, []) if name in run]
                columns.append(values)
            if not all(columns):
                print(f"  {name:22s} missing on one side")
                status = 1
                continue
            line = f"  {name:22s} {metric['unit']:6s}"
            for values in columns:
                line += f"  {describe(values)} spread {spread(values):.3f}"
            line += f"  bound {bound}"
            if len(columns) == 2:
                outcome = verdict(columns[0], columns[1], metric["better"], bound)
                status |= outcome in ("worse", "unresolved")
                line += f"  -> {outcome}"
            elif name != "setup_s" and spread(columns[0]) > bound:
                line += "  (spread above bound)"
            print(line)
        if len(sets) == 1:
            traced = load(argv[0], trace=1).get(workload)
            if traced and sets[0].get(workload):
                print(overhead_line(sets[0][workload], traced))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
