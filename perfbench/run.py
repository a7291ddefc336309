"""The repository's benchmark: one seeded run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload census-inline --seed 1 --seconds 10 --trace 0

The run first times two cold starts (set-up plus epoch 0) in fresh
interpreters, then sets the deployment up itself (timed) and runs epochs
one after another until ``--seconds`` have passed.  It then replays the
same seeded inputs on ``SerialExecutor`` and compares every epoch's
outputs byte for byte.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it wraps each layer's public
calls in spans and prints the per-layer metrics instead (see
``metrics.json`` for every name, unit and the end-to-end metric each layer
is predicted to move).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 for a
correct run, 1 when an epoch failed or differed from the reference, and 2
when the working directory is not a checkout.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
from workloads import WORKLOADS, InputStream, initial_roster, initial_rows  # noqa: E402

WORKDIR = ".perfbench_work"
#: Cold starts (set-up plus epoch 0) timed in fresh interpreters before the
#: run's own; ``setup_s`` and ``first_epoch_s`` are medians over all of them.
COLD_STARTS = 2
#: Epochs after epoch 0 that every run measures, however long they take.
MIN_STEADY_EPOCHS = 3
#: Steady epochs needed before a percentile above the median has ten
#: samples beyond it; shorter runs report their maximum as the tail.
TAIL_MIN_SAMPLES = 20


def load_metric_definitions() -> dict:
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cold-start", action="store_true",
        help="time one set-up and epoch 0, print them as JSON and exit "
             "(how the run takes its extra samples)",
    )
    parser.add_argument(
        "--tamper-epoch", type=int, default=None,
        help="corrupt one response of this epoch in the measured run's output "
             "copy; the reference check must then fail the run",
    )
    parser.add_argument(
        "--record", default=None, metavar="FILE",
        help="append the run (workload, seed, trace, every printed metric, epoch "
             "walls, calibration and cold-start samples, result) as one JSON "
             "line to FILE",
    )
    return parser.parse_args(argv)


# -- set-up ------------------------------------------------------------------


def set_up(spec, seed, rows, roster, root, workdir, spans_dir=None):
    """Import, start workers, provision and submit; returns the timings.

    The clock starts before the first ``import repro``; the deployment is
    ready for epoch 0 when this returns.
    """
    started = time.perf_counter()
    from deployment import Deployment, import_repro, launch_remote_workers

    import_repro(root)
    imported = time.perf_counter()
    remote = None
    if spec.remote_workers:
        remote = launch_remote_workers(root, workdir, spec.remote_workers, spans_dir)
    workers_up = time.perf_counter()
    try:
        deployment = Deployment(spec, seed, rows, roster, spec.executor, remote)
        provisioned = time.perf_counter()
        deployment.submit()
    except BaseException:
        if remote is not None:
            remote.stop()
        raise
    ready = time.perf_counter()
    timings = {
        "import_s": imported - started,
        "workers_up_s": workers_up - imported,
        "provision_s": provisioned - workers_up,
        "submit_s": ready - provisioned,
        "setup_s": ready - started,
    }
    return deployment, remote, timings


def cold_start_sample(args, root) -> dict:
    """One set-up and epoch 0 in a fresh interpreter (``--cold-start``)."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--cold-start",
    ]
    completed = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=150, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(f"cold-start sample failed:\n{completed.stdout}{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


# -- measurement -------------------------------------------------------------


def read_status_kb(pid, field: str) -> int:
    """One ``/proc/<pid>/status`` field in kB (``VmHWM``, ``VmRSS``), or 0."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0


def worker_pids(remote) -> list[int]:
    import multiprocessing

    pids = [child.pid for child in multiprocessing.active_children()]
    if remote is not None:
        pids.extend(remote.pids())
    return pids


def counters(deployment) -> dict:
    """Public counters read between epochs (never inside the timed region)."""
    system = deployment.system
    executor = system.executor
    aggregators = [system.aggregator_for(q) for q in deployment.query_ids]
    return {
        "bytes_relayed": system.proxies.total_bytes_relayed(),
        "retained_records": system.proxies.cluster.total_records(),
        "answers_processed": sum(a.answers_processed for a in aggregators),
        "pending_joins": sum(a.pending_joins() for a in aggregators),
        "delta_frames": getattr(executor, "delta_frames", 0),
        "rebootstraps": getattr(executor, "rebootstraps", 0),
        "rss_kb": read_status_kb("self", "VmRSS"),
    }


def stage_record(deployment, epoch) -> dict:
    metrics = getattr(deployment.system.executor, "stage_metrics", {}).get(epoch)
    if metrics is None:
        return {"stages": {s: 0.0 for s in ("plan", "answer", "transmit", "ingest", "finalize")},
                "wire_bytes": 0, "reshard_events": 0, "late_drops": 0}
    return {
        "stages": {
            "plan": metrics.plan_seconds,
            "answer": metrics.answer_seconds,
            "transmit": metrics.transmit_seconds,
            "ingest": metrics.ingest_seconds,
            "finalize": metrics.finalize_seconds,
        },
        "wire_bytes": metrics.wire_bytes,
        "reshard_events": metrics.reshard_events,
        "late_drops": metrics.late_drops,
    }


def timed_epoch(deployment, epoch_inputs) -> tuple[float, float, dict]:
    """One epoch: returns its wall, the part spent applying inputs, and reports.

    The wall covers applying the epoch's inputs (churn, appends) and the
    blocking ``run_epoch``/``run_epoch_all`` call; arming the deadline gate
    (building its object) is left out.
    """
    t0 = time.perf_counter()
    deployment.apply_inputs(epoch_inputs)
    t1 = time.perf_counter()
    deployment.arm_deadline(epoch_inputs)
    t2 = time.perf_counter()
    reports = deployment.run_epoch(epoch_inputs.epoch)
    t3 = time.perf_counter()
    return (t1 - t0) + (t3 - t2), t1 - t0, reports


def measure(args, spec, deployment, ledger, remote):
    """Run epochs until ``--seconds`` have passed; returns the epoch ledger.

    Digests, counters and a calibration sample are taken between epochs,
    outside each epoch's wall (see :func:`timed_epoch`).
    """
    inputs = InputStream(spec, args.seed)
    records = []
    calibrator = calibration.Calibrator()
    try:
        failure = _epoch_loop(args, spec, deployment, ledger, inputs, records, calibrator)
    finally:
        calibrator.close()
    peak_kb = read_status_kb("self", "VmHWM")
    peak_kb += sum(read_status_kb(pid, "VmHWM") for pid in worker_pids(remote))
    return records, peak_kb, failure


def _epoch_loop(args, spec, deployment, ledger, inputs, records, calibrator):
    """Append one record per epoch; returns ``(epoch, traceback)`` or ``None``."""
    started = time.perf_counter()
    for epoch_inputs in inputs:
        epoch = epoch_inputs.epoch
        pairs = len(inputs.roster) * len(spec.queries)
        try:
            wall, inputs_s, reports = timed_epoch(deployment, epoch_inputs)
        except Exception:  # an epoch that raises is a failed epoch
            return epoch, traceback.format_exc()
        ledger.record(epoch, reports)
        record = {
            "epoch": epoch,
            "wall_s": wall,
            "inputs_s": inputs_s,
            "pairs": pairs,
            "transmitted": sum(r.num_participants for r in reports.values()),
            **stage_record(deployment, epoch),
            **counters(deployment),
            "cal_s": calibrator.sample(),
        }
        records.append(record)
        steady = len(records) - 1
        if steady >= MIN_STEADY_EPOCHS and time.perf_counter() - started >= args.seconds:
            return None
    return None  # the input stream never ends; kept for the type checker


def replay_reference(args, spec, rows, roster, epochs: int):
    """Replay ``epochs`` epochs of the same inputs on ``SerialExecutor``.

    Also takes each epoch's exact bucket counts (the ground truth for
    accuracy and bound coverage) before the epoch runs.
    """
    from deployment import Deployment
    from reference import OutputLedger

    deployment = Deployment(spec, args.seed, rows, roster, "serial")
    deployment.submit()
    ledger = OutputLedger(deployment)
    exact: dict[int, dict[str, list[int]]] = {}
    try:
        inputs = InputStream(spec, args.seed)
        for _ in range(epochs):
            epoch_inputs = next(inputs)
            deployment.apply_inputs(epoch_inputs)
            exact[epoch_inputs.epoch] = {
                q: deployment.system.exact_bucket_counts(q) for q in deployment.query_ids
            }
            deployment.arm_deadline(epoch_inputs)
            ledger.record(epoch_inputs.epoch, deployment.run_epoch(epoch_inputs.epoch))
        ledger.record(None, deployment.flush(), flushed=True)
    finally:
        deployment.close()
    return ledger, exact


def estimate_quality(ledger, exact) -> tuple[float, float, int]:
    """Mean histogram accuracy loss and error-bound coverage over windows.

    Accuracy loss of one window is ``sum |estimate - exact| / sum exact``;
    coverage counts (window, bucket) pairs with ``|estimate - exact| <=
    error_bound``.  Windows are matched to the epoch whose exact counts were
    taken before it ran.
    """
    from deployment import FREQUENCY_SECONDS

    losses = []
    covered = pairs = 0
    for query_id, results in ledger.window_results.items():
        for result in results:
            counts = exact.get(int(result.window.start // FREQUENCY_SECONDS), {}).get(query_id)
            if counts is None:
                continue
            buckets = result.histogram.buckets
            if sum(counts):
                losses.append(
                    sum(abs(b.estimate - c) for b, c in zip(buckets, counts)) / sum(counts)
                )
            for bucket, count in zip(buckets, counts):
                pairs += 1
                covered += abs(bucket.estimate - count) <= bucket.error_bound
    return (
        sum(losses) / len(losses) if losses else 0.0,
        covered / pairs if pairs else 0.0,
        pairs,
    )


def tail(walls: list[float]) -> tuple[float, str]:
    """The highest percentile with ten samples beyond it, and its label."""
    ordered = sorted(walls)
    count = len(ordered)
    if count < TAIL_MIN_SAMPLES:
        return ordered[-1], f"p100 (max) of {count} steady epochs: fewer than {TAIL_MIN_SAMPLES}"
    rank = count - 10  # 1-based order statistic with exactly ten above it
    return ordered[rank - 1], f"p{100 * rank / count:.1f} of {count} steady epochs"


def end_to_end_metrics(records, setup_samples, peak_kb, quality) -> tuple[dict, list[str]]:
    """The end-to-end metrics; timings calibrated, with ``*_raw`` twins.

    ``setup_s`` and ``first_epoch_s`` are medians over the cold starts.
    Every timing is scaled by the run's speed, from the calibration sample
    taken after each epoch.
    """
    steady = records[1:]
    walls = [r["wall_s"] for r in steady]
    steady_pairs = sum(r["pairs"] for r in steady)
    tail_value, tail_label = tail(walls)
    growth_kb = records[-1]["rss_kb"] - records[0]["rss_kb"]
    speed = calibration.speed([r["cal_s"] for r in records])
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
        "first_epoch_s": statistics.median(s["first_epoch_s"] for s in setup_samples),
        "epoch_s_p50": statistics.median(walls),
        "epoch_s_tail": tail_value,
        "client_epochs_per_s": steady_pairs / sum(walls),
    }
    metrics = {
        "setup_s": raw["setup_s"] * speed,
        "first_epoch_s": raw["first_epoch_s"] * speed,
        "epoch_s_p50": raw["epoch_s_p50"] * speed,
        "epoch_s_tail": raw["epoch_s_tail"] * speed,
        "client_epochs_per_s": raw["client_epochs_per_s"] / speed,
        "peak_rss_mb": peak_kb / 1024.0,
        "rss_growth_kb_per_client_epoch": growth_kb / steady_pairs,
        "accuracy_loss": quality[0],
        "bound_coverage": quality[1],
        **{f"{name}_raw": value for name, value in raw.items()},
        "machine_speed": speed,
    }
    notes = [
        f"epoch_s_tail: {tail_label}",
        f"setup_s, first_epoch_s: medians of {len(setup_samples)} cold starts "
        f"({', '.join('%.3f' % s['setup_s'] for s in setup_samples)} s; "
        f"{', '.join('%.3f' % s['first_epoch_s'] for s in setup_samples)} s raw)",
        f"timings are scaled to the calibration kernel's reference speed; the host "
        f"ran at {speed:.3f}x of it (see calibration.py; *_raw are as measured)",
        f"client_epochs_per_s: {steady_pairs} subscribed (client, query) pairs "
        f"over {sum(walls):.3f} s of steady epochs",
        f"bound_coverage: over {quality[2]} (window, bucket) pairs",
    ]
    return metrics, notes


# -- the run -----------------------------------------------------------------


def run(args, root) -> int:
    from deployment import source_dir

    try:
        source_dir(root)
    except FileNotFoundError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    workdir = os.path.join(root, WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    rows = initial_rows(spec, args.seed)
    roster = initial_roster(spec, args.seed)

    if args.cold_start:
        deployment, remote, timings = set_up(spec, args.seed, rows, roster, root, workdir)
        try:
            epoch_zero = next(InputStream(spec, args.seed))
            timings["first_epoch_s"] = timed_epoch(deployment, epoch_zero)[0]
        finally:
            try:
                deployment.close()
            finally:
                if remote is not None:
                    remote.stop()
        print(json.dumps(timings))
        return 0

    samples = [cold_start_sample(args, root) for _ in range(COLD_STARTS)]
    spans_dir = os.path.join(workdir, f"spans-{os.getpid()}") if args.trace else None
    if spans_dir is not None:
        os.makedirs(spans_dir, exist_ok=True)
    deployment, remote, timings = set_up(spec, args.seed, rows, roster, root, workdir, spans_dir)
    records, peak_kb, failure, ledger, tracer, cost_ns = measured_session(
        args, spec, deployment, remote, spans_dir
    )
    if records:
        samples.append({**timings, "first_epoch_s": records[0]["wall_s"]})
    del deployment
    gc.collect()

    failed_epochs = []
    if failure is not None:
        failed_epochs.append(failure[0])
        print(f"epoch {failure[0]} raised:\n{failure[1]}", file=sys.stderr)
    attempted = len(records) + (failure is not None)
    if len(records) < 1 + MIN_STEADY_EPOCHS:
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": max(1, len(failed_epochs)), "metrics": {}}))
        return 1
    reference, exact = replay_reference(args, spec, rows, roster, len(records))
    from reference import compare

    for key in compare(ledger.digests, reference.digests):
        print(f"reference check: epoch {key} differs from SerialExecutor", file=sys.stderr)
        if key not in failed_epochs:
            failed_epochs.append(key)
    failed = len(failed_epochs)

    e2e, notes = end_to_end_metrics(records, samples, peak_kb, estimate_quality(reference, exact))
    e2e["failed_frac"] = failed / attempted
    definitions = load_metric_definitions()
    print(f"workload {spec.name} (seed {args.seed}, {spec.executor}, {spec.clients} clients, "
          f"{len(spec.queries)} queries): {len(records)} epochs in the measured run, "
          f"{len(records) - 1} steady; reference check "
          + ("passed" if not failed_epochs else f"FAILED on {failed_epochs}"))
    if args.trace:
        print("end-to-end figures of this traced run (spans slow it; the reported "
              "end-to-end metrics come from --trace 0 runs):")
    print_end_to_end(e2e, notes, records, definitions)
    if args.trace:
        values = report_layers(spec, records, samples, tracer, cost_ns, spans_dir, workdir,
                               definitions)
        metrics = {name: {"value": values[name], "unit": d["unit"]}
                   for name, d in definitions["per_layer"].items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": d["unit"]}
                   for name, d in definitions["end_to_end"].items() if d["in_benchmark_json"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": spec.name, "seed": args.seed, "trace": args.trace,
                "all_metrics": e2e, "epoch_walls": [r["wall_s"] for r in records],
                "cal_samples": [r["cal_s"] for r in records],
                "setups": samples,
                "result": result,
            }) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def measured_session(args, spec, deployment, remote, spans_dir):
    """Install the tracer (``--trace 1``), run the epochs, flush and close.

    Returns the epoch ledger, peak RSS, the failure (or ``None``), the
    output digests, and the tracer with its measured span cost.
    """
    from reference import OutputLedger

    tracer = cost_ns = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(tracing.Recorder())
        tracer.install(worker_spans_dir=spans_dir)
        tracer.wrap_instance(deployment.system.executor, "run_epoch", "engine.run_epoch")
        cost_ns = tracing.span_cost_ns(tracer.recorder)
    ledger = OutputLedger(deployment, tamper_epoch=args.tamper_epoch)
    try:
        try:
            records, peak_kb, failure = measure(args, spec, deployment, ledger, remote)
            if failure is None:
                ledger.record(None, deployment.flush(), flushed=True)
        finally:
            try:
                deployment.close()
            finally:
                if remote is not None:
                    remote.stop()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records, peak_kb, failure, ledger, tracer, cost_ns


def print_end_to_end(e2e, notes, records, definitions) -> None:
    for name, value in e2e.items():
        print(f"  {name:32s} {value:14.6g} {definitions['end_to_end'][name]['unit']}")
    for note in notes:
        print(f"  note: {note}")
    stage_sums = [sum(r["stages"].values()) for r in records[1:]]
    walls = [r["wall_s"] for r in records[1:]]
    gap = statistics.mean(w - s for w, s in zip(walls, stage_sums))
    print(f"  stage sum / epoch wall (StageMetrics, steady): {sum(stage_sums) / sum(walls):.3f}; "
          f"epoch wall - stage sum: {gap:.4f} s (includes inputs and postlude)")


def report_layers(spec, records, samples, tracer, cost_ns, spans_dir, workdir, definitions):
    """Merge every process's spans, print the per-layer report, write the trace."""
    import layers
    import tracing

    pid = os.getpid()
    spans = [(pid, *span) for span in tracer.recorder.spans]
    counts = [(pid, *count) for count in tracer.recorder.counts]
    for name in sorted(os.listdir(spans_dir)):
        worker, worker_spans, worker_counts = tracing.load(os.path.join(spans_dir, name))
        spans.extend((worker, *span) for span in worker_spans)
        counts.extend((worker, *count) for count in worker_counts)
    shutil.rmtree(spans_dir, ignore_errors=True)
    index = layers.SpanIndex(spans, counts, pid)
    values = layers.per_layer_metrics(index, records, samples, cost_ns)
    print("per-layer metrics (traced run; per steady epoch unless the unit says otherwise):")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {definitions['per_layer'][name]['unit']}")
    print("self time per steady epoch, by span (s):")
    steady_epochs = [r["epoch"] for r in records[1:]]
    for name, value in sorted(layers.self_times(index, steady_epochs).items(),
                              key=lambda item: -item[1]):
        print(f"  {name:32s} {value:10.4f}")
    for line in layers.accounting_lines(values, barrier=spec.executor.startswith("inline")):
        print(line)
    write_trace(os.path.join(workdir, f"{spec.name}.trace.tsv.gz"), spans)
    return values


def write_trace(path: str, spans: list[tuple]) -> None:
    """All spans of the run, one per line: pid, id, parent, epoch, name, start, end."""
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
        handle.write("pid\tspan_id\tparent_id\tepoch\tname\tstart_ns\tend_ns\n")
        for span in spans:
            handle.write("\t".join(map(str, span)) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    return run(args, os.getcwd())


if __name__ == "__main__":
    sys.exit(main())
