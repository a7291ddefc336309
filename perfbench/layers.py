"""Per-layer metrics from the traced run's spans, counts and epoch ledger.

Every per-layer value is a mean per steady epoch (epoch 1 on), a ratio of
steady-phase totals, or — for the ``setup.*`` layers — the median of the
run's set-up samples.  Span times are inclusive (a span nested in a span of
the same name is not counted twice); :func:`self_times` gives the exclusive
view.  Layers that run inside worker processes (the client answer path on
the pinned-worker drivers) are summed over every process, so on those
workloads they are busy time across processes, not wall-clock.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

STAGES = ("plan", "answer", "transmit", "ingest", "finalize")

#: Span names whose time is taken from the coordinator only (the worker
#: processes run the same wrapped functions for their side of the wire).
COORDINATOR_ONLY = ("wire.encode", "wire.decode", "remote.seal", "remote.open")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class SpanIndex:
    """Spans of every process, indexed for per-epoch totals.

    ``spans`` holds ``(pid, span_id, parent_id, epoch, name, start_ns,
    end_ns)``; ``counts`` holds ``(pid, epoch, name, amount)``.
    """

    def __init__(self, spans: list[tuple], counts: list[tuple], coordinator_pid: int):
        self.spans = spans
        self.counts = counts
        self.coordinator_pid = coordinator_pid
        names = {(pid, span_id): name for pid, span_id, _, _, name, _, _ in spans}
        self._time = defaultdict(float)
        self._calls = defaultdict(int)
        for pid, span_id, parent, epoch, name, start, end in spans:
            if name in COORDINATOR_ONLY and pid != coordinator_pid:
                continue
            self._calls[epoch, name] += 1
            if names.get((pid, parent)) == name:
                continue  # nested in a span of the same layer: already counted
            self._time[epoch, name] += (end - start) / 1e9
        self._counts = defaultdict(int)
        for pid, epoch, name, amount in counts:
            self._counts[epoch, name] += amount

    def seconds(self, epoch: int, name: str) -> float:
        return self._time.get((epoch, name), 0.0)

    def calls(self, epoch: int, name: str) -> int:
        return self._calls.get((epoch, name), 0)

    def count(self, epoch: int, name: str) -> int:
        return self._counts.get((epoch, name), 0)

    def spans_in(self, epoch: int) -> int:
        return sum(calls for (e, _), calls in self._calls.items() if e == epoch)


def self_times(index: SpanIndex, epochs: list[int]) -> dict[str, float]:
    """Mean exclusive seconds per steady epoch, by span name.

    A span's self time is its duration minus the union of its children's
    intervals (children on other threads may overlap each other).
    """
    wanted = set(epochs)
    children = defaultdict(list)
    for pid, span_id, parent, epoch, name, start, end in index.spans:
        if epoch in wanted:
            children[pid, parent].append((start, end))
    totals = defaultdict(float)
    for pid, span_id, parent, epoch, name, start, end in index.spans:
        if epoch not in wanted:
            continue
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get((pid, span_id), ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        totals[name] += (end - start - covered) / 1e9
    return {name: total / len(epochs) for name, total in totals.items()} if epochs else {}


def per_layer_metrics(
    index: SpanIndex,
    ledger: list[dict],
    setup_samples: list[dict],
    span_cost_ns: float,
) -> dict[str, float]:
    """Every per-layer metric of ``metrics.json`` for one traced run."""
    steady = [record for record in ledger if record["epoch"] >= 1]
    epochs = [record["epoch"] for record in steady]
    first, last = ledger[0], ledger[-1]
    metrics: dict[str, float] = {}

    for key in ("import_s", "provision_s", "submit_s", "workers_up_s"):
        metrics[f"setup.{key}"] = statistics.median(s[key] for s in setup_samples)

    def per_epoch(name: str) -> float:
        return _mean(index.seconds(e, name) for e in epochs)

    def calls_per_epoch(name: str) -> float:
        return _mean(index.calls(e, name) for e in epochs)

    def count_total(name: str) -> int:
        return sum(index.count(e, name) for e in epochs)

    for stage in STAGES:
        metrics[f"engine.{stage}_s"] = _mean(r["stages"][stage] for r in steady)
    metrics["engine.reshard_events"] = _mean(r["reshard_events"] for r in steady)
    metrics["engine.late_drops"] = _mean(r["late_drops"] for r in steady)
    engine_walls = [index.seconds(e, "engine.run_epoch") for e in epochs]
    stage_sums = [sum(r["stages"].values()) for r in steady]
    metrics["engine.unaccounted_s"] = _mean(w - s for w, s in zip(engine_walls, stage_sums))
    metrics["engine.stage_sum_ratio"] = _ratio(sum(stage_sums), sum(engine_walls))
    metrics["system.inputs_s"] = _mean(r["inputs_s"] for r in steady)
    metrics["system.postlude_s"] = _mean(
        index.seconds(e, "system.run_epoch") - index.seconds(e, "engine.run_epoch")
        for e in epochs
    )

    pairs = sum(r["pairs"] for r in steady)
    answers = sum(index.calls(e, "rr.randomize") for e in epochs)
    metrics["client.answer_s"] = per_epoch("client.answer")
    metrics["client.answers"] = calls_per_epoch("rr.randomize")
    metrics["sampling.participation_ratio"] = _ratio(answers, pairs)
    metrics["sqldb.arena_select_s"] = per_epoch("sqldb.arena_select")
    outcomes = count_total("sqldb.arena_outcomes")
    local_queries = sum(index.calls(e, "sqldb.query") for e in epochs)
    metrics["sqldb.arena_hit_ratio"] = _ratio(outcomes, outcomes + local_queries)
    metrics["sqldb.arena_builds"] = calls_per_epoch("sqldb.arena_build")
    metrics["rr.randomize_s"] = per_epoch("rr.randomize")
    metrics["encryption.encrypt_s"] = per_epoch("encryption.encrypt")

    metrics["proxy.transmit_s"] = per_epoch("proxy.transmit")
    relayed = last["bytes_relayed"] - first["bytes_relayed"]
    metrics["proxy.bytes_per_answer"] = _ratio(relayed, sum(r["transmitted"] for r in steady))
    metrics["pubsub.retained_records"] = _ratio(
        last["retained_records"] - first["retained_records"], len(steady)
    )

    metrics["aggregator.ingest_s"] = per_epoch("aggregator.ingest")
    metrics["aggregator.decrypt_s"] = per_epoch("aggregator.decrypt")
    admitted = last["answers_processed"] - first["answers_processed"]
    metrics["aggregator.admit_ratio"] = _ratio(admitted, count_total("aggregator.groups_joined"))
    metrics["aggregator.pending_joins"] = _mean(r["pending_joins"] for r in steady)
    metrics["validation.validate_s"] = per_epoch("validation.validate")
    metrics["admission.admit_s"] = per_epoch("admission.admit")
    metrics["streaming.window_s"] = per_epoch("streaming.window")
    metrics["estimation.bound_s"] = per_epoch("estimation.bound")

    metrics["wire.bytes_per_client_epoch"] = _ratio(sum(r["wire_bytes"] for r in steady), pairs)
    metrics["wire.encode_s"] = per_epoch("wire.encode")
    metrics["wire.decode_s"] = per_epoch("wire.decode")
    metrics["affinity.delta_frames"] = _ratio(
        last["delta_frames"] - first["delta_frames"], len(steady)
    )
    metrics["affinity.state_exports"] = _ratio(count_total("affinity.state_exports"), len(steady))
    metrics["affinity.rebootstraps"] = _ratio(
        last["rebootstraps"] - first["rebootstraps"], len(steady)
    )
    metrics["remote.seal_s"] = per_epoch("remote.seal")
    metrics["remote.open_s"] = per_epoch("remote.open")

    spans_per_epoch = _mean(index.spans_in(e) for e in epochs)
    traced_p50 = statistics.median(r["wall_s"] for r in steady)
    metrics["trace.spans"] = spans_per_epoch
    metrics["trace.span_cost_ns"] = span_cost_ns
    metrics["trace.overhead_s"] = spans_per_epoch * span_cost_ns / 1e9
    metrics["trace.overhead_frac"] = _ratio(metrics["trace.overhead_s"], traced_p50)
    metrics["trace.epoch_s_p50"] = traced_p50
    return metrics


def accounting_lines(metrics: dict[str, float], barrier: bool) -> list[str]:
    """The stage accounting report: how the traced epoch wall decomposes."""
    wall = metrics["trace.epoch_s_p50"]
    parts = {
        "inputs": metrics["system.inputs_s"],
        **{stage: metrics[f"engine.{stage}_s"] for stage in STAGES},
        "engine-unaccounted": metrics["engine.unaccounted_s"],
        "postlude": metrics["system.postlude_s"],
    }
    lines = [
        "stage accounting (traced, mean per steady epoch; wall is the median): "
        + ", ".join(f"{name} {value:.4f} s" for name, value in parts.items())
        + f"; epoch wall {wall:.4f} s"
    ]
    overhead = metrics["trace.overhead_s"]
    if barrier:
        core = sum(metrics[f"engine.{s}_s"] for s in ("answer", "transmit", "ingest"))
        core += metrics["system.postlude_s"]
        gap = wall - core
        lines.append(
            f"barrier flow: answer+transmit+ingest+postlude = {core:.4f} s of "
            f"{wall:.4f} s; gap {gap:.4f} s ({gap / wall:.1%}); "
            f"engine.unaccounted_s {metrics['engine.unaccounted_s']:.4f} s; "
            f"estimated tracing overhead {overhead:.4f} s"
            + ("  [GAP LARGER THAN TRACING OVERHEAD]" if abs(gap) > overhead else "")
        )
    else:
        lines.append(
            f"overlap flow: stage sum / engine wall = "
            f"{metrics['engine.stage_sum_ratio']:.3f} (stages run concurrently); "
            f"engine.unaccounted_s {metrics['engine.unaccounted_s']:.4f} s; "
            f"estimated tracing overhead {overhead:.4f} s"
        )
    return lines
