"""Spans around the public calls into each layer of ``repro``, from outside.

The traced run installs wrappers by replacing attributes where the caller
looks them up: a method on its class, or a function in the namespace of the
module that calls it (``repro.core.aggregator.join_shares_batch``, not
``repro.crypto.xor.join_shares_batch``).  Nothing under ``src/`` changes.

Each span is a tuple ``(span_id, parent_id, epoch, name, start_ns, end_ns)``.
The parent is the innermost open span of the same thread; a span opened on a
thread with no open span (the overlap flow's transmitter and collector, the
remote ack reader) hangs off the epoch's root span.  A root wrapper
(``system.run_epoch``) sets the epoch id and turns recording on for the
duration of the epoch, so work the benchmark itself does between epochs is
never recorded.  Worker processes have no root: their spans take the epoch
from the ``answer_shard`` call that opens them.

Spans stay in memory.  Pinned workers are forked from the coordinator after
the wrappers are installed, so they inherit them; a wrapper around their
entry point writes the worker's spans to a file when the worker stops.
Remote workers install the same wrappers through ``traced_worker.py``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import marshal
import os
import threading
import time

#: (module, attribute path, span name, epoch argument index or None).
#: The epoch index counts ``self`` for methods.
_TARGETS = (
    ("repro.core.system", "PrivApproxSystem.run_epoch", "system.run_epoch", 2),
    ("repro.core.system", "PrivApproxSystem.run_epoch_all", "system.run_epoch", 1),
    ("repro.runtime.engine", "answer_shard", "engine.answer_shard", 2),
    ("repro.runtime.affinity", "answer_shard", "engine.answer_shard", 2),
    ("repro.core.client", "Client.answer", "client.answer", None),
    ("repro.core.randomized_response", "RandomizedResponder.randomize_vector",
     "rr.randomize", None),
    ("repro.core.encryption", "AnswerCodec.encrypt", "encryption.encrypt", None),
    ("repro.runtime.engine", "arena_select_per_client", "sqldb.arena_select", None),
    ("repro.sqldb.engine", "Database.query", "sqldb.query", None),
    ("repro.sqldb.columnar", "ShardArena.__init__", "sqldb.arena_build", None),
    ("repro.core.proxy", "ProxyNetwork.transmit_batch", "proxy.transmit", None),
    ("repro.core.proxy", "ProxyNetwork.transmit_shard", "proxy.transmit", None),
    ("repro.core.aggregator", "Aggregator.ingest_shares", "aggregator.ingest", None),
    ("repro.core.aggregator", "join_shares_batch", "aggregator.decrypt", None),
    ("repro.core.validation", "AnswerValidator.validate", "validation.validate", None),
    ("repro.core.validation", "AnswerValidator.validate_batch",
     "validation.validate", None),
    ("repro.core.admission", "AnswerAdmissionController.admit", "admission.admit", None),
    ("repro.core.admission", "AnswerAdmissionController.admit_batch",
     "admission.admit", None),
    ("repro.streaming.operators", "WindowAggregateOperator.process",
     "streaming.window", None),
    ("repro.core.estimation", "ErrorEstimator.bucket_error_bound",
     "estimation.bound", None),
    ("repro.runtime.affinity", "encode_shard_delta", "wire.encode", None),
    ("repro.runtime.affinity", "encode_shard_bootstrap", "wire.encode", None),
    ("repro.runtime.affinity", "decode_shard_ack", "wire.decode", None),
    ("repro.runtime.remote", "seal_frame", "remote.seal", None),
    ("repro.runtime.remote", "_verify_envelope", "remote.open", None),
)

_ROOT = "system.run_epoch"


class Recorder:
    """In-memory spans and counts for one process."""

    def __init__(self, always_on: bool = False):
        self.always_on = always_on
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self.enabled = self.always_on
        self.epoch = -1
        self.root_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, epoch: int, amount: int) -> None:
        if self.enabled:
            self.counts.append((epoch, name, amount))

    def dump(self, path: str) -> None:
        """Write this process's spans and counts (marshal; read by ``load``)."""
        with open(path, "wb") as handle:
            marshal.dump((os.getpid(), self.spans, self.counts), handle)


def load(path: str) -> tuple[int, list, list]:
    with open(path, "rb") as handle:
        return marshal.load(handle)


def span_wrapper(recorder: Recorder, name: str, fn, epoch_index=None, post=None):
    """``fn`` wrapped in a span; the root name also opens and closes an epoch."""
    is_root = name == _ROOT
    clock = time.perf_counter_ns
    ids = recorder._ids

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        explicit = None
        if epoch_index is not None:
            explicit = kwargs.get("epoch", args[epoch_index] if len(args) > epoch_index else 0)
        if is_root:
            recorder.epoch = explicit
            recorder.enabled = True
        elif not recorder.enabled:
            return fn(*args, **kwargs)
        stack = recorder.stack()
        span_id = next(ids)
        if stack:
            parent_id, epoch = stack[-1]
        else:
            parent_id = 0 if is_root else recorder.root_id
            epoch = explicit if explicit is not None else recorder.epoch
        if is_root:
            recorder.root_id = span_id
        stack.append((span_id, epoch))
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            recorder.spans.append((span_id, parent_id, epoch, name, start, end))
            if is_root and not recorder.always_on:
                recorder.enabled = False
        if post is not None:
            post(recorder, epoch, args, result)
        return result

    return wrapper


def _count_arena_outcomes(recorder, epoch, args, result) -> None:
    if result is None:
        return
    from repro.sqldb import ARENA_FALLBACK

    recorder.count(
        "sqldb.arena_outcomes", epoch, sum(1 for o in result if o is not ARENA_FALLBACK)
    )


def _count_groups(recorder, epoch, args, result) -> None:
    recorder.count("aggregator.groups_joined", epoch, len(args[0]))


def _count_state_exports(recorder, epoch, args, result) -> None:
    if getattr(result, "client_states", None) is not None:
        recorder.count("affinity.state_exports", epoch, 1)


_POST = {
    "sqldb.arena_select": _count_arena_outcomes,
    "aggregator.decrypt": _count_groups,
    "wire.decode": _count_state_exports,
}


class Tracer:
    """Installs and removes the wrappers; owns the process's recorder."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._installed: list[tuple[object, str, object]] = []

    def install(self, worker_spans_dir: str | None = None) -> None:
        for module_name, path, name, epoch_index in _TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            wrapped = span_wrapper(
                self.recorder, name, original, epoch_index, _POST.get(name)
            )
            setattr(owner, attribute, wrapped)
            self._installed.append((owner, attribute, original))
        if worker_spans_dir is not None:
            affinity = importlib.import_module("repro.runtime.affinity")
            original = affinity.resident_worker_main
            affinity.resident_worker_main = _worker_entry(
                self.recorder, original, worker_spans_dir
            )
            self._installed.append((affinity, "resident_worker_main", original))

    def wrap_instance(self, instance, attribute: str, name: str) -> None:
        """Span one bound method of one object (``system.executor.run_epoch``)."""
        original = getattr(instance, attribute)
        setattr(instance, attribute, span_wrapper(self.recorder, name, original))
        self._installed.append((instance, attribute, None))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._installed.clear()


def _worker_entry(recorder: Recorder, original, spans_dir: str):
    """The pinned worker's entry point, recording into a fresh recorder."""

    @functools.wraps(original)
    def resident_worker_main(task_queue, result_queue):
        recorder.always_on = True
        recorder.reset()
        try:
            original(task_queue, result_queue)
        finally:
            recorder.dump(os.path.join(spans_dir, f"worker-{os.getpid()}.spans"))

    return resident_worker_main


def span_cost_ns(recorder: Recorder, calls: int = 20_000) -> float:
    """Measured cost of one recorded span over a plain call, in ns.

    The recorder is switched on for the calibration and restored after;
    calibration spans are discarded.
    """

    def plain(value):
        return value

    traced = span_wrapper(recorder, "trace.calibrate", plain)
    saved = (recorder.enabled, len(recorder.spans))
    recorder.enabled = True
    best_plain = best_traced = float("inf")
    for _ in range(3):
        started = time.perf_counter_ns()
        for value in range(calls):
            plain(value)
        best_plain = min(best_plain, time.perf_counter_ns() - started)
        started = time.perf_counter_ns()
        for value in range(calls):
            traced(value)
        best_traced = min(best_traced, time.perf_counter_ns() - started)
    recorder.enabled = saved[0]
    del recorder.spans[saved[1]:]
    return max(0.0, (best_traced - best_plain) / calls)
