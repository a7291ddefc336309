"""Building, feeding and tearing down one ``repro`` deployment.

Everything here calls the program's public surface: ``PrivApproxSystem``
for provisioning, query submission, churn and epochs; ``EpochDeadline`` for
the deadline gate; ``python -m repro.cli worker`` for remote workers.
``repro`` is imported lazily (:func:`import_repro`) so that the set-up timer
starts before the first ``import repro``.
"""

from __future__ import annotations

import os
import secrets
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from workloads import DEADLINE_SECONDS, EpochInputs, WorkloadSpec

WORKER_START_TIMEOUT_S = 90.0
WORKER_STOP_TIMEOUT_S = 20.0
FREQUENCY_SECONDS = 60.0
BUCKET_RANGE = (0.0, 8.0)


def source_dir(root: str) -> str:
    """The checkout's ``src`` directory; raises when it holds no ``repro``."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise FileNotFoundError(
            f"no repro package under {src}: run from the root of a checkout"
        )
    return src


def import_repro(root: str) -> None:
    """Import the checkout's ``repro`` (first on ``sys.path``)."""
    src = source_dir(root)
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import repro.core  # noqa: F401
    import repro.runtime  # noqa: F401


@dataclass
class RemoteWorkers:
    """``repro.cli worker`` processes launched for one deployment."""

    processes: list[subprocess.Popen]
    addresses: tuple[str, ...]
    key_file: str
    key_dir: str
    _stopped: bool = field(default=False, repr=False)

    def pids(self) -> list[int]:
        return [process.pid for process in self.processes]

    def stop(self) -> None:
        """Interrupt every worker, wait for it to exit, and delete the keys."""
        if self._stopped:
            return
        self._stopped = True
        for process in self.processes:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
        for process in self.processes:
            try:
                process.communicate(timeout=WORKER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
        for name in os.listdir(self.key_dir):
            os.unlink(os.path.join(self.key_dir, name))
        os.rmdir(self.key_dir)


def launch_remote_workers(
    root: str, workdir: str, count: int, spans_dir: str | None = None
) -> RemoteWorkers:
    """Start ``count`` loopback workers and wait until each is listening.

    Each worker gets its own fresh HMAC key file; the coordinator's key file
    lists them in worker order.  With ``spans_dir`` the workers start through
    ``traced_worker.py`` and write their spans there when stopped.
    """
    src = source_dir(root)
    key_dir = os.path.join(workdir, f"keys-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(key_dir)
    keys = [secrets.token_hex(32) for _ in range(count)]
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    processes = []
    for index, key in enumerate(keys):
        key_path = os.path.join(key_dir, f"worker-{index}.key")
        with open(key_path, "w", encoding="utf-8") as handle:
            handle.write(key + "\n")
        worker_args = ["worker", "--listen", "127.0.0.1:0", "--key-file", key_path]
        if spans_dir is None:
            command = [sys.executable, "-m", "repro.cli", *worker_args]
        else:
            here = os.path.dirname(os.path.abspath(__file__))
            command = [
                sys.executable, os.path.join(here, "traced_worker.py"),
                "--spans-dir", spans_dir, "--", *worker_args,
            ]
        processes.append(
            subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                env=env, cwd=root, text=True,
            )
        )
    coordinator_keys = os.path.join(key_dir, "coordinator.keys")
    with open(coordinator_keys, "w", encoding="utf-8") as handle:
        handle.write("".join(key + "\n" for key in keys))
    workers = RemoteWorkers(processes, (), coordinator_keys, key_dir)
    try:
        workers.addresses = tuple(_await_listening(process) for process in processes)
    except BaseException:
        workers.stop()
        raise
    return workers


def _await_listening(process: subprocess.Popen) -> str:
    """Read the worker's ``worker listening on HOST:PORT`` line."""
    prefix = "worker listening on "
    deadline = time.monotonic() + WORKER_START_TIMEOUT_S
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("remote worker did not start listening in time")
            if not selector.select(remaining):
                continue
            line = process.stdout.readline()
            if not line:
                raise RuntimeError(f"remote worker exited with code {process.wait()}")
            if line.startswith(prefix):
                return line[len(prefix):].strip()


class Deployment:
    """One provisioned ``PrivApproxSystem`` with the workload's queries."""

    def __init__(
        self,
        spec: WorkloadSpec,
        seed: int,
        rows: list[list[dict]],
        roster: tuple[int, ...],
        executor: str,
        remote: RemoteWorkers | None = None,
    ):
        from repro.core import PrivApproxSystem, SystemConfig

        self.spec = spec
        config = SystemConfig(
            num_clients=spec.clients,
            seed=seed,
            executor=executor,
            executor_workers=spec.workers,
            executor_shards=spec.shards,
            executor_remote_workers=remote.addresses if remote is not None else None,
            executor_key_file=remote.key_file if remote is not None else None,
        )
        self.system = PrivApproxSystem(config)
        self.system.provision_clients(
            [("value", "REAL"), ("kind", "INTEGER")], lambda index: rows[index]
        )
        self.query_ids: list[str] = []
        self._roster = roster

    def submit(self) -> None:
        """Submit the workload's queries and subscribe the initial roster."""
        from repro.core import (
            Analyst,
            AnswerSpec,
            ExecutionParameters,
            QueryBudget,
            RangeBuckets,
        )

        spec = self.spec
        analyst = Analyst(f"perfbench-{spec.name}")
        params = ExecutionParameters(
            sampling_fraction=spec.sampling_fraction, p=spec.p, q=spec.q
        )
        for query in spec.queries:
            handle = analyst.create_query(
                query.sql,
                AnswerSpec(
                    buckets=RangeBuckets.uniform(*BUCKET_RANGE, query.buckets, open_ended=True),
                    value_column="value",
                ),
                frequency_seconds=FREQUENCY_SECONDS,
                window_seconds=FREQUENCY_SECONDS,
                slide_seconds=FREQUENCY_SECONDS,
            )
            self.system.submit_query(analyst, handle, QueryBudget(), parameters=params)
            self.query_ids.append(handle.query_id)
        if len(self._roster) != spec.clients:
            self.system.set_active_clients(self._roster)
        self.analyst = analyst

    def apply_inputs(self, inputs: EpochInputs) -> None:
        """Feed one epoch's writes: the churned roster and row appends."""
        if inputs.active is not None:
            self.system.set_active_clients(inputs.active)
        clients = self.system.clients
        for index, rows in inputs.appends:
            clients[index].ingest(list(rows))

    def arm_deadline(self, inputs: EpochInputs) -> None:
        from repro.runtime import EpochDeadline

        self.system.epoch_deadline = (
            EpochDeadline(inputs.epoch, DEADLINE_SECONDS, inputs.latency_by_client())
            if inputs.deadline
            else None
        )

    def run_epoch(self, epoch: int) -> dict:
        """One blocking epoch: ``run_epoch`` for one query, else ``run_epoch_all``."""
        if len(self.query_ids) == 1:
            query_id = self.query_ids[0]
            return {query_id: self.system.run_epoch(query_id, epoch)}
        return self.system.run_epoch_all(epoch)

    def flush(self) -> dict:
        return {query_id: self.system.flush(query_id) for query_id in self.query_ids}

    def close(self) -> None:
        self.system.epoch_deadline = None
        self.system.close()
