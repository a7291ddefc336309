"""Workload specifications and the seeded input generator.

This module is the benchmark's load generator.  It never imports ``repro``:
everything the program under test receives — every client's rows, the
per-epoch subscription roster, the per-epoch row appends and the deadline
late-set — is a pure function of ``(workload, seed)`` computed here.

Each epoch draws from its own RNG, seeded from the string
``"<workload>:<seed>:<epoch>"`` (``random.Random`` hashes string seeds with
SHA-512, so the stream is identical across interpreters and machines).  The
roster of epoch ``e`` is derived from the roster of epoch ``e - 1``, so an
:class:`InputStream` replays epochs in order; two streams built from the same
workload and seed yield identical epochs, which is what lets the reference
run replay the measured run's inputs exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The value distribution of every generated row: gamma(shape, scale).
GAMMA_SHAPE = 2.0
GAMMA_SCALE = 1.0
#: ``kind`` column values are uniform over ``range(KINDS)``.
KINDS = 10

#: The modelled latency given to late clients; the gate's deadline is 1 s.
DEADLINE_SECONDS = 1.0
LATE_LATENCY_SECONDS = 1.5

STREAM_SQL = (
    "SELECT value FROM private_data",
    "SELECT value FROM private_data WHERE kind = 3",
)


@dataclass(frozen=True)
class QuerySpec:
    """One analyst query: its SQL and the number of histogram buckets."""

    sql: str
    buckets: int


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that defines one workload except its seed.

    ``executor`` is the ``scheduling/transport`` spelling handed to the
    program.  ``remote_workers`` is the number of ``repro.cli worker``
    processes the benchmark launches itself (sealed-tcp-remote only).
    ``churn`` is the share of the client universe whose subscription flips
    each epoch (half leave, half join); ``append_share`` the share of active
    clients that receive one new row per epoch; ``late_share`` the share of
    active clients whose answer misses the epoch deadline.
    """

    name: str
    why: str
    clients: int
    queries: tuple[QuerySpec, ...]
    executor: str
    workers: int = 1
    shards: int | None = None
    remote_workers: int = 0
    rows_per_client: tuple[int, int] = (1, 1)
    initial_active_share: float = 1.0
    churn: float = 0.0
    append_share: float = 0.0
    late_share: float = 0.0
    sampling_fraction: float = 0.9
    p: float = 0.9
    q: float = 0.6


_STREAM_QUERIES = (
    QuerySpec(STREAM_SQL[0], 8),
    QuerySpec(STREAM_SQL[1], 6),
    QuerySpec(STREAM_SQL[0], 4),
    QuerySpec(STREAM_SQL[1], 10),
)

_STREAM_SHAPE = dict(
    queries=_STREAM_QUERIES,
    workers=2,
    shards=4,
    rows_per_client=(1, 3),
    initial_active_share=0.8,
    churn=0.2,
    append_share=0.5,
    late_share=0.03,
)

WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="census-inline",
            why=(
                "the paper's census epoch: 10k clients, one query, no churn on "
                "inline/in-process; time sits in the client answer path and "
                "barrier transmit/ingest"
            ),
            clients=10_000,
            queries=(QuerySpec(STREAM_SQL[0], 8),),
            executor="inline/in-process",
        ),
        WorkloadSpec(
            name="stream-resident",
            why=(
                "4k clients, 4 queries, churn, appends and a deadline on "
                "pinned-worker/framed-wire-local: writes next to reads, the "
                "overlap flow, wire and resident state"
            ),
            clients=4_000,
            executor="pinned-worker/framed-wire-local",
            **_STREAM_SHAPE,
        ),
        WorkloadSpec(
            name="stream-remote",
            why=(
                "the stream-resident shape at 2k clients on two loopback "
                "repro.cli workers (pinned-worker/sealed-tcp-remote): HMAC "
                "sealing, sockets and worker cold start"
            ),
            clients=2_000,
            executor="pinned-worker/sealed-tcp-remote",
            remote_workers=2,
            **_STREAM_SHAPE,
        ),
    )
}


def client_id(index: int) -> str:
    """The id ``PrivApproxSystem`` gives client ``index``."""
    return f"client-{index:06d}"


def _row(rng: random.Random) -> dict:
    return {
        "value": rng.gammavariate(GAMMA_SHAPE, GAMMA_SCALE),
        "kind": rng.randrange(KINDS),
    }


def initial_rows(spec: WorkloadSpec, seed: int) -> list[list[dict]]:
    """Every client's provisioning rows, client index order."""
    rng = random.Random(f"{spec.name}:{seed}:rows")
    low, high = spec.rows_per_client
    return [[_row(rng) for _ in range(rng.randint(low, high))] for _ in range(spec.clients)]


def initial_roster(spec: WorkloadSpec, seed: int) -> tuple[int, ...]:
    """The sorted client indices subscribed before epoch 0."""
    if spec.initial_active_share >= 1.0:
        return tuple(range(spec.clients))
    rng = random.Random(f"{spec.name}:{seed}:roster")
    count = round(spec.clients * spec.initial_active_share)
    return tuple(sorted(rng.sample(range(spec.clients), count)))


@dataclass(frozen=True)
class EpochInputs:
    """What the benchmark feeds the program before one epoch.

    ``active`` is the full sorted roster for the epoch, or ``None`` when the
    workload has no churn.  ``appends`` pairs a client index with the rows
    appended to its table.  ``late`` lists the ids of clients whose modelled
    latency misses the deadline; ``deadline`` is ``False`` when the workload
    arms no gate at all.
    """

    epoch: int
    active: tuple[int, ...] | None
    appends: tuple[tuple[int, tuple[dict, ...]], ...]
    late: tuple[str, ...]
    deadline: bool

    def latency_by_client(self) -> dict[str, float]:
        """The modelled latencies handed to the deadline gate."""
        return {cid: LATE_LATENCY_SECONDS for cid in self.late}


class InputStream:
    """Per-epoch inputs for one workload and seed, generated in order."""

    def __init__(self, spec: WorkloadSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self._active = initial_roster(spec, seed)
        self._epoch = 0

    def __iter__(self) -> "InputStream":
        return self

    def __next__(self) -> EpochInputs:
        spec = self.spec
        epoch = self._epoch
        self._epoch += 1
        rng = random.Random(f"{spec.name}:{self.seed}:epoch:{epoch}")
        active: tuple[int, ...] | None = None
        if spec.churn > 0:
            flips = round(spec.clients * spec.churn / 2)
            current = set(self._active)
            idle = [i for i in range(spec.clients) if i not in current]
            leave = rng.sample(self._active, min(flips, len(self._active)))
            join = rng.sample(idle, min(flips, len(idle)))
            current.difference_update(leave)
            current.update(join)
            active = tuple(sorted(current))
            self._active = active
        appends: tuple = ()
        if spec.append_share > 0:
            count = round(len(self._active) * spec.append_share)
            targets = sorted(rng.sample(self._active, count))
            appends = tuple((index, (_row(rng),)) for index in targets)
        late: tuple[str, ...] = ()
        if spec.late_share > 0:
            count = round(len(self._active) * spec.late_share)
            late = tuple(client_id(i) for i in sorted(rng.sample(self._active, count)))
        return EpochInputs(
            epoch=epoch,
            active=active,
            appends=appends,
            late=late,
            deadline=spec.late_share > 0,
        )

    @property
    def roster(self) -> tuple[int, ...]:
        """The roster in force after the last generated epoch."""
        return self._active
