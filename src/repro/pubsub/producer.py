"""Producer API for the in-memory pub/sub broker."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.pubsub.broker import BrokerCluster
from repro.pubsub.record import Record, payload_size, record_size


@dataclass
class Producer:
    """Publishes records to topics on a broker cluster.

    Tracks how many records and bytes it has sent, which the network model
    uses to compute client → proxy traffic.
    """

    cluster: BrokerCluster
    client_id: str = "producer"
    records_sent: int = 0
    bytes_sent: int = 0
    _clock: float = field(default=0.0, repr=False)

    def send(
        self,
        topic: str,
        value: Any,
        key: str | None = None,
        timestamp: float | None = None,
        headers: dict | None = None,
    ) -> Record:
        """Publish one record and return it with its assigned position."""
        if timestamp is None:
            self._clock += 1.0
            timestamp = self._clock
        record = Record(
            value=value,
            key=key,
            timestamp=timestamp,
            headers=headers or {},
        )
        positioned = self.cluster.publish(topic, record)
        self.records_sent += 1
        self.bytes_sent += positioned.size_bytes()
        return positioned

    def send_batch(self, topic: str, values: list[Any], key: str | None = None) -> list[Record]:
        """Publish a list of values in order."""
        return [self.send(topic, value, key=key) for value in values]

    def send_many(
        self,
        topic: str,
        values: list[Any],
        keys: list[str] | None = None,
        payload_sizes: list[int] | None = None,
    ) -> list[Record]:
        """Publish many values in one broker round-trip (per-value keys).

        Behaves exactly like calling :meth:`send` once per value — the same
        producer clock progression, partition routing and byte accounting —
        but goes through :meth:`BrokerCluster.publish_values`, which is what
        makes per-shard transmission cheaper than per-client sends.  Each
        record is sized once, here, and the broker reuses those sizes;
        ``payload_sizes`` lets a caller that already sized the values
        (``payload_size`` of each) skip that step too.
        """
        if keys is not None and len(keys) != len(values):
            raise ValueError("send_many needs one key per value")
        if payload_sizes is not None and len(payload_sizes) != len(values):
            raise ValueError("send_many needs one payload size per value")
        if keys is None:
            keys = [None] * len(values)
        if payload_sizes is None:
            payload_sizes = [payload_size(value) for value in values]
        sizes = [record_size(size, key) for size, key in zip(payload_sizes, keys)]
        clock = self._clock
        timestamps = [clock + offset for offset in range(1, len(values) + 1)]
        self._clock = clock + len(values)
        positioned_batch = self.cluster.publish_values(topic, values, keys, timestamps, sizes)
        self.records_sent += len(positioned_batch)
        self.bytes_sent += sum(sizes)
        return positioned_batch
