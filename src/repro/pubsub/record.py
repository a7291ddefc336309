"""Record type for the in-memory pub/sub broker."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def payload_size(value: Any) -> int:
    """Approximate wire size of a record payload.

    Understands sized objects (anything with ``size_bytes()``), raw bytes and
    strings, and — for the shard-batch records the pipelined runtime publishes
    — lists/tuples of payloads, which are sized as the sum of their elements
    (batch framing is charged once, at the record level).  The runtime's wire
    format (``repro.runtime.wire``) reuses this sizing for its shard batches,
    so a decoded batch and the records it came from agree on byte accounting.
    """
    if hasattr(value, "size_bytes"):
        return value.size_bytes()
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        return sum(payload_size(item) for item in value)
    return len(repr(value).encode("utf-8"))


@dataclass(frozen=True)
class Record:
    """A single published record.

    Attributes
    ----------
    value:
        Arbitrary payload (PrivApprox publishes :class:`~repro.crypto.xor.MessageShare`
        objects, batches of them, or serialized bytes).
    key:
        Optional partitioning key; records with the same key land in the same
        partition, preserving per-key order.
    timestamp:
        Logical event time in seconds, assigned by the producer.
    headers:
        Optional metadata attached by the producer.
    offset / partition / topic:
        Assigned by the broker when the record is appended.
    """

    value: Any
    key: str | None = None
    timestamp: float = 0.0
    headers: dict = field(default_factory=dict)
    topic: str | None = None
    partition: int | None = None
    offset: int | None = None

    def with_position(self, topic: str, partition: int, offset: int) -> "Record":
        """Return a copy annotated with its committed position in the log."""
        return Record(
            value=self.value,
            key=self.key,
            timestamp=self.timestamp,
            headers=self.headers,
            topic=topic,
            partition=partition,
            offset=offset,
        )

    def size_bytes(self) -> int:
        """Approximate wire size of the record, used by the network model."""
        return record_size(payload_size(self.value), self.key)


def record_size(payload_bytes: int, key: str | None) -> int:
    """:meth:`Record.size_bytes` from an already computed payload size."""
    key_size = len(key.encode("utf-8")) if key else 0
    return payload_bytes + key_size + 16  # 16 bytes framing/timestamp
