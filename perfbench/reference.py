"""The correctness gate: every epoch's outputs against ``SerialExecutor``.

An epoch's observable output is, per query in submission order, the
responses it produced (client, query, epoch, truthful and randomized bits,
every share's index and payload), the window results it emitted (window
bounds, answer count, population, every bucket's estimate and error bound,
as IEEE-754 doubles) and the ids its deadline gate dropped.  Share message
ids are random ``uuid4`` values by design and are left out.

:class:`OutputLedger` serializes that output after each epoch and keeps its
SHA-256; two runs agree on an epoch iff the serialized bytes are identical.
The reference run replays the same seeded inputs on the serial executor,
outside the timed region, and :func:`compare` names every epoch that
differs.
"""

from __future__ import annotations

import hashlib
import struct

FLUSH = "flush"


def serialize_responses(responses) -> bytes:
    out = bytearray()
    for response in responses:
        out += response.client_id.encode("utf-8") + b"\0"
        out += response.query_id.encode("utf-8") + b"\0"
        out += struct.pack(">q", response.epoch)
        out += bytes(response.truthful_bits) + b"\0"
        out += bytes(response.randomized_bits) + b"\0"
        for share in response.encrypted.shares:
            out += struct.pack(">qq", share.index, len(share.payload)) + share.payload
    return bytes(out)


def serialize_window_results(results) -> bytes:
    out = bytearray()
    for result in results:
        out += struct.pack(
            ">ddqq", result.window.start, result.window.end,
            result.num_answers, result.population,
        )
        for bucket in result.histogram.buckets:
            out += struct.pack(">qdd", bucket.bucket_index, bucket.estimate, bucket.error_bound)
    return bytes(out)


class OutputLedger:
    """Per-epoch digests of one run's outputs.

    ``tamper_epoch`` corrupts one byte of that epoch's serialized responses
    before hashing: a fault injected into a copy of the output, used to show
    that the gate fails the run.
    """

    def __init__(self, deployment, tamper_epoch: int | None = None):
        self._deployment = deployment
        self._seen = {query_id: 0 for query_id in deployment.query_ids}
        self._tamper_epoch = tamper_epoch
        self.digests: dict = {}
        self.window_results: dict = {}

    def record(self, epoch, reports: dict, flushed: bool = False) -> None:
        system = self._deployment.system
        digest = hashlib.sha256()
        for query_id in self._deployment.query_ids:
            digest.update(query_id.encode("utf-8") + b"\0")
            if flushed:
                results = reports[query_id]
                late: tuple = ()
            else:
                log = system.responses_log(query_id)
                payload = serialize_responses(log[self._seen[query_id]:])
                self._seen[query_id] = len(log)
                if epoch == self._tamper_epoch and payload:
                    payload = bytes([payload[0] ^ 0xFF]) + payload[1:]
                digest.update(payload)
                results = reports[query_id].window_results
                late = reports[query_id].late_drops
            digest.update(serialize_window_results(results))
            digest.update("\0".join(late).encode("utf-8") + b"\1")
            self.window_results.setdefault(query_id, []).extend(results)
        self.digests[FLUSH if flushed else epoch] = digest.hexdigest()


def compare(measured: dict, reference: dict) -> list:
    """Epoch keys whose digests differ or are missing on either side."""
    keys = list(dict.fromkeys([*measured, *reference]))
    return [key for key in keys if measured.get(key) != reference.get(key)]
