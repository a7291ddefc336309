"""Step III: encoding and XOR-encrypting randomized answers (Section 3.2.3).

A client's randomized answer is concatenated with its query identifier to form
the message ``M = <QID, RandomizedAnswer>``, which is then split into ``n``
shares with the XOR one-time pad: one encrypted share plus ``n - 1`` key
shares, each sent to a different proxy under the same message identifier
``MID``.  The aggregator joins all shares with the same ``MID`` and XORs them
to recover ``M``.

The :class:`AnswerCodec` owns the byte-level message layout; it is the single
place that knows how to serialize and parse ``M``, so the client and the
aggregator cannot drift apart.
"""

from __future__ import annotations

import os
import struct
import uuid
from dataclasses import dataclass
from typing import Sequence

from repro.core.query import QueryAnswer
from repro.crypto.prng import KeystreamGenerator
from repro.crypto.xor import MessageShare, join_shares, split_message

_MAGIC = b"PA"
# magic, qid length, epoch, number of answer bits, participation-token length
_HEADER_FORMAT = ">2sHIHB"
_HEADER_SIZE = struct.calcsize(_HEADER_FORMAT)

# Byte value -> its eight bits, most significant first (the packing order).
_BYTE_BITS = tuple(tuple((value >> (7 - k)) & 1 for k in range(8)) for value in range(256))


@dataclass(frozen=True)
class EncryptedAnswer:
    """All shares of one encrypted answer, ready for transmission.

    ``shares[0]`` is the encrypted payload ``ME`` and ``shares[1:]`` are the
    key shares; each goes to a distinct proxy.  The shares are
    indistinguishable from random bytes in isolation.
    """

    message_id: str
    shares: tuple

    @property
    def num_shares(self) -> int:
        return len(self.shares)

    def share_for_proxy(self, proxy_index: int) -> MessageShare:
        if not 0 <= proxy_index < len(self.shares):
            raise IndexError(f"no share for proxy {proxy_index}")
        return self.shares[proxy_index]

    def total_bytes(self) -> int:
        return sum(share.size_bytes() for share in self.shares)


class AnswerCodec:
    """Serialize, encrypt, decrypt and parse randomized answers."""

    def encode(self, answer: QueryAnswer) -> bytes:
        """Serialize ``<QID, RandomizedAnswer>`` into the message ``M``."""
        qid_bytes = answer.query_id.encode("utf-8")
        if len(qid_bytes) > 0xFFFF:
            raise ValueError("query id too long")
        token_bytes = answer.token.encode("utf-8")
        if len(token_bytes) > 0xFF:
            raise ValueError("participation token too long")
        num_bits = len(answer.bits)
        header = struct.pack(
            _HEADER_FORMAT, _MAGIC, len(qid_bytes), answer.epoch, num_bits, len(token_bytes)
        )
        packed_bits = self._pack_bits(answer.bits)
        return header + qid_bytes + token_bytes + packed_bits

    def decode(self, message: bytes) -> QueryAnswer:
        """Parse a decrypted message ``M`` back into a :class:`QueryAnswer`."""
        if len(message) < _HEADER_SIZE:
            raise ValueError("message too short to contain a header")
        magic, qid_length, epoch, num_bits, token_length = struct.unpack(
            _HEADER_FORMAT, message[:_HEADER_SIZE]
        )
        if magic != _MAGIC:
            raise ValueError("bad magic: not a PrivApprox answer message")
        qid_end = _HEADER_SIZE + qid_length
        token_end = qid_end + token_length
        if len(message) < token_end:
            raise ValueError("message truncated inside the header fields")
        query_id = message[_HEADER_SIZE:qid_end].decode("utf-8")
        token = message[qid_end:token_end].decode("utf-8")
        packed = message[token_end:]
        bits = self._unpack_bits(packed, num_bits)
        return QueryAnswer(query_id=query_id, bits=tuple(bits), epoch=epoch, token=token)

    def encrypt(
        self,
        answer: QueryAnswer,
        num_proxies: int,
        keystream: KeystreamGenerator | None = None,
        message_id: str | None = None,
    ) -> EncryptedAnswer:
        """Encode and split an answer into one share per proxy."""
        if num_proxies < 2:
            raise ValueError("PrivApprox requires at least two proxies")
        message = self.encode(answer)
        if message_id is None:
            message_id = uuid.uuid4().hex
        shares = split_message(
            message, num_proxies=num_proxies, keystream=keystream, message_id=message_id
        )
        return EncryptedAnswer(message_id=message_id, shares=tuple(shares))

    def encrypt_batch(
        self,
        answers: Sequence,
        keystreams: Sequence[KeystreamGenerator],
        num_proxies: int,
    ) -> list[EncryptedAnswer]:
        """Encrypt many answers at once, byte-identical to :meth:`encrypt` each.

        ``answers`` are objects with ``query_id``, ``epoch``, ``bits`` (a
        tuple) and ``token`` attributes (a :class:`QueryAnswer`, or the
        client's drawn answer); ``keystreams[i]`` is the stream
        :meth:`encrypt` would have been given for ``answers[i]``.  Each
        answer still pulls its own ``n - 1`` keys from its own stream, in
        order, so the share payloads and indices equal a loop of
        :meth:`encrypt` calls, and an answer that fails validation leaves
        the earlier answers' streams advanced exactly as that loop would.
        What is shared is the work around the pads: one
        header prefix per (query, epoch, bit count, token length), one packed
        byte string per distinct bit vector, one big-integer XOR over the
        whole batch per share position (the mirror of
        :func:`~repro.crypto.xor.join_shares_batch` on the decrypt side) and
        one ``os.urandom`` call for every message id.  Message ids are random
        either way; they carry no answer content.
        """
        if num_proxies < 2:
            raise ValueError("PrivApprox requires at least two proxies")
        count = len(answers)
        if count != len(keystreams):
            raise ValueError("encrypt_batch needs one keystream per answer")
        if count == 0:
            return []
        num_keys = num_proxies - 1
        prefixes: dict[tuple, bytes] = {}
        # Only vectors that passed ``_pack_bits`` are stored, so a hit needs
        # no re-check; one query's answers take at most 2**bits vectors.
        packed_bits: dict[tuple, bytes] = {}
        lengths = []
        messages = []
        keys_by_position: list[list[bytes]] = [[] for _ in range(num_keys)]
        for answer, keystream in zip(answers, keystreams):
            bits = answer.bits
            token_bytes = answer.token.encode("utf-8")
            prefix_key = (answer.query_id, answer.epoch, len(bits), len(token_bytes))
            prefix = prefixes.get(prefix_key)
            if prefix is None:
                qid_bytes = answer.query_id.encode("utf-8")
                if len(qid_bytes) > 0xFFFF:
                    raise ValueError("query id too long")
                if len(token_bytes) > 0xFF:
                    raise ValueError("participation token too long")
                prefix = struct.pack(
                    _HEADER_FORMAT,
                    _MAGIC,
                    len(qid_bytes),
                    answer.epoch,
                    len(bits),
                    len(token_bytes),
                ) + qid_bytes
                prefixes[prefix_key] = prefix
            packed = packed_bits.get(bits)
            if packed is None:
                packed = packed_bits[bits] = self._pack_bits(bits)
            message = prefix + token_bytes + packed
            length = len(message)
            # One pull of all n - 1 keys is the same bytes as n - 1 pulls.
            pads = keystream.next_bytes(num_keys * length)
            for position, keys in enumerate(keys_by_position):
                keys.append(pads[position * length : (position + 1) * length])
            messages.append(message)
            lengths.append(length)

        joined = b"".join(messages)
        accumulator = int.from_bytes(joined, "little")
        for keys in keys_by_position:
            accumulator ^= int.from_bytes(b"".join(keys), "little")
        encrypted = accumulator.to_bytes(len(joined), "little")
        ids = os.urandom(16 * count).hex()

        # Positional construction: this loop builds n + 1 objects per answer.
        key_positions = list(enumerate(keys_by_position, start=1))
        out = []
        offset = 0
        for index, length in enumerate(lengths):
            message_id = ids[32 * index : 32 * index + 32]
            shares = [MessageShare(message_id, encrypted[offset : offset + length], 0)]
            shares += [
                MessageShare(message_id, keys[index], position)
                for position, keys in key_positions
            ]
            out.append(EncryptedAnswer(message_id, tuple(shares)))
            offset += length
        return out

    def decrypt(self, shares: list[MessageShare]) -> QueryAnswer:
        """Join all shares of one message id and decode the answer."""
        return self.decode(join_shares(shares))

    # -- bit packing ---------------------------------------------------------

    @staticmethod
    def _pack_bits(bits) -> bytes:
        out = bytearray((len(bits) + 7) // 8)
        for index, bit in enumerate(bits):
            if bit not in (0, 1):
                raise ValueError("answer bits must be 0 or 1")
            if bit:
                out[index // 8] |= 1 << (7 - index % 8)
        return bytes(out)

    @staticmethod
    def _unpack_bits(packed: bytes, num_bits: int) -> list[int]:
        num_bytes = (num_bits + 7) // 8
        if len(packed) < num_bytes:
            raise ValueError("packed bit payload shorter than declared bit count")
        bits: list[int] = []
        for byte in packed[:num_bytes]:
            bits.extend(_BYTE_BITS[byte])
        del bits[num_bits:]
        return bits
