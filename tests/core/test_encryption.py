"""Tests for answer encoding and XOR share splitting (Step III)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AnswerCodec
from repro.core.query import QueryAnswer
from repro.crypto.prng import KeystreamGenerator


@pytest.fixture
def codec() -> AnswerCodec:
    return AnswerCodec()


class TestAnswerCodec:
    def test_encode_decode_roundtrip(self, codec):
        answer = QueryAnswer(query_id="analyst-00000001", bits=(0, 1, 0, 0, 1), epoch=3)
        decoded = codec.decode(codec.encode(answer))
        assert decoded.query_id == answer.query_id
        assert decoded.bits == answer.bits
        assert decoded.epoch == 3

    def test_encode_packs_bits_compactly(self, codec):
        answer = QueryAnswer(query_id="q", bits=tuple([0, 1] * 6))
        message = codec.encode(answer)
        # header (11 bytes) + qid (1) + empty token (0) + ceil(12 / 8) = 2 bytes of bits
        assert len(message) == 11 + 1 + 2

    def test_token_roundtrip(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1, 0), epoch=2, token="abc123" * 4)
        decoded = codec.decode(codec.encode(answer))
        assert decoded.token == "abc123" * 4

    def test_overlong_token_rejected(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1,), token="x" * 300)
        with pytest.raises(ValueError):
            codec.encode(answer)

    def test_decode_rejects_truncated_message(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1, 0, 1))
        message = codec.encode(answer)
        with pytest.raises(ValueError):
            codec.decode(message[:5])

    def test_decode_rejects_bad_magic(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1,))
        message = bytearray(codec.encode(answer))
        message[0] = 0xFF
        with pytest.raises(ValueError):
            codec.decode(bytes(message))

    def test_encrypt_produces_one_share_per_proxy(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1, 0, 1, 1))
        encrypted = codec.encrypt(answer, num_proxies=3, keystream=KeystreamGenerator(seed=b"k"))
        assert encrypted.num_shares == 3
        assert len({s.message_id for s in encrypted.shares}) == 1

    def test_encrypt_requires_two_proxies(self, codec):
        with pytest.raises(ValueError):
            codec.encrypt(QueryAnswer(query_id="q", bits=(1,)), num_proxies=1)

    def test_decrypt_roundtrip(self, codec):
        answer = QueryAnswer(query_id="analyst-00000042", bits=(1, 1, 0, 0, 0, 1), epoch=9)
        encrypted = codec.encrypt(answer, num_proxies=2, keystream=KeystreamGenerator(seed=b"k"))
        decrypted = codec.decrypt(list(encrypted.shares))
        assert decrypted == QueryAnswer(query_id=answer.query_id, bits=answer.bits, epoch=9)

    def test_shares_are_not_the_plaintext(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1, 0) * 20)
        message = codec.encode(answer)
        encrypted = codec.encrypt(answer, num_proxies=2, keystream=KeystreamGenerator(seed=b"z"))
        for share in encrypted.shares:
            assert share.payload != message

    def test_share_for_proxy(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1,))
        encrypted = codec.encrypt(answer, num_proxies=2)
        assert encrypted.share_for_proxy(0).index == 0
        assert encrypted.share_for_proxy(1).index == 1
        with pytest.raises(IndexError):
            encrypted.share_for_proxy(2)

    def test_total_bytes(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1, 0, 1))
        encrypted = codec.encrypt(answer, num_proxies=2)
        assert encrypted.total_bytes() == sum(s.size_bytes() for s in encrypted.shares)

    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=128),
        epoch=st.integers(min_value=0, max_value=2**31 - 1),
        num_proxies=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_encrypt_decrypt_roundtrip_property(self, bits, epoch, num_proxies):
        """Invariant: encrypt followed by decrypt recovers the exact answer."""
        codec = AnswerCodec()
        answer = QueryAnswer(query_id="analyst-x-00001234", bits=tuple(bits), epoch=epoch)
        encrypted = codec.encrypt(
            answer, num_proxies=num_proxies, keystream=KeystreamGenerator(seed=b"prop")
        )
        decrypted = codec.decrypt(list(encrypted.shares))
        assert decrypted.bits == answer.bits
        assert decrypted.query_id == answer.query_id
        assert decrypted.epoch == epoch


def _reference_unpack(packed: bytes, num_bits: int) -> list[int]:
    """The per-bit loop the table-driven decoder replaced."""
    return [(packed[index // 8] >> (7 - index % 8)) & 1 for index in range(num_bits)]


class TestUnpackBitsTable:
    def test_every_byte_value_and_bit_count(self):
        for value in range(256):
            packed = bytes([value, value ^ 0xA5])
            for num_bits in range(1, 17):
                assert AnswerCodec._unpack_bits(packed, num_bits) == _reference_unpack(
                    packed, num_bits
                ), (value, num_bits)

    def test_ignores_trailing_bytes(self):
        assert AnswerCodec._unpack_bits(b"\x80\xff\xff", 3) == [1, 0, 0]

    def test_zero_bits(self):
        assert AnswerCodec._unpack_bits(b"", 0) == []

    def test_truncated_payload_rejected(self):
        with pytest.raises(ValueError, match="shorter than declared"):
            AnswerCodec._unpack_bits(b"\xff", 9)


def _batch_answers() -> list[QueryAnswer]:
    """Mixed message lengths: bit counts, token lengths, query ids, epochs."""
    return [
        QueryAnswer(query_id="analyst-00000001", bits=(1, 0, 0, 1), epoch=3, token="a" * 32),
        QueryAnswer(query_id="analyst-00000001", bits=(0,) * 8, epoch=3, token="b" * 32),
        QueryAnswer(query_id="q", bits=(1,) * 13, epoch=0, token=""),
        QueryAnswer(query_id="analyst-00000001", bits=(1, 0, 0, 1), epoch=3, token="c" * 32),
        QueryAnswer(query_id="other-query", bits=tuple([0, 1] * 20), epoch=70_000, token="tok"),
        QueryAnswer(query_id="q", bits=(0, 1, 1), epoch=1, token="d" * 200),
    ]


def _streams(count: int) -> list[KeystreamGenerator]:
    return [KeystreamGenerator(seed=f"batch-{index}".encode()) for index in range(count)]


class TestEncryptBatch:
    @pytest.mark.parametrize("num_proxies", [2, 3, 4])
    def test_matches_per_answer_encrypt(self, codec, num_proxies):
        answers = _batch_answers()
        reference_streams = _streams(len(answers))
        batch_streams = _streams(len(answers))
        expected = [
            codec.encrypt(answer, num_proxies=num_proxies, keystream=stream)
            for answer, stream in zip(answers, reference_streams)
        ]
        actual = codec.encrypt_batch(answers, batch_streams, num_proxies)
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert [(s.index, s.payload) for s in got.shares] == [
                (s.index, s.payload) for s in want.shares
            ]
        # Every stream advanced exactly as far as the per-answer loop took it.
        assert [s.getstate() for s in batch_streams] == [
            s.getstate() for s in reference_streams
        ]

    @pytest.mark.parametrize("num_proxies", [2, 3, 4])
    def test_roundtrip_and_message_ids(self, codec, num_proxies):
        answers = _batch_answers()
        encrypted = codec.encrypt_batch(answers, _streams(len(answers)), num_proxies)
        ids = [item.message_id for item in encrypted]
        assert len(set(ids)) == len(ids)
        for item, answer in zip(encrypted, answers):
            assert item.num_shares == num_proxies
            assert {share.message_id for share in item.shares} == {item.message_id}
            assert codec.decrypt(list(item.shares)) == answer

    def test_same_stream_twice_in_one_batch(self, codec):
        answers = _batch_answers()[:2]
        reference, batched = KeystreamGenerator(seed=b"one"), KeystreamGenerator(seed=b"one")
        expected = [codec.encrypt(a, num_proxies=3, keystream=reference) for a in answers]
        actual = codec.encrypt_batch(answers, [batched, batched], 3)
        for got, want in zip(actual, expected):
            assert [s.payload for s in got.shares] == [s.payload for s in want.shares]

    def test_empty_batch(self, codec):
        stream = KeystreamGenerator(seed=b"idle")
        before = stream.getstate()
        assert codec.encrypt_batch([], [], 2) == []
        assert stream.getstate() == before

    def test_non_binary_bit_raises_like_encrypt(self, codec):
        good = _batch_answers()[0]
        bad = SimpleNamespace(query_id="q", epoch=0, bits=(0, 2, 1), token="t")
        with pytest.raises(ValueError) as per_answer:
            codec.encrypt(bad, num_proxies=2, keystream=KeystreamGenerator(seed=b"x"))
        streams = _streams(2)
        with pytest.raises(ValueError) as batched:
            codec.encrypt_batch([good, bad], streams, 2)
        assert str(batched.value) == str(per_answer.value) == "answer bits must be 0 or 1"
        # The answer before the bad one pulled its pads, as a loop would have.
        reference = _streams(1)[0]
        codec.encrypt(good, num_proxies=2, keystream=reference)
        assert streams[0].getstate() == reference.getstate()

    def test_bad_bit_never_cached(self, codec):
        bad = SimpleNamespace(query_id="q", epoch=0, bits=(3,), token="")
        for _ in range(2):
            with pytest.raises(ValueError):
                codec.encrypt_batch([bad], _streams(1), 2)

    def test_requires_two_proxies_and_one_stream_per_answer(self, codec):
        answers = _batch_answers()[:2]
        with pytest.raises(ValueError):
            codec.encrypt_batch(answers, _streams(2), 1)
        with pytest.raises(ValueError):
            codec.encrypt_batch(answers, _streams(1), 2)
