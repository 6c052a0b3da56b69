"""Tests for the simulated enclave, secure channel, and attestation."""

import json

import pytest

from repro.crypto.stream_cipher import StreamCipher
from repro.filters.bloom import BloomFilter
from repro.tee.attestation import AttestationReport, measure
from repro.tee.channel import AttestationFailure, SecureChannel
from repro.tee.enclave import Enclave, EnclaveMemoryError


def make_session(memory_limit: int = 1 << 20):
    enclave = Enclave(memory_limit_bytes=memory_limit)
    key = StreamCipher.generate_key(seed=1)
    channel = SecureChannel.establish(enclave, key)
    return enclave, channel


def seal_encodings(channel, entries, eta):
    payload = json.dumps({"eta": eta, "entries": entries}).encode()
    return channel.seal(payload)


def ball_filter_blob(encodings):
    filt = BloomFilter(1024, 3)
    filt.add(0)
    filt.update(encodings)
    return filt.to_bytes()


class TestAttestation:
    def test_measure_deterministic(self):
        assert measure("app") == measure("app")
        assert measure("app") != measure("other")

    def test_report_verify(self):
        report = AttestationReport(measurement=measure("x"), enclave_id=1)
        assert report.verify("x")
        assert not report.verify("y")

    def test_channel_rejects_wrong_identity(self):
        enclave = Enclave()
        with pytest.raises(AttestationFailure):
            SecureChannel.establish(enclave, StreamCipher.generate_key(1),
                                    expected_identity="evil-app")


class TestEnclaveSession:
    def test_ecall_requires_session(self):
        enclave = Enclave()
        with pytest.raises(PermissionError):
            enclave.load_query_encodings(b"blob")
        with pytest.raises(PermissionError):
            enclave.check_ball(b"blob", "'A'")

    def test_check_requires_loaded_encodings(self):
        enclave, channel = make_session()
        with pytest.raises(RuntimeError):
            enclave.check_ball(ball_filter_blob([]), "'A'")


class TestBFChecking:
    def test_matching_vertex_passes(self):
        enclave, channel = make_session()
        enclave.load_query_encodings(
            seal_encodings(channel, [["'A'", [11, 22, 0]]], eta=3))
        result = enclave.check_ball(ball_filter_blob([11, 22]), "'A'")
        assert int.from_bytes(channel.open(result), "big") == 1

    def test_missing_encoding_fails_vertex(self):
        enclave, channel = make_session()
        enclave.load_query_encodings(
            seal_encodings(channel, [["'A'", [11, 22, 33]]], eta=3))
        result = enclave.check_ball(ball_filter_blob([11, 22]), "'A'")
        assert int.from_bytes(channel.open(result), "big") == 0

    def test_label_mismatch_vertices_skipped(self):
        enclave, channel = make_session()
        enclave.load_query_encodings(
            seal_encodings(channel, [["'B'", [11, 0, 0]]], eta=3))
        result = enclave.check_ball(ball_filter_blob([11]), "'A'")
        assert int.from_bytes(channel.open(result), "big") == 0

    def test_pad_zeros_always_pass(self):
        """Vertices with no trees are all-pads and must pass (Sec. 4.1.2)."""
        enclave, channel = make_session()
        enclave.load_query_encodings(
            seal_encodings(channel, [["'A'", [0, 0, 0]]], eta=3))
        result = enclave.check_ball(ball_filter_blob([]), "'A'")
        assert int.from_bytes(channel.open(result), "big") == 1

    def test_eta_mismatch_rejected(self):
        enclave, channel = make_session()
        with pytest.raises(ValueError, match="eta"):
            enclave.load_query_encodings(
                seal_encodings(channel, [["'A'", [1, 2]]], eta=3))

    @pytest.mark.parametrize("num_bits, num_hashes", [
        (2 ** 33, 2), (2 ** 40, 2), (2 ** 63, 2), (80, 2 ** 32 - 1)])
    def test_hostile_filter_header_is_a_value_error(self, num_bits,
                                                    num_hashes):
        """The filter is built outside the enclave: a header that lies
        about its size or hash count is rejected before it sizes an
        allocation or a probe loop, and the ECALL's memory is released."""
        enclave, channel = make_session()
        enclave.load_query_encodings(
            seal_encodings(channel, [["'A'", [11, 22, 0]]], eta=3))
        before = enclave.metrics.current_memory
        blob = (num_bits.to_bytes(8, "big") + num_hashes.to_bytes(4, "big")
                + bytes(8) + bytes(10))
        with pytest.raises(ValueError):
            enclave.check_ball(blob, "'A'")
        assert enclave.metrics.current_memory == before


class TestMetering:
    def test_bytes_and_ecalls_counted(self):
        enclave, channel = make_session()
        blob = seal_encodings(channel, [["'A'", [0, 0]]], eta=2)
        enclave.load_query_encodings(blob)
        assert enclave.metrics.ecalls == 1
        assert enclave.metrics.bytes_in == len(blob)
        fblob = ball_filter_blob([5])
        enclave.check_ball(fblob, "'A'")
        assert enclave.metrics.ecalls == 2
        assert enclave.metrics.bytes_in == len(blob) + len(fblob)
        assert enclave.metrics.bytes_out > 0

    def test_memory_budget_enforced(self):
        enclave, channel = make_session(memory_limit=64)
        with pytest.raises(EnclaveMemoryError):
            enclave.load_query_encodings(
                seal_encodings(channel, [["'A'", [0] * 64]], eta=64))

    def test_filter_memory_freed_after_check(self):
        enclave, channel = make_session()
        enclave.load_query_encodings(
            seal_encodings(channel, [["'A'", [0, 0]]], eta=2))
        before = enclave.metrics.current_memory
        enclave.check_ball(ball_filter_blob([1, 2, 3]), "'A'")
        assert enclave.metrics.current_memory == before
        assert enclave.metrics.peak_memory > before


class TestChannel:
    def test_seal_open_roundtrip(self):
        _, channel = make_session()
        assert channel.open(channel.seal(b"data")) == b"data"
        assert channel.bytes_sealed > 0


class TestSessionState:
    def test_has_session_flag(self):
        enclave = Enclave()
        assert not enclave.has_session
        SecureChannel.establish(enclave, StreamCipher.generate_key(seed=9))
        assert enclave.has_session
