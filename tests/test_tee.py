"""Tests for the simulated enclave, secure channel, and attestation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bf_pruning import BFConfig, user_prepare_encodings
from repro.core.trees import LabelCodec
from repro.crypto.stream_cipher import StreamCipher
from repro.filters.bloom import BloomFilter
from repro.framework.faults import FaultAction, FaultInjector, FaultKind
from repro.framework.roles import _bf_prune_with_recovery
from repro.graph.ball import extract_ball
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
        # The first check of a geometry leaves the per-vertex words
        # resident; every filter's own bytes are freed.
        enclave.check_ball(ball_filter_blob([]), "'A'")
        before = enclave.metrics.current_memory
        enclave.check_ball(ball_filter_blob([1, 2, 3]), "'A'")
        assert enclave.metrics.current_memory == before
        assert enclave.metrics.peak_memory > before


class TestWordTest:
    """One required-bits word per query vertex gives the c_sgx plaintext
    the per-encoding membership loop gives."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_encoding_loop(self, data):
        enclave, channel = make_session()
        eta = data.draw(st.integers(1, 5))
        items = st.integers(0, 40)
        entries = data.draw(st.lists(st.tuples(
            st.sampled_from(["'A'", "'B'"]),
            st.lists(items, min_size=eta, max_size=eta)),
            min_size=1, max_size=5))
        enclave.load_query_encodings(
            seal_encodings(channel, [list(e) for e in entries], eta))
        geometries = [(97, 2), (64, 3)]
        for _ in range(6):  # two geometries, interleaved
            filt = BloomFilter(*data.draw(st.sampled_from(geometries)))
            filt.update(data.draw(st.lists(items, max_size=25)))
            center = data.draw(st.sampled_from(["'A'", "'B'"]))
            expected = sum(
                1 for label, encodings in entries if label == center
                and all(e in filt for e in encodings))
            result = enclave.check_ball(filt.to_bytes(), center)
            assert int.from_bytes(channel.open(result), "big") == expected

    def test_words_are_charged_and_freed_with_the_encodings(self):
        enclave, channel = make_session()
        enclave.load_query_encodings(seal_encodings(
            channel, [["'A'", [11, 0]], ["'B'", [22, 0]]], eta=2))
        loaded = enclave.metrics.current_memory
        enclave.check_ball(ball_filter_blob([11]), "'A'")
        assert enclave.metrics.current_memory == loaded + 2 * 1024 // 8
        enclave.check_ball(ball_filter_blob([22]), "'B'")  # same geometry
        assert enclave.metrics.current_memory == loaded + 2 * 1024 // 8
        enclave.load_query_encodings(seal_encodings(
            channel, [["'A'", [11, 0]]], eta=2))
        assert enclave.metrics.current_memory < loaded

    def test_epc_too_small_for_the_words_degrades(self, fig3):
        """Encodings and one filter fit, the words do not: every ECALL
        raises EnclaveMemoryError, is retried once, and the ball's BF
        verdict is skipped (sound: a missing verdict counts positive)."""
        query, graph = fig3
        config = BFConfig(eta=8, expected_trees=200)
        codec = LabelCodec.from_alphabet(query.alphabet)
        probe, channel = make_session()
        message = user_prepare_encodings(query, codec, channel, config)
        probe.load_query_encodings(message.sealed_blob)
        encodings = probe.metrics.current_memory
        filter_bytes = len(BloomFilter(config.filter_bits(),
                                       config.filter_hashes()).to_bytes())
        words = message.entries * ((config.filter_bits() + 7) // 8)
        enclave, _ = make_session(  # the same session key as the probe
            memory_limit=encodings + filter_bytes + words - 1)
        enclave.load_query_encodings(message.sealed_blob)
        ball = extract_ball(graph, "v6", query.diameter, ball_id=0)
        with pytest.raises(EnclaveMemoryError):
            enclave.check_ball(ball_filter_blob([]), "'A'")
        assert enclave.metrics.current_memory == encodings
        injector = FaultInjector()
        assert _bf_prune_with_recovery(enclave, ball, codec, config,
                                       injector, player_id=0) is None
        actions = [e.action for e in injector.report.events
                   if e.kind == FaultKind.ENCLAVE_MEMORY]
        assert actions == [FaultAction.DETECTED, FaultAction.RETRIED,
                           FaultAction.DETECTED, FaultAction.DEGRADED]
        assert enclave.metrics.current_memory == encodings


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
