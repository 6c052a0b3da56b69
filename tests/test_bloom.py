"""Tests for the bloom filter and the Eq. 1 sizing formulas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.bloom import (
    MAX_HASHES,
    BloomFilter,
    optimal_num_hashes,
    required_bits,
)


class TestSizing:
    def test_paper_default_setting(self):
        """Sec. 6.1: n = 10K, p = 0.3 -> m = 25K bits (filter < 4KB)."""
        m = required_bits(10_000, 0.3)
        assert 24_000 <= m <= 26_000
        filt = BloomFilter(m, optimal_num_hashes(m, 10_000))
        assert filt.size_bytes() < 4 * 1024

    def test_required_bits_monotone_in_items(self):
        assert required_bits(2000, 0.1) > required_bits(1000, 0.1)

    def test_required_bits_monotone_in_rate(self):
        assert required_bits(1000, 0.01) > required_bits(1000, 0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            required_bits(0, 0.1)
        with pytest.raises(ValueError):
            required_bits(10, 1.5)
        with pytest.raises(ValueError):
            optimal_num_hashes(0, 5)


class TestMembership:
    def test_no_false_negatives(self):
        filt = BloomFilter.for_capacity(500, 0.05)
        items = list(range(0, 5000, 10))
        filt.update(items)
        assert all(item in filt for item in items)

    def test_false_positive_rate_near_target(self):
        filt = BloomFilter.for_capacity(1000, 0.1)
        filt.update(range(1000))
        probes = range(10_000, 30_000)
        fp = sum(1 for item in probes if item in filt) / len(probes)
        assert fp < 0.2  # target 0.1 with slack

    def test_empty_filter_rejects_everything(self):
        filt = BloomFilter(128, 3)
        assert 42 not in filt
        assert filt.expected_false_positive_rate() == 0.0

    def test_negative_item_rejected(self):
        filt = BloomFilter(128, 3)
        with pytest.raises(ValueError):
            filt.add(-1)

    def test_zero_is_insertable(self):
        """The BF pruning pad encoding is 0 and must round-trip."""
        filt = BloomFilter(128, 3)
        filt.add(0)
        assert 0 in filt


class _CountingBits(bytearray):
    """A bit array that counts its reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestConstantProbes:
    """Prop. 7: ``in`` runs inside the enclave, so the number of bit
    probes may not depend on where the first miss is."""

    def test_hit_and_first_position_miss_probe_alike(self):
        filt = BloomFilter(4096, 5)
        filt.add(7)
        first, *rest = filt._positions(7)
        assert first not in rest
        filt._bits = _CountingBits(filt._bits)
        assert 7 in filt
        assert filt._bits.reads == 5
        filt._bits[first // 8] &= ~(1 << (first % 8))  # clear probe 0 only
        filt._bits.reads = 0
        assert 7 not in filt
        assert filt._bits.reads == 5

    def test_miss_on_empty_filter_probes_all(self):
        filt = BloomFilter(4096, 5)
        filt._bits = _CountingBits(filt._bits)
        assert 42 not in filt
        assert filt._bits.reads == 5


class TestBulkUpdate:
    """``update`` is one pass over the items; ``add`` is its reference."""

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 200),
                    max_size=60),
           st.integers(min_value=1, max_value=3000),
           st.integers(min_value=1, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_repeated_add(self, items, num_bits, num_hashes):
        one_by_one = BloomFilter(num_bits, num_hashes)
        for item in items:
            one_by_one.add(item)
        bulk = BloomFilter(num_bits, num_hashes)
        bulk.update(iter(items))
        assert bulk.to_bytes() == one_by_one.to_bytes()
        assert bulk.count == len(items)

    def test_negative_item_raises_before_any_bit_is_set(self):
        filt = BloomFilter(128, 3)
        with pytest.raises(ValueError):
            filt.update([5, 6, -1, 7])
        assert filt.to_bytes() == BloomFilter(128, 3).to_bytes()


def _blob(num_bits: int, num_hashes: int, body: bytes = b"\0" * 10) -> bytes:
    return (num_bits.to_bytes(8, "big") + num_hashes.to_bytes(4, "big")
            + (0).to_bytes(8, "big") + body)


class TestUntrustedBlob:
    """``from_bytes`` is the enclave's ECALL input parser: a hostile
    header is a ``ValueError``, never an allocation or a long loop."""

    @pytest.mark.parametrize("num_bits", [2 ** 33, 2 ** 40, 2 ** 63,
                                          2 ** 64 - 1, 0, 72, 88])
    def test_header_bits_must_match_body(self, num_bits):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(_blob(num_bits, 2))

    @pytest.mark.parametrize("num_hashes", [0, MAX_HASHES + 1, 2 ** 32 - 1])
    def test_hash_count_bounded(self, num_hashes):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(_blob(80, num_hashes))
        with pytest.raises(ValueError):
            BloomFilter(80, num_hashes)

    def test_well_formed_blob_accepted(self):
        for num_bits in (73, 80):
            filt = BloomFilter.from_bytes(_blob(num_bits, MAX_HASHES))
            assert (filt.num_bits, filt.num_hashes) == (num_bits, MAX_HASHES)


class TestSerialization:
    def test_roundtrip(self):
        filt = BloomFilter(1024, 4)
        filt.update([3, 1, 4, 1, 5, 9, 2, 6])
        restored = BloomFilter.from_bytes(filt.to_bytes())
        assert restored.num_bits == 1024
        assert restored.num_hashes == 4
        assert restored.count == 8
        for item in (3, 1, 4, 5, 9, 2, 6):
            assert item in restored

    def test_truncated_blob_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"xx")

    def test_length_mismatch_rejected(self):
        blob = BloomFilter(64, 2).to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(blob + b"extra")


class TestProperties:
    @given(st.sets(st.integers(min_value=0, max_value=10 ** 9),
                   max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_inserted_items_always_member(self, items):
        filt = BloomFilter(4096, 5)
        filt.update(items)
        assert all(item in filt for item in items)

    @given(st.sets(st.integers(min_value=0, max_value=10 ** 6),
                   min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_serialization_preserves_membership(self, items):
        filt = BloomFilter(2048, 4)
        filt.update(items)
        restored = BloomFilter.from_bytes(filt.to_bytes())
        probes = list(items) + [max(items) + i for i in range(1, 50)]
        for probe in probes:
            assert (probe in filt) == (probe in restored)
