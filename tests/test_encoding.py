"""Tests for M_Qe encoding (Sec. 3.2) and the canonical label codec."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.encoding import (
    LabelCodec,
    encode_query_matrix,
    encrypt_query_matrix,
    materialize_query_matrix,
)


class TestQueryMatrixEncoding:
    def test_example5_rows(self, fig3):
        """M_Qe of Example 5: q at edge positions, 1 elsewhere."""
        query, _ = fig3
        m = materialize_query_matrix(query, 97)
        # M_Qe(u1) = (1,1,1,1,1)
        assert list(m[0]) == [1, 1, 1, 1, 1]
        # M_Qe(u2) = M_Qe(u3) = (q,1,1,1,1)
        assert list(m[1]) == [97, 1, 1, 1, 1]
        assert list(m[2]) == [97, 1, 1, 1, 1]
        # M_Qe(u4) = M_Qe(u5) = (1,q,1,1,1)
        assert list(m[3]) == [1, 97, 1, 1, 1]
        assert list(m[4]) == [1, 97, 1, 1, 1]

    def test_sentinel_encoding(self, fig3):
        query, _ = fig3
        raw = encode_query_matrix(query)
        assert raw[1, 0] == -1
        assert raw[0, 0] == 1

    def test_encrypted_matrix_decrypts_consistently(self, fig3, cgbe):
        query, _ = fig3
        enc = encrypt_query_matrix(cgbe, query)
        q = cgbe.params.q
        for i in range(query.size):
            for j in range(query.size):
                d = cgbe.decrypt(enc[i][j])
                has_edge = query.pattern.has_edge(query.vertex_order[i],
                                                  query.vertex_order[j])
                assert (d % q == 0) == has_edge

    def test_ciphertexts_are_randomized(self, fig3, cgbe):
        """CPA property surrogate: equal plaintexts get distinct blinds."""
        query, _ = fig3
        enc = encrypt_query_matrix(cgbe, query)
        values = [enc[i][j].value for i in range(query.size)
                  for j in range(query.size)]
        assert len(set(values)) == len(values)


class TestLabelCodec:
    def test_codes_sorted_from_one(self):
        codec = LabelCodec.from_alphabet({"C", "A", "B"})
        assert codec.code("A") == 1
        assert codec.code("B") == 2
        assert codec.code("C") == 3
        assert len(codec) == 3

    def test_default_base_collision_free(self):
        codec = LabelCodec.from_alphabet({"A", "B", "C", "D"})
        assert codec.base == 5
        seqs = [("A",), ("B",), ("D", "A"), ("A", "D")]
        encodings = [codec.encode_positions(s) for s in seqs]
        assert len(set(encodings)) == len(encodings)

    def test_paper_base_reproduces_fig7(self):
        """Fig. 7: labels A..D coded 1..4, base 4, (A,C,D) -> 77."""
        codec = LabelCodec.from_alphabet({"A", "B", "C", "D"},
                                         paper_base=True)
        assert codec.base == 4
        assert codec.encode_positions(("A", "C", "D")) == 77

    def test_tag_separates_shapes(self):
        codec = LabelCodec.from_alphabet({"A", "B"})
        same_labels = ("A", "B")
        assert (codec.encode_sequence(same_labels, tag=7)
                != codec.encode_sequence(same_labels, tag=8))

    def test_unknown_label_rejected(self):
        codec = LabelCodec.from_alphabet({"A"})
        with pytest.raises(KeyError):
            codec.code("Z")
        assert "Z" not in codec
        assert "A" in codec

    def test_unknown_label_message(self):
        codec = LabelCodec.from_alphabet({"A"})
        with pytest.raises(KeyError) as info:
            codec.code("Z")
        assert info.value.args == ("label 'Z' not in codec alphabet",)
        assert info.value.__cause__ is None
        assert codec.get("Z") is None and codec.get("A") == 1

    def test_value_semantics_see_only_codes_and_base(self):
        """The O(1) lookup index is derived state: equality, hash, repr
        and the pickle that crosses the process-executor boundary are
        those of the two fields."""
        codec = LabelCodec.from_alphabet({"C", "A", 2})
        twin = LabelCodec(codes=codec.codes, base=codec.base)
        assert codec == twin and hash(codec) == hash(twin)
        assert codec != LabelCodec(codes=codec.codes, base=codec.base + 1)
        assert repr(codec) == (
            "LabelCodec(codes=(('A', 1), ('C', 2), (2, 3)), base=4)")
        for clone in (pickle.loads(pickle.dumps(codec)),
                      copy.deepcopy(codec),
                      dataclasses.replace(codec, base=9)):
            assert clone.codes == codec.codes
            assert [clone.code(label) for label in ("A", "C", 2)] == [1, 2, 3]
            assert "B" not in clone
        assert pickle.loads(pickle.dumps(codec)) == codec
        assert b"_index" not in pickle.dumps(codec)

    def test_first_of_equal_labels_wins(self):
        codec = LabelCodec(codes=(("A", 1), ("A", 2)), base=3)
        assert codec.code("A") == 1

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            LabelCodec.from_alphabet([])

    def test_negative_tag_rejected(self):
        codec = LabelCodec.from_alphabet({"A"})
        with pytest.raises(ValueError):
            codec.encode_sequence(("A",), tag=-1)
