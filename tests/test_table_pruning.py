"""Tests for the generic encrypted-table pruning machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import decide_positive
from repro.core.table_pruning import (
    PruneTable,
    build_table,
    player_table_prune,
    table_plan,
)
from repro.graph.ball import extract_ball
from repro.graph.generators import fig3_graph


@pytest.fixture()
def ball():
    return extract_ball(fig3_graph(), "v6", 2, ball_id=3)


class TestBuildTable:
    def test_existence_column(self, cgbe):
        table = build_table(cgbe, "B", ["k1", "k2", "k3"], {"k2"})
        assert table.start_label == "B"
        assert cgbe.has_factor_q(table.ciphertexts[1])
        assert not cgbe.has_factor_q(table.ciphertexts[0])
        assert not cgbe.has_factor_q(table.ciphertexts[2])
        assert len(table) == 3

    def test_mismatched_lengths_rejected(self, cgbe):
        with pytest.raises(ValueError):
            PruneTable(start_label="B", keys=("a",), ciphertexts=[])

    def test_duplicate_keys_rejected(self, cgbe):
        c = cgbe.encrypt_one()
        with pytest.raises(ValueError, match="distinct"):
            PruneTable(start_label="B", keys=("a", "b", "a"),
                       ciphertexts=[c, c, c])


#: Features as the enumerators key them (label tuples), drawn from a
#: universe wider than any one table, so most draws hold absent ones.
_FEATURES = st.tuples(st.sampled_from("ABCDE"), st.integers(0, 6))


class TestMaskByLookup:
    @given(keys=st.lists(_FEATURES, unique=True, max_size=40),
           features=st.sets(_FEATURES, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_key_scan(self, keys, features):
        """The lookup mask is the mask of testing every key against the
        ball's feature set, features absent from the table included."""
        table = PruneTable(start_label="A", keys=tuple(keys),
                           ciphertexts=[None] * len(keys))
        scan = 0
        for pos, key in enumerate(table.keys):
            if key in features:
                scan |= 1 << pos
        assert table.mask_of(features) == scan


class TestPlayerPrune:
    def test_only_center_label_tables_participate(self, cgbe, ball):
        """Tables with non-matching start labels are skipped (Alg. 5 l.4);
        the verdict comes from the 'B' table alone."""
        plan = table_plan(cgbe.params, 2)
        c_one = cgbe.encrypt_one()
        # 'B' table: a required feature the ball lacks -> spurious.
        b_table = build_table(cgbe, "B", ["f1", "f2"], {"f1"})
        # 'A' table: everything fine, but the center is 'B'.
        a_table = build_table(cgbe, "A", ["f1", "f2"], set())
        result = player_table_prune(cgbe.params, [a_table, b_table], ball,
                                    ball_features=set(), c_one=c_one,
                                    plan=plan)
        assert not decide_positive(cgbe, result)

    def test_feature_present_neutralizes(self, cgbe, ball):
        plan = table_plan(cgbe.params, 2)
        c_one = cgbe.encrypt_one()
        b_table = build_table(cgbe, "B", ["f1", "f2"], {"f1"})
        result = player_table_prune(cgbe.params, [b_table], ball,
                                    ball_features={"f1"}, c_one=c_one,
                                    plan=plan)
        assert decide_positive(cgbe, result)

    def test_any_matching_vertex_keeps_ball(self, cgbe, ball):
        """Two 'B' tables (two query vertices with the center's label):
        the ball survives if either can still match (Prop. 4)."""
        plan = table_plan(cgbe.params, 1)
        c_one = cgbe.encrypt_one()
        violating = build_table(cgbe, "B", ["f"], {"f"})
        satisfied = build_table(cgbe, "B", ["f"], set())
        result = player_table_prune(cgbe.params, [violating, satisfied],
                                    ball, ball_features=set(), c_one=c_one,
                                    plan=plan)
        assert decide_positive(cgbe, result)

    def test_no_matching_table_is_spurious(self, cgbe, ball):
        plan = table_plan(cgbe.params, 1)
        a_table = build_table(cgbe, "A", ["f"], set())
        result = player_table_prune(cgbe.params, [a_table], ball,
                                    ball_features=set(),
                                    c_one=cgbe.encrypt_one(), plan=plan)
        assert result.empty
        assert not decide_positive(cgbe, result)

    def test_summed_result_single_ciphertext(self, cgbe, ball):
        plan = table_plan(cgbe.params, 4)
        tables = [build_table(cgbe, "B", list("wxyz"), set())
                  for _ in range(3)]
        result = player_table_prune(cgbe.params, tables, ball,
                                    ball_features=set(),
                                    c_one=cgbe.encrypt_one(), plan=plan)
        assert result.ciphertext_count() == 1
