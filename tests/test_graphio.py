"""Graph, hypergraph, and partition file formats."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnpart import CsrMatrix, Hypergraph, Partition
from gcnpart.graphio import (
    GraphParseError,
    _pattern_from_pairs,
    load_graph,
    read_edge_list,
    read_hypergraph,
    read_matrix_market,
    read_partition,
    read_partition_ids,
    write_hypergraph,
    write_matrix_market,
    write_partition,
)


class TestEdgeList:
    def test_empty_list_with_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# empty graph\nn=3\n")
        a = read_edge_list(path)
        assert a.shape == (3, 3) and a.nnz == 0

    def test_undirected_single_edge_symmetric(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        a = read_edge_list(path, directed=False)
        assert a.nnz == 2
        assert a.to_dense()[0, 1] == 1.0 and a.to_dense()[1, 0] == 1.0

    def test_directed_keeps_one_direction(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        a = read_edge_list(path, directed=True)
        assert a.nnz == 1

    def test_duplicates_collapsed_comments_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# c\n% c\n\n0 1\n0 1\n1 0\nn=4\n")
        a = read_edge_list(path, directed=False)
        assert a.shape == (4, 4)
        assert a.nnz == 2
        assert np.all(a.values == 1.0)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nnot an edge\n")
        with pytest.raises(GraphParseError, match=":2:"):
            read_edge_list(path)

    def test_id_beyond_declared_n_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n=2\n0 5\n")
        with pytest.raises(GraphParseError, match=":2:"):
            read_edge_list(path)


class TestMatrixMarket:
    def test_pattern_symmetric_file(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% comment\n"
            "3 3 2\n"
            "2 1\n"
            "3 2\n"
        )
        a = read_matrix_market(path)
        d = a.to_dense()
        assert d[1, 0] == 1.0 and d[0, 1] == 1.0
        assert d[2, 1] == 1.0 and d[1, 2] == 1.0

    def test_write_then_read_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        mask = np.triu(rng.random((6, 6)) < 0.4, 1)
        a = CsrMatrix.from_dense((mask | mask.T).astype(float))
        path = tmp_path / "m.mtx"
        write_matrix_market(path, a)
        b = read_matrix_market(path)
        assert np.array_equal(a.row_offsets, b.row_offsets)
        assert np.array_equal(a.col_indices, b.col_indices)
        assert np.array_equal(a.values, b.values)

    def test_index_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n")
        with pytest.raises(GraphParseError, match=":3:"):
            read_matrix_market(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("2 2 0\n")
        with pytest.raises(GraphParseError, match="header"):
            read_matrix_market(path)

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
                st.booleans(),
            )
        )
    )
    def test_dedup_on_keys_matches_unique_rows(self, instance):
        n, pairs, directed = instance
        got = _pattern_from_pairs(n, pairs, directed)
        # the np.unique(axis=0) build that 1-D keys replaced
        both = pairs if directed else pairs + [(v, u) for (u, v) in pairs]
        arr = np.unique(np.asarray(both, dtype=np.int64).reshape(-1, 2), axis=0)
        want = CsrMatrix.from_coo(n, n, arr[:, 0], arr[:, 1], np.ones(len(arr)))
        assert np.array_equal(got.row_offsets, want.row_offsets)
        assert np.array_equal(got.col_indices, want.col_indices)
        assert np.array_equal(got.values, want.values)

    def test_late_vertex_count_below_seen_ids_carries_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 5\n1 2\nn=3\n")
        with pytest.raises(GraphParseError, match=":3: vertex id 5 seen before 'n=3'"):
            read_edge_list(path)

    def test_pairs_out_of_range_rejected(self):
        # a key r * n + c would alias an out-of-range pair onto another entry
        with pytest.raises(ValueError, match="out of range"):
            _pattern_from_pairs(3, [(0, 5)], directed=True)
        with pytest.raises(ValueError, match="out of range"):
            _pattern_from_pairs(3, [(-1, 2)], directed=False)

    def test_load_graph_dispatch(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        assert load_graph(path, "edge_list").nnz == 2
        with pytest.raises(ValueError, match="unknown graph format"):
            load_graph(path, "adjacency_soup")


class TestHypergraphFormat:
    def test_round_trip(self, tmp_path):
        h = Hypergraph.from_nets(
            4,
            (np.array([0, 1]), np.array([1, 2, 3]), np.array([2])),
            np.ones(3),
            np.array([2, 3, 1, 4], dtype=np.int64),
        )
        path = tmp_path / "h.txt"
        write_hypergraph(path, h)
        back = read_hypergraph(path)
        assert back.n_vertices == 4 and back.n_nets == 3
        for a, b in zip(h.nets, back.nets):
            assert np.array_equal(a, b)
        assert np.array_equal(h.vertex_weight, back.vertex_weight)

    def test_weightless_file_defaults_to_unit(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("3 1\n0 2\n")
        h = read_hypergraph(path)
        assert np.array_equal(h.vertex_weight, np.ones(3, dtype=np.int64))

    @pytest.mark.parametrize(
        "text, where",
        [
            ("3 2\n\n0 1\n1 x\n", ":4: non-integer pin"),  # the blank line counts
            ("3 2\n0 1\n1 7\n", ":3: pin 7 outside 0..2"),
            ("3 2\n0 1\n\n-1 2\n", ":4: pin -1 outside 0..2"),
            ("3 1\n0 2\n\n1 1\n", ":4: weight line has wrong length"),
            ("3 1\n0 2\n1 x 1\n", ":3: non-integer vertex weight"),
            ("\n3\n0 2\n", ":2: header must be"),
            ("3 2\n0 2\n\n", ":2: expected 2 net lines"),
        ],
        ids=["blank-line", "out-of-range", "negative", "weight-length", "weight-int",
             "header", "missing-net"],
    )
    def test_errors_carry_file_line(self, tmp_path, text, where):
        path = tmp_path / "h.txt"
        path.write_text(text)
        with pytest.raises(GraphParseError, match="^" + re.escape(f"{path}{where}")):
            read_hypergraph(path)


class TestPartitionFormat:
    def test_round_trip(self, tmp_path):
        weights = np.array([1, 2, 1, 2], dtype=np.int64)
        pi = Partition.from_assignment(np.array([0, 1, 1, 0]), weights, 2, 0.5)
        path = tmp_path / "p.txt"
        write_partition(path, pi)
        back = read_partition(path, weights, 0.5)
        assert np.array_equal(back.assignment, pi.assignment)
        assert back.p == 2

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\n1\n")
        with pytest.raises(ValueError, match="covers 2 vertices"):
            read_partition(path, np.ones(3, dtype=np.int64), 0.5)

    def test_bad_id_carries_line_number(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\nx\n")
        with pytest.raises(GraphParseError, match=":2:"):
            read_partition_ids(path)
