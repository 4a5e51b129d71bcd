"""Kernel-level checks against dense reference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnpart import (
    CsrMatrix,
    RowBlock,
    dmm,
    gather_rows,
    hadamard,
    normalize_adjacency,
    spmm,
    transpose_sparse,
)
from gcnpart.sparse import restrict

from helpers import chung_lu_graph, dense_spmm_oracle, random_undirected, triple_loop_dmm_oracle


class TestCsrMatrix:
    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(0)
        d = (rng.random((7, 5)) < 0.4) * rng.standard_normal((7, 5))
        assert np.array_equal(CsrMatrix.from_dense(d).to_dense(), d)

    def test_duplicates_are_summed(self):
        a = CsrMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
        assert a.nnz == 2
        assert a.to_dense()[0, 1] == 5.0

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError):
            CsrMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])

    def test_row_check_names_first_bad_row(self):
        # row 0 fine, row 1 empty, row 2 repeats a column, row 4 descends;
        # columns may drop back at a row start
        with pytest.raises(ValueError, match="row 2 not strictly"):
            CsrMatrix(5, 4, [0, 2, 2, 4, 5, 7], [1, 3, 2, 2, 0, 3, 1], np.ones(7))
        with pytest.raises(ValueError, match="row 1 not strictly"):
            CsrMatrix(3, 4, [0, 0, 2, 2], [3, 3], np.ones(2))
        a = CsrMatrix(4, 4, [0, 2, 2, 3, 5], [1, 3, 0, 2, 3], np.ones(5))
        assert a.nnz == 5

    def test_has_full_diagonal(self):
        assert CsrMatrix.identity(4).has_full_diagonal()
        assert CsrMatrix.identity(0).has_full_diagonal()
        assert not CsrMatrix.from_coo(3, 3, [0, 1, 2], [0, 1, 1]).has_full_diagonal()
        assert not CsrMatrix.from_coo(2, 3, [0, 1], [0, 1]).has_full_diagonal()
        full = CsrMatrix.from_coo(3, 3, [0, 0, 1, 2, 2], [0, 2, 1, 0, 2])
        assert full.has_full_diagonal()
        assert not CsrMatrix.from_coo(3, 3, [0, 0, 2], [0, 2, 2]).has_full_diagonal()

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CsrMatrix.from_coo(2, 2, [0], [5])

    def test_shape_beyond_int64_keys_rejected(self):
        with pytest.raises(ValueError, match="too many entries"):
            CsrMatrix.from_coo(2**62, 4, [0], [0])
        assert CsrMatrix.from_coo(1, 2**62, [0], [2**62 - 1]).nnz == 1

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_from_coo_matches_lexsort_reference(self, data):
        n_rows, n_cols = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        m = data.draw(st.integers(0, 60))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        # few distinct entries, so most are repeated; values mix signed zeros
        rows = rng.integers(0, min(n_rows, 3), m)
        cols = rng.integers(0, n_cols, m)
        values = rng.choice([0.0, -0.0, 1.5, -1.5, 1e-300, 3.0e16, -7.25], m)
        got = CsrMatrix.from_coo(n_rows, n_cols, rows, cols, values)
        want = reference_from_coo(n_rows, n_cols, rows, cols, values)
        assert np.array_equal(got.row_offsets, want.row_offsets)
        assert np.array_equal(got.col_indices, want.col_indices)
        assert np.array_equal(bits(got.values), bits(want.values))


def reference_from_coo(n_rows, n_cols, rows, cols, values) -> CsrMatrix:
    """from_coo with the two-key lexsort the one int64 key replaced."""
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    if len(rows):
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(keep) - 1
        summed = np.zeros(int(group[-1]) + 1)
        np.add.at(summed, group, values)
        rows, cols, values = rows[keep], cols[keep], summed
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=offsets[1:])
    return CsrMatrix(n_rows, n_cols, offsets, cols, values)


class TestNormalizeAdjacency:
    def test_single_vertex(self):
        a = CsrMatrix.from_coo(1, 1, [], [])
        np.testing.assert_allclose(normalize_adjacency(a).to_dense(), [[1.0]])

    def test_two_vertex_edge_all_half(self):
        a = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0])
        np.testing.assert_allclose(normalize_adjacency(a).to_dense(), 0.5 * np.ones((2, 2)))

    def test_path_off_diagonal_entry(self):
        # degrees with self loops: 2, 3, 2; entry (0,1) = 1/sqrt(2*3)
        a = CsrMatrix.from_coo(3, 3, [0, 1, 1, 2], [1, 0, 2, 1])
        got = normalize_adjacency(a).to_dense()
        assert got[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), rel=1e-12)

    def test_symmetric_stays_symmetric(self):
        for seed in range(5):
            a = random_undirected(12, 0.3, seed)
            d = normalize_adjacency(a).to_dense()
            np.testing.assert_allclose(d, d.T, atol=1e-15)

    def test_row_action_matches_direct_evaluation(self):
        # A_hat @ 1 must equal the dense row sums; normalization is not
        # assumed to be stochastic
        a = random_undirected(10, 0.3, 3)
        ah = normalize_adjacency(a)
        ones = np.ones((10, 1))
        np.testing.assert_allclose(
            spmm(ah, ones).ravel(), ah.to_dense().sum(axis=1), rtol=1e-14
        )

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            normalize_adjacency(CsrMatrix.from_coo(2, 3, [0], [1]))

    def test_zero_row_without_self_loops_rejected(self):
        a = CsrMatrix.from_coo(2, 2, [0], [1])
        with pytest.raises(ValueError):
            normalize_adjacency(a, add_self_loops=False)

    def test_self_loops_fill_diagonal(self):
        a = CsrMatrix.from_coo(3, 3, [0], [1])
        assert normalize_adjacency(a).has_full_diagonal()


def sequential_spmm(a: CsrMatrix, h: np.ndarray) -> np.ndarray:
    """Row i as ((0 + v_0 h[c_0]) + v_1 h[c_1]) + ..., one entry at a time."""
    out = np.zeros((a.n_rows, h.shape[1]))
    for i in range(a.n_rows):
        acc = np.zeros(h.shape[1])
        s, e = a.row_offsets[i], a.row_offsets[i + 1]
        for c, v in zip(a.col_indices[s:e], a.values[s:e]):
            acc = acc + v * h[c]
        out[i] = acc
    return out


@st.composite
def spmm_instances(draw):
    """CSR operands where empty rows are likely and 0 rows, 0 nnz and one
    column all occur, optionally with up to three rows far denser than the
    rest (hub rows, summed on their own). Entries span many magnitudes, so
    a different summation order shows, and some operand entries are -0.0,
    so a sum that skips the leading 0 + shows in the sign of zero."""
    n_rows = draw(st.integers(0, 8))
    n_cols = draw(st.sampled_from([1, 2, 5, 40, 300]))
    density = draw(st.sampled_from([0.0, 0.15, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n_rows, n_cols)) < density
    if n_rows:
        for _ in range(draw(st.integers(0, 3))):
            mask[draw(st.integers(0, n_rows - 1))] = rng.random(n_cols) < 0.9
    scale = 10.0 ** rng.integers(-8, 9, (n_rows, n_cols))
    d = mask * rng.standard_normal((n_rows, n_cols)) * scale
    width = draw(st.integers(1, 4))
    h = rng.standard_normal((n_cols, width)) * 10.0 ** rng.integers(-8, 9, (n_cols, width))
    h[rng.random((n_cols, width)) < 0.2] = -0.0
    return CsrMatrix.from_dense(d), h


def bits(x: np.ndarray) -> np.ndarray:
    """float64 bit patterns, so that -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(x).view(np.uint64)


class TestSpmm:
    @settings(deadline=None, max_examples=300)
    @given(spmm_instances())
    def test_bit_equal_to_sequential_ascending_sum(self, inst):
        a, h = inst
        got = spmm(a, h)
        assert got.shape == (a.n_rows, h.shape[1])
        assert np.array_equal(bits(got), bits(sequential_spmm(a, h)))

    def test_power_law_hub_rows_bit_equal(self):
        # a seeded Chung-Lu graph: one hub row of several hundred entries
        # among rows of one or two, normalized as training sees it
        a = normalize_adjacency(chung_lu_graph(3000, 4.0, 2.1, seed=1))
        assert a.row_nnz().max() > 100 * np.median(a.row_nnz())
        h = np.random.default_rng(5).standard_normal((a.n_cols, 3))
        assert np.array_equal(bits(spmm(a, h)), bits(sequential_spmm(a, h)))

    def test_identity(self):
        h = np.random.default_rng(1).standard_normal((5, 3))
        assert np.array_equal(spmm(CsrMatrix.identity(5), h), h)

    def test_zero_rows_annihilate(self):
        a = CsrMatrix(2, 4, [0, 0, 0], [], [])
        h = np.ones((4, 3))
        assert np.array_equal(spmm(a, h), np.zeros((2, 3)))

    def test_seeded_8x8_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        d = (rng.random((8, 8)) < 0.4) * rng.standard_normal((8, 8))
        a = CsrMatrix.from_dense(d)
        h = rng.standard_normal((8, 3))
        got = spmm(a, h)
        want = dense_spmm_oracle(a, h)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 16, 33, 64])
    def test_random_instances_up_to_64(self, n):
        rng = np.random.default_rng(n)
        d = (rng.random((n, n)) < 0.2) * rng.standard_normal((n, n))
        a = CsrMatrix.from_dense(d)
        h = rng.standard_normal((n, 5))
        np.testing.assert_allclose(spmm(a, h), d @ h, rtol=1e-12, atol=1e-13)

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(9)
        d = (rng.random((20, 20)) < 0.3) * rng.standard_normal((20, 20))
        a = CsrMatrix.from_dense(d)
        h = rng.standard_normal((20, 4))
        assert np.array_equal(spmm(a, h), spmm(a, h))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmm(CsrMatrix.identity(3), np.ones((4, 2)))


class TestDmm:
    def test_identity(self):
        x = np.random.default_rng(2).standard_normal((4, 4))
        assert np.array_equal(dmm(x, np.eye(4)), x)

    def test_scalar_product(self):
        assert dmm(np.array([[2.0]]), np.array([[3.0]]))[0, 0] == 6.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 5))
        y = rng.standard_normal((5, 2))
        np.testing.assert_allclose(dmm(x, y), triple_loop_dmm_oracle(x, y), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dmm(np.ones((2, 3)), np.ones((2, 3)))


class TestHadamard:
    def test_ones_identity(self):
        x = np.random.default_rng(4).standard_normal((3, 3))
        assert np.array_equal(hadamard(x, np.ones((3, 3))), x)

    def test_zeros_annihilate(self):
        x = np.random.default_rng(5).standard_normal((3, 3))
        assert np.array_equal(hadamard(x, np.zeros((3, 3))), np.zeros((3, 3)))

    def test_definition(self):
        got = hadamard(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(got, [[5.0, 12.0], [21.0, 32.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hadamard(np.ones((2, 2)), np.ones((2, 3)))


class TestTranspose:
    def test_symmetric_structure_unchanged(self):
        a = random_undirected(8, 0.4, 1)
        t = transpose_sparse(a)
        assert np.array_equal(a.row_offsets, t.row_offsets)
        assert np.array_equal(a.col_indices, t.col_indices)

    def test_single_entry(self):
        a = CsrMatrix.from_coo(2, 2, [0], [1], [2.5])
        t = transpose_sparse(a)
        assert t.to_dense()[1, 0] == 2.5 and t.nnz == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_involution_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        d = (rng.random((6, 6)) < 0.4) * rng.standard_normal((6, 6))
        a = CsrMatrix.from_dense(d)
        tt = transpose_sparse(transpose_sparse(a))
        assert np.array_equal(a.row_offsets, tt.row_offsets)
        assert np.array_equal(a.col_indices, tt.col_indices)
        assert np.array_equal(a.values, tt.values)


@st.composite
def restrict_instances(draw):
    """Random CSR (empty rows likely), rows in any order with repeats, and
    a sorted column subset that may be empty."""
    n_rows, n_cols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    mask = draw(st.lists(st.booleans(), min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    values = draw(
        st.lists(
            st.floats(-4, 4, allow_nan=False).filter(lambda v: v != 0),
            min_size=n_rows * n_cols,
            max_size=n_rows * n_cols,
        )
    )
    d = (np.array(mask, dtype=bool) * np.array(values, dtype=float)).reshape(n_rows, n_cols)
    rows = draw(st.lists(st.integers(0, n_rows - 1), max_size=8)) if n_rows else []
    cols = sorted(draw(st.sets(st.integers(0, n_cols - 1))))
    return CsrMatrix.from_dense(d), np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


class TestRestrict:
    @settings(deadline=None, max_examples=300)
    @given(restrict_instances())
    def test_matches_dense_fancy_indexing(self, inst):
        a, rows, cols = inst
        got = restrict(a, rows, cols)
        assert got.shape == (len(rows), len(cols))
        assert np.array_equal(got.to_dense(), a.to_dense()[np.ix_(rows, cols)])
        assert got.nnz == np.count_nonzero(a.to_dense()[np.ix_(rows, cols)])

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            restrict(CsrMatrix.identity(3), [0, 1], [2, 0])


class TestGatherRows:
    def _block(self):
        data = np.arange(12.0).reshape(3, 4)
        return RowBlock(np.array([1, 2, 5]), data)

    def test_empty_request(self):
        out = gather_rows(self._block(), [])
        assert out.shape == (0, 4)

    def test_all_owned_ids_copy(self):
        block = self._block()
        out = gather_rows(block, [1, 2, 5])
        assert np.array_equal(out, block.local)
        out[0, 0] = -1.0  # a copy, not a view
        assert block.local[0, 0] == 0.0

    def test_single_row_in_request_order(self):
        block = RowBlock(np.array([1, 2]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(gather_rows(block, [2]), [[3.0, 4.0]])
        both = gather_rows(block, [2, 1])
        assert np.array_equal(both, [[3.0, 4.0], [1.0, 2.0]])

    def test_unowned_id_rejected(self):
        with pytest.raises(KeyError):
            gather_rows(self._block(), [3])

    def test_block_requires_sorted_ids(self):
        with pytest.raises(ValueError):
            RowBlock(np.array([2, 1]), np.zeros((2, 2)))
