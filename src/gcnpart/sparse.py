"""CSR sparse and dense matrix kernels.

Every numeric path in the package runs through this module: CSR storage,
adjacency normalization D^{-1/2}(A+I)D^{-1/2}, sparse-dense and dense-dense
products, CSR transpose and row/column restriction, and the row gather
that realizes the diagonal selector matrices as index lists instead of
materialized diagonals: the runtime uses it once per scatter to find each
send list's local positions pos, and a payload is then values[pos].

All scalars are float64. Each spmm output row is the sequential sum of its
products in ascending column order (CSR columns are sorted), built from
elementwise numpy operations, so it is the same to the last bit on every
BLAS build. Dense products (dmm) go through BLAS; for a fixed numpy/BLAS
build and thread setting the same operands give the same bits, so
repeated runs, and the two schedulers, are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_index_array(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.int64))


def unique_keys(keys) -> np.ndarray:
    """np.unique of non-negative integer keys, by one sort: numpy 2's
    hash-table np.unique takes about 20x a sort on int64 keys."""
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    return keys[np.diff(keys, prepend=-1) != 0]


def dense(x) -> np.ndarray:
    """Coerce to a 2-D float64 C-contiguous array (the dense matrix type)."""
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if a.ndim != 2:
        raise ValueError(f"dense matrix must be 2-D, got ndim={a.ndim}")
    return a


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse row matrix with sorted columns and no explicit zeros.

    Invariants checked at construction: row_offsets is non-decreasing with
    row_offsets[0] == 0 and row_offsets[-1] == nnz; column indices are
    strictly increasing within each row and < n_cols.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_offsets", _as_index_array(self.row_offsets))
        object.__setattr__(self, "col_indices", _as_index_array(self.col_indices))
        object.__setattr__(
            self, "values", np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        )
        ro, ci, v = self.row_offsets, self.col_indices, self.values
        if len(ro) != self.n_rows + 1 or ro[0] != 0:
            raise ValueError("row_offsets must have length n_rows+1 and start at 0")
        if np.any(np.diff(ro) < 0) or ro[-1] != len(ci):
            raise ValueError("row_offsets must be non-decreasing and end at nnz")
        if len(v) != len(ci):
            raise ValueError("values and col_indices must have equal length")
        if len(ci) and (ci.min() < 0 or ci.max() >= self.n_cols):
            raise ValueError("column index out of range")
        # a step k-1 -> k must increase unless entry k starts a new row
        starts_row = np.zeros(len(ci), dtype=bool)
        starts_row[ro[:-1][ro[:-1] < len(ci)]] = True
        bad = np.flatnonzero((np.diff(ci) <= 0) & ~starts_row[1:])
        if len(bad):
            i = int(np.searchsorted(ro, bad[0] + 1, side="right")) - 1
            raise ValueError(f"columns in row {i} not strictly increasing")
        for arr in (ro, ci, v):
            arr.setflags(write=False)

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def has_full_diagonal(self) -> bool:
        if self.n_rows != self.n_cols:
            return False
        # columns are unique within a row, so each row holds at most one
        # diagonal entry
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz())
        return int(np.count_nonzero(self.col_indices == rows)) == self.n_rows

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz())
        out[rows, self.col_indices] = self.values
        return out

    @classmethod
    def from_coo(cls, n_rows: int, n_cols: int, rows, cols, values=None) -> "CsrMatrix":
        """Build from triplets; duplicate (row, col) entries are summed in
        input order. Entries are ordered by one stable sort of the int64
        keys row * n_cols + col, so the shape must have at most 2**63 - 1
        entries."""
        if int(n_rows) * int(n_cols) > np.iinfo(np.int64).max:
            raise ValueError(f"shape {n_rows} x {n_cols} has too many entries for int64 keys")
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        if values is None:
            values = np.ones(len(rows))
        values = np.asarray(values, dtype=np.float64)
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError("triplet arrays must have equal length")
        if len(rows):
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        order = np.argsort(rows * n_cols + cols, kind="stable")
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
        return cls(n_rows, n_cols, offsets, cols, values)

    @classmethod
    def from_dense(cls, a) -> "CsrMatrix":
        a = dense(a)
        rows, cols = np.nonzero(a)
        return cls.from_coo(a.shape[0], a.shape[1], rows, cols, a[rows, cols])

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))


@dataclass(frozen=True)
class RowBlock:
    """A set of matrix rows owned by one processor, keyed by global row ids.

    global_row_ids is strictly increasing; local holds the dense row data
    in that order, at full column width.
    """

    global_row_ids: np.ndarray
    local: np.ndarray

    def __post_init__(self):
        ids = _as_index_array(self.global_row_ids)
        object.__setattr__(self, "global_row_ids", ids)
        if len(ids) > 1 and np.any(np.diff(ids) <= 0):
            raise ValueError("global_row_ids must be strictly increasing")
        if self.local.shape[0] != len(ids):
            raise ValueError("row count of local data must match global_row_ids")
        ids.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return len(self.global_row_ids)


def normalize_adjacency(a: CsrMatrix, add_self_loops: bool = True) -> CsrMatrix:
    """Return the degree-normalized adjacency D^{-1/2}(A+I)D^{-1/2}.

    D(i,i) sums row i of A+I (row sums, i.e. out-degrees for directed
    input). With add_self_loops every degree is >= 1, so every diagonal
    entry of the result is nonzero.
    """
    if a.n_rows != a.n_cols:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    n = a.n_rows
    if add_self_loops:
        rows = np.repeat(np.arange(n), a.row_nnz())
        rows = np.concatenate([rows, np.arange(n)])
        cols = np.concatenate([a.col_indices, np.arange(n)])
        vals = np.concatenate([a.values, np.ones(n)])
        tilde = CsrMatrix.from_coo(n, n, rows, cols, vals)
    else:
        tilde = a
    deg = np.zeros(n)
    np.add.at(deg, np.repeat(np.arange(n), tilde.row_nnz()), tilde.values)
    if np.any(deg <= 0):
        bad = int(np.argmax(deg <= 0))
        raise ValueError(f"row {bad} has non-positive degree; cannot normalize")
    inv_sqrt = 1.0 / np.sqrt(deg)
    row_of = np.repeat(np.arange(n), tilde.row_nnz())
    scaled = tilde.values * inv_sqrt[row_of] * inv_sqrt[tilde.col_indices]
    return CsrMatrix(n, n, tilde.row_offsets, tilde.col_indices, scaled)


def spmm(a: CsrMatrix, h: np.ndarray) -> np.ndarray:
    """Sparse @ dense as the sequential ascending-column sum of each row:
    out[i] = ((0 + v_0 h[c_0]) + v_1 h[c_1]) + ..., bit for bit.

    Rows are ordered by descending entry count. Rows with more than t
    entries are summed one at a time by np.add.accumulate seeded with a
    zero row (sequential, and 0 + x keeps the sign of zero as the sum
    above does); for the rest, step j adds entry j of every row that has
    more than j entries, and those rows are a prefix. t minimizes the
    Python-level steps, so one hub row costs one step, not one per entry."""
    h = dense(h)
    if a.n_cols != h.shape[0]:
        raise ValueError(f"spmm shape mismatch: {a.shape} @ {h.shape}")
    out = np.zeros((a.n_rows, h.shape[1]))
    prod = a.values[:, None] * h[a.col_indices]
    counts = a.row_nnz()
    order = np.argsort(-counts, kind="stable")
    starts = a.row_offsets[order]
    # longer[j]: number of rows with more than j entries
    longer = (a.n_rows - np.cumsum(np.bincount(counts, minlength=1))).tolist()
    # steps for a cut-off t: longer[t] rows one at a time, then t positions
    t = min(range(len(longer)), key=lambda j: (longer[j] + j, -j))
    hubs = longer[t]
    acc = np.zeros_like(out)
    for i in range(hubs):
        terms = prod[starts[i] : starts[i] + counts[order[i]]]
        acc[i] = np.add.accumulate(np.concatenate([np.zeros_like(terms[:1]), terms]))[-1]
    for j in range(t):
        m = longer[j]
        acc[hubs:m] += prod[starts[hubs:m] + j]
    out[order] = acc
    return out


def dmm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense @ dense with a shape check."""
    x, y = dense(x), dense(y)
    if x.shape[1] != y.shape[0]:
        raise ValueError(f"dmm shape mismatch: {x.shape} @ {y.shape}")
    return x @ y


def hadamard(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise product of two equal-shape dense matrices."""
    x, y = dense(x), dense(y)
    if x.shape != y.shape:
        raise ValueError(f"hadamard shape mismatch: {x.shape} vs {y.shape}")
    return x * y


def transpose_sparse(a: CsrMatrix) -> CsrMatrix:
    """CSR of A^T with sorted columns (stable sort keeps rows bit-exact)."""
    rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_nnz())
    order = np.argsort(a.col_indices, kind="stable")
    out_cols = rows[order]
    out_vals = a.values[order]
    offsets = np.zeros(a.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(a.col_indices, minlength=a.n_cols), out=offsets[1:])
    return CsrMatrix(a.n_cols, a.n_rows, offsets, out_cols, out_vals)


def restrict(a: CsrMatrix, rows, cols) -> CsrMatrix:
    """a[rows, cols]: output row i is row rows[i] of a, output column j is
    column cols[j] (cols strictly increasing, so columns stay sorted).
    Values are copied unchanged."""
    rows, cols = _as_index_array(rows), _as_index_array(cols)
    if np.any(np.diff(cols) <= 0):
        raise ValueError("cols must be strictly increasing")
    starts = a.row_offsets[rows]
    counts = a.row_offsets[rows + 1] - starts
    # entry ids of the selected rows, row after row
    idx = np.arange(int(counts.sum())) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    keep = np.isin(a.col_indices[idx], cols)
    idx = idx[keep]
    out_rows = np.repeat(np.arange(len(rows)), counts)[keep]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_rows, minlength=len(rows)), out=offsets[1:])
    # kept columns are members of cols, so insertion points are positions
    out_cols = np.searchsorted(cols, a.col_indices[idx])
    return CsrMatrix(len(rows), len(cols), offsets, out_cols, a.values[idx])


def gather_rows(block: RowBlock, wanted_global_ids) -> np.ndarray:
    """Copy the block rows for wanted_global_ids, in the order requested.

    This is the copy-semiring selector multiply: the selector is an index
    list, and "multiplication" carries the block row unchanged.
    """
    wanted = _as_index_array(wanted_global_ids)
    owned = block.global_row_ids
    if len(wanted) == 0:
        return np.zeros((0, block.local.shape[1]))
    if len(owned) == 0:
        raise KeyError(f"row {int(wanted[0])} is not owned by this block")
    pos = np.searchsorted(owned, wanted)
    bad = (pos >= len(owned)) | (owned[np.minimum(pos, len(owned) - 1)] != wanted)
    if np.any(bad):
        missing = wanted[bad][0]
        raise KeyError(f"row {int(missing)} is not owned by this block")
    return block.local[pos].copy()
