"""CSR sparse matrix kernels.

CSR storage and its invariant check (which Hypergraph's pins share), the
GCN normalization D^{-1/2}(A+I)D^{-1/2} (gcn_scale, which
normalize_adjacency and the runtime's mini-batch steps call), sparse-dense
products, CSR transpose and the transpose order (one column sort), the
bit-exact symmetry check, row/column restriction, and sorts and lookups on
int64 keys. CsrMatrix.batch builds many matrices over shared flat arrays
and checks their invariants once. RowBlock and gather_rows copy a block's
rows by global id; nothing in the package calls them.

All scalars are float64. Each spmm output row is the sequential sum of its
products in ascending column order (CSR columns are sorted), built from
elementwise numpy operations, so it is the same to the last bit on every
BLAS build. spmm's schedule (row order, hub rows, and the flat columns and
values of every entry in summing order) is built once per operand, or for
many operands by one spmm_schedules pass, and cached on it, so a call
makes one gather into an nnz x d temporary, scales it in place and sums
its slices into the output, step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _as_index_array(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.int64))


def unique_keys(keys) -> np.ndarray:
    """np.unique of non-negative integer keys, by one sort: numpy 2's
    hash-table np.unique takes about 20x a sort on int64 keys."""
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    return keys[np.diff(keys, prepend=-1) != 0]


def check_key_range(*extents) -> None:
    """Raise unless the int64 keys that combine indices below the given
    extents, such as row * n_cols + col for an n_rows x n_cols shape, fit
    int64; every sort on one such key checks its bound first."""
    if math.prod(map(int, extents)) > np.iinfo(np.int64).max:
        raise ValueError(f"shape {' x '.join(map(str, extents))} has too many entries for int64 keys")


def stable_argsort(keys, bound: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") of integer keys in [0, bound), sorted
    in the narrowest unsigned type that holds them: numpy radix-sorts keys
    of 16 bits or less in linear time."""
    return np.argsort(np.asarray(keys).astype(np.min_scalar_type(max(int(bound) - 1, 0))), kind="stable")


def sorted_search(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.searchsorted(a, v), looking v up in ascending order: numpy is
    several times slower on unsorted queries than an argsort costs."""
    order = np.argsort(v)
    out = np.empty(len(order), dtype=np.int64)
    out[order] = np.searchsorted(a, v[order])
    return out


def ranges(starts, counts) -> np.ndarray:
    """starts[i], ..., starts[i] + counts[i] - 1 for each i in turn."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.arange(int(counts.sum())) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def dense(x) -> np.ndarray:
    """Coerce to a 2-D float64 C-contiguous array (the dense matrix type)."""
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if a.ndim != 2:
        raise ValueError(f"dense matrix must be 2-D, got ndim={a.ndim}")
    return a


def _check_csr(starts, n_cols, ro, ci, v=None):
    """Check CsrMatrix's invariants for the matrices of CsrMatrix.batch (one
    matrix: starts [0, n_rows]), raising the first bad matrix's ValueError;
    returns the arrays as int64 and float64, all but starts read-only. With
    v None (a pattern, such as Hypergraph's pins) values are not checked and
    None comes back. Valid input costs a few whole-array screens; the bad
    entry is located only once a screen fails."""
    starts, ro, ci = map(_as_index_array, (starts, ro, ci))
    if v is not None:
        v = np.ascontiguousarray(np.asarray(v, dtype=np.float64))
    nnz = len(ci)
    # ro[0] is read last: ro is empty for n_rows = -1
    if (len(ro) != starts[-1] + 1 or starts[0] != 0
            or (starts[1] < 0 if len(starts) == 2 else (starts[1:] < starts[:-1]).any()) or ro[0] != 0):
        raise ValueError("row_offsets must have length n_rows+1 and start at 0")
    if ro[-1] != nnz or (ro[1:] < ro[:-1]).any():
        down = np.flatnonzero(ro[1:] < ro[:-1])
        m = int(np.searchsorted(starts, down[0], side="right")) - 1 if len(down) else len(n_cols) - 1
        k = starts[m]  # the matrices before m come first
        _check_csr(starts[: m + 1], n_cols[:m], ro[: k + 1], ci[: ro[k]], None if v is None else v[: ro[k]])
        raise ValueError("row_offsets must be non-decreasing and end at nnz")
    if v is not None and len(v) != nnz:
        raise ValueError("values and col_indices must have equal length")
    # entries are scanned only if a column is negative (huge as uint64) or
    # reaches the least n_cols
    wide = ci[:0]
    if nnz and ci.view(np.uint64).max() >= int(n_cols[0] if len(n_cols) == 1 else np.min(n_cols)):
        wide = np.flatnonzero((ci < 0) | (ci >= np.repeat(n_cols, ro[starts[1:]] - ro[starts[:-1]])))[:1]
    # step k: entry k does not exceed entry k - 1 and starts no row
    step = np.empty(nnz + 1, dtype=bool)
    np.less_equal(ci[1:], ci[:-1], out=step[1:nnz])
    step[ro] = False
    if len(wide) or step.any():
        row = np.searchsorted(ro, np.concatenate([wide, np.flatnonzero(step)[:1]]), side="right") - 1
        m = np.searchsorted(starts, row, side="right") - 1
        if len(wide) and m[0] <= m[-1]:
            raise ValueError(f"column index out of range in row {row[0] - starts[m[0]]}")
        raise ValueError(f"columns in row {row[-1] - starts[m[-1]]} not strictly increasing")
    for arr in (ro, ci) if v is None else (ro, ci, v):
        arr.setflags(write=False)
    return starts, ro, ci, v


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
        arrays = _check_csr([0, self.n_rows], [self.n_cols], self.row_offsets, self.col_indices, self.values)
        for name, arr in zip(("row_offsets", "col_indices", "values"), arrays[1:]):
            object.__setattr__(self, name, arr)

    @classmethod
    def batch(cls, starts, n_cols, offsets, cols, values) -> list["CsrMatrix"]:
        """Matrix m has the flat CSR rows starts[m]:starts[m + 1] and n_cols[m]
        columns. The flat arrays are checked once, raising what CsrMatrix(...)
        raises for the first bad matrix; the matrices hold read-only views."""
        starts, offsets, cols, values = _check_csr(starts, n_cols, offsets, cols, values)
        # matrix m's row_offsets, rebased to 0, start at starts[m] + m in rel
        g = np.repeat(np.arange(len(starts) - 1), np.diff(starts) + 1)
        rel = offsets[np.arange(len(g)) - g] - offsets[starts[g]]
        rel.setflags(write=False)
        s, e, nc = starts.tolist(), offsets[starts].tolist(), list(map(int, n_cols))
        out = [object.__new__(cls) for _ in nc]  # checked above, so no __post_init__
        for m, a in enumerate(out):
            vars(a).update(n_rows=s[m + 1] - s[m], n_cols=nc[m], row_offsets=rel[s[m] + m : s[m + 1] + m + 1],
                           col_indices=cols[e[m] : e[m + 1]], values=values[e[m] : e[m + 1]])
        return out

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
        input order. Entries are ordered by one sort of the int64 keys
        row * n_cols + col, so the shape must have at most 2**63 - 1
        entries. Keys repeat where entries do, so the sort is the stable
        one: it keeps duplicates in input order for the sum."""
        check_key_range(n_rows, n_cols)
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

    @cached_property
    def spmm_schedule(self) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, list]:
        """spmm's plan for this operand (see spmm_schedules), built on the
        first call unless prime_spmm_schedules built it, and reused: the
        arrays it reads are read-only, so it cannot go stale."""
        return spmm_schedules([self])[0]


def spmm_schedules(mats) -> list[tuple[np.ndarray, int, np.ndarray, np.ndarray, list]]:
    """spmm's plan (place, hubs, cols, vals, bounds) for each matrix, built
    for all of them by one pass of array operations.

    Rows are summed in descending entry count (row i is summed at
    place[i]). The first hubs rows, those with more than t entries, are
    summed one at a time. Step j < t adds entry j of every other row with
    more than j entries; those rows follow the hubs in summing order.
    cols and vals (as a column) are the flat entry positions: each hub
    row's entries, then each step's, with span q at bounds[q]:bounds[q + 1].
    t minimizes the Python-level spans hubs + t, the larger t on ties, so
    one hub row costs one span, not one per entry. The minimum lies at
    t = 0, where hubs counts the nonempty rows, or at an entry count c,
    where hubs is the position of c's first row in summing order."""
    mats = list(mats)
    if not mats:
        return []
    n_rows = np.array([a.n_rows for a in mats], dtype=np.int64)
    row_base = np.zeros(len(mats) + 1, dtype=np.int64)
    np.cumsum(n_rows, out=row_base[1:])
    op = np.repeat(np.arange(len(mats)), n_rows)
    starts = np.concatenate([a.row_offsets[:-1] for a in mats])
    counts = np.concatenate([a.row_offsets[1:] for a in mats]) - starts
    top = int(counts.max()) if len(counts) else 0
    key = op * (top + 1) + (top - counts)  # by matrix, then descending count
    order = stable_argsort(key, len(mats) * (top + 1))
    key, counts, starts = key[order], counts[order], starts[order]
    local = np.arange(len(order)) - row_base[op]  # position in summing order
    place = np.empty_like(order)
    place[order] = local

    # candidates (hubs + t, -t) as one integer each: one per row (hubs is
    # its position, t its count) and t = 0 with every row a hub
    scale = top + 2
    best = n_rows * scale + top + 1
    np.minimum.at(best, op, (local + counts) * scale + top + 1 - counts)
    t = top + 1 - best % scale
    hubs = best // scale - t

    # step j of matrix m: entry j of its rows from position hubs[m] up to
    # its last row with more than j entries
    t_base = np.zeros(len(mats) + 1, dtype=np.int64)
    np.cumsum(t, out=t_base[1:])
    step_op = np.repeat(np.arange(len(mats)), t)
    j = np.arange(t_base[-1]) - t_base[step_op]
    lo = row_base[step_op] + hubs[step_op]
    size = np.searchsorted(key, step_op * (top + 1) + top - j) - lo
    entry = starts + np.cumsum([0] + [a.nnz for a in mats])[op]
    hub = np.flatnonzero(local < hubs[op])
    # every span's entries, then reordered by matrix, hub rows first
    at = np.concatenate([ranges(entry[hub], counts[hub]), entry[ranges(lo, size)] + np.repeat(j, size)])
    span_n = np.concatenate([counts[hub], size])
    span = stable_argsort(np.concatenate([op[hub], step_op]), len(mats))
    at = at[ranges((np.cumsum(span_n) - span_n)[span], span_n[span])]
    cols = np.concatenate([a.col_indices for a in mats])[at]
    vals = np.concatenate([a.values for a in mats])[at, None]
    for arr in (place, cols, vals):
        arr.setflags(write=False)

    bounds = np.zeros(len(span) + 1, dtype=np.int64)
    np.cumsum(span_n[span], out=bounds[1:])
    b, rb = bounds.tolist(), row_base.tolist()
    sb = np.cumsum(np.concatenate([[0], hubs + t])).tolist()
    out = []
    for m, n_hubs in enumerate(hubs.tolist()):
        e0, e1 = b[sb[m]], b[sb[m + 1]]
        bm = [x - e0 for x in b[sb[m] : sb[m + 1] + 1]]
        out.append((place[rb[m] : rb[m + 1]], n_hubs, cols[e0:e1], vals[e0:e1], bm))
    return out


def prime_spmm_schedules(mats) -> None:
    """Build, in one spmm_schedules pass, the spmm_schedule of every
    matrix that has none cached yet, and cache it as its first spmm would."""
    todo = list({id(a): a for a in mats if "spmm_schedule" not in vars(a)}.values())
    for a, schedule in zip(todo, spmm_schedules(todo)):
        vars(a)["spmm_schedule"] = schedule


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
        if (ids[1:] <= ids[:-1]).any():
            raise ValueError("global_row_ids must be strictly increasing")
        if self.local.shape[0] != len(ids):
            raise ValueError("row count of local data must match global_row_ids")
        ids.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return len(self.global_row_ids)


def add_identity(a: CsrMatrix) -> CsrMatrix:
    """A + I for square a, merging the diagonal into each sorted row without
    a sort. The values are bit for bit those of from_coo over a's entries
    and then I's: 0.0 + v off the diagonal (so -0.0 becomes 0.0), (0.0 + v)
    + 1.0 on a diagonal a holds, 1.0 on one it lacks."""
    if a.n_rows != a.n_cols:
        raise ValueError(f"A + I needs a square matrix, got {a.shape}")
    n = a.n_rows
    rows = np.repeat(np.arange(n, dtype=np.int64), a.row_nnz())
    on, below = a.col_indices == rows, a.col_indices < rows
    missing = np.ones(n, dtype=np.int64)
    missing[rows[on]] = 0
    added = np.cumsum(missing)  # diagonals inserted in rows up to each row
    # an entry moves past the diagonals inserted before it: in earlier
    # rows, and in its own row if its column exceeds the row
    pos = np.arange(a.nnz) + added[rows] - missing[rows] * below
    offsets = a.row_offsets + np.concatenate([[0], added])
    cols, values = np.empty(offsets[-1], dtype=np.int64), np.empty(offsets[-1])
    cols[pos], values[pos] = a.col_indices, a.values + 0.0
    values[pos[on]] += 1.0
    d = np.flatnonzero(missing)
    at = offsets[d] + np.bincount(rows[below], minlength=n)[d]
    cols[at], values[at] = d, 1.0
    return CsrMatrix(n, n, offsets, cols, values)


def gcn_scale(n: int, i, j, values, inv_sqrt=None) -> tuple[np.ndarray, np.ndarray]:
    """The GCN normalization of the entries (i, j, v) of an n x n matrix
    A+I: each v * d_i^-1/2 * d_j^-1/2, in that order, and d^-1/2. d_i sums
    the values of row i in entry order (out-degrees for directed input);
    inv_sqrt, if given, is d^-1/2 instead, so that A+I's transpose can be
    scaled by A+I's degrees. ValueError if a degree is not positive."""
    if inv_sqrt is None:
        deg = np.bincount(i, weights=values, minlength=n)
        if np.any(deg <= 0):
            raise ValueError(f"row {int(np.argmax(deg <= 0))} has non-positive degree; cannot normalize")
        inv_sqrt = 1.0 / np.sqrt(deg)
    return values * inv_sqrt[i] * inv_sqrt[j], inv_sqrt


def normalize_adjacency(a: CsrMatrix) -> CsrMatrix:
    """Return the degree-normalized adjacency D^{-1/2}(A+I)D^{-1/2}, which
    has a full diagonal; D(i,i) sums row i of A+I."""
    tilde = add_identity(a)
    rows = np.repeat(np.arange(a.n_rows), tilde.row_nnz())
    values, _ = gcn_scale(a.n_rows, rows, tilde.col_indices, tilde.values)
    return CsrMatrix(a.n_rows, a.n_cols, tilde.row_offsets, tilde.col_indices, values)


def spmm(a: CsrMatrix, h: np.ndarray) -> np.ndarray:
    """Sparse @ dense as the sequential ascending-column sum of each row:
    out[i] = ((0 + v_0 h[c_0]) + v_1 h[c_1]) + ..., bit for bit.

    Follows a's cached spmm_schedule: one gather of every entry's h row,
    scaled in place (an nnz x d temporary); each hub row is summed on its
    own by np.add.accumulate seeded with a zero row (sequential, and 0 + x
    keeps the sign of zero as the sum above does); then each step adds its
    slice to the accumulator rows in place."""
    h = dense(h)
    if a.n_cols != h.shape[0]:
        raise ValueError(f"spmm shape mismatch: {a.shape} @ {h.shape}")
    place, hubs, cols, vals, bounds = a.spmm_schedule
    acc = np.zeros((a.n_rows, h.shape[1]))
    x = h.take(cols, axis=0)
    x *= vals
    for i in range(hubs):
        acc[i] = np.add.accumulate(np.concatenate([acc[i : i + 1], x[bounds[i] : bounds[i + 1]]]))[-1]
    for lo, hi in zip(bounds[hubs:], bounds[hubs + 1 :]):
        acc[hubs : hubs + hi - lo] += x[lo:hi]
    return acc.take(place, axis=0)


def _column_order(a: CsrMatrix) -> tuple[np.ndarray, np.ndarray]:
    """a's entries listed by column, then row, by one stable sort of the
    column indices (entries run row by row), and each entry's row."""
    rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_nnz())
    return stable_argsort(a.col_indices, a.n_cols), rows


def transpose_sparse(a: CsrMatrix) -> CsrMatrix:
    """CSR of A^T with sorted columns: a's entries in _column_order, so
    each row's values are copied bit-exact. Like from_coo, it refuses
    shapes with more entries than int64 keys hold."""
    check_key_range(a.n_cols, a.n_rows)
    order, rows = _column_order(a)
    offsets = np.zeros(a.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(a.col_indices, minlength=a.n_cols), out=offsets[1:])
    return CsrMatrix(a.n_cols, a.n_rows, offsets, rows[order], a.values[order])


def transpose_order(a: CsrMatrix) -> "np.ndarray | None":
    """If a's pattern equals its transpose's, the order of a's entries in
    the transpose's CSR order (_column_order), so that the transpose is a
    with values a.values[order]; otherwise None. The patterns are equal
    when the transpose's column sequence, the rows in that order, equals
    a's: then each index occurs as often in both, so row j of a and of its
    transpose have the same length and hold the same columns."""
    if a.n_rows != a.n_cols:
        return None
    order, rows = _column_order(a)
    return order if np.array_equal(rows[order], a.col_indices) else None


def is_symmetric(a: CsrMatrix) -> bool:
    """Whether a equals its transpose bit for bit, pattern and values."""
    order = transpose_order(a)
    bits = a.values.view(np.int64)
    return order is not None and np.array_equal(bits[order], bits)


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
    idx = ranges(starts, counts)
    # an entry is kept when its column is found at its insertion point in cols
    col = a.col_indices[idx]
    at = np.searchsorted(cols, col)
    keep = at < len(cols)
    keep[keep] = cols[at[keep]] == col[keep]
    out_rows = np.repeat(np.arange(len(rows)), counts)[keep]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_rows, minlength=len(rows)), out=offsets[1:])
    return CsrMatrix(len(rows), len(cols), offsets, at[keep], a.values[idx[keep]])


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
