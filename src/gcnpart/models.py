"""Partitioning models of a sparse adjacency matrix and their cut metrics.

Three models of the same row-wise distribution problem:

* undirected graph model: one vertex per row, one undirected edge per
  symmetrized off-diagonal nonzero, unit edge costs, held as a Hypergraph
  of 2-pin nets (u, v) with u < v, whose connectivity-1 cut is exactly the
  edge cut. Its cut OVERCOUNTS communication (one-way edges still count
  both directions; several consumers on one remote part count once per
  consumer).
* column-net hypergraph model: one vertex per row, one net per column,
  pins(n_j) = rows with a nonzero in column j. Sum of (lambda - 1) over
  nets is EXACTLY the number of row transfers per direction.
* stochastic hypergraph: union of the column-net hypergraphs of many
  sampled induced subgraphs; its cut estimates the expected per-batch
  transfer count for mini-batch training.

Hypergraph stores its nets in CSR form (offsets, pins), the layout of a
sparse matrix with one row per net: the column-net model is the pattern of
A^T, the graph model's offsets step by two, and the partitioner levels and
the one cut metric all work on the same two arrays, checked as sparse
checks a CsrMatrix's pattern.

Vertex weights are row nonzero counts of the normalized matrix, which is
the per-row multiply work, so part weights model compute load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix, _check_csr, add_identity, restrict, transpose_sparse, unique_keys


@dataclass(frozen=True)
class Hypergraph:
    """Hypergraph in CSR form: net j pins the vertices
    pins[offsets[j]:offsets[j+1]] at cost net_cost[j]; vertex weights are
    integers. Offsets and pins are checked as the pattern of a CsrMatrix
    with one row per net and n_vertices columns, raising its errors (a net
    is a "row"); then no net may be empty."""

    n_vertices: int
    offsets: np.ndarray
    pins: np.ndarray
    net_cost: np.ndarray
    vertex_weight: np.ndarray

    def __post_init__(self):
        n_vertices = int(self.n_vertices)
        _, o, p, _ = _check_csr([0, len(self.offsets) - 1], [n_vertices], self.offsets, self.pins)
        c = np.asarray(self.net_cost, dtype=np.float64)
        w = np.asarray(self.vertex_weight, dtype=np.int64)
        sizes = np.diff(o)
        if not sizes.all():
            raise ValueError(f"net {int(np.argmin(sizes))} has no pins")
        if len(c) != len(sizes) or len(w) != n_vertices:
            raise ValueError("cost/weight arrays have wrong length")
        for name, value in zip(self.__dataclass_fields__, (n_vertices, o, p, c, w)):
            object.__setattr__(self, name, value)
        c.setflags(write=False)
        w.setflags(write=False)

    @property
    def n_nets(self) -> int:
        return len(self.offsets) - 1

    @property
    def nets(self) -> tuple:
        """Read-only views of each net's pins, for tests and tracing only."""
        return tuple(np.split(self.pins, self.offsets[1:-1])) if self.n_nets else ()

    def net_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def net_of_pin(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_nets), self.net_sizes())


@dataclass(frozen=True)
class Partition:
    """p-way vertex assignment with per-part weights and imbalance budget."""

    p: int
    assignment: np.ndarray
    part_weights: np.ndarray
    epsilon: float

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        pw = np.asarray(self.part_weights, dtype=np.int64)
        if len(a) and (a.min() < 0 or a.max() >= self.p):
            raise ValueError("part id out of range")
        if len(pw) != self.p:
            raise ValueError("part_weights must have length p")
        if np.count_nonzero(np.bincount(a, minlength=self.p)) != self.p:
            raise ValueError("every part must be non-empty")
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "part_weights", pw)
        a.setflags(write=False)
        pw.setflags(write=False)

    @classmethod
    def from_assignment(cls, assignment, weights, p: int, epsilon: float) -> "Partition":
        assignment = np.asarray(assignment, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        pw = np.zeros(p, dtype=np.int64)
        np.add.at(pw, assignment, weights)
        return cls(p, assignment, pw, float(epsilon))

    @property
    def n_vertices(self) -> int:
        return len(self.assignment)

    def balance_ratio(self) -> float:
        """max part weight / average - 1, rounded once from the integers so
        that a part exactly on the cap reads exactly epsilon."""
        total = int(self.part_weights.sum())
        if total == 0:
            return 0.0
        return (self.p * int(self.part_weights.max()) - total) / total

    def is_balanced(self) -> bool:
        cap = balance_cap(self.part_weights.sum(), self.p, self.epsilon)
        return bool(np.all(self.part_weights <= cap))


def balance_cap(total_weight, p: int, epsilon: float) -> float:
    """The most one part of a balanced p-way partition may weigh:
    (1 + epsilon) * W / p, evaluated in that order."""
    return (1.0 + epsilon) * float(total_weight) / p


@dataclass(frozen=True)
class CutReport:
    cut_value: float
    per_net_lambda: np.ndarray


def _check_assignment(n_vertices: int, pi: Partition) -> None:
    if pi.n_vertices != n_vertices:
        raise ValueError(
            f"partition covers {pi.n_vertices} vertices, model has {n_vertices}"
        )


def build_graph_model(a: CsrMatrix) -> Hypergraph:
    """One 2-pin net (u, v), u < v, per symmetrized off-diagonal pair, in
    ascending (u, v) order; unit net costs; w(v_i) = row nnz."""
    if a.n_rows != a.n_cols:
        raise ValueError("matrix must be square")
    n = a.n_rows
    rows = np.repeat(np.arange(n, dtype=np.int64), a.row_nnz())
    off = rows != a.col_indices
    u, v = np.minimum(rows, a.col_indices)[off], np.maximum(rows, a.col_indices)[off]
    keys = unique_keys(u * n + v)  # one key per edge, sorted as the pairs (u, v) are
    pins = np.stack([keys // n, keys % n], axis=1).ravel()
    return Hypergraph(n, np.arange(0, len(pins) + 1, 2), pins, np.ones(len(keys)), a.row_nnz())


def build_hypergraph_model(a: CsrMatrix) -> Hypergraph:
    """Column-net model: net n_j pins the rows with a nonzero in column j."""
    if a.n_rows != a.n_cols:
        raise ValueError("matrix must be square")
    if not a.has_full_diagonal():
        raise ValueError("column-net model requires a full diagonal (self loops)")
    # the pins of net j are the columns of row j of A^T, ascending
    t = transpose_sparse(a)
    return Hypergraph(a.n_rows, t.row_offsets, t.col_indices, np.ones(a.n_cols), a.row_nnz())


def net_connectivity(h: Hypergraph, pi: Partition) -> np.ndarray:
    """lambda(n_j): number of distinct parts touched by each net's pins."""
    _check_assignment(h.n_vertices, pi)
    # one key per distinct (net, part) pair
    keys = unique_keys(h.net_of_pin() * pi.p + pi.assignment[h.pins])
    return np.bincount(keys // pi.p, minlength=h.n_nets)


def evaluate_hypergraph_cut(h: Hypergraph, pi: Partition) -> CutReport:
    """Connectivity cut: sum of cost(n_j) * (lambda(n_j) - 1)."""
    lam = net_connectivity(h, pi)
    cut = float((h.net_cost * (lam - 1)).sum())
    return CutReport(cut, lam)


# a 2-pin net's connectivity-1 cost is its edge's cut cost, so the graph
# model's edge cut is its hypergraph cut
evaluate_graph_cut = evaluate_hypergraph_cut


def predicted_total_volume(h: Hypergraph, pi: Partition, dims) -> int:
    """Scalar words moved in one full epoch (feedforward + backprop).

    Each cut net sends one feature row (d_{k-1} words) and one gradient row
    (d_k words) per layer to each of its lambda-1 remote parts, hence the
    per-net word cost sum_k (d_{k-1} + d_k).
    """
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ValueError("dims must list d_0..d_L for at least one layer")
    words_per_cut = sum(dims[k - 1] + dims[k] for k in range(1, len(dims)))
    lam = net_connectivity(h, pi)
    return int(((lam - 1) * h.net_cost).sum() * words_per_cut)


@dataclass(frozen=True)
class MiniBatchSpec:
    """Uniform vertex sampling without replacement, inducing the subgraph."""

    batch_size: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def sample_batches(n_vertices: int, spec: MiniBatchSpec, b: int, rng: np.random.Generator) -> np.ndarray:
    """b uniform batch_size-subsets of the vertices, one rng.choice draw
    each in turn, as the rows of a (b, batch_size) array, each row sorted."""
    batches = np.empty((b, spec.batch_size), dtype=np.int64)
    for t in range(b):
        batches[t] = rng.choice(n_vertices, size=spec.batch_size, replace=False)
    batches.sort(axis=1)
    return batches


def induced_pattern(a: CsrMatrix, batch: np.ndarray) -> CsrMatrix:
    """Vertex-induced sub-pattern with unit values and a full diagonal
    (self loops), as the column-net model requires, indexed by position
    within the sorted batch."""
    batch = np.asarray(batch, dtype=np.int64)
    if len(batch) == 0:
        raise ValueError("empty batch")
    sub = add_identity(restrict(a, batch, batch))
    # unit values (add_identity sums a diagonal the batch already had to 2)
    return CsrMatrix(sub.n_rows, sub.n_cols, sub.row_offsets, sub.col_indices, np.ones(sub.nnz))


def build_stochastic_hypergraph(
    a: CsrMatrix, sampler: MiniBatchSpec, b: int, seed: int
) -> Hypergraph:
    """Merged hypergraph over the full vertex set: the nets of the column-net
    models of b batches (sample_batches from default_rng([seed, 0xBA7C]))
    concatenated in batch order, pins mapped back to full-graph ids, with
    full-batch vertex weights."""
    if a.n_rows != a.n_cols:
        raise ValueError("matrix must be square")
    if b < 1:
        raise ValueError("need at least one batch")
    a_t = transpose_sparse(a)
    offsets, pins = [np.zeros(1, dtype=np.int64)], []
    for batch in sample_batches(a.n_rows, sampler, b, np.random.default_rng([int(seed), 0xBA7C])):
        # the batch's column nets are the rows of A^T[batch, batch] plus the
        # diagonal, so none is empty
        t = induced_pattern(a_t, batch)
        offsets.append(t.row_offsets[1:] + offsets[-1][-1])
        pins.append(batch[t.col_indices])  # batch ascends, so pins stay sorted
    offsets = np.concatenate(offsets)
    return Hypergraph(a.n_rows, offsets, np.concatenate(pins), np.ones(len(offsets) - 1),
                      a.row_nnz())


def hoeffding_min_nets(p: int, theta: float, delta: float) -> int:
    """Smallest net count estimating expected connectivity within theta
    at confidence 1 - delta: ceil((p-1)^2 / (2 theta^2) * ln(2/delta))."""
    if p < 2:
        raise ValueError("bound needs p >= 2 (with one part every connectivity is 1)")
    if not (theta > 0):
        raise ValueError("theta must be positive")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    return math.ceil((p - 1) ** 2 / (2.0 * theta**2) * math.log(2.0 / delta))
