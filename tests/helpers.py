"""Shared graph generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own kernels: dense numpy
reference products, brute-force connectivity counts, exhaustive balanced
bipartition search, and central finite differences.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from gcnpart import CsrMatrix, Hypergraph, LabelSet, Partition, normalize_adjacency


def hypergraph_from_nets(n_vertices: int, nets, net_cost, vertex_weight) -> Hypergraph:
    """A Hypergraph from one sorted, distinct pin list per net."""
    nets = [np.asarray(pins, dtype=np.int64) for pins in nets]
    offsets = np.cumsum([0] + [len(pins) for pins in nets])
    pins = np.concatenate([np.zeros(0, dtype=np.int64), *nets])
    return Hypergraph(n_vertices, offsets, pins, net_cost, vertex_weight)


# ---------------------------------------------------------------------------
# input files


def write_matrix_market(path, a: CsrMatrix) -> None:
    """a's pattern in MatrixMarket coordinate general form (1-based)."""
    rows = np.repeat(np.arange(a.n_rows), a.row_nnz()).tolist()
    entries = "".join(f"{i + 1} {j + 1}\n" for i, j in zip(rows, a.col_indices.tolist()))
    head = f"%%MatrixMarket matrix coordinate pattern general\n{a.n_rows} {a.n_cols} {a.nnz}\n"
    Path(path).write_text(head + entries, encoding="utf-8")


def write_partition(path, pi: Partition) -> None:
    """A partition file: one part id per line."""
    Path(path).write_text("".join(f"{part}\n" for part in pi.assignment.tolist()), encoding="utf-8")


# ---------------------------------------------------------------------------
# generators


def grid_graph(rows: int, cols: int) -> CsrMatrix:
    """Undirected 2D grid adjacency pattern (no self loops)."""
    r, c = [], []

    def vid(i, j):
        return i * cols + j

    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                r.append(vid(i, j))
                c.append(vid(i, j + 1))
            if i + 1 < rows:
                r.append(vid(i, j))
                c.append(vid(i + 1, j))
    rr = np.array(r + c)
    cc = np.array(c + r)
    n = rows * cols
    return CsrMatrix.from_coo(n, n, rr, cc)


def two_community_graph(side: int, seed: int, cross_edges: int = 8) -> CsrMatrix:
    """Two sparse grid communities joined by a few seeded cross edges.

    Sparse locality matters here: a partitioner that respects the
    community structure needs few message pairs, while random placement
    saturates them.
    """
    rng = np.random.default_rng([seed, 0xC0])
    block = grid_graph(side, side)
    n_per = side * side
    n = 2 * n_per
    row_of = np.repeat(np.arange(n_per), block.row_nnz())
    rows = np.concatenate([row_of, row_of + n_per])
    cols = np.concatenate([block.col_indices, block.col_indices + n_per])
    extra_r, extra_c = [], []
    for _ in range(cross_edges):
        u = int(rng.integers(0, n_per))
        v = int(rng.integers(n_per, n))
        extra_r += [u, v]
        extra_c += [v, u]
    rows = np.concatenate([rows, extra_r]).astype(np.int64)
    cols = np.concatenate([cols, extra_c]).astype(np.int64)
    return CsrMatrix.from_coo(n, n, rows, cols, np.ones(len(rows)))


def chung_lu_graph(n: int, avg_degree: float, exponent: float, seed: int) -> CsrMatrix:
    """Undirected power-law pattern after Chung & Lu (PNAS 2002).

    Vertex i gets expected degree w_i proportional to (i + 1)^(-1/(exponent-1)),
    scaled to mean avg_degree. n * avg_degree / 2 edges are drawn with
    both endpoints chosen proportionally to w; self loops and repeated
    edges are dropped, so degrees come out slightly below w. Vertex 0 is
    the hub."""
    rng = np.random.default_rng([seed, 0xC1])
    w = (np.arange(n) + 1.0) ** (-1.0 / (exponent - 1.0))
    w *= avg_degree * n / w.sum()
    m = int(round(w.sum() / 2))
    u, v = rng.choice(n, size=(2, m), p=w / w.sum())
    keep = u != v
    u, v = u[keep], v[keep]
    a = CsrMatrix.from_coo(n, n, np.concatenate([u, v]), np.concatenate([v, u]))
    return CsrMatrix(n, n, a.row_offsets, a.col_indices, np.ones(a.nnz))


def random_undirected(n: int, density: float, seed: int) -> CsrMatrix:
    rng = np.random.default_rng([seed, 0xD1])
    mask = np.triu(rng.random((n, n)) < density, 1)
    rows, cols = np.nonzero(mask | mask.T)
    return CsrMatrix.from_coo(n, n, rows, cols)


def random_directed(n: int, density: float, seed: int) -> CsrMatrix:
    rng = np.random.default_rng([seed, 0xD2])
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    return CsrMatrix.from_coo(n, n, rows, cols)


def random_labels(n: int, n_classes: int, count: int, seed: int) -> LabelSet:
    rng = np.random.default_rng([seed, 0x1A])
    ids = np.sort(rng.choice(n, size=count, replace=False))
    return LabelSet(ids, rng.integers(0, n_classes, size=count), n_classes)


def connected_undirected(n: int, density: float, seed: int) -> CsrMatrix:
    """Random undirected graph plus a ring, so every degree is >= 2."""
    base = random_undirected(n, density, seed)
    ring_r = np.arange(n)
    ring_c = (np.arange(n) + 1) % n
    rows = np.concatenate(
        [np.repeat(np.arange(n), base.row_nnz()), ring_r, ring_c]
    )
    cols = np.concatenate([base.col_indices, ring_c, ring_r])
    return CsrMatrix.from_coo(n, n, rows, cols, np.ones(len(rows)))


def figure_instance_overcount():
    """Six-vertex undirected instance where the graph model overcounts.

    With parts {v1,v2}, {v3,v4}, {v5,v6} (1-indexed): vertex 1 has row nnz
    3; column 2's net pins {1,2,4,6} touching all three parts; vertex 4's
    features are consumed by 2,3,5,6, so the undirected model counts 3 cut
    edges at v4 while only 2 row transfers happen.

    Returns (normalized adjacency, assignment array), 0-indexed.
    """
    edges = [(0, 1), (0, 2), (1, 3), (1, 5), (2, 3), (3, 4), (3, 5)]
    rows = [u for u, v in edges] + [v for u, v in edges]
    cols = [v for u, v in edges] + [u for u, v in edges]
    a = CsrMatrix.from_coo(6, 6, rows, cols)
    a_hat = normalize_adjacency(a)
    assignment = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
    return a_hat, assignment


def three_processor_transfer_instance():
    """Directed 6-vertex instance: rank 2 owns rows {4,5}; row 4 references
    rows 0 and 3; row 5 references 1 and 3, so rank 0 ships rows {0,1} and
    rank 1 ships row 3 exactly once.

    Returns (matrix with full diagonal, assignment array), 0-indexed.
    """
    entries = [(4, 0), (4, 3), (5, 1), (5, 3)] + [(i, i) for i in range(6)]
    rows = [e[0] for e in entries]
    cols = [e[1] for e in entries]
    a = CsrMatrix.from_coo(6, 6, rows, cols)
    assignment = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
    return a, assignment


# ---------------------------------------------------------------------------
# oracles


def dense_spmm_oracle(a: CsrMatrix, h: np.ndarray) -> np.ndarray:
    return a.to_dense() @ h


def brute_force_lambda(pins, assignment) -> int:
    return len({int(assignment[v]) for v in pins})


def brute_force_hypergraph_cut(nets, assignment) -> int:
    return sum(brute_force_lambda(p, assignment) - 1 for p in nets)


def brute_force_best_bipartition(nets, weights, epsilon: float) -> int:
    """Exhaustive minimum connectivity-1 cut over balanced bipartitions."""
    n = len(weights)
    total = float(np.sum(weights))
    cap = (1.0 + epsilon) * total / 2.0
    best = None
    for bits in itertools.product((0, 1), repeat=n):
        side = np.array(bits)
        if side.sum() in (0, n):
            continue
        w1 = float(np.sum(np.asarray(weights)[side == 1]))
        if w1 > cap or total - w1 > cap:
            continue
        cut = brute_force_hypergraph_cut(nets, side)
        best = cut if best is None else min(best, cut)
    return best


def brute_force_best_graph_bipartition(edges, weights, epsilon: float) -> int:
    n = len(weights)
    total = float(np.sum(weights))
    cap = (1.0 + epsilon) * total / 2.0
    best = None
    for bits in itertools.product((0, 1), repeat=n):
        side = np.array(bits)
        if side.sum() in (0, n):
            continue
        w1 = float(np.sum(np.asarray(weights)[side == 1]))
        if w1 > cap or total - w1 > cap:
            continue
        cut = sum(1 for (u, v) in edges if side[u] != side[v])
        best = cut if best is None else min(best, cut)
    return best


def central_difference(f, x0: float, step: float = 1e-6) -> float:
    return (f(x0 + step) - f(x0 - step)) / (2.0 * step)
