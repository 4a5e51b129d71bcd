"""File formats: edge lists, MatrixMarket patterns, hypergraph and
partition text files.

Edge list: whitespace-separated "u v" pairs, 0-based; '#' and '%' start
comments; an optional "n=<count>" line declares the vertex count (needed
for graphs with isolated trailing vertices or empty edge sets).

MatrixMarket: coordinate format, 1-based, pattern or real, general or
symmetric.

Hypergraph text: header "n_vertices n_nets", one space-separated pin list
per line, then an optional vertex-weight line. Partition files carry one
part id per line, so third-party partitioners can be plugged in.
"""

from __future__ import annotations

import numpy as np

from .models import Hypergraph, Partition
from .sparse import CsrMatrix, unique_keys


class GraphParseError(ValueError):
    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")


def _pattern_from_pairs(n: int, pairs: list[tuple[int, int]], directed: bool) -> CsrMatrix:
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(arr) and (arr.min() < 0 or arr.max() >= n):
        raise ValueError(f"vertex id out of range for n={n}")  # keys below would alias
    rows, cols = arr[:, 0], arr[:, 1]
    if not directed:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    keys = unique_keys(rows * n + cols)  # one key per distinct entry (r, c)
    return CsrMatrix.from_coo(n, n, keys // n, keys % n, np.ones(len(keys)))


def read_edge_list(path, directed: bool = False) -> CsrMatrix:
    pairs: list[tuple[int, int]] = []
    declared_n = None
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            if line.lower().startswith("n="):
                try:
                    declared_n = int(line[2:])
                except ValueError:
                    raise GraphParseError(path, line_no, f"bad vertex count {line!r}")
                if max_id >= declared_n:
                    raise GraphParseError(path, line_no, f"vertex id {max_id} seen before {line!r}")
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphParseError(path, line_no, f"expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(path, line_no, f"non-integer endpoint in {line!r}")
            if u < 0 or v < 0:
                raise GraphParseError(path, line_no, "negative vertex id")
            if declared_n is not None and (u >= declared_n or v >= declared_n):
                raise GraphParseError(path, line_no, f"vertex id beyond declared n={declared_n}")
            pairs.append((u, v))
            max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    if n <= 0:
        raise GraphParseError(path, 0, "no vertices (empty file without an n= header)")
    return _pattern_from_pairs(n, pairs, directed)


def read_matrix_market(path) -> CsrMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphParseError(path, 1, "missing %%MatrixMarket header")
        tokens = header.strip().split()
        if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
            raise GraphParseError(path, 1, f"unsupported header {header.strip()!r}")
        field, symmetry = tokens[3], tokens[4]
        if field not in ("pattern", "real", "integer"):
            raise GraphParseError(path, 1, f"unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise GraphParseError(path, 1, f"unsupported symmetry {symmetry!r}")
        dims = None
        entries: list[tuple[int, int]] = []
        for line_no, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            parts = line.split()
            if dims is None:
                if len(parts) != 3:
                    raise GraphParseError(path, line_no, "expected 'rows cols nnz'")
                dims = (int(parts[0]), int(parts[1]), int(parts[2]))
                continue
            if len(parts) < 2:
                raise GraphParseError(path, line_no, f"bad entry {line!r}")
            try:
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
            except ValueError:
                raise GraphParseError(path, line_no, f"non-integer index in {line!r}")
            if i < 0 or j < 0 or i >= dims[0] or j >= dims[1]:
                raise GraphParseError(path, line_no, "index out of declared range")
            entries.append((i, j))
        if dims is None:
            raise GraphParseError(path, 0, "missing size line")
    if dims[0] != dims[1]:
        raise GraphParseError(path, 0, "adjacency matrix must be square")
    return _pattern_from_pairs(dims[0], entries, directed=symmetry == "general")


def write_matrix_market(path, a: CsrMatrix) -> None:
    """Write the pattern in coordinate general form (1-based)."""
    rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_nnz())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n")
        fh.write(f"{a.n_rows} {a.n_cols} {a.nnz}\n")
        for i, j in zip(rows, a.col_indices):
            fh.write(f"{i + 1} {j + 1}\n")


FORMATS = ("edge_list", "matrix_market")


def load_graph(path, fmt: str, directed: bool = False) -> CsrMatrix:
    """Adjacency pattern with unit values; duplicates collapsed."""
    if fmt == "edge_list":
        return read_edge_list(path, directed=directed)
    if fmt == "matrix_market":
        return read_matrix_market(path)
    raise ValueError(f"unknown graph format {fmt!r} (choose from {FORMATS})")


# ---------------------------------------------------------------------------
# hypergraph and partition text formats


def write_hypergraph(path, h: Hypergraph, with_weights: bool = True) -> None:
    pins, offsets = h.pins.tolist(), h.offsets.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{h.n_vertices} {h.n_nets}\n")
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            fh.write(" ".join(map(str, pins[lo:hi])) + "\n")
        if with_weights:
            fh.write(" ".join(map(str, h.vertex_weight.tolist())) + "\n")


def read_hypergraph(path) -> Hypergraph:
    """Blank lines are skipped; errors name the file line they were found on."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise GraphParseError(path, 0, "empty hypergraph file")
    try:
        n_vertices, n_nets = (int(x) for x in lines[0][1].split())
    except ValueError:
        raise GraphParseError(path, lines[0][0], "header must be 'n_vertices n_nets'")
    if len(lines) < 1 + n_nets:
        raise GraphParseError(path, lines[-1][0], f"expected {n_nets} net lines")
    nets = []
    for line_no, line in lines[1 : 1 + n_nets]:
        try:
            pins = sorted({int(x) for x in line.split()})
        except ValueError:
            raise GraphParseError(path, line_no, "non-integer pin")
        if pins[0] < 0 or pins[-1] >= n_vertices:
            bad = pins[0] if pins[0] < 0 else pins[-1]
            raise GraphParseError(path, line_no, f"pin {bad} outside 0..{n_vertices - 1}")
        nets.append(pins)
    if len(lines) > 1 + n_nets:
        line_no, line = lines[1 + n_nets]
        try:
            weights = np.array([int(x) for x in line.split()], dtype=np.int64)
        except ValueError:
            raise GraphParseError(path, line_no, "non-integer vertex weight")
        if len(weights) != n_vertices:
            raise GraphParseError(path, line_no, "weight line has wrong length")
    else:
        weights = np.ones(n_vertices, dtype=np.int64)
    return Hypergraph.from_nets(n_vertices, nets, np.ones(n_nets), weights)


def write_partition(path, pi: Partition) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for part in pi.assignment:
            fh.write(f"{int(part)}\n")


def read_partition_ids(path) -> np.ndarray:
    """One part id per line; p is inferred as max id + 1."""
    ids = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            try:
                ids.append(int(line))
            except ValueError:
                raise GraphParseError(path, line_no, f"bad part id {line!r}")
    if not ids:
        raise GraphParseError(path, 0, "empty partition file")
    return np.asarray(ids, dtype=np.int64)


def read_partition(path, weights, epsilon: float) -> Partition:
    ids = read_partition_ids(path)
    if len(ids) != len(weights):
        raise ValueError(
            f"partition file covers {len(ids)} vertices, graph has {len(weights)}"
        )
    return Partition.from_assignment(ids, weights, int(ids.max()) + 1, epsilon)
