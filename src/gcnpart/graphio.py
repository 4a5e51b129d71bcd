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

Every reader reads its file once through one tokenizer (_Text): it splits
lines and tokens exactly as open() and str.split() do, keeps the token
count of each line, and converts all data tokens to int64 in one numpy
call. Errors are found from those arrays: the first bad line is reported
as file:line, including integers beyond int64.
"""

from __future__ import annotations

import numpy as np

from .models import Hypergraph, Partition
from .sparse import CsrMatrix, check_key_range, unique_keys


class GraphParseError(ValueError):
    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")


# The characters str.split() and str.strip() take for whitespace (every
# c with c.isspace()); none lies above U+3000.
_SPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000"
_SPACE += "".join(map(chr, range(0x2000, 0x200B)))
_IS_SPACE = np.zeros(0x3002, dtype=bool)
_IS_SPACE[[ord(c) for c in _SPACE]] = True
_INT64_MAX = int(np.iinfo(np.int64).max)


def _int64(tokens) -> tuple[np.ndarray, np.ndarray]:
    """Tokens read as int() reads them, and a flag per token: 0 read, 1 not
    an integer, 2 an integer beyond int64 (its value is then clamped to
    +-(2**63 - 1)). One numpy call parses a clean file: numpy reads each
    string with int(), signs, '_', leading zeros and non-ASCII digits
    alike, and raises on a token that is no integer or overflows int64,
    after which the tokens are read and flagged one by one."""
    try:
        return np.array(tokens, dtype=np.int64), np.zeros(len(tokens), np.int8)
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(tokens), dtype=np.int64)  # a bad file: flag token by token
    flags = np.zeros(len(tokens), dtype=np.int8)
    for k, token in enumerate(tokens):
        try:
            value = int(token)
        except ValueError:
            flags[k] = 1
            continue
        if abs(value) > _INT64_MAX:
            flags[k], value = 2, _INT64_MAX if value > 0 else -_INT64_MAX
        values[k] = value
    return values, flags


class _Text:
    """A text file cut into lines and tokens the way open() and str.split()
    cut it: lines end at newlines after universal-newline translation, and
    tokens are separated by Python whitespace. Line i (0-based, file line
    i + 1) holds count[i] tokens, from token first[i] on; lead[:, i] holds
    the code points of the first two characters of the stripped line (0
    past its end). Readers find every error from these arrays."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            self.text = text = fh.read()
        self.path = path
        self.tokens = text.split()
        if text.isascii():
            codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        else:  # code points past the table are no whitespace, newline or lead
            codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
            codes = np.minimum(codes, len(_IS_SPACE) - 1)
        word = ~np.take(_IS_SPACE, codes)
        starts = np.flatnonzero(word & ~np.concatenate(([False], word[:-1])))
        newlines = np.flatnonzero(codes == ord("\n"))
        self.bounds = np.concatenate(([-1], newlines, [len(codes)]))
        line_of = np.searchsorted(newlines, starts)  # of each token
        self.count = np.bincount(line_of, minlength=len(newlines) + 1)
        self.first = np.cumsum(self.count) - self.count
        nonblank = self.count > 0
        at = starts[self.first[nonblank]]
        padded = np.append(codes, 0)
        self.lead = np.zeros((2, len(self.count)), dtype=codes.dtype)
        self.lead[0, nonblank], self.lead[1, nonblank] = padded[at], padded[at + 1]

    def starts_with(self, chars: str) -> np.ndarray:
        """Lines whose stripped text starts with one of chars."""
        return np.isin(self.lead[0], [ord(c) for c in chars])

    def raw(self, i: int) -> str:
        return self.text[self.bounds[i] + 1 : self.bounds[i + 1]]

    def stripped(self, i: int) -> str:
        return self.raw(i).strip()

    def ints(self, index) -> tuple[np.ndarray, np.ndarray]:
        """_int64 of the tokens at the given ascending indices."""
        index = np.asarray(index, dtype=np.int64)
        if len(index) and index[-1] - index[0] == len(index) - 1:  # one run of tokens
            return _int64(self.tokens[index[0] : index[-1] + 1])
        return _int64([self.tokens[k] for k in index.tolist()])

    def first_two(self, lines) -> tuple[np.ndarray, np.ndarray]:
        """ints of the first two tokens of each line given, as (m, 2) arrays."""
        values, flags = self.ints((self.first[lines][:, None] + np.arange(2)).ravel())
        return values.reshape(-1, 2), flags.reshape(-1, 2)

    def error(self, i: int, message: str) -> GraphParseError:
        return GraphParseError(self.path, i + 1, message)

    def fail_first(self, *checks) -> None:
        """Raise for the earliest line any check flags. checks are (lines,
        message) pairs in the order one line is checked, lines ascending,
        message a string or a function of the line."""
        hits = [(int(lines[0]), k) for k, (lines, _) in enumerate(checks) if len(lines)]
        if hits:
            i, k = min(hits)
            message = checks[k][1]
            raise self.error(i, message(i) if callable(message) else message)


def pattern_from_pairs(n: int, pairs: np.ndarray, directed: bool) -> CsrMatrix:
    """The n x n unit pattern of an (m, 2) array of (row, col) pairs."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(arr) and (arr.min() < 0 or arr.max() >= n):
        raise ValueError(f"vertex id out of range for n={n}")  # keys below would alias
    rows, cols = arr[:, 0], arr[:, 1]
    if not directed:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    check_key_range(n, n)
    keys = unique_keys(rows * n + cols)  # one key per distinct entry (r, c), in CSR order
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=offsets[1:])
    return CsrMatrix(n, n, offsets, keys % n, np.ones(len(keys)))


def read_edge_list(path, directed: bool = False) -> CsrMatrix:
    t = _Text(path)
    n_line = t.starts_with("nN") & (t.lead[1] == ord("="))
    data = np.flatnonzero((t.count > 0) & ~t.starts_with("#%") & ~n_line)
    pair = data[t.count[data] >= 2]
    uv, flags = t.first_two(pair)
    top = uv.max(axis=1, initial=-1)
    n_lines = np.flatnonzero(n_line)
    counts = [_vertex_count(t.stripped(i)) for i in n_lines.tolist()]
    bad_count = np.array([c is None for c in counts], dtype=bool)
    counts = np.array([0 if c is None else c for c in counts], dtype=np.int64)
    seen = np.maximum.accumulate(np.concatenate(([-1], top)))[np.searchsorted(pair, n_lines)]
    # the count in force on each pair line (which < 0 before any n= line)
    which = np.searchsorted(n_lines, pair) - 1
    declared = np.append(counts, -1)[which]
    t.fail_first(
        (data[t.count[data] < 2], lambda i: f"expected 'u v', got {t.stripped(i)!r}"),
        (pair[(flags == 1).any(axis=1)], lambda i: f"non-integer endpoint in {t.stripped(i)!r}"),
        (pair[(uv < 0).any(axis=1)], "negative vertex id"),
        (pair[(which >= 0) & (top >= declared)],
         lambda i: f"vertex id beyond declared n={declared[np.searchsorted(pair, i)]}"),
        (pair[(which < 0) & (flags == 2).any(axis=1)],
         lambda i: f"vertex id beyond int64 in {t.stripped(i)!r}"),
        (n_lines[bad_count], lambda i: f"bad vertex count {t.stripped(i)!r}"),
        (n_lines[seen >= counts],
         lambda i: f"vertex id {seen[np.searchsorted(n_lines, i)]} seen before {t.stripped(i)!r}"),
    )
    n = int(counts[-1]) if len(counts) else int(top.max(initial=-1)) + 1
    if n <= 0:
        raise GraphParseError(path, 0, "no vertices (empty file without an n= header)")
    return pattern_from_pairs(n, uv, directed)


def _vertex_count(line: str) -> int | None:
    """The count of an 'n=<count>' line; None unless an integer in int64."""
    try:
        n = int(line[2:])
    except ValueError:
        return None
    return n if abs(n) <= _INT64_MAX else None


def read_matrix_market(path) -> CsrMatrix:
    t = _Text(path)
    header = t.raw(0)
    if not header.startswith("%%MatrixMarket"):
        raise t.error(0, "missing %%MatrixMarket header")
    tokens = header.split()
    if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
        raise t.error(0, f"unsupported header {header.strip()!r}")
    field, symmetry = tokens[3], tokens[4]
    if field not in ("pattern", "real", "integer"):
        raise t.error(0, f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise t.error(0, f"unsupported symmetry {symmetry!r}")
    body = np.flatnonzero((t.count > 0) & ~t.starts_with("%"))  # the header starts with %
    if not len(body):
        raise GraphParseError(path, 0, "missing size line")
    size, entries = int(body[0]), body[1:]
    if t.count[size] != 3:
        raise t.error(size, "expected 'rows cols nnz'")
    dims, flags = t.ints(t.first[size] + np.arange(3))
    if flags.any():
        bad_size = "expected 'rows cols nnz'" if (flags == 1).any() else "matrix size beyond int64"
        raise t.error(size, bad_size)
    pair = entries[t.count[entries] >= 2]
    ij, flags = t.first_two(pair)
    ij -= 1
    t.fail_first(
        (entries[t.count[entries] < 2], lambda i: f"bad entry {t.stripped(i)!r}"),
        (pair[(flags == 1).any(axis=1)], lambda i: f"non-integer index in {t.stripped(i)!r}"),
        (pair[(flags == 2).any(axis=1) | (ij < 0).any(axis=1) | (ij >= dims[:2]).any(axis=1)],
         "index out of declared range"),
    )
    if len(entries) != dims[2]:
        raise t.error(size, f"size line declares {dims[2]} entries, file lists {len(entries)}")
    if dims[0] != dims[1]:
        raise GraphParseError(path, 0, "adjacency matrix must be square")
    return pattern_from_pairs(int(dims[0]), ij, directed=symmetry == "general")


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
    """Blank lines are skipped; errors name the file line they were found on.
    Pins are sorted and deduplicated per net by one sort of the keys
    net * n_vertices + pin."""
    t = _Text(path)
    lines = np.flatnonzero(t.count > 0)
    if not len(lines):
        raise GraphParseError(path, 0, "empty hypergraph file")
    head, bad = t.ints(t.first[lines[0]] + np.arange(t.count[lines[0]]))
    if len(head) != 2 or bad.any() or head[1] < 0:
        raise t.error(lines[0], "header must be 'n_vertices n_nets'")
    n_vertices, n_nets = int(head[0]), int(head[1])
    if len(lines) < 1 + n_nets:
        raise t.error(lines[-1], f"expected {n_nets} net lines")
    nets, weight_line = lines[1 : 1 + n_nets], lines[1 + n_nets : 2 + n_nets]
    # blank lines hold no tokens: the pins, then the weights, are one run
    lo = t.first[lines[0]] + 2
    n_pins = int(t.count[nets].sum())
    values, flags = t.ints(np.arange(lo, lo + n_pins + t.count[weight_line].sum()))
    pins, weights, weight_flags = values[:n_pins], values[n_pins:], flags[n_pins:]
    starts = np.cumsum(t.count[nets]) - t.count[nets]  # each net's first pin
    low, high = np.minimum.reduceat(pins, starts), np.maximum.reduceat(pins, starts)

    def outside(i):  # the lowest pin when negative, else the highest
        j = int(np.searchsorted(nets, i))
        net = [int(x) for x in t.tokens[lo + starts[j] : lo + starts[j] + t.count[i]]]
        return f"pin {min(net) if min(net) < 0 else max(net)} outside 0..{n_vertices - 1}"

    def if_weights(failed: bool):  # the weight line when it fails a check
        return weight_line if failed else weight_line[:0]

    t.fail_first(
        (nets[np.logical_or.reduceat(flags[:n_pins] == 1, starts)], "non-integer pin"),
        (nets[(low < 0) | (high >= n_vertices)], outside),
        (if_weights((weight_flags == 1).any()), "non-integer vertex weight"),
        (if_weights((weight_flags == 2).any()), "vertex weight beyond int64"),
        (if_weights(len(weights) != n_vertices), "weight line has wrong length"),
    )
    if not len(weight_line):
        weights = np.ones(n_vertices, dtype=np.int64)
    keys = unique_keys(np.repeat(np.arange(n_nets), t.count[nets]) * n_vertices + pins)
    offsets = np.searchsorted(keys, np.arange(n_nets + 1) * n_vertices)
    return Hypergraph(n_vertices, offsets, keys % max(n_vertices, 1), np.ones(n_nets), weights)


def write_partition(path, pi: Partition) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for part in pi.assignment:
            fh.write(f"{int(part)}\n")


def read_partition_ids(path) -> np.ndarray:
    """One part id per line; p is inferred as max id + 1."""
    t = _Text(path)
    lines = np.flatnonzero((t.count > 0) & ~t.starts_with("#%"))
    ids, flags = t.ints(t.first[lines])
    bad = lines[(t.count[lines] != 1) | (flags != 0)]
    t.fail_first((bad, lambda i: f"bad part id {t.stripped(i)!r}"))
    if not len(ids):
        raise GraphParseError(path, 0, "empty partition file")
    return ids


def read_partition(path, weights, epsilon: float) -> Partition:
    ids = read_partition_ids(path)
    if len(ids) != len(weights):
        raise ValueError(
            f"partition file covers {len(ids)} vertices, graph has {len(weights)}"
        )
    return Partition.from_assignment(ids, weights, int(ids.max()) + 1, epsilon)
