"""File formats: edge lists, MatrixMarket patterns and partition files.

Edge list: whitespace-separated "u v" pairs, 0-based; '#' and '%' start
comments; an optional "n=<count>" line declares the vertex count (needed
for graphs with isolated trailing vertices or empty edge sets).

MatrixMarket: coordinate format, 1-based, pattern or real, general or
symmetric.

Partition file: one part id per line, so third-party partitioners can be
plugged in ('#' and '%' start comments).

Every reader reads its file once through one tokenizer (_Text): it splits
lines and tokens exactly as open() and str.split() do, keeping each
token's start and end offset and the token count of each line, and reads
integer tokens from the character codes. A plain token (an optional ASCII
sign and 1 to 18 ASCII digits) is read by vectorized Horner steps, one per
digit position; any other is read as int() reads it. No str is made per
plain token, so a load's memory grows with the file's bytes. Errors are
found from those arrays: the first bad line is reported as file:line,
including integers beyond int64.
"""

from __future__ import annotations

import numpy as np

from .models import Partition
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
_INT64_MIN = int(np.iinfo(np.int64).min)
_PLAIN_DIGITS = 18  # 10**18 - 1 < 2**63: a plain token always fits int64


def _int64(tokens) -> tuple[np.ndarray, np.ndarray]:
    """Tokens read as int() reads them (signs, '_', leading zeros and
    non-ASCII digits alike), and a flag per token: 0 read, 1 not an
    integer, 2 an integer outside int64 (its value is then clamped to
    +-(2**63 - 1)). _Text.ints reads plain tokens itself and hands only
    the others here, one by one."""
    values = np.zeros(len(tokens), dtype=np.int64)
    flags = np.zeros(len(tokens), dtype=np.int8)
    for k, token in enumerate(tokens):
        try:
            value = int(token)
        except ValueError:
            flags[k] = 1
            continue
        if not _INT64_MIN <= value <= _INT64_MAX:
            flags[k], value = 2, _INT64_MAX if value > 0 else -_INT64_MAX
        values[k] = value
    return values, flags


class _Text:
    """A text file cut into lines and tokens the way open() and str.split()
    cut it: lines end at newlines after universal-newline translation, and
    tokens are separated by Python whitespace. Token k is
    text[start[k]:end[k]], taken from the edges of the file's non-space
    characters; line i (0-based, file line i + 1) holds count[i] tokens,
    from token first[i] on; lead[:, i] holds the code points of the first
    two characters of the stripped line (0 past its end). No token is kept
    as a str: ints() reads them from the character codes, and readers find
    every error from these arrays."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            self.text = text = fh.read()
        self.path = path
        if text.isascii():  # whitespace is 9-13 and 28-32; unsigned codes below wrap past 4
            codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
            space = ((codes - 9) <= 4) | ((codes - 28) <= 4)
        else:  # code points past the table are no whitespace, newline, lead or digit
            codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
            codes = np.minimum(codes, len(_IS_SPACE) - 1)
            space = np.take(_IS_SPACE, codes)
        self.codes = codes
        word = np.zeros(len(codes) + 2, dtype=bool)  # padded with a space at each end
        np.logical_not(space, out=word[1:-1])
        edges = np.flatnonzero(word[1:] != word[:-1])  # each token's start, then its end
        self.start, self.end = edges[0::2], edges[1::2]
        newlines = np.flatnonzero(codes == ord("\n"))
        self.bounds = np.concatenate(([-1], newlines, [len(codes)]))
        # no token starts on a newline: the tokens before each one end its line
        self.first = np.concatenate(([0], np.searchsorted(self.start, newlines)))
        self.count = np.diff(self.first, append=len(self.start))
        at = self.start[self.first[self.count > 0]]
        self.lead = np.zeros((2, len(self.count)), dtype=codes.dtype)
        second = np.where(at + 1 < len(codes), np.take(codes, at + 1, mode="clip"), 0)
        self.lead[:, self.count > 0] = codes[at], second

    def starts_with(self, chars: str) -> np.ndarray:
        """Lines whose stripped text starts with one of chars."""
        return np.isin(self.lead[0], [ord(c) for c in chars])

    def raw(self, i: int) -> str:
        return self.text[self.bounds[i] + 1 : self.bounds[i + 1]]

    def stripped(self, i: int) -> str:
        return self.raw(i).strip()

    def token(self, k: int) -> str:
        return self.text[self.start[k] : self.end[k]]

    def ints(self, index) -> tuple[np.ndarray, np.ndarray]:
        """_int64 of the tokens at the given indices. A plain token, an
        optional ASCII sign and 1 to 18 ASCII digits, always fits int64 and
        is read here, one Horner step over the character codes per digit
        position; any other token (non-ASCII digits, '_', 19 or more
        digits, junk) goes through _int64 on its slice of the text, so
        values and flags are _int64's either way."""
        index = np.asarray(index, dtype=np.int64)
        lo, hi = self.start[index], self.end[index]
        sign = self.codes[lo]
        size = hi - lo - ((sign == ord("+")) | (sign == ord("-")))  # digits after any sign
        plain = (size >= 1) & (size <= _PLAIN_DIGITS)
        values = np.zeros(len(index), dtype=np.int64)
        # right-aligned: step j reads the j-th code before each token's end,
        # counted as 0 when it lies before the digits (or the file)
        for j in range(int(size.max(initial=0, where=plain)), 0, -1):
            digit = np.take(self.codes, hi - j, mode="clip") - ord("0")
            digit *= size >= j
            plain &= digit <= 9  # unsigned: a code below '0' wraps past 9
            values *= 10
            values += digit
        np.negative(values, out=values, where=sign == ord("-"))
        flags = np.zeros(len(index), dtype=np.int8)
        other = np.flatnonzero(~plain)
        if len(other):
            values[other], flags[other] = _int64([self.token(k) for k in index[other].tolist()])
        return values, flags

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


def _either(mask: np.ndarray) -> np.ndarray:
    """mask.any(axis=1) of an (m, 2) mask, without numpy's per-row cost of
    reducing a short axis."""
    return mask[:, 0] | mask[:, 1]


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
    top = np.maximum(uv[:, 0], uv[:, 1])
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
        (pair[_either(flags == 1)], lambda i: f"non-integer endpoint in {t.stripped(i)!r}"),
        (pair[_either(uv < 0)], "negative vertex id"),
        (pair[(which >= 0) & (top >= declared)],
         lambda i: f"vertex id beyond declared n={declared[np.searchsorted(pair, i)]}"),
        (pair[(which < 0) & _either(flags == 2)],
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
    return n if _INT64_MIN <= n <= _INT64_MAX else None


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
    if (dims[:2] < 0).any():
        raise t.error(size, "negative matrix size")
    pair = entries[t.count[entries] >= 2]
    ij, flags = t.first_two(pair)
    ij -= 1
    t.fail_first(
        (entries[t.count[entries] < 2], lambda i: f"bad entry {t.stripped(i)!r}"),
        (pair[_either(flags == 1)], lambda i: f"non-integer index in {t.stripped(i)!r}"),
        (pair[_either((flags == 2) | (ij < 0) | (ij >= dims[:2]))],
         "index out of declared range"),
    )
    if len(entries) != dims[2]:
        raise t.error(size, f"size line declares {dims[2]} entries, file lists {len(entries)}")
    if dims[0] != dims[1]:
        raise GraphParseError(path, 0, "adjacency matrix must be square")
    return pattern_from_pairs(int(dims[0]), ij, directed=symmetry == "general")


FORMATS = ("edge_list", "matrix_market")


def load_graph(path, fmt: str, directed: bool = False) -> CsrMatrix:
    """Adjacency pattern with unit values; duplicates collapsed."""
    if fmt == "edge_list":
        return read_edge_list(path, directed=directed)
    if fmt == "matrix_market":
        return read_matrix_market(path)
    raise ValueError(f"unknown graph format {fmt!r} (choose from {FORMATS})")


# ---------------------------------------------------------------------------
# partition files


def read_partition_ids(path, p: int) -> np.ndarray:
    """One part id in [0, p) per line."""
    t = _Text(path)
    lines = np.flatnonzero((t.count > 0) & ~t.starts_with("#%"))
    ids, flags = t.ints(t.first[lines])
    bad = (t.count[lines] != 1) | (flags != 0) | (ids < 0)
    t.fail_first((lines[bad], lambda i: f"bad part id {t.stripped(i)!r}"),
                 (lines[~bad & (ids >= p)], lambda i: f"bad part id {t.stripped(i)!r} for p={p}"))
    if not len(ids):
        raise GraphParseError(path, 0, "empty partition file")
    return ids


def read_partition(path, weights, p: int, epsilon: float) -> Partition:
    """The p-way partition a file lists, one id in [0, p) per vertex, each
    part given at least one vertex."""
    ids = read_partition_ids(path, p)
    if len(ids) != len(weights):
        raise ValueError(
            f"partition file covers {len(ids)} vertices, graph has {len(weights)}"
        )
    empty = np.flatnonzero(np.bincount(ids, minlength=p) == 0)
    if len(empty):
        raise GraphParseError(path, 0, f"part {int(empty[0])} of p={p} has no vertex")
    return Partition.from_assignment(ids, weights, p, epsilon)
