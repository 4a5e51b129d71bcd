"""Graph and partition file formats."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnpart import CsrMatrix, Partition
from gcnpart.graphio import (
    _SPACE,
    _INT64_MAX,
    GraphParseError,
    _Text,
    _int64,
    pattern_from_pairs,
    load_graph,
    read_edge_list,
    read_matrix_market,
    read_partition,
    read_partition_ids,
)

from helpers import write_matrix_market, write_partition


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

    @pytest.mark.parametrize("body", ["-3 -3 0\n", "3 -3 1\n1 1\n", "-1 2 -1\n"])
    def test_negative_size_carries_line_number(self, tmp_path, body):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n" + body)
        with pytest.raises(GraphParseError, match="^" + re.escape(f"{path}:2: negative matrix size")):
            read_matrix_market(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("2 2 0\n")
        with pytest.raises(GraphParseError, match="header"):
            read_matrix_market(path)

    @pytest.mark.parametrize("listed", [0, 3, 9])
    def test_entry_count_must_match_size_line(self, tmp_path, listed):
        path = tmp_path / "m.mtx"
        entries = "".join(f"{1 + i % 3} {1 + i // 3}\n" for i in range(listed))
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n% c\n3 3 4\n" + entries
        )
        with pytest.raises(GraphParseError, match=f":3: size line declares 4 entries, file lists {listed}"):
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
        got = pattern_from_pairs(n, pairs, directed)
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
            pattern_from_pairs(3, [(0, 5)], directed=True)
        with pytest.raises(ValueError, match="out of range"):
            pattern_from_pairs(3, [(-1, 2)], directed=False)

    def test_load_graph_dispatch(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        assert load_graph(path, "edge_list").nnz == 2
        with pytest.raises(ValueError, match="unknown graph format"):
            load_graph(path, "adjacency_soup")


class TestPartitionFormat:
    def test_round_trip(self, tmp_path):
        weights = np.array([1, 2, 1, 2], dtype=np.int64)
        pi = Partition.from_assignment(np.array([0, 1, 1, 0]), weights, 2, 0.5)
        path = tmp_path / "p.txt"
        write_partition(path, pi)
        back = read_partition(path, weights, 2, 0.5)
        assert np.array_equal(back.assignment, pi.assignment)
        assert back.p == 2

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\n1\n")
        with pytest.raises(ValueError, match="covers 2 vertices"):
            read_partition(path, np.ones(3, dtype=np.int64), 2, 0.5)

    def test_bad_id_carries_line_number(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\nx\n")
        with pytest.raises(GraphParseError, match=":2:"):
            read_partition_ids(path, 2)

    def test_negative_id_carries_line_number(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\n-1\n1\n")
        with pytest.raises(GraphParseError, match="^" + re.escape(f"{path}:2: bad part id '-1'")):
            read_partition(path, np.ones(3, dtype=np.int64), 2, 0.5)

    def test_id_not_below_p_carries_line_number(self, tmp_path):
        # rejected at its line before anything is sized by the largest id
        path = tmp_path / "p.txt"
        path.write_text("0\n1\n% note\n1000000000000\n")
        with pytest.raises(GraphParseError, match="^" + re.escape(f"{path}:4: bad part id '1000000000000' for p=2")):
            read_partition(path, np.ones(3, dtype=np.int64), 2, 0.5)
        assert list(read_partition_ids(path, 10**12 + 1)) == [0, 1, 10**12]

    def test_part_without_vertex_names_file_and_part(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\n2\n0\n")
        with pytest.raises(GraphParseError, match="^" + re.escape(f"{path}:0: part 1 of p=3 has no vertex")):
            read_partition(path, np.ones(3, dtype=np.int64), 3, 0.5)


# ---------------------------------------------------------------------------
# the line-by-line readers the bulk tokenizer replaced, kept as references;
# integers outside int64 are errors at their line

_INT64_MIN = -_INT64_MAX - 1


def reference_edge_list(path, directed: bool = False) -> CsrMatrix:
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
                if not _INT64_MIN <= declared_n <= _INT64_MAX:
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
            if max(u, v) > _INT64_MAX:
                raise GraphParseError(path, line_no, f"vertex id beyond int64 in {line!r}")
            pairs.append((u, v))
            max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    if n <= 0:
        raise GraphParseError(path, 0, "no vertices (empty file without an n= header)")
    return pattern_from_pairs(n, pairs, directed)


def reference_matrix_market(path) -> CsrMatrix:
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
                try:
                    if len(parts) != 3:
                        raise ValueError
                    dims = (int(parts[0]), int(parts[1]), int(parts[2]))
                except ValueError:
                    raise GraphParseError(path, line_no, "expected 'rows cols nnz'")
                if not all(_INT64_MIN <= x <= _INT64_MAX for x in dims):
                    raise GraphParseError(path, line_no, "matrix size beyond int64")
                if dims[0] < 0 or dims[1] < 0:
                    raise GraphParseError(path, line_no, "negative matrix size")
                size_line = line_no
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
    if len(entries) != dims[2]:
        raise GraphParseError(
            path, size_line, f"size line declares {dims[2]} entries, file lists {len(entries)}"
        )
    if dims[0] != dims[1]:
        raise GraphParseError(path, 0, "adjacency matrix must be square")
    return pattern_from_pairs(dims[0], entries, directed=symmetry == "general")


def reference_partition_ids(path, p) -> np.ndarray:
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
            if not 0 <= ids[-1] <= _INT64_MAX:
                raise GraphParseError(path, line_no, f"bad part id {line!r}")
            if ids[-1] >= p:
                raise GraphParseError(path, line_no, f"bad part id {line!r} for p={p}")
    if not ids:
        raise GraphParseError(path, 0, "empty partition file")
    return np.asarray(ids, dtype=np.int64)


def outcome(read, path):
    """What a reader makes of a file: its arrays, or its exception."""
    try:
        got = read(path)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    if isinstance(got, CsrMatrix):
        return got.shape, got.row_offsets.tolist(), got.col_indices.tolist(), got.values.tolist()
    return got.dtype, got.tolist()


# Random file pieces: separators and line ends the readers must take alike.
# \x85, \x1e and \u2028 end lines for str.splitlines() but not for open().
SEPS = st.sampled_from(
    [" ", "  ", "\t", " \t ", "\u00a0", "\u2003", "\x0c", "\x85", "\x1e", "\u2028"])
ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@st.composite
def number(draw, lo, hi):
    """An integer in [lo, hi], sometimes written in another form int() reads."""
    value = draw(st.integers(lo, hi))
    form = draw(st.sampled_from(["plain"] * 5 + ["plus", "zero", "underscore", "arabic"]))
    if value < 0 or form == "plain":
        return str(value)
    if form == "arabic":
        return str(value).translate(ARABIC_INDIC)
    return {"plus": "+{}", "zero": "0{}", "underscore": "0_{}"}[form].format(value)


@st.composite
def file_text(draw, line):
    """Lines drawn from `line`, padded with whitespace and joined by mixed
    line ends, with or without a final one."""
    lines = draw(st.lists(line, max_size=14))
    out = []
    for text in lines:
        pad = draw(st.sampled_from(["", " ", "\t", "  "]))
        out.append(pad + text + draw(st.sampled_from(["", " ", "\t"])) + draw(ENDS))
    text = "".join(out)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def joined(draw, parts):
    return "".join(p + draw(SEPS) for p in parts[:-1]) + parts[-1]


@st.composite
def edge_line(draw):
    kind = draw(st.sampled_from(
        ["pair"] * 12 + ["comment", "blank", "count", "one", "bad", "tail"]))
    if kind == "comment":
        mark = draw(st.sampled_from(["#", "%"]))
        return mark + draw(st.sampled_from(["", " note", "1 2", "n=3"]))
    if kind == "blank":
        return ""
    if kind == "count":
        sep = draw(st.sampled_from(["", " "]))
        body = draw(st.one_of(number(-1, 9), st.sampled_from(["x", "3 4", "", "1.5"])))
        return draw(st.sampled_from(["n=", "N="])) + sep + body
    if kind == "one":
        return draw(number(-1, 9))
    if kind == "bad":
        return joined(draw, [draw(number(0, 9)), draw(st.sampled_from(["x", "1.0", "--1", "1-"]))])
    parts = [draw(number(-1 if draw(st.integers(0, 9)) == 0 else 0, 9)), draw(number(0, 9))]
    if kind == "tail":
        tail = st.sampled_from(["7", "x", "# note", "1.5", "-3"])
        parts += draw(st.lists(tail, min_size=1, max_size=3))
    return joined(draw, parts)


@st.composite
def mm_text(draw):
    head = draw(st.sampled_from([
        "%%MatrixMarket matrix coordinate pattern general",
        "%%MatrixMarket matrix coordinate pattern symmetric",
        "%%MatrixMarket matrix coordinate real general",
        "%%MatrixMarket  matrix\tcoordinate integer symmetric extra",
    ] * 4 + [
        "%%MatrixMarket matrix array real general",
        "%%MatrixMarket matrix coordinate complex general",
        "%%MatrixMarket matrix coordinate pattern hermitian",
        " %%MatrixMarket matrix coordinate pattern general",
    ]))
    n = draw(st.integers(1, 6))

    @st.composite
    def entry(draw):
        kind = draw(st.sampled_from(["entry"] * 6 + ["comment", "blank", "one", "bad", "hash"]))
        if kind == "comment":
            return "%" + draw(st.sampled_from(["", " c", "1 2"]))
        if kind == "blank":
            return ""
        if kind == "one":
            return draw(number(1, n))
        if kind == "bad":
            return joined(draw, [draw(number(1, n)), "x"])
        if kind == "hash":
            return "# 1 2"
        outside = draw(st.integers(0, 9)) == 0
        parts = [draw(number(0, n + 1) if outside else number(1, n)), draw(number(1, n))]
        parts += draw(st.lists(st.sampled_from(["0.5", "-2", "x"]), max_size=2))
        return joined(draw, parts)

    lead = draw(st.lists(st.sampled_from(["% comment", "", "  "]), max_size=2))
    body = draw(file_text(entry()))
    # the entry lines of the body as open() splits it, so that the size line
    # can declare their count, or miss it by one
    lines = [ln.strip() for ln in body.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    k = sum(1 for ln in lines if ln and not ln.startswith("%"))
    size = draw(st.sampled_from(
        [f"{n} {n} {k}"] * 3 + [f"{n} {n} {k + 1}", f"{n} {n} {max(k - 1, 0)}", f"{n} {n} 4",
                               f"{n}  {n}\t9", f"{n} {n + 1} {k}", f"{n} {n}"]))
    return "\n".join([head] + lead + [size]) + "\n" + body


@st.composite
def partition_line(draw):
    kind = draw(st.sampled_from(["id"] * 5 + ["comment", "blank", "two", "bad"]))
    if kind == "comment":
        return draw(st.sampled_from(["# part ids", "% 3"]))
    if kind == "blank":
        return ""
    if kind == "two":
        return joined(draw, [draw(number(0, 3)), draw(number(0, 3))])
    if kind == "bad":
        return draw(st.sampled_from(["x", "1.5", "1 # note", "n=3"]))
    return draw(number(-1, 5))


def write_raw(tmp_path_factory, text: str):
    path = tmp_path_factory.getbasetemp() / "bulk-reader-input.txt"
    path.write_bytes(text.encode("utf-8"))
    return path


class TestBulkReadersMatchReference:
    """The bulk readers give the line-by-line readers' arrays, or the same
    exception type and message, on random files of every format."""

    @settings(deadline=None, max_examples=250)
    @given(file_text(edge_line()), st.booleans())
    def test_edge_list(self, tmp_path_factory, text, directed):
        path = write_raw(tmp_path_factory, text)
        want = outcome(lambda p: reference_edge_list(p, directed), path)
        assert outcome(lambda p: read_edge_list(p, directed), path) == want

    @settings(deadline=None, max_examples=200)
    @given(mm_text())
    def test_matrix_market(self, tmp_path_factory, text):
        path = write_raw(tmp_path_factory, text)
        assert outcome(read_matrix_market, path) == outcome(reference_matrix_market, path)

    @settings(deadline=None, max_examples=150)
    @given(file_text(partition_line()))
    def test_partition_ids(self, tmp_path_factory, text):
        path = write_raw(tmp_path_factory, text)
        # ids reach 5, so p = 4 puts some at or above p
        want = outcome(lambda q: reference_partition_ids(q, 4), path)
        assert outcome(lambda q: read_partition_ids(q, 4), path) == want

    @pytest.mark.parametrize(
        "text",
        [
            "1\n2 3 4\n",  # a count of tokens alone would pair 1 with 2
            "n=4\n0 1\nn=2\n",
            "0 3\nN=4\nn = 5\n",
            "n=5\n0 1\nn=3\n3 1\n",
            "0 1\r\n% c\r\n\r\n2\t3 # note\r\n",
            "0\u00a01\u20032 x\n",
            "\u0663 +1\n1_0 0\n",
            "n=-1\n",
            "n=0\n",
            "",
        ],
    )
    def test_edge_list_cases(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(read_edge_list, path) == outcome(reference_edge_list, path)

    def test_whitespace_table_is_str_isspace(self):
        assert set(_SPACE) == {chr(c) for c in range(0x110000) if chr(c).isspace()}


class TestOverflowNamesLine:
    """Ids beyond int64 are parse errors at their line, in every reader."""

    BIG = "99999999999999999999"

    def check(self, tmp_path, read, text, where):
        path = tmp_path / "f.txt"
        path.write_text(text)
        with pytest.raises(GraphParseError, match="^" + re.escape(f"{path}{where}")):
            read(path)

    def test_edge_list(self, tmp_path):
        self.check(tmp_path, read_edge_list, f"0 1\n1 {self.BIG}\n",
                   f":2: vertex id beyond int64 in '1 {self.BIG}'")
        self.check(tmp_path, read_edge_list, f"n=3\n0 1\n1 {self.BIG}\n",
                   ":3: vertex id beyond declared n=3")
        self.check(tmp_path, read_edge_list, f"0 -{self.BIG}\n", ":1: negative vertex id")
        self.check(tmp_path, read_edge_list, f"n={self.BIG}\n0 1\n",
                   f":1: bad vertex count 'n={self.BIG}'")

    def test_matrix_market(self, tmp_path):
        head = "%%MatrixMarket matrix coordinate pattern general\n"
        self.check(tmp_path, read_matrix_market, head + f"{self.BIG} {self.BIG} 1\n1 {self.BIG}\n",
                   ":2: matrix size beyond int64")
        self.check(tmp_path, read_matrix_market, head + f"2 2 1\n1 {self.BIG}\n",
                   ":3: index out of declared range")

    def test_partition(self, tmp_path):
        self.check(tmp_path, lambda path: read_partition_ids(path, 2), f"0\n{self.BIG}\n",
                   f":2: bad part id '{self.BIG}'")

# digits int() reads: ASCII, Arabic-Indic, fullwidth and Devanagari
DIGIT_SCRIPTS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                 "".join(map(chr, range(0xFF10, 0xFF1A))), "".join(map(chr, range(0x0966, 0x0970))))


@st.composite
def int_tokens(draw):
    """Integer tokens near and beyond the int64 range, with signs, leading
    zeros, '_' separators and non-ASCII digits, or short junk."""
    value = draw(st.one_of(st.integers(-(2**64), 2**64),
                           st.sampled_from([0, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1])))
    script = draw(st.sampled_from(DIGIT_SCRIPTS))
    digits = "0" * draw(st.integers(0, 2)) + "".join(script[int(c)] for c in str(abs(value)))
    if len(digits) > 1 and draw(st.booleans()):
        k = draw(st.integers(1, len(digits) - 1))
        digits = digits[:k] + "_" + digits[k:]
    token = ("-" if value < 0 else draw(st.sampled_from(["", "+"]))) + digits
    junk = st.text(st.sampled_from("0159_+-.xe\u0663\uff11"), min_size=1, max_size=4)
    return draw(st.one_of(st.just(token), junk))


@settings(deadline=None, max_examples=500)
@given(st.lists(int_tokens(), max_size=8))
def test_int64_reads_tokens_as_int_does(tokens):
    # one rule per token, whatever the tokens beside it
    values, flags = _int64(tokens)
    for token, value, flag in zip(tokens, values.tolist(), flags.tolist()):
        try:
            want = int(token)
        except ValueError:
            assert (flag, value) == (1, 0)
            continue
        if _INT64_MIN <= want <= _INT64_MAX:
            assert (flag, value) == (0, want)
        else:
            assert (flag, value) == (2, _INT64_MAX if want > 0 else -_INT64_MAX)


@st.composite
def wide_tokens(draw):
    """ASCII integers of 18 to 20 digits and the neighbours of +-2**63,
    unsigned or with either sign."""
    value = draw(st.one_of(st.integers(17, 19).flatmap(lambda k: st.integers(10**k, 10 * 10**k - 1)),
                           st.integers(2**63 - 2, 2**63 + 1)))
    return draw(st.sampled_from(["", "+", "-"])) + str(value)


# Gaps between tokens: every whitespace character, \r\n and blank lines.
GAPS = st.lists(st.sampled_from(list(_SPACE) + ["\r\n", "\n\n", "\r\n\r\n"]),
                min_size=1, max_size=3).map("".join)


@st.composite
def token_text(draw):
    """Tokens from int_tokens, wide_tokens and small integers, separated by
    random whitespace; the last line may lack its newline."""
    tokens = draw(st.lists(st.one_of(int_tokens(), wide_tokens(), st.integers(-9, 99).map(str)),
                           max_size=12))
    text = draw(st.sampled_from(["", " ", "\n", "\r\n"]))
    for token in tokens:
        text += token + draw(GAPS)
    return text if draw(st.booleans()) else text.rstrip(_SPACE)


class TestTokenizer:
    """_Text's token slices and line counts are str.split()'s, and ints()
    reads every token as _int64 does."""

    @settings(deadline=None, max_examples=300)
    @given(token_text())
    def test_tokens_and_ints(self, tmp_path_factory, text):
        path = write_raw(tmp_path_factory, text)
        t = _Text(path)
        tokens = text.split()
        assert [t.token(k) for k in range(len(t.start))] == tokens
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        assert t.count.tolist() == [len(line.split()) for line in lines]
        values, flags = t.ints(np.arange(len(tokens)))
        want_values, want_flags = _int64(tokens)
        assert values.tolist() == want_values.tolist()
        assert flags.tolist() == want_flags.tolist()

    @pytest.mark.parametrize("top", [0x80, 0x3003])
    def test_every_character_separates_as_split_does(self, tmp_path, top):
        # below 0x80 the file is ASCII, else the whitespace table is read
        text = "".join(f"7{chr(c)}" for c in range(top))
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        t = _Text(path)
        assert [t.token(k) for k in range(len(t.start))] == text.split()

    @settings(deadline=None, max_examples=300)
    @given(token_text())
    def test_readers_match_reference(self, tmp_path_factory, text):
        readers = [(read_edge_list, reference_edge_list),
                   (lambda q: read_partition_ids(q, _INT64_MAX), lambda q: reference_partition_ids(q, _INT64_MAX))]
        path = write_raw(tmp_path_factory, text)
        for read, reference in readers:
            assert outcome(read, path) == outcome(reference, path)
        mm = write_raw(tmp_path_factory, "%%MatrixMarket matrix coordinate pattern general\n" + text)
        assert outcome(read_matrix_market, mm) == outcome(reference_matrix_market, mm)
