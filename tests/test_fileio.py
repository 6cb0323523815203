"""The text readers against their line-by-line oracle, and write/read round
trips."""

import errno
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atoms_csv_oracle
import fileio_oracle as oracle
import writer_oracle
from cosub import SubgraphPartition, WeightedGraph, fileio, sbm_graph
from cosub.fileio import FLOAT_FMT, MAX_NODES


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One file, rewritten by every example."""
    return tmp_path_factory.mktemp("fileio") / "file.txt"


def _write(path, lines, newline, trailing):
    path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode())


def outcome(read, *args):
    """What a reader makes of a file: its arrays with their dtypes, or the
    type and text of the exception it raised."""
    try:
        result = read(*args)
    except Exception as exc:  # every failure must match, not only ValueError
        return type(exc), str(exc)
    if isinstance(result, WeightedGraph):
        return result.n, [(a.dtype.str, a.tobytes()) for a in result.edge_arrays()]
    if isinstance(result, SubgraphPartition):
        return result.labels.dtype.str, result.labels.tobytes()
    return result.dtype.str, result.tobytes()


# -- edge lists ---------------------------------------------------------------

# Tokens that `int` or `float` and numpy's C reader could read differently:
# the reader must refuse them, or the file must not reach it ("\x1f", which
# the reader skips as whitespace, and digits beyond ASCII such as "२", which
# it reads as garbage).
ODD_TOKENS = ["1.0", "1e3", str(2**63), "0x10", "1d5", "Infinity", "+inf", "-nan", '"3"',
              "3 # x", " 3", "٣", "२", "\x1f3", "3\x1f"]
NODE = st.integers(0, 6).map(str) | st.sampled_from(
    ["-1", "7", "+2", "4 ", "1_0", "1.5", "x", "", str(MAX_NODES), str(10**12), *ODD_TOKENS])
WEIGHT = st.sampled_from(["1", "0.5", "2.5", "1e-320", "1e300", "1_0", "0", "-1", "nan",
                          "inf", "-inf", "x", "", *ODD_TOKENS]) | \
    st.floats(1e-300, 1e300).map(FLOAT_FMT.__mod__)
HEADER = st.sampled_from(["0", "2", "5", "9", " 7 ", str(MAX_NODES + 1), "x"]).map(
    lambda k: f"# nodes: {k}")
COMMENT = HEADER | st.sampled_from(["# a comment", "#nodes:4", "  # nodes: 3", "\t# x", "##"])
BLANK = st.sampled_from(["", "   ", "\t", " \t "])
ODD_LINE = st.one_of(
    st.tuples(NODE, NODE).map("\t".join),                           # two fields
    st.tuples(NODE, NODE, WEIGHT).map(" ".join),                    # space-separated
    st.tuples(NODE, NODE).map(" ".join),
    st.tuples(NODE, NODE, WEIGHT).map(lambda t: "\t".join(t) + "\t"),  # trailing tab
    st.tuples(NODE, NODE, WEIGHT).map(lambda t: "\t" + "\t".join(t)),  # leading tab
    st.tuples(NODE, NODE, WEIGHT).map(lambda t: "  " + "\t".join(t)),  # indented
    st.tuples(NODE, NODE, WEIGHT, WEIGHT).map("\t".join),           # four fields
)
NEWLINE = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def well_formed_edge_lists(draw):
    """Comment lines, then "u<TAB>v<TAB>w" lines: mostly the files the bulk
    route reads and graphs it accepts, and files one step away from them: an
    odd token, an indented comment, a field moved to another line (a
    two-field and a four-field line with numbers everywhere)."""
    comments = draw(st.lists(COMMENT, max_size=3))
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))
                          .filter(lambda e: e[0] != e[1]),
                          unique_by=lambda e: (min(e), max(e)), max_size=10))
    rows = [[str(u), str(v), draw(st.sampled_from(["1", "2.5", "4", FLOAT_FMT % (1 / 3)]))]
            for u, v in pairs]
    step = draw(st.sampled_from(["none", "none", "token", "move"]))
    if rows and step == "token":
        row = draw(st.sampled_from(rows))
        column = draw(st.integers(0, 2))
        row[column] = draw(WEIGHT if column == 2 else NODE)
    if len(rows) > 1 and step == "move":
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2,
                             unique=True))
        rows[j].append(rows[i].pop())
    return comments + ["\t".join(row) for row in rows]


@st.composite
def any_edge_lists(draw):
    """Lines of every kind in any order: comments anywhere, repeated and
    indented headers, blank lines and malformed lines."""
    data = st.tuples(NODE, NODE, WEIGHT).map("\t".join)
    return draw(st.lists(st.one_of(data, data, COMMENT, BLANK, ODD_LINE), max_size=12))


class TestReadersMatchTheLineByLineOracle:
    @settings(max_examples=300)
    @given(lines=well_formed_edge_lists() | any_edge_lists(), newline=NEWLINE,
           trailing=st.booleans(), n=st.none() | st.sampled_from([1, 4, 9, MAX_NODES + 1]))
    def test_read_edge_list(self, scratch, lines, newline, trailing, n):
        _write(scratch, lines, newline, trailing)
        assert outcome(fileio.read_edge_list, scratch, n) == \
            outcome(oracle.read_edge_list, scratch, n)

    VALUE = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(FLOAT_FMT.__mod__),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["-0.0", "5e-324", "-5e-324", "1e300", "-1e300", "1e400", " 1.5 ",
                         "1_5", "nan", "inf", "-inf", "x", "1,5"]))
    LABEL = st.integers(-1, 5).map(str) | st.sampled_from(
        [" 2", "3 ", "+1", "1_0", "1.0", "x", str(2**64), str(2**63 - 1)])
    OTHER = COMMENT | BLANK

    @settings(max_examples=200)
    @given(data=st.data(), newline=NEWLINE, trailing=st.booleans())
    def test_read_signal(self, scratch, data, newline, trailing):
        lines = data.draw(st.lists(self.VALUE, max_size=8) | st.lists(self.VALUE | self.OTHER,
                                                                       max_size=8))
        _write(scratch, lines, newline, trailing)
        want = outcome(oracle.read_signal, scratch)
        if want == ("<f8", b""):  # the oracle predates the check for a file without values
            want = ValueError, f"{scratch}: no signal values"
        assert outcome(fileio.read_signal, scratch) == want

    @settings(max_examples=200)
    @given(data=st.data(), newline=NEWLINE, trailing=st.booleans(), zero_based=st.booleans())
    def test_read_partition(self, scratch, data, newline, trailing, zero_based):
        lines = data.draw(st.lists(self.LABEL, max_size=8) | st.lists(self.LABEL | self.OTHER,
                                                                       max_size=8))
        _write(scratch, lines, newline, trailing)
        got = outcome(fileio.read_partition, scratch, zero_based)
        want = outcome(oracle.read_partition, scratch, zero_based)
        try:
            labels = [int(line) for line in lines
                      if line.strip() and not line.lstrip().startswith("#")]
        except ValueError:
            labels = []  # both fail on the line that does not parse
        # The oracle lets a label outside the int64 range escape as an
        # OverflowError, and wraps a zero-based 2**63 - 1 to -2**63; the
        # reader names the file and the first such label.
        big = next((x for x in labels if not -2**63 <= x < 2**63 - zero_based), None)
        if big is not None:
            want = ValueError, f"{scratch}: label {big} is out of range"
        assert got == want


class TestBulkRoute:
    """Files in the writers' layout are read by numpy's C reader; every other
    file goes line by line, with the oracle's outcome either way."""

    @staticmethod
    def _refuse_line_by_line(monkeypatch):
        def refuse(path, lines):
            raise AssertionError("a well-formed edge list went line by line")
        monkeypatch.setattr(fileio, "_edge_columns_by_line", refuse)

    @staticmethod
    def _count_line_by_line(monkeypatch):
        calls = []

        def counted(path, lines, _by_line=fileio._edge_columns_by_line):
            calls.append(path)
            return _by_line(path, lines)
        monkeypatch.setattr(fileio, "_edge_columns_by_line", counted)
        return calls

    def test_written_edge_list_is_read_in_bulk(self, tmp_path, monkeypatch):
        path = tmp_path / "g.tsv"
        fileio.write_edge_list(sbm_graph([20] * 150, 0.5, 0.01, 2), path)
        expected = outcome(oracle.read_edge_list, path)
        self._refuse_line_by_line(monkeypatch)
        assert outcome(fileio.read_edge_list, path) == expected

    @pytest.mark.parametrize("text", ["0\t1\t1\n\n2\t3\t1\n", "# nodes: 5\n\n\n0\t1\t1\n\n"],
                             ids=["blank", "after-the-header-and-at-the-end"])
    def test_blank_lines_are_read_in_bulk(self, tmp_path, monkeypatch, text):
        path = tmp_path / "g.tsv"
        path.write_text(text)
        expected = outcome(oracle.read_edge_list, path)
        self._refuse_line_by_line(monkeypatch)
        assert outcome(fileio.read_edge_list, path) == expected

    @pytest.mark.parametrize("text", ["# nodes: 4\n0\t1\t1\n# late\n2\t3\t1\n",
                                      "0\t1\n2\t3\t1\n", "0\t1\t1\n२\t3\t1\n",
                                      "0\t1\t1\n2\t3\x1f\t1\n", "# nodes: 4\n", "# nodes: 4\n\n"],
                             ids=["late-comment", "two-fields", "non-ascii-digit",
                                  "unit-separator", "header-only", "no-data-line"])
    def test_other_edge_lists_go_line_by_line(self, tmp_path, monkeypatch, text):
        """With no warning: `loadtxt`, which warns on a file without data
        lines, is not called on a header-only file, and its warnings are
        caught."""
        path = tmp_path / "g.tsv"
        path.write_text(text)
        calls = self._count_line_by_line(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(fileio.read_edge_list, path)
        assert got == outcome(oracle.read_edge_list, path)
        assert calls == [path]

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_odd_token_in_a_well_formed_file_reads_as_the_oracle_does(self, tmp_path, column):
        path = tmp_path / "g.tsv"
        for token in ODD_TOKENS:
            rows = [["0", "1", "1"], ["2", "3", "2.5"]]
            rows[1][column] = token
            for header in [[], ["# nodes: 4"]]:
                path.write_text("\n".join(header + ["\t".join(row) for row in rows]) + "\n")
                assert outcome(fileio.read_edge_list, path) == \
                    outcome(oracle.read_edge_list, path), (token, header)

    def test_loadtxt_warning_falls_back_to_line_by_line(self, tmp_path, monkeypatch):
        """A warning, such as older numpy's DeprecationWarning for an integer
        read through a float, sends the file line by line."""
        path = tmp_path / "g.tsv"
        path.write_text("# nodes: 4\n0\t1\t1\n2\t3\t1.0\n")
        expected = outcome(oracle.read_edge_list, path)
        loadtxt = np.loadtxt

        def warns(*args, **kwargs):
            warnings.warn("integer parsed via a float", DeprecationWarning)
            return loadtxt(*args, **kwargs)
        monkeypatch.setattr(fileio.np, "loadtxt", warns)
        calls = self._count_line_by_line(monkeypatch)
        assert outcome(fileio.read_edge_list, path) == expected
        assert calls == [path]

    def test_edge_list_memory_peak(self, tmp_path):
        """The C reader keeps the parse's peak near the line-by-line
        parser's (a whole-file token list once doubled it)."""
        path = tmp_path / "g.tsv"
        fileio.write_edge_list(sbm_graph([20] * 100, 0.7, 0.003, 1), path)
        peaks = []
        for read in (oracle.read_edge_list, fileio.read_edge_list):
            tracemalloc.start()
            try:
                read(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0]


# -- round trips ----------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300])


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]),
                          unique_by=lambda e: (min(e), max(e)), max_size=30))
    weights = st.floats(5e-324, 1e300) | st.sampled_from([5e-324, 2.5e-310, 1e300, 1.0])
    return WeightedGraph.from_edges(n, [(u, v, draw(weights)) for u, v in pairs])


@st.composite
def partitions(draw):
    k = draw(st.integers(1, 6))
    labels = list(range(1, k + 1)) + draw(st.lists(st.integers(1, k), max_size=10))
    return SubgraphPartition.from_labels(draw(st.permutations(labels)))


class TestRoundTrips:
    @given(graph=weighted_graphs())
    def test_edge_list(self, scratch, graph):
        fileio.write_edge_list(graph, scratch)
        back = fileio.read_edge_list(scratch)
        assert back.n == graph.n
        for a, b in zip(back.edge_arrays(), graph.edge_arrays()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @given(values=st.lists(FINITE, max_size=20))
    def test_signal(self, scratch, values):
        x = np.array(values, dtype=np.float64)
        if not values:
            scratch.unlink(missing_ok=True)
            with pytest.raises(ValueError, match="cannot write an empty signal"):
                fileio.write_signal(x, scratch)
            assert not scratch.exists()
            return
        fileio.write_signal(x, scratch)
        back = fileio.read_signal(scratch)
        assert back.dtype == x.dtype and back.tobytes() == x.tobytes()

    @given(partition=partitions(), zero_based=st.booleans())
    def test_partition(self, scratch, partition, zero_based):
        fileio.write_partition(partition, scratch, zero_based=zero_based)
        back = fileio.read_partition(scratch, zero_based=zero_based)
        assert back.labels.dtype == partition.labels.dtype
        assert back.labels.tobytes() == partition.labels.tobytes()


@st.composite
def writer_graphs(draw):
    """Graphs for the edge-list writer: node indices of one to several
    digits, trailing isolated nodes, 0 edges or more, and unit, integer,
    repeated, subnormal and 1e308 weights."""
    touched = draw(st.integers(2, 12))
    spacing = draw(st.sampled_from([1, 7, 1000]))
    n = (touched - 1) * spacing + 1 + draw(st.integers(0, 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, touched - 1), st.integers(0, touched - 1))
                          .filter(lambda e: e[0] != e[1]),
                          unique_by=lambda e: (min(e), max(e)), max_size=30))
    weights = (st.sampled_from([1.0, 2.0, 3.0, 5e-324, 2.5e-310, 1e308])
               | st.integers(1, 2**53).map(float) | st.floats(5e-324, 1e308))
    return WeightedGraph.from_edges(
        n, [(spacing * u, spacing * v, draw(weights)) for u, v in pairs])


def test_readers_decode_utf8_whatever_the_locale(tmp_path, monkeypatch):
    """Every reader decodes UTF-8, also where the locale's text encoding
    could not: the files read back as they do under a UTF-8 locale."""
    import io
    comment = "# café\n"
    (tmp_path / "g.tsv").write_bytes((comment + "0\t1\t2.5\n").encode())
    (tmp_path / "x.csv").write_bytes((comment + "1.5\n-2\n").encode())
    (tmp_path / "p.csv").write_bytes((comment + "1\n2\n").encode())
    manifest = {"format_version": fileio.MANIFEST_VERSION, "command": ["café"]}
    (tmp_path / "m.json").write_bytes(json.dumps(manifest, ensure_ascii=False).encode())
    monkeypatch.setattr(io, "text_encoding", lambda encoding, stacklevel=2: encoding or "ascii")
    graph = fileio.read_edge_list(tmp_path / "g.tsv")
    assert graph.n == 2 and graph.edge_arrays()[2].tolist() == [2.5]
    assert fileio.read_signal(tmp_path / "x.csv").tolist() == [1.5, -2.0]
    assert fileio.read_partition(tmp_path / "p.csv").sizes.tolist() == [1, 1]
    assert fileio.read_manifest(tmp_path / "m.json") == manifest


class TestEdgeListWriter:
    @given(graph=writer_graphs())
    @example(graph=WeightedGraph.from_edges(5, []))
    @example(graph=WeightedGraph(4, np.array([0, 0, 1]), np.array([1, 3, 2]),
                                 np.array([-0.0, 0.0, 5e-324])))  # raw: past the checks
    def test_bytes_and_sha256_match_the_oracle(self, scratch, graph):
        assert fileio.write_edge_list(graph, scratch) == writer_oracle.edge_list_sha256(graph)
        assert scratch.read_bytes() == writer_oracle.edge_list_text(graph).encode()

    def test_memory_grows_with_the_edges_not_the_nodes(self, tmp_path):
        graph = WeightedGraph.from_edges(1_000_000, [(0, 999_999, 1.0)])
        path = tmp_path / "g.tsv"
        tracemalloc.start()
        try:
            fileio.write_edge_list(graph, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert path.read_text() == "# nodes: 1000000\n0\t999999\t1\n"


# -- atoms CSV ----------------------------------------------------------------

ATOM_VALUES = (st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0])
               | st.floats(allow_nan=False, allow_infinity=False))


def atoms_block(level, channel, labels, columns, n=8, dtype=np.int64):
    """A block from its columns' `[(node, value), ...]` lists, as stored,
    with `dtype` indices."""
    indices = np.array([node for column in columns for node, _ in column], dtype)
    data = np.array([value for column in columns for _, value in column], np.float64)
    indptr = np.cumsum([0] + [len(column) for column in columns]).astype(dtype)
    mat = sp.csc_matrix((data, indices, indptr), shape=(n, len(columns)))
    mat.indices, mat.indptr = indices, indptr  # scipy may have narrowed them
    return level, channel, np.asarray(labels), mat


@st.composite
def atom_blocks(draw):
    """`(level, channel, labels, csc)` blocks as `write_atoms` takes them:
    columns with no entries, in stored order ascending or not, int32 or int64
    indices and labels, and -0.0, 0.0, subnormal and +-1e308 values."""
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 12)) * draw(st.sampled_from([1, 1000]))
        columns = [draw(st.lists(st.integers(0, n - 1), unique=True, max_size=6))
                   for _ in range(draw(st.integers(0, 5)))]
        if draw(st.booleans()):
            columns = [sorted(column) for column in columns]
        labels = np.array(sorted(draw(st.lists(st.integers(1, 10**6), unique=True,
                                               min_size=len(columns), max_size=len(columns)))),
                          draw(st.sampled_from([np.int32, np.int64])))
        blocks.append(atoms_block(draw(st.integers(1, 20)), draw(st.integers(1, 200)), labels,
                                  [[(node, draw(ATOM_VALUES)) for node in column]
                                   for column in columns],
                                  n, draw(st.sampled_from([np.int32, np.int64]))))
    return blocks


class TestAtomsWriter:
    @given(blocks=atom_blocks())
    def test_bytes_and_sha256_match_the_oracle(self, scratch, blocks):
        assert fileio.write_atoms(blocks, scratch) == atoms_csv_oracle.atoms_csv_sha256(blocks)
        assert scratch.read_bytes() == atoms_csv_oracle.atoms_csv_text(blocks).encode()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_special_values_and_unsorted_nodes(self, tmp_path, dtype):
        blocks = [atoms_block(1, 2, [3, 9], [[(5, -0.0), (2, 0.0)], [(7, 5e-324), (0, -1e308)]],
                              dtype=dtype),
                  atoms_block(2, 1, [1], [[(4, 1e308)]], dtype=dtype)]
        path = tmp_path / "atoms.csv"
        fileio.write_atoms(blocks, path)
        assert path.read_text() == ("level,channel,subgraph,node,value\n"
                                    "1,2,3,2,0\n1,2,3,5,0\n"
                                    "1,2,9,0,-1e+308\n"
                                    "1,2,9,7,4.9406564584124654e-324\n"
                                    "2,1,1,4,1e+308\n")
        assert path.read_text() == atoms_csv_oracle.atoms_csv_text(blocks)

    def test_a_block_without_rows_writes_no_line(self, tmp_path):
        path = tmp_path / "atoms.csv"
        empty = [atoms_block(1, 1, [], []), atoms_block(1, 2, [4, 6], [[], []])]
        fileio.write_atoms(empty, path)
        assert path.read_text() == "level,channel,subgraph,node,value\n"
        fileio.write_atoms([atoms_block(1, 1, [2], [[(0, 0.5)]]), *empty,
                            atoms_block(2, 1, [1], [[(3, 2.0)]])], path)
        assert path.read_text() == "level,channel,subgraph,node,value\n1,1,2,0,0.5\n2,1,1,3,2\n"


class TestWriteInPlace:
    """`_write_text` writes over an existing file without O_TRUNC and cuts
    it to length: short writes are resumed, and a failed write leaves an
    empty file."""

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        path.write_text("9\n" * 1000)
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        fileio.write_signal(np.arange(100.0), path)
        monkeypatch.undo()
        assert path.read_text() == "".join(f"{k}\n" for k in range(100))

    def test_failed_write_leaves_an_empty_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        path.write_text("9\n" * 1000)
        real_write, calls = os.write, []

        def full_after_the_first_chunk(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[:len(data) // 2])
        monkeypatch.setattr(os, "write", full_after_the_first_chunk)
        with pytest.raises(OSError) as info:
            fileio.write_signal(np.arange(100.0), path)
        monkeypatch.undo()
        assert info.value.errno == errno.ENOSPC
        assert len(calls) == 2
        assert path.read_bytes() == b""

    def test_file_is_cut_only_when_it_was_longer(self, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        real_ftruncate, cuts = os.ftruncate, []
        monkeypatch.setattr(os, "ftruncate",
                            lambda fd, size: cuts.append(size) or real_ftruncate(fd, size))
        for before, cut in ((None, []), ("9\n" * 1000, [4]), ("7\n8\n", []), ("7\n", [])):
            if before is not None:
                path.write_text(before)
            cuts.clear()
            fileio.write_signal([1.0, 2.0], path)
            assert path.read_text() == "1\n2\n" and cuts == cut
