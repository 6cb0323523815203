"""The text readers against their line-by-line oracle, and write/read round
trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fileio_oracle as oracle
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

NODE = st.integers(0, 6).map(str) | st.sampled_from(
    ["-1", "7", "+2", " 3", "4 ", "1_0", "1.5", "x", "", str(MAX_NODES), str(10**12)])
WEIGHT = st.sampled_from(["1", "0.5", "2.5", "1e-320", "1e300", "1_0", " 3", "0", "-1", "nan",
                          "inf", "-inf", "x", ""]) | st.floats(1e-300, 1e300).map(FLOAT_FMT.__mod__)
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
    def test_written_edge_list_is_read_in_bulk(self, tmp_path, monkeypatch):
        path = tmp_path / "g.tsv"
        fileio.write_edge_list(sbm_graph([20] * 150, 0.5, 0.01, 2), path)
        expected = outcome(oracle.read_edge_list, path)

        def refuse(path, lines):
            raise AssertionError("a well-formed edge list went line by line")
        monkeypatch.setattr(fileio, "_edge_columns_by_line", refuse)
        assert outcome(fileio.read_edge_list, path) == expected

    @pytest.mark.parametrize("text", ["# nodes: 4\n0\t1\t1\n# late\n2\t3\t1\n",
                                      "0\t1\t1\n\n2\t3\t1\n", "0\t1\n2\t3\t1\n"],
                             ids=["late-comment", "blank", "two-fields"])
    def test_other_edge_lists_go_line_by_line(self, tmp_path, monkeypatch, text):
        path = tmp_path / "g.tsv"
        path.write_text(text)
        calls = []

        def counted(path, lines, _by_line=fileio._edge_columns_by_line):
            calls.append(path)
            return _by_line(path, lines)
        monkeypatch.setattr(fileio, "_edge_columns_by_line", counted)
        assert outcome(fileio.read_edge_list, path) == outcome(oracle.read_edge_list, path)
        assert calls == [path]

    def test_edge_list_memory_peak(self, tmp_path):
        """Bulk steps of a bounded number of lines keep the parse's peak near
        the line-by-line parser's (a whole-file token list doubled it)."""
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
        fileio.write_signal(x, scratch)
        if not values:
            with pytest.raises(ValueError, match="no signal values"):
                fileio.read_signal(scratch)
            return
        back = fileio.read_signal(scratch)
        assert back.dtype == x.dtype and back.tobytes() == x.tobytes()

    @given(partition=partitions(), zero_based=st.booleans())
    def test_partition(self, scratch, partition, zero_based):
        fileio.write_partition(partition, scratch, zero_based=zero_based)
        back = fileio.read_partition(scratch, zero_based=zero_based)
        assert back.labels.dtype == partition.labels.dtype
        assert back.labels.tobytes() == partition.labels.tobytes()
