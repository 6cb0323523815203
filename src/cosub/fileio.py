"""Text formats: edge-list TSV, signal and partition files, atoms CSV, run manifests."""

from __future__ import annotations

import hashlib
import json
import os
import stat
import warnings
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .graphs import SubgraphPartition, WeightedGraph

FLOAT_FMT = "%.17g"
MANIFEST_VERSION = 1
# Largest node count an edge list may declare or imply.  Graphs allocate
# node-indexed arrays before any edge is looked at, so a header or an index
# naming node 10**12 is rejected here rather than failing on allocation.
MAX_NODES = 10_000_000


def _write_text(path, text: str) -> str:
    """Write `text` over `path` in place and return the sha256 of its bytes.

    The file is opened without O_TRUNC, written from the start and then,
    when it was longer than the new bytes, cut to their length: truncating a
    non-empty file on open cost several times more than writing it.  A
    symlink is written through, and a file that is not regular (a device
    such as /dev/null, a pipe) is written and not cut.  When a write fails,
    a regular file is cut to 0 bytes before the error propagates, so that no
    mix of old and new bytes is left."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if regular and info.st_size > len(data):
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)
    return hashlib.sha256(data).hexdigest()


_read_digests: dict | None = None  # filled by `_read_text` inside `_digests_of_reads`


@contextmanager
def _digests_of_reads():
    """The sha256 of every file the readers read inside the block, by path
    as given: a caller that records its inputs' digests reads each once."""
    global _read_digests
    outer, _read_digests = _read_digests, {}
    try:
        yield _read_digests
    finally:
        _read_digests = outer


def _read_text(path, sha256: str | None = None) -> str:
    """The text of `path`, decoded as the UTF-8 that `_write_text` writes,
    whatever the locale.  With `sha256`, the bytes read must hash to it; they
    are read once, so the text returned is the text checked.  Inside
    `_digests_of_reads`, the digest of those bytes is recorded."""
    data = Path(path).read_bytes()
    if sha256 is not None or _read_digests is not None:
        digest = hashlib.sha256(data).hexdigest()
        if sha256 is not None and digest != sha256:
            raise ValueError(f"{path}: sha256 does not match the manifest")
        if _read_digests is not None:
            _read_digests[str(path)] = digest
    return data.decode()


def _table(sep: str, prefix: str, int_columns, floats: np.ndarray) -> str:
    """A line per row, each ending in a newline: `prefix`, then the integer
    columns and the float64 column in `FLOAT_FMT`, joined by `sep`.  Each
    integer and each float bit pattern (-0.0 is not 0.0) is formatted once,
    into object arrays that are indexed and joined at C speed."""
    distinct, which = np.unique(floats.view(np.int64), return_inverse=True)
    ints, index = np.unique(np.concatenate(int_columns), return_inverse=True)
    texts = np.array([*map(str, ints.tolist()),
                      *map(FLOAT_FMT.__mod__, distinct.view(np.float64).tolist())], object)
    int_texts = texts[index].reshape(len(int_columns), -1).tolist()
    rows = f"\n{prefix}".join(map(sep.join, zip(*int_texts, texts[which + len(ints)].tolist())))
    return f"{prefix}{rows}\n" if rows else ""


def write_edge_list(graph: WeightedGraph, path) -> str:
    """TSV lines "u<TAB>v<TAB>w" with a leading "# nodes:" header so that
    trailing isolated nodes survive the round trip.  Returns the sha256 of
    the bytes written, as every writer here does."""
    u, v, w = graph.edge_arrays()
    return _write_text(path, f"# nodes: {graph.n}\n" + _table("\t", "", (u, v), w))


def write_atoms(blocks, path) -> str:
    """The atoms CSV: under a "level,channel,subgraph,node,value" header, a
    row per stored entry of each `(level, channel, labels, csc)` block, by
    column and nodes ascending (column k is subgraph `labels[k]`'s atom), a
    stored -0.0 as 0.  The block texts are freed once joined, before encoding."""
    blocks = ((f"{level},{channel},", labels, mat.sorted_indices())
              for level, channel, labels, mat in blocks)
    return _write_text(path, "".join(chain(["level,channel,subgraph,node,value\n"], (
        _table(",", prefix, (np.repeat(labels, np.diff(mat.indptr)), mat.indices), mat.data + 0.0)
        for prefix, labels, mat in blocks))))


def read_edge_list(path, n: int | None = None, sha256: str | None = None) -> WeightedGraph:
    """Parse an edge-list TSV: 0-based indices, optional weight (default 1),
    '#' comment lines.  Duplicate unordered pairs are rejected.  With
    `sha256`, the file's bytes must hash to it (so too in `read_signal` and
    `read_partition`)."""
    text = _read_text(path, sha256)
    lines = text.splitlines()
    # Line by line only when the C reader refuses the file: that parser
    # reads every accepted format and names the first bad line.
    file_n, us, vs, ws = _loaded_edge_columns(text, lines) or _edge_columns_by_line(path, lines)
    del text, lines  # freed before the graph is built
    if n is None:
        n = file_n
    if n is None:
        if not us:
            raise ValueError(f"{path}: empty edge list with unknown node count")
        n = max(max(us), max(vs)) + 1
    if n > MAX_NODES:
        raise ValueError(f"{path}: {n} nodes exceed the maximum of {MAX_NODES}")
    return WeightedGraph._checked(n, us, vs, ws)


def _loaded_edge_columns(text: str, lines: list[str]):
    """The node count (the header's, else the largest index plus one) and
    the columns of an edge list in the writers' layout, read by numpy's C
    text reader.  It reads the values `int` and `float` read and skips blank
    lines, except beyond ASCII (it misreads other digits) and on "\x1f"
    (whitespace to it).  None for a file with those, one it rejects or warns
    on, or one without data lines."""
    if not text.isascii() or "\x1f" in text:
        return None
    head = 0
    while head < len(lines) and lines[head][:1] == "#":
        head += 1
    if head == len(lines):
        return None
    header_n = None
    try:
        for comment in lines[:head]:
            header_n = _nodes_header(comment, header_n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = np.loadtxt(lines[head:], dtype=[("u", "<i8"), ("v", "<i8"), ("w", "<f8")],
                               delimiter="\t", comments=None, quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    us, vs = edges["u"], edges["v"]
    if header_n is None:
        header_n = int(max(us.max(), vs.max())) + 1
    return header_n, us, vs, edges["w"]


def _edge_columns_by_line(path, lines: list[str]):
    """The columns of any edge list, line by line: comment and blank lines
    anywhere, and two or three fields per line, split on tabs or, in a line
    without a tab, on whitespace."""
    us, vs, ws = [], [], []
    header_n = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            header_n = _nodes_header(line, header_n)
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: expected 'u v [w]'")
        us.append(int(parts[0]))
        vs.append(int(parts[1]))
        ws.append(float(parts[2]) if len(parts) == 3 else 1.0)
    return header_n, us, vs, ws


def _nodes_header(comment: str, header_n: int | None) -> int | None:
    """The node count a '#' line declares ("# nodes: N"), else `header_n`:
    the last header wins."""
    tag = comment[1:].strip()
    if tag.startswith("nodes:"):
        return int(tag.split(":", 1)[1])
    return header_n


def write_signal(values, path) -> str:
    x = np.asarray(values, dtype=np.float64)
    if not x.size:
        raise ValueError("cannot write an empty signal")
    return _write_text(path, "\n".join(map(FLOAT_FMT.__mod__, x.tolist())) + "\n")


def read_signal(path, sha256: str | None = None) -> np.ndarray:
    x = np.asarray(_values(float, _read_text(path, sha256).splitlines()), dtype=np.float64)
    if not x.size:
        raise ValueError(f"{path}: no signal values")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: non-finite signal value")
    return x


def write_partition(partition: SubgraphPartition, path, zero_based: bool = False) -> str:
    shift = -1 if zero_based else 0
    return _write_text(path, "\n".join(map(str, (partition.labels + shift).tolist())) + "\n")


def read_partition(path, zero_based: bool = False,
                   sha256: str | None = None) -> SubgraphPartition:
    labels = _values(int, _read_text(path, sha256).splitlines())
    top = 2**63 - zero_based  # a zero-based label must survive the shift to one-based
    try:
        arr = np.asarray(labels, dtype=np.int64)
        if zero_based and arr.size and arr.max() >= top:
            raise OverflowError
    except OverflowError:
        big = next(x for x in labels if not -2**63 <= x < top)
        raise ValueError(f"{path}: label {big} is out of range") from None
    return SubgraphPartition.from_labels(arr + zero_based)


def _values(convert, lines: list[str]) -> list:
    """`convert` of every line in bulk, or, when some line fails, of the lines
    that are neither blank nor '#' comments, one by one: if every line
    converts, no line was blank or a comment."""
    try:
        return list(map(convert, lines))
    except ValueError:
        pass  # filtered below, so that an error there is raised on its own
    return [convert(line) for line in lines
            if line.strip() and not line.lstrip().startswith("#")]


def write_manifest(data: dict, path) -> str:
    return _write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    data = json.loads(_read_text(path))
    if not isinstance(data, dict) or data.get("format_version") != MANIFEST_VERSION:
        raise ValueError(f"{path}: unsupported manifest version")
    return data
