"""Text formats: edge-list TSV, signal and partition files, run manifests."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .graphs import SubgraphPartition, WeightedGraph

FLOAT_FMT = "%.17g"
MANIFEST_VERSION = 1
# Largest node count an edge list may declare or imply.  Graphs allocate
# node-indexed arrays before any edge is looked at, so a header or an index
# naming node 10**12 is rejected here rather than failing on allocation.
MAX_NODES = 10_000_000
# Data lines joined, split and converted per bulk step: bounds the tokens held
# at once (a whole-file token list doubled the parse's memory peak).
_BULK_LINES = 2048
# Deletes every ASCII character except tab and newline, so that what remains
# of "\n"-joined lines are their separators (non-ASCII text is kept, and so
# never passes for well formed).
_SEPARATORS = str.maketrans("", "", "".join(c for c in map(chr, range(128)) if c not in "\t\n"))


def write_edge_list(graph: WeightedGraph, path) -> None:
    """TSV lines "u<TAB>v<TAB>w" with a leading "# nodes:" header so that
    trailing isolated nodes survive the round trip."""
    u, v, w = graph.edge_arrays()
    # Each distinct weight is formatted once.  Distinct bit patterns, not
    # values, so that -0.0 and 0.0 keep their own text.
    distinct, which = np.unique(w.view(np.int64), return_inverse=True)
    texts = list(map(FLOAT_FMT.__mod__, distinct.view(np.float64).tolist()))
    lines = [f"# nodes: {graph.n}"]
    lines += [f"{a}\t{b}\t{c}" for a, b, c in
              zip(u.tolist(), v.tolist(), map(texts.__getitem__, which.tolist()))]
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path, n: int | None = None) -> WeightedGraph:
    """Parse an edge-list TSV: 0-based indices, optional weight (default 1),
    '#' comment lines.  Duplicate unordered pairs are rejected."""
    lines = Path(path).read_text().splitlines()
    # Line by line only when the file is not well formed: that parser reads
    # every accepted format and names the first bad line.
    header_n, us, vs, ws = _bulk_edge_columns(lines) or _edge_columns_by_line(path, lines)
    del lines  # freed before the graph is built
    if n is None:
        n = header_n
    if n is None:
        if not us:
            raise ValueError(f"{path}: empty edge list with unknown node count")
        n = max(max(us), max(vs)) + 1
    if n > MAX_NODES:
        raise ValueError(f"{path}: {n} nodes exceed the maximum of {MAX_NODES}")
    return WeightedGraph._checked(n, us, vs, ws)


def _bulk_edge_columns(lines: list[str]):
    """The columns of a well-formed edge list: '#' lines, then only lines of
    exactly three tab-separated fields that `int`, `int` and `float` accept.
    The line-by-line parser reads the same three fields, up to whitespace at
    the ends of the line, which `int` and `float` ignore.  None for any other
    file."""
    head = 0
    while head < len(lines) and lines[head][:1] == "#":
        head += 1
    header_n = None
    us, vs, ws = [], [], []
    try:
        for comment in lines[:head]:
            header_n = _nodes_header(comment, header_n)
        for start in range(head, len(lines), _BULK_LINES):
            block = lines[start:start + _BULK_LINES]
            text = "\n".join(block)
            if text.translate(_SEPARATORS) != "\t\t\n" * (len(block) - 1) + "\t\t":
                return None
            tokens = text.replace("\n", "\t").split("\t")
            us += map(int, tokens[0::3])
            vs += map(int, tokens[1::3])
            ws += map(float, tokens[2::3])
    except ValueError:  # a header or token that int or float rejects
        return None
    return header_n, us, vs, ws


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


def write_signal(values, path) -> None:
    x = np.asarray(values, dtype=np.float64)
    Path(path).write_text("\n".join(map(FLOAT_FMT.__mod__, x.tolist())) + "\n")


def read_signal(path) -> np.ndarray:
    x = np.asarray(_values(float, Path(path).read_text().splitlines()), dtype=np.float64)
    if not x.size:
        raise ValueError(f"{path}: no signal values")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: non-finite signal value")
    return x


def write_partition(partition: SubgraphPartition, path, zero_based: bool = False) -> None:
    shift = -1 if zero_based else 0
    Path(path).write_text("\n".join(map(str, (partition.labels + shift).tolist())) + "\n")


def read_partition(path, zero_based: bool = False) -> SubgraphPartition:
    labels = _values(int, Path(path).read_text().splitlines())
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


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def write_manifest(data: dict, path) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format_version") != MANIFEST_VERSION:
        raise ValueError(f"{path}: unsupported manifest version")
    return data
