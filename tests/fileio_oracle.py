"""Frozen oracle for the text readers: `read_edge_list`, `read_signal` and
`read_partition` as they were when they parsed every file line by line, kept
verbatim.  The bulk route must reproduce them array for array and error text
for error text; do not edit them to follow the library."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from cosub.fileio import MAX_NODES
from cosub.graphs import SubgraphPartition, WeightedGraph


def read_edge_list(path, n: int | None = None) -> WeightedGraph:
    """Parse an edge-list TSV: 0-based indices, optional weight (default 1),
    '#' comment lines.  Duplicate unordered pairs are rejected."""
    us, vs, ws = [], [], []
    header_n = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tag = line[1:].strip()
            if tag.startswith("nodes:"):
                header_n = int(tag.split(":", 1)[1])
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: expected 'u v [w]'")
        us.append(int(parts[0]))
        vs.append(int(parts[1]))
        ws.append(float(parts[2]) if len(parts) == 3 else 1.0)
    if n is None:
        n = header_n
    if n is None:
        if not us:
            raise ValueError(f"{path}: empty edge list with unknown node count")
        n = max(max(us), max(vs)) + 1
    if n > MAX_NODES:
        raise ValueError(f"{path}: {n} nodes exceed the maximum of {MAX_NODES}")
    return WeightedGraph._checked(n, us, vs, ws)


def read_signal(path) -> np.ndarray:
    values = [float(line) for line in Path(path).read_text().splitlines()
              if line.strip() and not line.lstrip().startswith("#")]
    x = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: non-finite signal value")
    return x


def read_partition(path, zero_based: bool = False) -> SubgraphPartition:
    labels = [int(line) for line in Path(path).read_text().splitlines()
              if line.strip() and not line.lstrip().startswith("#")]
    arr = np.asarray(labels, dtype=np.int64)
    if zero_based:
        arr = arr + 1
    return SubgraphPartition.from_labels(arr)
