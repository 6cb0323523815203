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


def write_edge_list(graph: WeightedGraph, path) -> None:
    """TSV lines "u<TAB>v<TAB>w" with a leading "# nodes:" header so that
    trailing isolated nodes survive the round trip."""
    u, v, w = (a.tolist() for a in graph.edge_arrays())
    lines = [f"# nodes: {graph.n}"]
    lines += [f"{a}\t{b}\t{FLOAT_FMT % c}" for a, b, c in zip(u, v, w)]
    Path(path).write_text("\n".join(lines) + "\n")


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


def write_signal(values, path) -> None:
    x = np.asarray(values, dtype=np.float64)
    Path(path).write_text("\n".join(FLOAT_FMT % v for v in x.tolist()) + "\n")


def read_signal(path) -> np.ndarray:
    values = [float(line) for line in Path(path).read_text().splitlines()
              if line.strip() and not line.lstrip().startswith("#")]
    x = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: non-finite signal value")
    return x


def write_partition(partition: SubgraphPartition, path, zero_based: bool = False) -> None:
    shift = -1 if zero_based else 0
    Path(path).write_text("\n".join(str(c + shift) for c in partition.labels.tolist()) + "\n")


def read_partition(path, zero_based: bool = False) -> SubgraphPartition:
    labels = [int(line) for line in Path(path).read_text().splitlines()
              if line.strip() and not line.lstrip().startswith("#")]
    arr = np.asarray(labels, dtype=np.int64)
    if zero_based:
        arr = arr + 1
    return SubgraphPartition.from_labels(arr)


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
