"""Frozen oracle for the edge-list writer: the text `write_edge_list` built
with one f-string per edge, each distinct weight formatted once, kept
verbatim.  The writer must reproduce its bytes; do not edit it to follow
the library."""

from __future__ import annotations

import hashlib

import numpy as np

from cosub.fileio import FLOAT_FMT
from cosub.graphs import WeightedGraph


def edge_list_text(graph: WeightedGraph) -> str:
    """TSV lines "u<TAB>v<TAB>w" under a "# nodes:" header."""
    u, v, w = graph.edge_arrays()
    # Each distinct weight is formatted once.  Distinct bit patterns, not
    # values, so that -0.0 and 0.0 keep their own text.
    distinct, which = np.unique(w.view(np.int64), return_inverse=True)
    texts = list(map(FLOAT_FMT.__mod__, distinct.view(np.float64).tolist()))
    lines = [f"# nodes: {graph.n}"]
    lines += [f"{a}\t{b}\t{c}" for a, b, c in
              zip(u.tolist(), v.tolist(), map(texts.__getitem__, which.tolist()))]
    return "\n".join(lines) + "\n"


def edge_list_sha256(graph: WeightedGraph) -> str:
    return hashlib.sha256(edge_list_text(graph).encode()).hexdigest()
