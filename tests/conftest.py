"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from cosub import SubgraphPartition, WeightedGraph, laplacian

# CI sets HYPOTHESIS_PROFILE=ci: the same examples on every run and no
# per-example deadline on shared runners.  Local runs keep the default.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def toy_graph() -> WeightedGraph:
    """Five nodes: a unit triangle {0,1,2} and a pair {3,4} joined by one edge."""
    return WeightedGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def toy_partition() -> SubgraphPartition:
    return SubgraphPartition.from_labels([1, 1, 1, 2, 2])


def set_partitions(n: int):
    """Enumerate every set partition of {0..n-1} as a list of blocks."""
    if n == 0:
        yield []
        return
    for rest in set_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n - 1]] + rest[i + 1:]
        yield rest + [[n - 1]]


def blocks_to_labels(blocks, n: int) -> np.ndarray:
    labels = np.empty(n, dtype=np.int64)
    for gid, block in enumerate(blocks, start=1):
        for node in block:
            labels[node] = gid
    return labels


def brute_modularity(graph: WeightedGraph, labels) -> float:
    """Direct double-sum evaluation on the dense adjacency (test oracle)."""
    a = graph.dense_adjacency()
    labels = np.asarray(labels)
    d = a.sum(axis=1)
    total = d.sum()
    acc = 0.0
    for i in range(graph.n):
        for j in range(graph.n):
            if labels[i] == labels[j]:
                acc += a[i, j] - d[i] * d[j] / total
    return acc / total


def brute_coarsen(graph: WeightedGraph, labels, keep) -> np.ndarray:
    """Dense supernode aggregation by explicit edge enumeration (test oracle)."""
    keep = list(keep)
    pos = {k: i for i, k in enumerate(keep)}
    out = np.zeros((len(keep), len(keep)))
    for u, v, w in edge_tuples(graph):
        cu, cv = labels[u], labels[v]
        if cu == cv or cu not in pos or cv not in pos:
            continue
        out[pos[cu], pos[cv]] += w
        out[pos[cv], pos[cu]] += w
    return out


def edge_tuples(graph: WeightedGraph) -> list[tuple[int, int, float]]:
    """Every edge once as a (u, v, w) tuple of Python scalars, u < v, in the
    graph's (u, v) order."""
    u, v, w = graph.edge_arrays()
    return list(zip(u.tolist(), v.tolist(), w.tolist()))


def local_laplacian(dense_adjacency: np.ndarray, nodes) -> np.ndarray:
    """`laplacian` of the subgraph that `nodes` (ascending) induce in a graph
    given by its dense adjacency: local node j is nodes[j]."""
    return laplacian(WeightedGraph.from_adjacency(dense_adjacency[np.ix_(nodes, nodes)]))


def dense_operators(operators) -> tuple[np.ndarray, np.ndarray]:
    """A level's whole analysis and synthesis operators as dense n x n
    matrices, their columns channel by channel (the `offsets` order)."""
    channels = range(1, operators.n_channels + 1)
    return (np.hstack([operators.analysis_matrix(l).toarray() for l in channels]),
            np.hstack([operators.synthesis_matrix(l).toarray() for l in channels]))


def random_connected_partition(graph: WeightedGraph, rng: np.random.Generator,
                               target_blocks: int) -> SubgraphPartition:
    """Grow connected regions from random seeds; isolated leftovers become
    singletons.  Used to exercise partition-independent invariants."""
    n = graph.n
    adj = graph.adjacency
    labels = np.zeros(n, dtype=np.int64)
    seeds = rng.choice(n, size=min(target_blocks, n), replace=False)
    frontier = []
    for gid, s in enumerate(seeds, start=1):
        if labels[s] == 0:
            labels[s] = gid
            frontier.append(s)
    order = list(frontier)
    while order:
        pick = order.pop(int(rng.integers(0, len(order))))
        row = adj.indices[adj.indptr[pick]:adj.indptr[pick + 1]]
        for v in row:
            if labels[v] == 0:
                labels[v] = labels[pick]
                order.append(int(v))
    next_label = int(labels.max())
    for i in range(n):
        if labels[i] == 0:
            next_label += 1
            labels[i] = next_label
    return SubgraphPartition.compact(labels)


def graphs_equal(a: WeightedGraph, b: WeightedGraph, tol: float = 0.0) -> bool:
    if a.n != b.n:
        return False
    diff = (a.adjacency - b.adjacency)
    return (abs(diff).max() if diff.nnz else 0.0) <= tol
