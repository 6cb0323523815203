"""Per-level operator families, analysis/synthesis, the cascade and its atoms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import (SubgraphPartition, WeightedGraph, as_signal, coarsen,
                     partition_is_connected, split_adjacency)
from .partition import PartitionConfig, edge_aware_adjacency, louvain
from .spectral import LocalEigenBasis, local_eigenbasis


@dataclass(frozen=True, eq=False)
class LevelOperators:
    """One cascade level's analysis, synthesis and grouping operators.

    Everything is stored as per-subgraph blocks: `node_lists[k]` are the
    original node indices of subgraph k+1 (ascending) and `bases[k]` its local
    eigenbasis.  Channel l collects the l-th local mode of every subgraph with
    at least l nodes, in ascending label order.  Concatenating the blocks'
    local coefficients (all modes of subgraph 1, then of subgraph 2, ...)
    gives the block order; `order` is the stable argsort of each coefficient's
    mode index in block order, so `flat[order]` lists channel 1, then channel
    2, and so on, and channel l is the slice `offsets[l-1]:offsets[l]`.  Only
    channel 1 (the approximation) is coarsened further: its graph is the
    level's `PyramidLevel.coarse_graph`.
    """

    partition: SubgraphPartition
    node_lists: list
    bases: list
    order: np.ndarray
    offsets: np.ndarray
    p: int

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def n_channels(self) -> int:
        return len(self.offsets) - 1

    @property
    def channel_sizes(self) -> list[int]:
        return np.diff(self.offsets).tolist()

    @property
    def index_lists(self) -> list[np.ndarray]:
        """`index_lists[l-1]`: the subgraph labels of channel l, ascending."""
        sizes = self.partition.sizes
        return [np.flatnonzero(sizes >= l) + 1 for l in range(1, self.n_channels + 1)]

    def _channel_matrix(self, l: int, basis_field: str | None) -> sp.csc_matrix:
        """Channel l as an n x |channel| CSC matrix: column j holds, on its
        subgraph's nodes, the l-th column of that subgraph's `basis_field`
        matrix, or ones when `basis_field` is None."""
        if not 1 <= l <= self.n_channels:
            raise ValueError(f"channel {l} out of range")
        members = np.flatnonzero(self.partition.sizes >= l)
        nodes = [self.node_lists[k] for k in members]
        indptr = np.concatenate([[0], np.cumsum([len(v) for v in nodes])])
        if basis_field is None:
            data = np.ones(indptr[-1])
        else:
            data = np.concatenate([getattr(self.bases[k], basis_field)[:, l - 1]
                                   for k in members])
        return sp.csc_matrix((data, np.concatenate(nodes), indptr),
                             shape=(self.n, len(members)))

    def analysis_matrix(self, l: int) -> sp.csc_matrix:
        """Channel-l analysis operator: zero-padded l-th local modes as columns."""
        return self._channel_matrix(l, "analysis")

    def synthesis_matrix(self, l: int) -> sp.csc_matrix:
        """Channel-l synthesis operator built from the dual bases."""
        return self._channel_matrix(l, "synthesis")

    def grouping_matrix(self, l: int) -> sp.csc_matrix:
        """Node-to-supernode indicator for subgraphs with at least l nodes."""
        return self._channel_matrix(l, None)


def build_operators(graph: WeightedGraph, partition: SubgraphPartition,
                    p: int) -> LevelOperators:
    """Assemble the level operators from per-subgraph Laplacian eigenbases."""
    if partition.n != graph.n:
        raise ValueError("partition length does not match graph size")
    if not partition_is_connected(graph, partition):
        raise ValueError("every subgraph of the partition must be connected")
    node_lists = partition.node_lists()
    # One grouped pass over the intra-subgraph edges keeps the whole
    # extraction linear in the graph size.
    local_rank = np.empty(graph.n, dtype=np.int64)
    for nodes in node_lists:
        local_rank[nodes] = np.arange(len(nodes))
    labels = partition.labels
    u, v, w = graph.edge_arrays()
    same = labels[u] == labels[v]
    bu, bv, bw = u[same], v[same], w[same]
    block = labels[bu] - 1
    order = np.argsort(block, kind="stable")
    bounds = np.searchsorted(block[order], np.arange(partition.n_subgraphs + 1))
    bases: list[LocalEigenBasis] = []
    for k, nodes in enumerate(node_lists):
        sel = order[bounds[k]:bounds[k + 1]]
        rows = local_rank[bu[sel]]
        cols = local_rank[bv[sel]]
        adj = np.zeros((len(nodes), len(nodes)))
        adj[rows, cols] = bw[sel]
        adj[cols, rows] = bw[sel]
        lap = -adj
        lap[np.diag_indices(len(nodes))] = adj.sum(axis=1)
        bases.append(local_eigenbasis(lap, p))
    sizes = partition.sizes
    mode = np.arange(graph.n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return LevelOperators(partition=partition, node_lists=node_lists, bases=bases,
                          order=np.argsort(mode, kind="stable"),
                          offsets=np.concatenate([[0], np.cumsum(np.bincount(mode))]), p=p)


def analyze_level(signal, graph: WeightedGraph, operators: LevelOperators,
                  a_ext: WeightedGraph) -> tuple[list[np.ndarray], WeightedGraph]:
    """Single-level analysis: channel signals and the coarse graph.

    Channel l holds one coefficient per subgraph with at least l nodes, in
    ascending label order.  The coarse graph carries the approximation
    channel: one supernode per subgraph, joined by the summed inter-subgraph
    edges of `a_ext`.
    """
    x = as_signal(signal, graph.n)
    if operators.n != graph.n or a_ext.n != graph.n:
        raise ValueError("operators, graph and inter-subgraph adjacency disagree in size")
    flat = np.concatenate([basis.analysis.T @ x[nodes]
                           for nodes, basis in zip(operators.node_lists, operators.bases)])
    channels = np.split(flat[operators.order], operators.offsets[1:-1])
    return channels, coarsen(a_ext, operators.partition)


def synthesize_level(channels: list[np.ndarray], operators: LevelOperators) -> np.ndarray:
    """Exact single-level reconstruction from the channel signals."""
    if len(channels) != operators.n_channels:
        raise ValueError("channel count does not match the operators")
    sizes = operators.channel_sizes
    for l, (chan, size) in enumerate(zip(channels, sizes), start=1):
        if len(chan) != size:
            raise ValueError(f"channel {l} has length {len(chan)}, expected {size}")
    flat = np.empty(operators.n)
    flat[operators.order] = np.concatenate(channels)
    x = np.zeros(operators.n)
    start = 0
    for nodes, basis in zip(operators.node_lists, operators.bases):
        x[nodes] = basis.synthesis @ flat[start:start + len(nodes)]
        start += len(nodes)
    return x


@dataclass(frozen=True, eq=False)
class PyramidLevel:
    """One analysis level: its partition, operators, channels and structure.

    The level's input graph is stored split as a_int + a_ext; coarse_graph,
    the approximation channel's graph, is the next level's input graph.
    """

    partition: SubgraphPartition
    operators: LevelOperators
    channels: list
    a_int: WeightedGraph
    a_ext: WeightedGraph
    coarse_graph: WeightedGraph

    @property
    def n(self) -> int:
        return self.operators.n

    @property
    def n_channels(self) -> int:
        return self.operators.n_channels

    @property
    def approximation(self) -> np.ndarray:
        return self.channels[0]


@dataclass(frozen=True, eq=False)
class Pyramid:
    """Full analysis cascade output.

    `final_approximation` is the deepest approximation channel (the input
    signal itself when no level was built); together with the detail channels
    of every level it reconstructs the original signal exactly.
    """

    levels: list
    final_approximation: np.ndarray
    p: int
    n: int

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def detail_counts(self) -> int:
        return sum(sum(len(c) for c in level.channels[1:]) for level in self.levels)

    def truncated(self, depth: int) -> "Pyramid":
        """Shallower pyramid using only the first `depth` levels."""
        if not 1 <= depth <= self.num_levels:
            raise ValueError("truncation depth out of range")
        return Pyramid(levels=self.levels[:depth],
                       final_approximation=self.levels[depth - 1].channels[0].copy(),
                       p=self.p, n=self.n)


def _as_partitioner(partitions):
    if isinstance(partitions, PartitionConfig):
        config = partitions

        def detect(graph: WeightedGraph, signal: np.ndarray) -> SubgraphPartition:
            target = edge_aware_adjacency(graph, signal) if config.edge_aware else graph
            return louvain(target, config)

        return detect
    if callable(partitions):
        return partitions
    fixed = list(partitions)
    state = {"next": 0}

    def supply(graph: WeightedGraph, signal: np.ndarray):
        if state["next"] >= len(fixed):
            return None
        part = fixed[state["next"]]
        state["next"] += 1
        return part

    return supply


def analyze_cascade(graph: WeightedGraph, signal, partitions, p: int = 1,
                    max_levels: int | None = None) -> Pyramid:
    """Iterate single-level analysis on the approximation channel.

    `partitions` may be a PartitionConfig (detection is re-run per level, the
    edge-aware variant reweighting with the level's approximation signal), a
    callable (graph, signal) -> SubgraphPartition, or a fixed sequence of
    partitions consumed one per level.  The cascade stops at `max_levels`,
    when the approximation graph is a single node or has no edges left, when
    the supply of fixed partitions is exhausted, or when detection returns
    only singletons (no coarsening progress).
    """
    if max_levels is not None and max_levels < 1:
        raise ValueError("max_levels must be at least 1")
    x = as_signal(signal, graph.n)
    detect = _as_partitioner(partitions)
    levels: list[PyramidLevel] = []
    current = graph
    while True:
        if max_levels is not None and len(levels) >= max_levels:
            break
        if current.n <= 1 or current.num_edges == 0:
            break
        part = detect(current, x)
        if part is None:
            break
        if part.n_subgraphs == current.n:
            break
        a_int, a_ext = split_adjacency(current, part)
        ops = build_operators(current, part, p)
        channels, coarse = analyze_level(x, current, ops, a_ext)
        levels.append(PyramidLevel(partition=part, operators=ops, channels=channels,
                                   a_int=a_int, a_ext=a_ext, coarse_graph=coarse))
        current = coarse
        x = channels[0]
    return Pyramid(levels=levels, final_approximation=x.copy(), p=p, n=graph.n)


def synthesize_cascade(pyramid: Pyramid) -> np.ndarray:
    """Reconstruct the original signal from the detail channels and the final
    approximation, inverting the cascade level by level."""
    x = pyramid.final_approximation.copy()
    for level in reversed(pyramid.levels):
        if len(x) != len(level.channels[0]):
            raise ValueError("pyramid approximation sizes are inconsistent")
        x = synthesize_level([x] + list(level.channels[1:]), level.operators)
    return x


@dataclass(frozen=True, eq=False)
class Atoms:
    """Analysis atoms in original-graph coordinates.

    `approximation[j-1]` has one column per level-j supernode;
    `details[j-1][l]` has the channel-l atoms of level j (l >= 2).  Columns
    are sparse: an atom is exactly zero outside its subgraph tree.
    """

    approximation: list
    details: list

    @property
    def total_detail_atoms(self) -> int:
        return sum(mat.shape[1] for level in self.details for mat in level.values())


def compute_atoms(pyramid: Pyramid) -> Atoms:
    """Compose the per-level analysis operators into whole-graph atoms."""
    approx: list[sp.csc_matrix] = []
    details: list[dict[int, sp.csc_matrix]] = []
    carry: sp.csc_matrix | None = None
    for level in pyramid.levels:
        ops = level.operators
        level_details = {}
        for l in range(2, ops.n_channels + 1):
            theta = ops.analysis_matrix(l)
            level_details[l] = theta if carry is None else (carry @ theta).tocsc()
        theta1 = ops.analysis_matrix(1)
        phi = theta1 if carry is None else (carry @ theta1).tocsc()
        approx.append(phi)
        details.append(level_details)
        carry = phi
    return Atoms(approximation=approx, details=details)


# -- dense verification helpers ---------------------------------------------


def stacked_analysis(operators: LevelOperators) -> np.ndarray:
    """Dense [Theta_1 ... Theta_N] matrix (columns grouped by channel)."""
    return np.hstack([operators.analysis_matrix(l).toarray()
                      for l in range(1, operators.n_channels + 1)])


def stacked_synthesis(operators: LevelOperators) -> np.ndarray:
    """Dense [Pi_1 ... Pi_N] matrix (columns grouped by channel)."""
    return np.hstack([operators.synthesis_matrix(l).toarray()
                      for l in range(1, operators.n_channels + 1)])


def biorthogonality_residual(operators: LevelOperators) -> float:
    """Max-norm deviation of the synthesis/analysis stack from the identity."""
    theta = stacked_analysis(operators)
    pi = stacked_synthesis(operators)
    return float(np.abs(pi @ theta.T - np.eye(operators.n)).max())
