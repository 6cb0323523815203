"""Per-level operator families, analysis/synthesis, the cascade and its atoms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .graphs import SubgraphPartition, WeightedGraph, as_signal, coarsen, split_adjacency
from .partition import PartitionConfig, edge_aware_adjacency, louvain
from .spectral import LocalEigenBasis, dual_basis, laplacian_eigh


@dataclass(frozen=True, eq=False)
class SizeClass:
    """The subgraphs of one size s in a level, ascending by label: row i has
    the nodes `nodes[i]` (ascending) and the channel-order positions
    `positions[i]` of the s coefficients, mode 1 first.  Its basis is row
    `rows[i]` of the read-only (d, s) `eigenvalues` and (d, s, s) `analysis`
    and `synthesis` stacks of the class's d distinct bases, as
    `laplacian_eigh` solved them for the norm exponent `p`."""

    nodes: np.ndarray
    positions: np.ndarray
    rows: np.ndarray
    eigenvalues: np.ndarray
    analysis: np.ndarray
    p: int

    @cached_property
    def synthesis(self) -> np.ndarray:
        """The analysis stack for p=2; for p=1 its `dual_basis`, solved on
        first read, so that analysis alone never pays for it."""
        if self.p == 2:
            return self.analysis
        dual = dual_basis(self.analysis)
        dual.flags.writeable = False
        return dual

    def per_block(self, stack: np.ndarray) -> np.ndarray:
        """A stack lined up with the rows for a broadcasting `np.matmul`: as it
        is when all rows share one basis or each has its own."""
        return stack if len(stack) in (1, len(self.rows)) else stack[self.rows]


@dataclass(frozen=True, eq=False)
class LevelOperators:
    """One cascade level's analysis, synthesis and grouping operators.

    The subgraphs are stored by size, one `SizeClass` per size, largest
    first, so analysis and synthesis take one stacked product per class.
    Subgraphs with byte-identical Laplacians (equal local edges, see
    `build_operators`) share one basis row.  `bases` is a per-subgraph view
    for reading, built from the classes on first read.

    Channel l collects the l-th local mode of every subgraph with at least l
    nodes, in ascending label order.  Concatenating the blocks' local
    coefficients (all modes of subgraph 1, then of subgraph 2, ...) gives the
    block order; `order` is the stable argsort of each coefficient's mode
    index in block order, so `flat[order]` lists channel 1, then channel 2,
    and so on, and channel l is the slice `offsets[l-1]:offsets[l]`.

    `a_int` and `a_ext` are the level's graph split once into its intra- and
    inter-subgraph edges: the first gave the local Laplacians, the second
    coarsens channel 1 (the approximation) into the next level's graph.  The
    sparse channel operators are not stored: `_channel_parts` gathers them
    from the classes when they are asked for.
    """

    partition: SubgraphPartition
    classes: tuple
    order: np.ndarray
    offsets: np.ndarray
    a_int: WeightedGraph
    a_ext: WeightedGraph

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def n_channels(self) -> int:
        return len(self.offsets) - 1

    @property
    def channel_sizes(self) -> list[int]:
        return np.diff(self.offsets).tolist()

    @cached_property
    def bases(self) -> list[LocalEigenBasis]:
        """`bases[k]`: the `LocalEigenBasis` of subgraph k+1, views of its
        class's stacks.  One object per distinct basis row, which every
        subgraph of that row shares."""
        bases = [None] * self.partition.n_subgraphs
        for c in self.classes:
            shared = [LocalEigenBasis(*parts)
                      for parts in zip(c.eigenvalues, c.analysis, c.synthesis)]
            for first, row in zip(c.nodes[:, 0].tolist(), c.rows.tolist()):
                bases[self.partition.labels[first] - 1] = shared[row]
        return bases

    @cached_property
    def index_lists(self) -> list[np.ndarray]:
        """`index_lists[l-1]`: the subgraph labels of channel l, ascending."""
        sizes = self.partition.sizes
        return [np.flatnonzero(sizes >= l) + 1 for l in range(1, self.n_channels + 1)]

    def _channel_parts(self, basis_field: str | None, channels):
        """Yield the CSC arrays `(data, indices, indptr)` of each channel l in
        `channels`: column j of channel l holds, on its subgraph's nodes, the
        l-th column of that subgraph's `basis_field` matrix, or ones when
        `basis_field` is None.

        Channel l's subgraphs are the |channel l| largest, which make up the
        classes of size at least l: a prefix of `classes`, and of their
        class-major order `by_size`.  `pos` places the channel's entries, in
        label order, in that prefix's node matrices.  `indices`, `indptr`
        and `pos` are computed once per member set and shared by its
        channels; `_csc` copies them into each matrix.  Each channel then
        costs one gather from each class's stack, of the rows of its (d, s)
        mode-l slice, and, when it spans several classes, one by `pos`.
        """
        sizes = self.partition.sizes
        by_size = np.argsort(-sizes, kind="stable")
        class_start = np.empty_like(by_size)
        class_start[by_size] = np.cumsum(sizes[by_size]) - sizes[by_size]
        nodes = np.concatenate([c.nodes.ravel() for c in self.classes])
        last = None
        for l in channels:
            count = self.offsets[l] - self.offsets[l - 1]
            if count != last:
                last, members = count, np.sort(by_size[:count])
                counts = sizes[members]
                ends = np.cumsum(counts)
                pos = np.arange(ends[-1]) + np.repeat(class_start[members] - (ends - counts),
                                                      counts)
                indices, indptr = nodes[pos], np.concatenate([[0], ends])
            if basis_field is None:
                data = np.ones(len(pos))
            else:
                parts = [getattr(c, basis_field)[:, :, l - 1].take(c.rows, axis=0).ravel()
                         for c in self.classes if c.nodes.shape[1] >= l]
                data = parts[0] if len(parts) == 1 else np.concatenate(parts)[pos]
            yield data, indices, indptr

    def _channel_matrix(self, l: int, basis_field: str | None) -> sp.csc_matrix:
        """Channel l as an n x |channel| CSC matrix (see `_channel_parts`)."""
        if not 1 <= l <= self.n_channels:
            raise ValueError(f"channel {l} out of range")
        return _csc(self.n, *next(self._channel_parts(basis_field, [l])))

    def _stacked(self, basis_field: str | None) -> sp.csc_matrix:
        """Every channel side by side, channel 1 first: an n x n CSC matrix
        whose columns are in channel order (`order`/`offsets`)."""
        data, indices, _ = zip(*self._channel_parts(basis_field, range(1, self.n_channels + 1)))
        # Column k is coefficient `order[k]` of the block order: one entry per node of its block.
        counts = np.repeat(self.partition.sizes, self.partition.sizes)[self.order]
        return _csc(self.n, np.concatenate(data), np.concatenate(indices),
                    np.concatenate([[0], np.cumsum(counts)]))

    def analysis_matrix(self, l: int) -> sp.csc_matrix:
        """Channel-l analysis operator: zero-padded l-th local modes as columns."""
        return self._channel_matrix(l, "analysis")

    def synthesis_matrix(self, l: int) -> sp.csc_matrix:
        """Channel-l synthesis operator built from the dual bases."""
        return self._channel_matrix(l, "synthesis")

    def grouping_matrix(self, l: int) -> sp.csc_matrix:
        """Node-to-supernode indicator for subgraphs with at least l nodes."""
        return self._channel_matrix(l, None)


def _index_dtype(*sizes: int) -> type:
    """The index dtype scipy picks for a sparse matrix of these sizes (its
    shape and entry count): int32 unless one of them reaches 2**31."""
    return np.int32 if max(sizes) < 2**31 else np.int64


def _csc(n: int, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> sp.csc_matrix:
    """n-row CSC matrix owning copies of `indices` and `indptr` in scipy's
    own index dtype, which scipy takes as they are: callers may share theirs."""
    dtype = _index_dtype(n, len(indptr) - 1, len(data))
    return sp.csc_matrix((data, indices.astype(dtype), indptr.astype(dtype)),
                         shape=(n, len(indptr) - 1))


# The largest subgraph accepted: s nodes cost O(s^3) time and six (s, s) arrays (README).
MAX_BLOCK_SIZE = 2048


class BlockSizeError(ValueError):
    """A subgraph above `MAX_BLOCK_SIZE` nodes."""


def _distinct_laplacians(a_int: WeightedGraph, partition: SubgraphPartition,
                         local_rank: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Per size s, largest first: the blocks of size s (ascending label), each
    one's row among the distinct ones, and their Laplacians as one (d, s, s) array.

    A block is keyed by its size and the bytes of its local (row, col,
    weight) edge arrays.  Edge weights are positive, so two keys are equal
    exactly when the two Laplacians are byte-identical; only the first block
    of each key gets a dense Laplacian.
    """
    sizes = partition.sizes
    # One grouped pass over the intra-subgraph edges keeps the whole
    # extraction linear in the graph size.  Within a block the edges stay
    # sorted by (row, col), as `a_int` stores them.
    bu, bv, bw = a_int.edge_arrays()
    block = partition.labels[bu] - 1
    order = np.argsort(block, kind="stable")
    bounds = np.searchsorted(block[order], np.arange(partition.n_subgraphs + 1)).tolist()
    # The weights ride along as their int64 bit patterns, so each block's
    # edges are one contiguous byte range of `local`.
    local = np.stack([local_rank[bu[order]], local_rank[bv[order]],
                      bw[order].view(np.int64)], axis=1)
    slot_of: dict = {}
    slots = np.array([slot_of.setdefault((size, local[lo:hi].tobytes()), len(slot_of))
                      for size, lo, hi in zip(sizes.tolist(), bounds[:-1], bounds[1:])])
    classes = []
    for size in np.unique(sizes)[::-1].tolist():
        blocks = np.flatnonzero(sizes == size)
        # Slots are numbered in first-seen order, so `rows` keeps it.
        _, first, rows = np.unique(slots[blocks], return_index=True, return_inverse=True)
        laps = np.zeros((len(first), size, size))
        for lap, k in zip(laps, blocks[first].tolist()):
            r, c, w = local[bounds[k]:bounds[k + 1]].T
            lap[r, c] = lap[c, r] = w.view(np.float64)
        # Adjacency to Laplacian in place; each stacked row sum has the bits of its block's own.
        laps[:, np.arange(size), np.arange(size)] = -laps.sum(axis=2)
        np.negative(laps, out=laps)
        classes.append((blocks, rows, laps))
    return classes


def build_operators(graph: WeightedGraph, partition: SubgraphPartition,
                    p: int) -> LevelOperators:
    """Assemble the level operators from per-subgraph Laplacian eigenbases;
    the level's one `split_adjacency` gives their `a_int` and `a_ext`.

    Only the distinct blocks (`_distinct_laplacians`) are solved, one
    `laplacian_eigh` per size class; every block with the same Laplacian
    bytes uses that basis row.  The eigensolve rejects a disconnected subgraph;
    one above `MAX_BLOCK_SIZE` nodes raises `BlockSizeError` before any dense allocation.
    A p=1 dual basis is solved, and its residual checked, when a synthesis
    first reads it (`SizeClass.synthesis`).
    """
    a_int, a_ext = split_adjacency(graph, partition)
    sizes = partition.sizes
    if sizes.max() > MAX_BLOCK_SIZE:
        raise BlockSizeError(f"subgraph {sizes.argmax() + 1} has {sizes.max()} nodes, above "
                             f"the block-size bound of {MAX_BLOCK_SIZE}")
    start = np.cumsum(sizes) - sizes
    # Every subgraph's nodes, one subgraph after another (the block order),
    # and the local mode index of every coefficient in block order, which is
    # also each node's rank inside its subgraph.
    block_nodes = np.argsort(partition.labels, kind="stable")
    mode = np.arange(graph.n) - np.repeat(start, sizes)
    local_rank = np.empty(graph.n, dtype=np.int64)
    local_rank[block_nodes] = mode
    order = np.argsort(mode, kind="stable")
    position = np.empty(graph.n, dtype=np.int64)
    position[order] = np.arange(graph.n)
    classes = []
    for blocks, rows, laplacians in _distinct_laplacians(a_int, partition, local_rank):
        cells = start[blocks][:, None] + np.arange(laplacians.shape[1])
        w, q = laplacian_eigh(laplacians, p)
        w.flags.writeable = q.flags.writeable = False
        classes.append(SizeClass(block_nodes[cells], position[cells], rows, w, q, p))
    return LevelOperators(partition=partition, classes=tuple(classes), order=order,
                          offsets=np.concatenate([[0], np.cumsum(np.bincount(mode))]),
                          a_int=a_int, a_ext=a_ext)


def analyze_level(signal, graph: WeightedGraph, operators: LevelOperators,
                  a_ext: WeightedGraph) -> tuple[list[np.ndarray], WeightedGraph]:
    """Single-level analysis: channel signals and the coarse graph.

    Channel l holds one coefficient per subgraph with at least l nodes, in
    ascending label order.  The coarse graph carries the approximation
    channel: one supernode per subgraph, joined by the summed inter-subgraph
    edges of `a_ext`.  Each size class takes one stacked product, bit-identical
    to each block's `basis.analysis.T @ x[nodes]`.
    """
    x = as_signal(signal, graph.n)
    if operators.n != graph.n or a_ext.n != graph.n:
        raise ValueError("operators, graph and inter-subgraph adjacency disagree in size")
    flat = np.empty(operators.n)
    for c in operators.classes:
        flat[c.positions] = np.matmul(c.per_block(c.analysis).transpose(0, 2, 1),
                                      x[c.nodes][..., None])[..., 0]
    cuts = operators.offsets.tolist()
    return [flat[a:b] for a, b in zip(cuts[:-1], cuts[1:])], coarsen(a_ext, operators.partition)


def synthesize_level(channels: list[np.ndarray], operators: LevelOperators) -> np.ndarray:
    """Exact single-level reconstruction from the channel signals, one
    stacked product per size class (each block's `basis.synthesis @ c`)."""
    if len(channels) != operators.n_channels:
        raise ValueError("channel count does not match the operators")
    sizes = operators.channel_sizes
    for l, (chan, size) in enumerate(zip(channels, sizes), start=1):
        if len(chan) != size:
            raise ValueError(f"channel {l} has length {len(chan)}, expected {size}")
    flat = np.concatenate(channels)
    x = np.empty(operators.n)
    for c in operators.classes:
        x[c.nodes] = np.matmul(c.per_block(c.synthesis), flat[c.positions][..., None])[..., 0]
    return x


@dataclass(frozen=True, eq=False)
class PyramidLevel:
    """One analysis level: its operators, channels and coarse graph.

    `partition`, `a_int`, `a_ext` and `n` read through to the operators;
    coarse_graph, the approximation channel's graph, is the next level's
    input graph.
    """

    operators: LevelOperators
    channels: list
    coarse_graph: WeightedGraph

    @property
    def partition(self) -> SubgraphPartition:
        return self.operators.partition

    @property
    def a_int(self) -> WeightedGraph:
        return self.operators.a_int

    @property
    def a_ext(self) -> WeightedGraph:
        return self.operators.a_ext

    @property
    def n(self) -> int:
        return self.operators.n


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
    fixed = iter(partitions)
    return lambda graph, signal: next(fixed, None)


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
    if p not in (1, 2):
        raise ValueError("normalization exponent must be 1 or 2")
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
        if part.n != current.n:
            raise ValueError("partition length does not match graph size")
        if part.n_subgraphs == current.n:
            break
        ops = build_operators(current, part, p)
        channels, coarse = analyze_level(x, current, ops, ops.a_ext)
        levels.append(PyramidLevel(operators=ops, channels=channels, coarse_graph=coarse))
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
    """Compose the per-level analysis operators into whole-graph atoms.

    Level 1's atoms are its channel matrices.  At each deeper level the whole
    analysis operator (columns in channel order) is built once and composed
    with the previous approximation atoms by one sparse product, which is then
    split into channels at `offsets`.  scipy computes each product column from
    that column of the operator alone, so every channel is bit-identical to
    composing it by a product of its own.
    """
    approx: list[sp.csc_matrix] = []
    details: list[dict[int, sp.csc_matrix]] = []
    carry: sp.csc_matrix | None = None
    for level in pyramid.levels:
        ops = level.operators
        if carry is None:
            channels = [_csc(ops.n, *part) for part in
                        ops._channel_parts("analysis", range(1, ops.n_channels + 1))]
        else:
            atoms = carry @ ops._stacked("analysis")
            cuts = atoms.indptr[ops.offsets]
            channels = [_csc(atoms.shape[0], atoms.data[lo:hi], atoms.indices[lo:hi],
                             atoms.indptr[a:b + 1] - lo)
                        for a, b, lo, hi in zip(ops.offsets[:-1], ops.offsets[1:],
                                                cuts[:-1], cuts[1:])]
        approx.append(channels[0])
        details.append(dict(enumerate(channels[1:], start=2)))
        carry = channels[0]
    return Atoms(approximation=approx, details=details)
