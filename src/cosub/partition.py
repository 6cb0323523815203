"""Partition detection: greedy modularity (SC/LC), edge-aware reweighting, Haar pairs."""

from __future__ import annotations

from array import array
from collections import _count_elements, deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import SubgraphPartition, WeightedGraph, _components, as_signal

# Minimum modularity gain for a node move to be accepted; guards against
# floating-point drift cycles without rejecting any meaningful move.
GAIN_EPS = 1e-12


@dataclass(frozen=True)
class PartitionConfig:
    """Settings for greedy modularity detection.

    variant "sc" runs the local-move phase exactly once and yields small
    communities; "lc" iterates move/aggregate rounds and stops before any
    community exceeds `tau` original nodes.  `seed` (non-negative) fixes the
    initial queue order of the local moves; `edge_aware` asks pipelines to
    reweight the adjacency from the signal before detection.
    """

    variant: str = "sc"
    tau: int = 1000
    seed: int = 0
    edge_aware: bool = False

    def __post_init__(self):
        if self.variant not in ("sc", "lc"):
            raise ValueError("variant must be 'sc' or 'lc'")
        if self.variant == "lc" and self.tau < 2:
            raise ValueError("tau must be at least 2 for the lc variant")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def modularity(graph: WeightedGraph, partition: SubgraphPartition) -> float:
    """Partition quality against the degree-based null model."""
    if partition.n != graph.n:
        raise ValueError("partition length does not match graph size")
    strength = graph.degrees
    total = strength.sum()
    if total == 0.0:
        raise ValueError("modularity is undefined for a graph with zero total weight")
    u, v, w = graph.edge_arrays()
    same = partition.labels[u] == partition.labels[v]
    internal = 2.0 * w[same].sum()
    tot = np.bincount(partition.labels, weights=strength,
                      minlength=partition.n_subgraphs + 1)[1:]
    return float(internal / total - np.square(tot / total).sum())


def haar_partition(n: int) -> SubgraphPartition:
    """Pair consecutive nodes: labels (1,1,2,2,...,n/2,n/2)."""
    if n < 2 or n % 2 != 0:
        raise ValueError("the Haar partition needs an even number of nodes")
    return SubgraphPartition(np.repeat(np.arange(1, n // 2 + 1), 2), n // 2)


def edge_aware_adjacency(graph: WeightedGraph, signal) -> WeightedGraph:
    """Reweight edges with a Gaussian kernel of signal differences.

    The bandwidth is the population standard deviation of the absolute signal
    differences across edges.  A zero bandwidth (constant differences) carries
    no edge information and degrades to unit weights everywhere.
    """
    x = as_signal(signal, graph.n)
    # Scaled by an exact power of two to |x| < 1, so no difference or square
    # overflows; the kernel reads only diffs / sigma, which the scale leaves
    # as it was.
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    u, v, _ = graph.edge_arrays()
    diffs = np.abs(x[u] - x[v])
    sigma = float(diffs.std()) if len(diffs) else 0.0
    if sigma == 0.0:
        weights = np.ones(len(u))
    else:
        # Clamped: far tails of the kernel underflow to 0.0.
        weights = np.maximum(np.exp(-np.square(diffs) / (2.0 * sigma * sigma)),
                             np.finfo(np.float64).tiny)
    return WeightedGraph(graph.n, u, v, weights)


class _WorkingGraph:
    """Aggregated graph used inside the greedy optimization.

    Self-loops hold the full internal weight of the merged groups so that
    modularity bookkeeping stays exact across aggregation rounds; they are
    never exported.
    """

    def __init__(self, adj: sp.csr_matrix, loops: np.ndarray, member: np.ndarray):
        self.adj = adj              # off-diagonal part, symmetric
        self.loops = loops          # diagonal weights, counted once in strengths
        self.member = member        # working node of each original node
        self.strength = np.asarray(adj.sum(axis=1)).ravel() + loops
        self.n = adj.shape[0]

    @classmethod
    def from_graph(cls, graph: WeightedGraph) -> "_WorkingGraph":
        """The graph with every weight scaled by the power of two that puts
        the largest in [1, 2): exact, 1 for unit weights, and every gain
        scales with it, so the moves do not depend on the weights' unit."""
        adj = graph.adjacency
        adj.data = np.ldexp(adj.data, 1 - np.frexp(adj.data.max())[1])
        return cls(adj, np.zeros(graph.n), np.arange(graph.n))


def _local_moves(work: _WorkingGraph, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """Queue-driven local moves (the fast local-move phase of Traag, Waltman
    & van Eck 2019); returns node->community ids and whether any move was
    accepted.  The queue starts with every node in random order; a node that
    moves queues its neighbours outside its new community that are not queued
    yet.  Ties in gain go to the smallest community id."""
    adj = work.adj
    # Plain Python numbers give the same IEEE sums as numpy scalars, at a
    # fraction of the interpreter cost.  The entries stay in `array` buffers
    # and become Python objects only while their node is visited, so the
    # phase holds no object per adjacency entry.
    # With unit weights a row's link weight to a community is its neighbour
    # count there, which `collections`' C counting kernel gives exactly (an
    # int below 2**53 is the float sum of that many 1.0s), in the same
    # first-seen order.  Any other weight keeps the ordered float sum.
    unit = bool(np.all(adj.data == 1.0))
    indptr = adj.indptr.tolist()
    indices = array("q", adj.indices.astype(np.int64).tobytes())
    data = array("d", adj.data.astype(np.float64).tobytes())
    strength, total = work.strength.tolist(), float(work.strength.sum())
    comm = list(range(work.n))
    comm_tot = list(strength)
    queue = deque(rng.permutation(work.n).tolist())
    queued = [True] * work.n
    improved = False
    while queue:
        i = queue.popleft()
        queued[i] = False
        start, stop = indptr[i], indptr[i + 1]
        if start == stop:
            continue
        row = indices[start:stop]
        links: dict[int, float] = {}
        if unit:
            _count_elements(links, map(comm.__getitem__, row))
        else:
            for j, w in zip(row, data[start:stop]):
                c = comm[j]
                links[c] = links.get(c, 0.0) + w
        old = comm[i]
        d_i = strength[i]
        comm_tot[old] -= d_i
        base = links.pop(old, 0.0) - d_i * comm_tot[old] / total
        # Strict improvement, exact ties to the smallest id: the same
        # choice as a strict scan in ascending candidate order.
        best_c, best_gain = old, GAIN_EPS
        for c, link in links.items():
            gain = link - d_i * comm_tot[c] / total - base
            if gain > best_gain or (gain == best_gain and best_c != old and c < best_c):
                best_c, best_gain = c, gain
        comm[i] = best_c
        comm_tot[best_c] += d_i
        if best_c != old:
            improved = True
            for j in row:
                if not queued[j] and comm[j] != best_c:
                    queued[j] = True
                    queue.append(j)
    return np.array(comm, dtype=np.int64), improved


def _split_disconnected(work: _WorkingGraph, comm: np.ndarray) -> np.ndarray:
    """Split any community that is disconnected in the working graph into its
    connected components (a strict modularity improvement).  Components are
    numbered by their smallest node."""
    adj = work.adj
    keep = np.repeat(comm, np.diff(adj.indptr)) == comm[adj.indices]
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    intra = sp.csr_matrix((np.ones(kept_before[-1]), adj.indices[keep],
                           kept_before[adj.indptr]), shape=adj.shape)
    return _components(intra).labels - 1


def _aggregate(work: _WorkingGraph, comm: np.ndarray) -> _WorkingGraph:
    """One working node per community; `comm` numbers them 0..k-1, as
    `_split_disconnected` does."""
    k = int(comm.max()) + 1
    inc = sp.csr_matrix((np.ones(work.n), (np.arange(work.n), comm)), shape=(work.n, k))
    merged = (inc.T @ work.adj @ inc).tocsr()
    # The triple product's diagonal is the doubled internal weight of each
    # merged group; it moves into the loop array.
    loops = np.bincount(comm, weights=work.loops, minlength=k) + merged.diagonal()
    merged.setdiag(0.0)
    merged.eliminate_zeros()
    return _WorkingGraph(merged, loops, comm[work.member])


def louvain(graph: WeightedGraph, config: PartitionConfig) -> SubgraphPartition:
    """Greedy modularity partition into connected communities.

    Each round runs one queue-driven local-move phase and splits the
    communities it left disconnected into their components.  "sc" stops
    after the first round, on the original graph.  "lc" aggregates and
    repeats until no move is accepted, or stops (restoring the previous
    state) as soon as a round would grow some community beyond `config.tau`
    original nodes.  Identical (graph, config) inputs give identical
    partitions.
    """
    if graph.num_edges == 0:
        raise ValueError("partition detection needs at least one edge")
    rng = np.random.default_rng(config.seed)
    current = _WorkingGraph.from_graph(graph)
    while True:
        comm, improved = _local_moves(current, rng)
        if not improved:
            return SubgraphPartition.compact(current.member)
        comm = _split_disconnected(current, comm)
        if config.variant == "sc":
            return SubgraphPartition.compact(comm)
        merged = _aggregate(current, comm)
        if np.bincount(merged.member).max() > config.tau:
            return SubgraphPartition.compact(current.member)
        if merged.n == current.n:
            return SubgraphPartition.compact(merged.member)
        current = merged
