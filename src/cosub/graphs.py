"""Weighted graphs, connected-subgraph partitions, Laplacians and coarsening."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


# Largest node count whose (u, v) sort key u * n + v fits in an int64.
MAX_NODE_COUNT = 3_037_000_499


class WeightedGraph:
    """Undirected weighted graph over nodes 0..n-1.

    Edges carry strictly positive weights, self-loops are rejected and each
    unordered pair is stored once, as the parallel arrays of `edge_arrays`;
    they must not be mutated after construction.  Nothing else is stored:
    `adjacency` builds a new symmetric sparse matrix on every call.
    `_checked` enforces this on all input; derived graphs and `sbm_graph`,
    valid by construction, use the raw `__init__`.
    """

    __slots__ = ("n", "_u", "_v", "_w")

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        # Raw constructor, unchecked: int64 u < v sorted by (u, v), float64 w.
        self.n = int(n)
        self._u = u
        self._v = v
        self._w = w

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        """Build from an iterable of (u, v) or (u, v, weight) tuples."""
        edges = list(edges)
        malformed = [e for e in edges if len(e) not in (2, 3)]
        if malformed:
            raise ValueError(f"edge {tuple(malformed[0])} is not (u, v) or (u, v, weight)")
        return cls._checked(n, [e[0] for e in edges], [e[1] for e in edges],
                            [e[2] if len(e) == 3 else 1.0 for e in edges])

    @classmethod
    def from_adjacency(cls, matrix) -> "WeightedGraph":
        """Build from a dense or sparse symmetric adjacency matrix."""
        a = sp.coo_matrix(matrix)
        if a.shape[0] != a.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if not np.all(np.isfinite(a.data)):
            raise ValueError("adjacency weights must be finite")
        asym = abs(a - a.T)
        if asym.nnz and asym.max() > 1e-12 * abs(a.data).max():
            raise ValueError("adjacency matrix must be symmetric")
        if np.any(a.tocsr().diagonal() != 0.0):
            raise ValueError("self-loops are not allowed")
        upper = (a.row < a.col) & (a.data != 0.0)
        return cls._checked(a.shape[0], a.row[upper], a.col[upper], a.data[upper])

    @classmethod
    def _checked(cls, n, u, v, w) -> "WeightedGraph":
        """Graph from parallel sequences of node indices and weights.  Names the
        first edge with a non-integer index, a self-loop, an index outside 0..n-1
        or a weight not positive and finite, in that priority; rejects repeats."""
        _check_node_count(n)
        iu, iv = _node_indices(u), _node_indices(v)
        weights = _weights(w)
        lo, hi = np.minimum(iu, iv), np.maximum(iu, iv)
        valid = (lo != hi) & (lo >= 0) & (hi < n) & (weights > 0.0) & (weights < np.inf)
        if not valid.all():
            i = int(np.argmin(valid))
            if iu[i] != u[i] or iv[i] != v[i]:
                raise ValueError(f"edge ({u[i]},{v[i]}) has a non-integer node index")
            a, b, x = int(u[i]), int(v[i]), float(weights[i])
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            raise ValueError(f"weight {x} on edge ({a},{b}) is not positive and finite")
        lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
        key = lo * int(n) + hi
        order = np.argsort(key, kind="stable")
        if np.any(np.diff(key[order]) == 0):
            raise ValueError("duplicate edges in input")
        return cls(n, lo[order], hi[order], weights[order])

    # -- views ------------------------------------------------------------

    @property
    def adjacency(self) -> sp.csr_matrix:
        """Symmetric sparse adjacency, built anew on each call."""
        u, v, w = self._u, self._v, self._w
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        return sp.csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(self.n, self.n))

    @property
    def num_edges(self) -> int:
        return len(self._w)

    @property
    def degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) arrays with u < v, one entry per edge."""
        return self._u, self._v, self._w

    def dense_adjacency(self) -> np.ndarray:
        return self.adjacency.toarray()

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeightedGraph(n={self.n}, edges={self.num_edges})"


def _check_node_count(n) -> None:
    """`_checked`'s node-count test; generators run it before they allocate."""
    if n % 1 != 0:
        raise ValueError(f"node count {n} is not an integer")
    if n < 1:
        raise ValueError("graph needs at least one node")
    if n > MAX_NODE_COUNT:
        raise ValueError(f"node count {n} exceeds the maximum of {MAX_NODE_COUNT}")


def _weights(values) -> np.ndarray:
    """Edge weights as float64; an integer beyond the float range reads as
    +-inf, as a float literal that large would."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        return np.array([_float_or_inf(x) for x in values])


def _float_or_inf(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return np.inf if x > 0 else -np.inf


def _node_indices(values) -> np.ndarray:
    """Node indices that compare exactly (int64, else Python objects: never a
    float, which could round or overflow); a non-integer reads as -1."""
    a = np.asarray(values)
    if a.dtype.kind in "bi":
        return a
    a = np.asarray(values, dtype=object)
    with np.errstate(invalid="ignore"):  # inf % 1
        return np.where(a % 1 == 0, a, -1)


@dataclass(frozen=True, eq=False)
class SubgraphPartition:
    """Node labelling 1..K where each label class induces a connected subgraph.

    Connectivity is a contract of the producers (partition detection,
    component extraction); `partition_is_connected` checks it explicitly.
    """

    labels: np.ndarray
    n_subgraphs: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        k = int(self.n_subgraphs)
        if labels.ndim != 1 or len(labels) == 0:
            raise ValueError("labels must be a non-empty vector")
        if labels.min() < 1 or labels.max() > k:
            raise ValueError(f"labels must lie in 1..{k}")
        if len(np.unique(labels)) != k:
            raise ValueError("every label in 1..K must appear at least once")

    @classmethod
    def from_labels(cls, labels) -> "SubgraphPartition":
        labels = np.asarray(labels, dtype=np.int64)
        return cls(labels=labels, n_subgraphs=int(labels.max()) if len(labels) else 0)

    @classmethod
    def compact(cls, raw_labels) -> "SubgraphPartition":
        """Relabel arbitrary class ids to 1..K ordered by smallest member index."""
        raw = np.asarray(raw_labels)
        values, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
        rank = np.empty(len(values), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(1, len(values) + 1)
        return cls(labels=rank[inverse], n_subgraphs=len(values))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def sizes(self) -> np.ndarray:
        """Subgraph sizes N_k indexed by label-1."""
        return np.bincount(self.labels, minlength=self.n_subgraphs + 1)[1:]

    def node_lists(self) -> list[np.ndarray]:
        """The nodes of subgraph k for k = 1..K, each in ascending original
        index (which fixes the local order); the stable argsort lists them."""
        order = np.argsort(self.labels, kind="stable")
        bounds = np.searchsorted(self.labels[order], np.arange(1, self.n_subgraphs + 2))
        return [order[bounds[k]:bounds[k + 1]] for k in range(self.n_subgraphs)]


# -- core operations -------------------------------------------------------


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """Dense combinatorial Laplacian: degree matrix minus adjacency."""
    a = graph.dense_adjacency()
    lap = -a
    lap[np.diag_indices(graph.n)] = a.sum(axis=1)
    return lap


def split_adjacency(graph: WeightedGraph,
                    partition: SubgraphPartition) -> tuple[WeightedGraph, WeightedGraph]:
    """Split edges into intra-subgraph and inter-subgraph graphs (same node set)."""
    if partition.n != graph.n:
        raise ValueError("partition length does not match graph size")
    u, v, w = graph.edge_arrays()
    same = partition.labels[u] == partition.labels[v]
    a_int = WeightedGraph(graph.n, u[same], v[same], w[same])
    a_ext = WeightedGraph(graph.n, u[~same], v[~same], w[~same])
    return a_int, a_ext


def _components(adjacency: sp.spmatrix) -> SubgraphPartition:
    """Components of a symmetric sparse adjacency, numbered by smallest node."""
    _, raw = csgraph.connected_components(adjacency, directed=False)
    return SubgraphPartition.compact(raw)


def connected_components(graph: WeightedGraph) -> SubgraphPartition:
    """Component labelling, numbered by ascending smallest node index."""
    return _components(graph.adjacency)


def partition_is_connected(graph: WeightedGraph, partition: SubgraphPartition) -> bool:
    """True when every label class induces a connected subgraph."""
    a_int, _ = split_adjacency(graph, partition)
    return _components(a_int.adjacency).n_subgraphs == partition.n_subgraphs


def coarsen(graph: WeightedGraph, partition: SubgraphPartition) -> WeightedGraph:
    """Aggregate nodes into one supernode per subgraph label.

    Supernode j stands for label j+1.  Supernode pair weight is the summed
    weight of edges between the two subgraphs; the diagonal is forced to zero
    (no self-loops).
    """
    if partition.n != graph.n:
        raise ValueError("partition length does not match graph size")
    u, v, w = graph.edge_arrays()
    cu = partition.labels[u] - 1
    cv = partition.labels[v] - 1
    mask = cu != cv
    lo = np.minimum(cu[mask], cv[mask])
    hi = np.maximum(cu[mask], cv[mask])
    m = partition.n_subgraphs
    key = lo * m + hi
    uniq, inv = np.unique(key, return_inverse=True)
    weights = np.bincount(inv, weights=w[mask], minlength=len(uniq))
    return WeightedGraph(m, (uniq // m).astype(np.int64), (uniq % m).astype(np.int64),
                         weights.astype(np.float64))


def global_eigenbasis(graph: WeightedGraph, p: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Canonical eigendecomposition of the full-graph Laplacian.

    Requires a connected graph, which the eigensolve checks; eigenvalues ascend
    and eigenvectors follow the deterministic sign and degeneracy rules of the spectral module.
    """
    from .spectral import laplacian_eigh
    return laplacian_eigh(laplacian(graph), p)


def as_signal(values, n: int) -> np.ndarray:
    """Validate and convert node values into a float vector of length n."""
    x = np.asarray(values, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"signal must be a vector of length {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal values must be finite")
    return x


# -- generators -------------------------------------------------------------


def line_graph(n: int) -> WeightedGraph:
    """Path graph 0-1-...-(n-1) with unit weights."""
    _check_node_count(n)
    idx = np.arange(n - 1, dtype=np.int64)
    return WeightedGraph(n, idx, idx + 1, np.ones(n - 1))


def grid_graph(rows: int, cols: int) -> WeightedGraph:
    """Regular 2-d grid with unit weights, node (r, c) at index r*cols + c."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    _check_node_count(rows * cols)
    idx = np.arange(rows * cols).reshape(rows, cols)
    u = np.concatenate([idx[:, :-1], idx[:-1]], axis=None)
    v = np.concatenate([idx[:, 1:], idx[1:]], axis=None)
    return WeightedGraph._checked(rows * cols, u, v, np.ones(len(u)))


def sbm_graph(block_sizes, p_in: float, p_out: float, seed: int) -> WeightedGraph:
    """Stochastic block model with unit weights, deterministic given the seed.

    Blocks are contiguous node ranges in the given order.  The graph for a
    seed is fixed by the order in which the generator is consumed:
    - one uniform per within-block pair (u < v), in block order and row-major
      inside each block (no draws when `p_in` is 0 or 1);
    - then, with at most 2,000,000 cross-block pairs, one uniform per cross
      pair in row-major order over all nodes (no draws when `p_out` is 0 or 1,
      and `p_out` 1 takes this path at any size);
    - otherwise a binomial edge count, then rejection-sampled cross pairs.
    Kept pairs are int64 keys u * n + v in sorted runs; one sort of the keys
    orders the edges, which are valid by construction and not re-checked.
    Time is linear in the pairs given a uniform; memory is the within-block
    pair draws plus the kept edges (no table of all node pairs).
    """
    sizes = [int(s) for s in block_sizes]
    if not sizes or min(sizes) < 1:
        raise ValueError("block sizes must be positive")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError("need 0 <= p_out <= p_in <= 1")
    n = sum(sizes)
    _check_node_count(n)
    rng = np.random.default_rng(seed)
    size = np.asarray(sizes, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(size)])
    block_of = np.repeat(np.arange(len(sizes)), sizes)

    within_pairs = sum(s * (s - 1) // 2 for s in sizes)
    runs = _within_block_keys(size, offsets, n, within_pairs, p_in, rng)
    cross_pairs = (n * (n - 1)) // 2 - within_pairs
    if cross_pairs > 0 and p_out > 0.0:
        if p_out == 1.0 or cross_pairs <= 2_000_000:
            # Row i's cross-block columns are exactly offsets[b(i) + 1] .. n-1,
            # so the k-th cross pair in row-major order lies in the first row
            # whose running count exceeds k, and ends[row] - k columns before
            # n: its key is k + (row + 1) * n - ends[row].
            ends = np.cumsum(n - offsets[1:][block_of])
            shift = np.arange(n, n * n + 1, n) - ends
            for start in range(0, cross_pairs, _CROSS_CHUNK):
                m = min(_CROSS_CHUNK, cross_pairs - start)
                k = (np.arange(start, start + m) if p_out == 1.0
                     else start + np.flatnonzero(rng.random(m) < p_out))
                runs.append(k + shift[np.searchsorted(ends, k, side="right")])
        else:
            # Large sparse regime: draw the edge count, then rejection-sample
            # distinct cross-block pairs.  A batch accepts, in draw order, the
            # first occurrence of each valid pair not accepted before: the
            # accepted codes are distinct, so they hold the smallest first
            # indices of their concatenation with the batch.
            count = int(rng.binomial(cross_pairs, p_out))
            codes = np.empty(0, dtype=np.int64)
            while len(codes) < count:
                batch = max(1024, 2 * (count - len(codes)))
                a = rng.integers(0, n, size=batch)
                b = rng.integers(0, n, size=batch)
                valid = (a < b) & (block_of[a] != block_of[b])
                codes = np.concatenate([codes, a[valid] * n + b[valid]])
                _, first = np.unique(codes, return_index=True)
                codes = codes[np.sort(first)[:count]]
            runs.append(np.sort(codes))

    key = np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)
    key.sort(kind="stable")
    u, v = np.divmod(key, n)
    return WeightedGraph(n, u, v, np.ones(len(key)))


# Uniforms drawn at a time for the cross-block pairs of the dense regime.
_CROSS_CHUNK = 1 << 17


def _within_block_keys(size, offsets, n, total, p_in, rng):
    """Sorted runs of the keys u * n + v of the kept within-block pairs, one
    per distinct block size.  The `total` pairs of all blocks are laid out in
    block order and row-major within a block, and one `rng.random` draw covers
    them; pair (i, j) of the block at offset o has key i * n + j + o * (n + 1)."""
    pairs = size * (size - 1) // 2
    if total == 0 or p_in == 0.0:
        return []
    keep = rng.random(total) < p_in if p_in < 1.0 else None
    starts = np.cumsum(pairs) - pairs
    runs = []
    for s in np.unique(size[size > 1]).tolist():
        blocks = np.flatnonzero(size == s)
        iu, iv = np.triu_indices(s, k=1)
        keys = (iu * n + iv) + (offsets[blocks] * (n + 1))[:, None]
        if keep is not None:
            keys = keys[keep[starts[blocks][:, None] + np.arange(len(iu))]]
        runs.append(keys.ravel())
    return runs
