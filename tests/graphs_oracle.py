"""Frozen oracle for graph construction: `WeightedGraph.from_edges`,
`from_adjacency`, `grid_graph` and `sbm_graph` as they were when each checked
and sorted its own edges, kept verbatim except that the two classmethods are
plain functions returning a `WeightedGraph`.  The one checked entry must
reproduce them array for array and error text for error text; do not edit
them to follow the library."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from cosub import WeightedGraph


def from_edges(n: int, edges) -> WeightedGraph:
    """Build from an iterable of (u, v) or (u, v, weight) tuples."""
    if n < 1:
        raise ValueError("graph needs at least one node")
    us, vs, ws = [], [], []
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            w = 1.0
        else:
            u, v, w = edge
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if not 0.0 < w < np.inf:
            raise ValueError(f"weight {w} on edge ({u},{v}) is not positive and finite")
        if u > v:
            u, v = v, u
        us.append(u)
        vs.append(v)
        ws.append(w)
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    w = np.asarray(ws, dtype=np.float64)
    key = u * n + v
    if len(np.unique(key)) != len(key):
        raise ValueError("duplicate edges in input")
    order = np.argsort(key, kind="stable")
    return WeightedGraph(n, u[order], v[order], w[order])


def from_adjacency(matrix) -> WeightedGraph:
    """Build from a dense or sparse symmetric adjacency matrix."""
    a = sp.coo_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if not np.all(np.isfinite(a.data)):
        raise ValueError("adjacency weights must be finite")
    scale = max(1.0, abs(a.data).max()) if a.nnz else 1.0
    asym = abs(a - a.T)
    if asym.nnz and asym.max() > 1e-12 * scale:
        raise ValueError("adjacency matrix must be symmetric")
    mask = a.row < a.col
    u, v, w = a.row[mask], a.col[mask], a.data[mask]
    keep = w != 0.0
    u, v, w = u[keep], v[keep], w[keep]
    if np.any(w <= 0.0):
        raise ValueError("adjacency weights must be positive")
    diag = a.tocsr().diagonal()
    if np.any(diag != 0.0):
        raise ValueError("self-loops are not allowed")
    key = u.astype(np.int64) * a.shape[0] + v
    if len(np.unique(key)) != len(key):
        raise ValueError("duplicate entries in adjacency input")
    order = np.argsort(key, kind="stable")
    return WeightedGraph(a.shape[0], u[order].astype(np.int64), v[order].astype(np.int64),
                         w[order].astype(np.float64))


def grid_graph(rows: int, cols: int) -> WeightedGraph:
    """Regular 2-d grid with unit weights, node (r, c) at index r*cols + c."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return from_edges(rows * cols, edges)


def sbm_graph(block_sizes, p_in: float, p_out: float, seed: int) -> WeightedGraph:
    """Stochastic block model with unit weights, deterministic given the seed."""
    sizes = [int(s) for s in block_sizes]
    if not sizes or min(sizes) < 1:
        raise ValueError("block sizes must be positive")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError("need 0 <= p_out <= p_in <= 1")
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    block_of = np.repeat(np.arange(len(sizes)), sizes)

    us, vs = [], []
    for b, s in enumerate(sizes):
        if s < 2 or p_in == 0.0:
            continue
        iu, iv = np.triu_indices(s, k=1)
        if p_in < 1.0:
            mask = rng.random(len(iu)) < p_in
            iu, iv = iu[mask], iv[mask]
        us.append(iu + offsets[b])
        vs.append(iv + offsets[b])

    cross_pairs = (n * (n - 1)) // 2 - sum(s * (s - 1) // 2 for s in sizes)
    if cross_pairs > 0 and p_out > 0.0:
        if p_out == 1.0 or cross_pairs <= 2_000_000:
            iu, iv = np.triu_indices(n, k=1)
            mask = block_of[iu] != block_of[iv]
            iu, iv = iu[mask], iv[mask]
            if p_out < 1.0:
                keep = rng.random(len(iu)) < p_out
                iu, iv = iu[keep], iv[keep]
            us.append(iu)
            vs.append(iv)
        else:
            # Large sparse regime: draw the edge count, then rejection-sample
            # distinct cross-block pairs.  A batch accepts, in draw order, the
            # first occurrence of each valid pair not accepted before.
            count = int(rng.binomial(cross_pairs, p_out))
            codes = np.empty(0, dtype=np.int64)
            while len(codes) < count:
                batch = max(1024, 2 * (count - len(codes)))
                a = rng.integers(0, n, size=batch)
                b = rng.integers(0, n, size=batch)
                valid = (a < b) & (block_of[a] != block_of[b])
                drawn = a[valid] * n + b[valid]
                _, first = np.unique(drawn, return_index=True)
                drawn = drawn[np.sort(first)]
                drawn = drawn[~np.isin(drawn, codes)]
                codes = np.concatenate([codes, drawn[:count - len(codes)]])
            us.append(codes // n)
            vs.append(codes % n)

    if us:
        u = np.concatenate(us).astype(np.int64)
        v = np.concatenate(vs).astype(np.int64)
    else:
        u = np.empty(0, dtype=np.int64)
        v = np.empty(0, dtype=np.int64)
    order = np.argsort(u * n + v, kind="stable")
    return WeightedGraph(n, u[order], v[order], np.ones(len(u)))
