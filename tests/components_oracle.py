"""Frozen oracle for component labelling: a breadth-first search over an
edge list, with no sparse matrix and no `csgraph`.  `connected_components`
must give its labels, and `partition_is_connected` the answer of its search
within each label class; do not edit it to follow the library."""

from __future__ import annotations

from collections import deque


def _search(start: int, neighbours: list[list[int]], allowed) -> set[int]:
    """The nodes reached from `start` through nodes for which `allowed` holds."""
    seen = {start}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in neighbours[i]:
            if j not in seen and allowed(j):
                seen.add(j)
                queue.append(j)
    return seen


def _neighbours(n: int, edges) -> list[list[int]]:
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v, *_ in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    return neighbours


def component_labels(n: int, edges) -> list[int]:
    """Label 1..K of each node 0..n-1 under the undirected (u, v[, w]) edges;
    components are numbered by ascending smallest node."""
    neighbours = _neighbours(n, edges)
    labels = [0] * n
    k = 0
    for start in range(n):
        if labels[start]:
            continue
        k += 1
        for i in _search(start, neighbours, lambda j: True):
            labels[i] = k
    return labels


def classes_connected(n: int, edges, labels) -> bool:
    """True when a search from each label class's first node, through nodes
    of that class only, reaches the whole class."""
    neighbours = _neighbours(n, edges)
    for c in set(labels):
        members = {i for i in range(n) if labels[i] == c}
        if _search(min(members), neighbours, lambda j: labels[j] == c) != members:
            return False
    return True
