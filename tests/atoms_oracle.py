"""Frozen oracle for the atoms: `LevelOperators._channel_matrix` and
`compute_atoms` as they were when each channel was gathered subgraph by
subgraph and each deeper-level channel was composed by a sparse product of
its own, kept verbatim.  The only edits: the method is a module function
taking the operators as `self`, and `compute_atoms` calls it through
`analysis_matrix` below instead of the operators' method.  The library must
reproduce these bit for bit; do not edit them to follow it."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from cosub import Atoms, Pyramid


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


def analysis_matrix(ops, l: int) -> sp.csc_matrix:
    return _channel_matrix(ops, l, "analysis")


def compute_atoms(pyramid: Pyramid) -> Atoms:
    """Compose the per-level analysis operators into whole-graph atoms."""
    approx: list[sp.csc_matrix] = []
    details: list[dict[int, sp.csc_matrix]] = []
    carry: sp.csc_matrix | None = None
    for level in pyramid.levels:
        ops = level.operators
        level_details = {}
        for l in range(2, ops.n_channels + 1):
            theta = analysis_matrix(ops, l)
            level_details[l] = theta if carry is None else (carry @ theta).tocsc()
        theta1 = analysis_matrix(ops, 1)
        phi = theta1 if carry is None else (carry @ theta1).tocsc()
        approx.append(phi)
        details.append(level_details)
        carry = phi
    return Atoms(approximation=approx, details=details)
