"""Frozen oracle for the atoms CSV: the text `cosub atoms` built with one
f-string per stored entry, kept verbatim.  The only edits: the loop is a
module function over `(level, channel, labels, csc)` blocks, which
`pyramid_blocks` lists from a pyramid and its atoms by the channel rule of
`atoms_oracle` (channel l holds the subgraphs of at least l nodes), and the
text is returned rather than written.  `fileio.write_atoms` must reproduce
its bytes; do not edit it to follow the library."""

from __future__ import annotations

import hashlib

import numpy as np

from cosub.fileio import FLOAT_FMT


def pyramid_blocks(pyramid, atoms):
    for j, level in enumerate(pyramid.levels, start=1):
        blocks = [(1, atoms.approximation[j - 1])]
        blocks += [(l, atoms.details[j - 1][l]) for l in sorted(atoms.details[j - 1])]
        for l, mat in blocks:
            yield j, l, np.flatnonzero(level.operators.partition.sizes >= l) + 1, mat


def atoms_csv_text(blocks) -> str:
    lines = ["level,channel,subgraph,node,value"]
    for j, l, labels, mat in blocks:
        # One row per structural entry of the atom (its support), nodes
        # ascending.  Exact zeros inside the support are kept; adding 0.0
        # writes a stored -0.0 as 0, as the dense table did.
        mat = mat.sorted_indices()
        for col, label in enumerate(labels):
            span = slice(mat.indptr[col], mat.indptr[col + 1])
            for node, value in zip(mat.indices[span], mat.data[span] + 0.0):
                lines.append(f"{j},{l},{label},{node},{FLOAT_FMT % value}")
    return "\n".join(lines) + "\n"


def atoms_csv_sha256(blocks) -> str:
    return hashlib.sha256(atoms_csv_text(blocks).encode()).hexdigest()
