"""Frozen oracle for the multiplet rule: `cosub.spectral.canonicalize_degenerate`
with its helpers and constants as they were when generic multiplets took one
stacked product and a `np.triu` mask and every other multiplet its own product
and a clipped forced-zero count, kept verbatim.  The library must reproduce
these functions bit for bit, non-generic multiplets included; do not edit
them to follow the library."""

from __future__ import annotations

import numpy as np

# A coefficient counts as "non-zero" for the sign rule above this fraction of
# the vector's Euclidean norm.
SIGN_EPS = 1e-12
# The only rank tolerance of the multiplet rule: a row of a multiplet's
# orthonormal frame adds to the span of the rows after it when its part
# orthogonal to them exceeds this.  A multiplet whose last m-1 rows all do
# (every |R_kk| of their QR) is generic.
GENERIC_RANK_TOL = 1e-8


def _canonical_columns(vecs: np.ndarray, p: int) -> np.ndarray:
    """Unit L1 or L2 norm per column, then the sign rule, for one block or a
    stack of blocks (columns run along the second-to-last axis), in place:
    `vecs` is overwritten and returned.

    Column sums follow the memory layout: a column stored contiguously is
    summed pairwise, one spread across rows sequentially.  Callers keep each
    column's layout as the single-block computation has it, and both sums
    here run on that one array."""
    if p not in (1, 2):
        raise ValueError("normalization exponent must be 1 or 2")
    norms = (np.abs(vecs).sum(axis=-2, keepdims=True) if p == 1
             else np.sqrt((vecs * vecs).sum(axis=-2, keepdims=True)))
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize the zero vector")
    out = np.divide(vecs, norms, out=vecs)
    eps = SIGN_EPS * np.sqrt((out * out).sum(axis=-2, keepdims=True))
    # The first coefficient above `eps`, or row 0 when none is: only a
    # coefficient below -eps flips its column.  Multiplying by a ±1.0 row
    # negates exactly, and unlike a masked negation does not broadcast the
    # mask over every row.
    first = np.take_along_axis(out, (np.abs(out) > eps).argmax(axis=-2)[..., None, :], axis=-2)
    out *= np.where(first < -eps, -1.0, 1.0)
    return out


def canonicalize_degenerate(eigenspace: np.ndarray, p: int) -> np.ndarray:
    """Deterministic basis of a degenerate eigenspace, given as n x m, m <= n,
    or of a (k, n, m) stack of them, each bit-identical to canonicalizing it
    alone and stacked like the input (an (n,) vector is taken as n x 1).

    Vector i (1-based) of an m-dimensional eigenspace gets its last (m - i)
    coefficients forced to exactly zero and must be orthogonal to the i-1
    vectors already produced; the surviving direction is Lp-normalized with
    its first non-zero coefficient positive.  When the zero pattern leaves no
    solution the trailing-zero constraints are released one position at a
    time; when it leaves several, further trailing positions are zeroed until
    the direction is pinned down.

    One factorization gives every vector.  Let B be an orthonormal frame of
    the subspace, and scan its rows from the last node backwards, keeping each
    row that adds to the span of the rows kept before it.  Let U be the
    complete QR factor of the first m-1 kept rows, as columns.  U[:, :k] spans
    the first k kept rows, and with them every trailing row up to the next
    kept one, so U[:, m-i] is the unit direction orthogonal to those rows and
    to U[:, m-i+1:], the vectors produced before it: vector i is
    B @ U[:, m-i].  Its forced zeros are the nominal m-i, moved into the run
    of trailing rows that its m-i kept rows span.  A multiplet is generic when
    the kept rows are its last m-1 rows, and one stacked QR pair serves every
    generic eigenspace of a stack; each other one takes one QR of its own kept
    rows.  The result does not depend on the frame the eigenspace is given in.
    """
    e = np.asarray(eigenspace, dtype=np.float64)
    if e.ndim == 1:
        e = e[:, None]
    if e.ndim not in (2, 3):
        raise ValueError("eigenspace must be a vector, a matrix or a stack of matrices")
    single = e.ndim == 2
    if single:
        e = e[None]
    _, n, m = e.shape
    if m > n:
        raise ValueError(f"eigenspace of shape {e.shape[single:]} has more columns than rows")
    if not np.isfinite(e).all():
        raise ValueError("eigenspace must be finite")
    basis, _ = np.linalg.qr(e)
    u, r = np.linalg.qr(basis[:, :n - m:-1].transpose(0, 2, 1), mode="complete")
    generic = ~np.any(np.abs(np.diagonal(r, axis1=-2, axis2=-1)) < GENERIC_RANK_TOL, axis=-1)
    out = basis @ u[..., ::-1]
    # Column i-1 keeps its trailing m-i entries at exactly zero.
    out[:, n - m + 1:] = np.triu(out[:, n - m + 1:], 1)
    for i in np.flatnonzero(~generic):
        rows = _independent_rows(basis[i])
        u_i, _ = np.linalg.qr(basis[i, rows[:-1]].T, mode="complete")
        out[i] = basis[i] @ u_i[:, ::-1]
        # Column m-1-t has t nominal zeros, moved into the run of trailing
        # row counts that the first t kept rows span: from n - rows[t-1]
        # (0 for t = 0) to n - 1 - rows[t].
        bounds = np.concatenate(([n], rows))
        zeros = np.clip(np.arange(m), n - bounds[:-1], n - 1 - bounds[1:])[::-1]
        out[i][np.arange(n)[:, None] >= n - zeros] = 0.0
    out = _canonical_columns(out, p)
    return out[0] if single else out


def _independent_rows(basis: np.ndarray) -> np.ndarray:
    """The rows of an orthonormal (n, m) frame, scanned from the last node
    backwards, whose part orthogonal to the rows kept before them exceeds
    GENERIC_RANK_TOL; the scan stops at m rows."""
    n, m = basis.shape
    span = np.empty((m, m))  # orthonormal rows spanning the kept ones
    kept: list[int] = []
    for row in range(n - 1, -1, -1):
        done = span[:len(kept)]
        part = basis[row] - (done @ basis[row]) @ done
        norm = np.linalg.norm(part)
        if norm > GENERIC_RANK_TOL:
            span[len(kept)] = part / norm
            kept.append(row)
            if len(kept) == m:
                break
    return np.array(kept)
