"""Deterministic Laplacian eigenbases with Lp-normalized analysis/synthesis pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance under which two eigenvalues are treated as one multiplet.
EIGENVALUE_GROUP_RTOL = 1e-8
# A coefficient counts as "non-zero" for the sign rule above this fraction of
# the vector's Euclidean norm.
SIGN_EPS = 1e-12
# Residual bound enforced on the synthesis/analysis pairing.
DUAL_RESIDUAL_TOL = 1e-10
# Constraint rows at or below this norm impose nothing on a multiplet.
NEGLIGIBLE_ROW_NORM = 1e-12
# Smallest |R_kk| of the trailing-row QR for which a multiplet counts as
# generic.  It sits far above the reference search's SVD rank tolerance, so
# the closed form only runs where that search would settle on the nominal
# zero count at every step.
GENERIC_RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LocalEigenBasis:
    """Eigendecomposition of one subgraph Laplacian.

    `analysis` holds the Lp-normalized eigenvectors as columns (ascending
    eigenvalues, canonical orientation); `synthesis` is its inverse-transpose,
    so synthesis @ analysis.T is the identity.  For p=2 the two coincide.
    The arrays are read-only: blocks with identical Laplacians share one basis.
    """

    eigenvalues: np.ndarray
    analysis: np.ndarray
    synthesis: np.ndarray
    p: int

    def __post_init__(self):
        for array in (self.eigenvalues, self.analysis, self.synthesis):
            array.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


def lp_normalize(v: np.ndarray, p: int) -> np.ndarray:
    """Scale a nonzero vector to unit L1 or L2 norm, preserving direction."""
    if p not in (1, 2):
        raise ValueError("normalization exponent must be 1 or 2")
    v = np.asarray(v, dtype=np.float64)
    norm = np.abs(v).sum() if p == 1 else float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def _sign_canonicalize(v: np.ndarray) -> np.ndarray:
    scale = np.linalg.norm(v)
    nz = np.flatnonzero(np.abs(v) > SIGN_EPS * scale)
    if len(nz) and v[nz[0]] < 0.0:
        return -v
    return v


def _canonical_columns(vecs: np.ndarray, p: int) -> np.ndarray:
    """Column-wise `lp_normalize` followed by the sign rule, for one block or
    a stack of blocks (columns run along the second-to-last axis).

    Column sums follow the memory layout: a column stored contiguously is
    summed pairwise, one spread across rows sequentially.  Callers keep each
    column's layout as the single-block computation has it."""
    if p not in (1, 2):
        raise ValueError("normalization exponent must be 1 or 2")
    norms = (np.abs(vecs).sum(axis=-2, keepdims=True) if p == 1
             else np.sqrt((vecs * vecs).sum(axis=-2, keepdims=True)))
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize the zero vector")
    out = vecs / norms
    nz = np.abs(out) > SIGN_EPS * np.sqrt((out * out).sum(axis=-2, keepdims=True))
    first = np.take_along_axis(out, nz.argmax(axis=-2)[..., None, :], axis=-2)
    return np.where(nz.any(axis=-2, keepdims=True) & (first < 0.0), -out, out)


def _nullspace(m: np.ndarray, dim: int) -> tuple[int, np.ndarray | None]:
    """Nullspace dimension of an (r, dim) constraint matrix and a basis vector
    when that dimension is exactly one.  Every search has dim >= 2, so a
    matrix without rows yields no vector."""
    if m.shape[0] == 0:
        return dim, None
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    # Constraint rows have scale <= 1; the floor keeps noise-only rows rankless.
    tol = max(m.shape) * np.finfo(np.float64).eps * max(float(s[0]), 1.0)
    null_dim = dim - int(np.sum(s > tol))
    return null_dim, (vt[-1] if null_dim == 1 else None)


def _canonicalize_by_search(eigenspace: np.ndarray, p: int) -> np.ndarray:
    """Reference form of the multiplet rule: one SVD per output vector.

    Each vector's constraint rows (vectors already produced, trailing
    coordinates) are stacked and their one-dimensional null space is searched
    for, adding trailing zeros until it exists or releasing the ones that
    leave no solution.  This handles every zero pattern of an (n, m)
    eigenspace with m <= n, including those the closed form refuses.
    """
    n, m = eigenspace.shape
    # Work in an orthonormal coordinate frame of the subspace.
    basis, _ = np.linalg.qr(eigenspace)
    produced_rows: list[np.ndarray] = []
    out = np.empty((n, m))
    for i in range(1, m + 1):
        zeros = m - i
        # At no zeros the i-1 produced rows leave a null space, all n rows of
        # the frame leave none, and one more row lowers its dimension by at
        # most one: the search stops in between.
        while True:
            # Rows of coordinates absent from the subspace (negligible norm)
            # impose no constraint.
            rows = [r for r in produced_rows + list(basis[n - zeros:])
                    if np.linalg.norm(r) > NEGLIGIBLE_ROW_NORM]
            null_dim, coeffs = _nullspace(np.reshape(rows, (-1, m)), m)
            if null_dim == 1:
                break
            zeros += 1 if null_dim > 1 else -1
        v = basis @ coeffs
        v[n - zeros:] = 0.0
        produced_rows.append((v / np.linalg.norm(v)) @ basis)
        out[:, i - 1] = _sign_canonicalize(lp_normalize(v, p))
    return out


def canonicalize_degenerate(eigenspace: np.ndarray, p: int) -> np.ndarray:
    """Deterministic basis of a degenerate eigenspace, given as n x m, m <= n.

    Vector i (1-based) of an m-dimensional eigenspace gets its last (m - i)
    coefficients forced to exactly zero and must be orthogonal to the i-1
    vectors already produced; the surviving direction is Lp-normalized with
    its first non-zero coefficient positive.  When the zero pattern leaves no
    solution the trailing-zero constraints are released one position at a
    time; when it leaves several, further trailing positions are zeroed until
    the direction is pinned down.

    Generic case, in one factorization: let B be an orthonormal frame of the
    subspace and U the complete QR factor of its last m-1 rows (last node
    first, as columns).  U[:, :k] spans the last k rows, so U[:, m-i] is the
    unit direction orthogonal to the last m-i rows and to U[:, m-i+1:], the
    vectors produced before it, and vector i is B @ U[:, m-i].  Multiplets
    whose trailing rows are (nearly) dependent go through
    `_canonicalize_by_search`.
    """
    e = np.asarray(eigenspace, dtype=np.float64)
    if e.ndim == 1:
        e = e[:, None]
    n, m = e.shape
    if m > n:
        raise ValueError(f"eigenspace of shape {e.shape} has more columns than rows")
    if not np.isfinite(e).all():
        raise ValueError("eigenspace must be finite")
    return _canonicalize_multiplets(e[None], p)[0]


def _canonicalize_multiplets(eigenspaces: np.ndarray, p: int) -> np.ndarray:
    """`canonicalize_degenerate` for a (k, n, m) stack of eigenspaces, one
    stacked QR pair for all of them; the non-generic ones go through
    `_canonicalize_by_search` one at a time."""
    _, n, m = eigenspaces.shape
    basis, _ = np.linalg.qr(eigenspaces)
    u, r = np.linalg.qr(basis[:, :n - m:-1].transpose(0, 2, 1), mode="complete")
    generic = ~np.any(np.abs(np.diagonal(r, axis1=-2, axis2=-1)) < GENERIC_RANK_TOL, axis=-1)
    out = basis @ u[..., ::-1]
    # Column i-1 keeps its trailing m-i entries at exactly zero.
    out[:, n - m + 1:] = np.triu(out[:, n - m + 1:], 1)
    out[generic] = _canonical_columns(out[generic], p)
    for i in np.flatnonzero(~generic):
        out[i] = _canonicalize_by_search(eigenspaces[i], p)
    return out


def _eigh_stack(laps: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """`laplacian_eigh` for a (k, n, n) stack of Laplacians: one eigensolve,
    vectorized multiplet grouping, and one `_canonicalize_multiplets` call per
    multiplet size."""
    k, n, _ = laps.shape
    if not np.isfinite(laps).all():
        raise ValueError("Laplacian must be finite")
    scale = np.maximum(1.0, np.abs(laps).max(axis=(1, 2)))
    if np.any(np.abs(laps - laps.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-10 * scale):
        raise ValueError("Laplacian must be symmetric")
    w, v = np.linalg.eigh(laps)
    tol = EIGENVALUE_GROUP_RTOL * np.maximum(1.0, np.abs(w).max(axis=1))
    if np.any(np.abs(w[:, 0]) > tol):
        raise ValueError("Laplacian has no zero eigenvalue; not a valid Laplacian")
    # starts[b, i]: eigenvalue i of block b opens a multiplet.
    starts = np.ones((k, n), dtype=bool)
    starts[:, 1:] = np.diff(w, axis=1) > tol[:, None]
    if n > 1 and not starts[:, 1].all():
        raise ValueError("zero eigenvalue has multiplicity > 1; subgraph is disconnected, or its "
                         "weights are too small (tolerance 1e-8 * max(1, largest eigenvalue))")
    w[:, 0] = 0.0

    q = np.empty((k, n, n))
    # Constant mode of a connected Laplacian, written exactly.
    q[:, :, 0] = 1.0 / n if p == 1 else 1.0 / np.sqrt(n)
    first = np.flatnonzero(starts)
    size = np.diff(first, append=k * n)
    block, col = np.divmod(first, n)
    simple = (size == 1) & (col > 0)
    b, c = block[simple], col[simple]
    # Contiguous columns, as a single block's `v[:, simple]` has them.
    q[b, :, c] = _canonical_columns(v.transpose(0, 2, 1)[b, c].T, p).T
    for m in np.unique(size[size > 1]):
        b, c = block[size == m], col[size == m]
        cells = (b[:, None, None], np.arange(n)[:, None], (c[:, None] + np.arange(m))[:, None])
        q[cells] = _canonicalize_multiplets(v[cells], p)
    return w, q


def _square(lap) -> np.ndarray:
    lap = np.asarray(lap, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError("Laplacian must be a square matrix")
    return lap


def laplacian_eigh(lap: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical eigendecomposition of a symmetric Laplacian matrix.

    Returns ascending eigenvalues (zero group clamped to exactly 0) and the
    Lp-normalized, sign-canonical eigenvector matrix.  Requires the zero
    eigenvalue to be simple, i.e. the underlying graph must be connected.
    """
    lap = _square(lap)
    w, q = _eigh_stack(lap[None], p)
    return w[0], q[0]


def _dual_bases(q: np.ndarray) -> np.ndarray:
    """`dual_basis` for a (k, n, n) stack: one stacked solve, residual per block."""
    n = q.shape[-1]
    try:
        p = np.linalg.solve(q.transpose(0, 2, 1), np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise ValueError("analysis basis is singular") from exc
    residual = np.abs(p.transpose(0, 2, 1) @ q - np.eye(n)).max(axis=(1, 2))
    if np.any(residual > DUAL_RESIDUAL_TOL):
        worst = residual[residual > DUAL_RESIDUAL_TOL][0]
        raise ValueError(f"dual basis residual {worst:.2e} exceeds tolerance")
    return p


def dual_basis(q: np.ndarray) -> np.ndarray:
    """Synthesis basis P with P.T == inv(Q), obtained by solving Q.T P = I."""
    q = np.asarray(q, dtype=np.float64)
    if not np.isfinite(q).all():
        raise ValueError("analysis basis must be finite")
    return _dual_bases(q[None])[0]


def eigenbasis_stack(laplacians: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """Eigenvalues, analysis and synthesis stacks of a (d, s, s) stack of
    connected Laplacians, each bit-identical to decomposing its Laplacian
    alone: one `_eigh_stack` and, for p=1, one stacked dual-basis solve.
    The stacks are read-only, like the bases that are views of them."""
    if p not in (1, 2):
        raise ValueError("normalization exponent must be 1 or 2")
    w, q = _eigh_stack(laplacians, p)
    stacks = w, q, (q if p == 2 else _dual_bases(q))
    for array in stacks:
        array.flags.writeable = False
    return stacks


def local_eigenbasis(local_laplacian: np.ndarray, p: int) -> LocalEigenBasis:
    """Full analysis/synthesis eigenbasis of one connected subgraph Laplacian."""
    w, q, synthesis = eigenbasis_stack(_square(local_laplacian)[None], p)
    return LocalEigenBasis(eigenvalues=w[0], analysis=q[0], synthesis=synthesis[0], p=p)
