"""Frozen oracle for the spectral stage: `cosub.spectral` as it was when every
block was decomposed alone (one `eigh`, one QR pair per multiplet and one
`solve` per block), kept verbatim.  The stacked path must reproduce these
functions bit for bit; do not edit them to follow the library."""

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
    """

    eigenvalues: np.ndarray
    analysis: np.ndarray
    synthesis: np.ndarray
    p: int

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


def dual_basis(q: np.ndarray) -> np.ndarray:
    """Synthesis basis P with P.T == inv(Q), obtained by solving Q.T P = I."""
    q = np.asarray(q, dtype=np.float64)
    n = q.shape[0]
    try:
        p = np.linalg.solve(q.T, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise ValueError("analysis basis is singular") from exc
    residual = np.abs(p.T @ q - np.eye(n)).max()
    if residual > DUAL_RESIDUAL_TOL:
        raise ValueError(f"dual basis residual {residual:.2e} exceeds tolerance")
    return p


def _sign_canonicalize(v: np.ndarray) -> np.ndarray:
    scale = np.linalg.norm(v)
    nz = np.flatnonzero(np.abs(v) > SIGN_EPS * scale)
    if len(nz) and v[nz[0]] < 0.0:
        return -v
    return v


def _canonical_columns(vecs: np.ndarray, p: int) -> np.ndarray:
    """Column-wise `lp_normalize` followed by the sign rule, for a whole block."""
    if p not in (1, 2):
        raise ValueError("normalization exponent must be 1 or 2")
    norms = np.abs(vecs).sum(axis=0) if p == 1 else np.sqrt((vecs * vecs).sum(axis=0))
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize the zero vector")
    out = vecs / norms
    nz = np.abs(out) > SIGN_EPS * np.sqrt((out * out).sum(axis=0))
    first = nz.argmax(axis=0)
    flip = nz.any(axis=0) & (out[first, np.arange(out.shape[1])] < 0.0)
    out[:, flip] *= -1.0
    return out


def _nullspace(m: np.ndarray, dim: int) -> tuple[int, np.ndarray | None]:
    """Nullspace dimension of an (r, dim) constraint matrix and a basis vector
    when that dimension is exactly one."""
    if m.shape[0] == 0:
        return dim, (np.ones(1) if dim == 1 else None)
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    # Constraint rows have natural scale <= 1; the floor keeps noise-only rows
    # (projections of vectors already orthogonal to the subspace) rankless.
    tol = max(m.shape) * np.finfo(np.float64).eps * max(float(s[0]), 1.0)
    rank = int(np.sum(s > tol))
    null_dim = dim - rank
    if null_dim == 1:
        return 1, vt[-1]
    return null_dim, None


def _canonicalize_by_search(eigenspace: np.ndarray, fixed, p: int) -> np.ndarray:
    """Reference form of `canonicalize_degenerate`: one SVD per output vector.

    Each vector's constraint rows (fixed vectors, vectors already produced,
    trailing coordinates) are stacked and their one-dimensional null space is
    searched for, releasing or adding trailing zeros until it exists.  This
    handles every zero pattern, including those the closed form refuses.
    """
    e = np.asarray(eigenspace, dtype=np.float64)
    if e.ndim == 1:
        e = e[:, None]
    n, m = e.shape
    # Work in an orthonormal coordinate frame of the subspace.
    basis, _ = np.linalg.qr(e)
    fixed = [np.asarray(f, dtype=np.float64) for f in (fixed if fixed is not None else [])]
    fixed_rows = [f @ basis for f in fixed]
    produced_dirs: list[np.ndarray] = []
    out = np.empty((n, m))
    for i in range(1, m + 1):
        zeros = m - i
        coeffs = None
        while True:
            rows = list(fixed_rows) + [d @ basis for d in produced_dirs]
            if zeros > 0:
                rows.extend(basis[n - zeros:, :])
            # Rows of negligible norm (vectors already orthogonal to the
            # subspace, or coordinates absent from it) impose no constraint.
            rows = [r for r in rows if np.linalg.norm(r) > NEGLIGIBLE_ROW_NORM]
            mat = np.vstack(rows) if rows else np.empty((0, m))
            null_dim, vec = _nullspace(mat, m)
            if null_dim == 1:
                coeffs = vec
                break
            if null_dim < 1:
                zeros -= 1
                if zeros < 0:
                    raise ValueError("degenerate eigenspace admits no canonical vector")
            else:
                zeros += 1
                if zeros > n:
                    raise ValueError("degenerate eigenspace cannot be pinned down")
        v = basis @ coeffs
        if zeros > 0:
            v[n - zeros:] = 0.0
        direction = v / np.linalg.norm(v)
        produced_dirs.append(direction)
        out[:, i - 1] = _sign_canonicalize(lp_normalize(v, p))
    return out


def canonicalize_degenerate(eigenspace: np.ndarray, fixed, p: int) -> np.ndarray:
    """Deterministic basis of a degenerate eigenspace.

    Vector i (1-based) of an m-dimensional eigenspace gets its last (m - i)
    coefficients forced to exactly zero and must be orthogonal to all `fixed`
    vectors and to the i-1 vectors already produced; the surviving direction
    is Lp-normalized with its first non-zero coefficient positive.  When the
    zero pattern leaves no solution the trailing-zero constraints are released
    one position at a time; when it leaves several, further trailing positions
    are zeroed until the direction is pinned down.

    Generic case, in one factorization: let B be an orthonormal frame of the
    subspace and U the complete QR factor of its last m-1 rows (last node
    first, as columns).  U[:, :k] spans the last k rows, so U[:, m-i] is the
    unit direction orthogonal to the last m-i rows and to U[:, m-i+1:], the
    vectors produced before it, and vector i is B @ U[:, m-i].  Multiplets
    whose trailing rows are (nearly) dependent, or that some `fixed` vector
    does not stay orthogonal to, go through `_canonicalize_by_search`.
    """
    e = np.asarray(eigenspace, dtype=np.float64)
    if e.ndim == 1:
        e = e[:, None]
    n, m = e.shape
    basis, _ = np.linalg.qr(e)
    fixed_rows = [np.asarray(f, dtype=np.float64) @ basis
                  for f in (fixed if fixed is not None else [])]
    if m > n or any(np.linalg.norm(r) > NEGLIGIBLE_ROW_NORM for r in fixed_rows):
        return _canonicalize_by_search(e, fixed, p)
    u, r = np.linalg.qr(basis[:n - m:-1].T, mode="complete")
    if np.any(np.abs(np.diagonal(r)) < GENERIC_RANK_TOL):
        return _canonicalize_by_search(e, fixed, p)
    out = basis @ u[:, ::-1]
    # Column i-1 keeps its trailing m-i entries at exactly zero.
    out[n - m + 1:] = np.triu(out[n - m + 1:], 1)
    return _canonical_columns(out, p)


def _group_eigenvalues(w: np.ndarray) -> list[tuple[int, int]]:
    """Slices (start, stop) of eigenvalue multiplets, grouping near-equal values."""
    tol = EIGENVALUE_GROUP_RTOL * max(1.0, float(np.abs(w).max()) if len(w) else 1.0)
    groups = []
    start = 0
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > tol:
            groups.append((start, i))
            start = i
    groups.append((start, len(w)))
    return groups


def laplacian_eigh(lap: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical eigendecomposition of a symmetric Laplacian matrix.

    Returns ascending eigenvalues (zero group clamped to exactly 0) and the
    Lp-normalized, sign-canonical eigenvector matrix.  Requires the zero
    eigenvalue to be simple, i.e. the underlying graph must be connected.
    """
    lap = np.asarray(lap, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError("Laplacian must be a square matrix")
    scale = max(1.0, float(np.abs(lap).max()))
    if np.abs(lap - lap.T).max() > 1e-10 * scale:
        raise ValueError("Laplacian must be symmetric")
    n = lap.shape[0]
    w, v = np.linalg.eigh(lap)
    groups = _group_eigenvalues(w)
    tol = EIGENVALUE_GROUP_RTOL * max(1.0, float(np.abs(w).max()))
    zero_group = groups[0]
    if abs(w[0]) > tol:
        raise ValueError("Laplacian has no zero eigenvalue; not a valid Laplacian")
    if zero_group[1] - zero_group[0] > 1:
        raise ValueError("zero eigenvalue has multiplicity > 1; subgraph is disconnected")
    w = w.copy()
    w[zero_group[0]:zero_group[1]] = 0.0

    q = np.empty((n, n))
    # Constant mode of a connected Laplacian, written exactly.
    q[:, 0] = 1.0 / n if p == 1 else 1.0 / np.sqrt(n)
    simple = []
    for start, stop in groups[1:]:
        if stop - start == 1:
            simple.append(start)
        else:
            q[:, start:stop] = canonicalize_degenerate(v[:, start:stop], None, p)
    q[:, simple] = _canonical_columns(v[:, simple], p)
    return w, q


def local_eigenbasis(local_laplacian: np.ndarray, p: int) -> LocalEigenBasis:
    """Full analysis/synthesis eigenbasis of one connected subgraph Laplacian."""
    if p not in (1, 2):
        raise ValueError("normalization exponent must be 1 or 2")
    w, q = laplacian_eigh(local_laplacian, p)
    synthesis = q if p == 2 else dual_basis(q)
    return LocalEigenBasis(eigenvalues=w, analysis=q, synthesis=synthesis, p=p)
