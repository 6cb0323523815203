"""Deterministic eigenbases: normalization, degeneracy rules, dual bases."""

import re
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_oracle as oracle
from cosub import (SubgraphPartition, build_operators, canonicalize_degenerate,
                   dual_basis, grid_graph, laplacian, laplacian_eigh, local_eigenbasis,
                   lp_normalize, sbm_graph, spectral)

TRIANGLE = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
PAIR = np.array([[1.0, -1], [-1, 1]])
STAR = np.array([[3.0, -1, -1, -1], [-1, 1, 0, 0], [-1, 0, 1, 0], [-1, 0, 0, 1]])


class TestLpNormalize:
    def test_l1(self):
        assert np.allclose(lp_normalize([1.0, 1.0, 1.0], 1), [1 / 3] * 3)

    def test_l2(self):
        assert np.allclose(lp_normalize([1.0, 1.0, 1.0], 2), [1 / np.sqrt(3)] * 3)
        assert np.allclose(lp_normalize([3.0, -4.0], 2), [0.6, -0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            lp_normalize(np.zeros(3), 2)


class TestLocalEigenbasis:
    def test_pair_l1(self):
        basis = local_eigenbasis(PAIR, p=1)
        assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-14)
        assert np.allclose(basis.analysis, [[0.5, 0.5], [0.5, -0.5]], atol=1e-14)
        assert np.allclose(basis.synthesis, [[1.0, 1.0], [1.0, -1.0]], atol=1e-14)

    def test_triangle_l1(self):
        basis = local_eigenbasis(TRIANGLE, p=1)
        q_expected = np.array([[1 / 3, 1 / 2, 1 / 4],
                               [1 / 3, -1 / 2, 1 / 4],
                               [1 / 3, 0.0, -1 / 2]])
        p_expected = np.array([[1.0, 1.0, 2 / 3],
                               [1.0, -1.0, 2 / 3],
                               [1.0, 0.0, -4 / 3]])
        assert np.allclose(basis.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
        assert np.allclose(basis.analysis, q_expected, atol=1e-12)
        assert np.allclose(basis.synthesis, p_expected, atol=1e-12)

    def test_single_node(self):
        basis = local_eigenbasis(np.zeros((1, 1)), p=1)
        assert basis.eigenvalues[0] == 0.0
        assert basis.analysis[0, 0] == 1.0
        assert basis.synthesis[0, 0] == 1.0

    def test_first_mode_is_exact_constant(self):
        g = sbm_graph([7], 0.9, 0.0, 1)
        for p, value in ((1, 1 / 7), (2, 1 / np.sqrt(7))):
            basis = local_eigenbasis(laplacian(g), p=p)
            assert np.all(basis.analysis[:, 0] == value)

    def test_non_symmetric_rejected(self):
        bad = np.array([[1.0, -1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            local_eigenbasis(bad, p=2)

    def test_disconnected_block_rejected(self):
        lap = np.array([[1.0, -1, 0, 0], [-1, 1, 0, 0],
                        [0, 0, 1, -1], [0, 0, -1, 1]])
        with pytest.raises(ValueError, match="disconnected"):
            local_eigenbasis(lap, p=1)

    def test_block_identity_and_residuals(self):
        rng = np.random.default_rng(2)
        for seed in range(4):
            g = sbm_graph([int(rng.integers(3, 12))], 0.8, 0.0, seed)
            lap = laplacian(g)
            for p in (1, 2):
                basis = local_eigenbasis(lap, p=p)
                n = basis.size
                assert np.abs(basis.synthesis @ basis.analysis.T - np.eye(n)).max() < 1e-10
                resid = np.abs(lap @ basis.analysis
                               - basis.analysis @ np.diag(basis.eigenvalues)).max()
                assert resid < 1e-8 * max(1.0, np.abs(lap).max())
                if p == 1:
                    col_sums = basis.analysis[:, 1:].sum(axis=0)
                    assert np.abs(col_sums).max() < 1e-10
                if p == 2:
                    assert np.array_equal(basis.synthesis, basis.analysis)

    def test_sign_rule_first_nonzero_positive(self):
        basis = local_eigenbasis(STAR, p=2)
        for col in basis.analysis.T:
            nz = np.flatnonzero(np.abs(col) > 1e-12)
            assert col[nz[0]] > 0.0

    def test_determinism_bit_identical(self):
        lap = laplacian(sbm_graph([9], 0.7, 0.0, 4))
        a = local_eigenbasis(lap, p=1)
        b = local_eigenbasis(lap, p=1)
        assert np.array_equal(a.analysis, b.analysis)
        assert np.array_equal(a.synthesis, b.synthesis)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


class TestCanonicalizeDegenerate:
    def test_triangle_multiplet(self):
        eigenspace = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        out = canonicalize_degenerate(eigenspace, p=1)
        assert np.allclose(out[:, 0], [1 / 2, -1 / 2, 0.0], atol=1e-12)
        assert np.allclose(out[:, 1], [1 / 4, 1 / 4, -1 / 2], atol=1e-12)
        assert out[2, 0] == 0.0  # forced coefficient is exactly zero

    def test_simple_eigenvalue_passthrough(self):
        out = canonicalize_degenerate(np.array([-3.0, 4.0]).reshape(2, 1), p=2)
        assert np.allclose(out[:, 0], [0.6, -0.8], atol=1e-15)

    def test_star_leaf_multiplet(self):
        # Hand-built eigenspace of the star's unit eigenvalue: leaf values
        # summing to zero, hub fixed at zero.
        eigenspace = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        out = canonicalize_degenerate(eigenspace, p=1)
        assert np.allclose(out[:, 0], [0.0, 0.5, -0.5, 0.0], atol=1e-12)
        assert np.allclose(out[:, 1], [0.0, 0.25, 0.25, -0.5], atol=1e-12)
        again = canonicalize_degenerate(eigenspace, p=1)
        assert np.array_equal(out, again)

    def test_star_via_full_decomposition(self):
        basis = local_eigenbasis(STAR, p=1)
        assert np.allclose(basis.eigenvalues, [0.0, 1.0, 1.0, 4.0], atol=1e-12)
        assert np.allclose(basis.analysis[:, 1], [0.0, 0.5, -0.5, 0.0], atol=1e-12)
        assert np.allclose(basis.analysis[:, 2], [0.0, 0.25, 0.25, -0.5], atol=1e-12)

    def test_vacuous_trailing_zero_extends(self):
        # Eigenspace entirely supported away from the last coordinate: the
        # trailing-zero constraint is vacuous and must extend deterministically.
        eigenspace = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [0.0, 0.0]])
        out = canonicalize_degenerate(eigenspace, p=2)
        assert out.shape == (4, 2)
        assert np.abs(out.T @ out - np.eye(2)).max() < 1e-12
        assert np.all(out[3, :] == 0.0)


def _star_edges(leaves):
    return [(0, k) for k in range(1, leaves + 1)], leaves + 1


def _complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)], n


def _cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)], n


def _grid_edges(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return edges, rows * cols


def _bipartite_edges(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)], a + b


@st.composite
def symmetric_laplacians(draw):
    """Dense Laplacians of highly symmetric graphs (many eigenvalue multiplets),
    with the node order shuffled so any node may sit in the trailing rows."""
    family = draw(st.sampled_from(["star", "complete", "cycle", "grid", "bipartite"]))
    if family == "star":
        edges, n = _star_edges(draw(st.integers(2, 40)))
    elif family == "complete":
        edges, n = _complete_edges(draw(st.integers(3, 16)))
    elif family == "cycle":
        edges, n = _cycle_edges(draw(st.integers(4, 40)))
    elif family == "grid":
        edges, n = _grid_edges(draw(st.integers(2, 7)), draw(st.integers(2, 7)))
    else:
        edges, n = _bipartite_edges(draw(st.integers(1, 8)), draw(st.integers(2, 8)))
    perm = np.array(draw(st.permutations(range(n))))
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[perm[u], perm[v]] = adj[perm[v], perm[u]] = 1.0
    return np.diag(adj.sum(axis=1)) - adj


def _multiplets(lap):
    """The eigenvectors of each multiple eigenvalue, one block per multiplet."""
    w, v = np.linalg.eigh(lap)
    return [v[:, start:stop] for start, stop in oracle._group_eigenvalues(w) if stop - start > 1]


class TestCanonicalizeAgreement:
    """The closed form against the per-vector search it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(lap=symmetric_laplacians(), p=st.sampled_from([1, 2]))
    def test_matches_reference_search(self, lap, p):
        for block in _multiplets(lap):
            fast = canonicalize_degenerate(block, p)
            ref = spectral._canonicalize_by_search(block, p)
            assert np.abs(fast - ref).max() <= 1e-12
            # Column c has its last m-1-c entries forced to exactly zero
            # wherever the reference forces them too.
            n, m = block.shape
            for c in range(m):
                forced = min(n - 1 - np.flatnonzero(ref[:, c])[-1], m - 1 - c)
                assert np.all(fast[n - forced:, c] == 0.0)
            assert np.array_equal(fast, canonicalize_degenerate(block, p))

    @settings(max_examples=30, deadline=None)
    @given(lap=symmetric_laplacians(), p=st.sampled_from([1, 2]))
    def test_local_eigenbasis_reruns_bit_identical(self, lap, p):
        a = local_eigenbasis(lap, p)
        b = local_eigenbasis(lap, p)
        assert np.array_equal(a.analysis, b.analysis)
        assert np.array_equal(a.synthesis, b.synthesis)


class TestCanonicalizeFallback:
    @pytest.fixture
    def search_calls(self, monkeypatch):
        calls = []
        reference = spectral._canonicalize_by_search

        def spy(eigenspace, p):
            calls.append(p)
            return reference(eigenspace, p)

        monkeypatch.setattr(spectral, "_canonicalize_by_search", spy)
        return calls

    def test_generic_multiplet_skips_search(self, search_calls):
        eigenspace = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        canonicalize_degenerate(eigenspace, p=1)
        assert search_calls == []

    def test_vacuous_trailing_zero_uses_search(self, search_calls):
        # The last node is absent from the eigenspace, so its row of the
        # frame vanishes and the closed form does not apply.
        eigenspace = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [0.0, 0.0]])
        out = canonicalize_degenerate(eigenspace, p=2)
        assert search_calls == [2]
        expected = np.array([[1 / np.sqrt(2), 1 / np.sqrt(6)],
                             [-1 / np.sqrt(2), 1 / np.sqrt(6)],
                             [0.0, -2 / np.sqrt(6)],
                             [0.0, 0.0]])
        assert np.abs(out - expected).max() < 1e-12
        assert out[2, 0] == 0.0 and np.all(out[3, :] == 0.0)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 5)])
    def test_more_columns_than_rows_is_rejected(self, search_calls, shape):
        message = re.escape(f"eigenspace of shape {shape} has more columns than rows")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                canonicalize_degenerate(np.eye(*shape), p=1)
        assert search_calls == []


def _star(leaves: int, hub: int) -> np.ndarray:
    """Unit star Laplacian with the hub at position `hub`."""
    n = leaves + 1
    adj = np.zeros((n, n))
    adj[hub, :] = adj[:, hub] = 1.0
    adj[hub, hub] = 0.0
    return np.diag(adj.sum(axis=1)) - adj


@st.composite
def weighted_laplacians(draw):
    """Connected graphs on 1-9 nodes with random positive weights: a random
    spanning tree plus random extra edges."""
    n = draw(st.integers(1, 9))
    weight = st.floats(0.125, 8.0, allow_nan=False)
    adj = np.zeros((n, n))
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        adj[u, v] = adj[v, u] = draw(weight)
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if u != v:
            adj[u, v] = adj[v, u] = draw(weight)
    return np.diag(adj.sum(axis=1)) - adj


@st.composite
def mixed_levels(draw):
    """The local Laplacians of one level: mixed sizes, byte-identical repeats,
    node-permuted copies, and stars and K_{a,b} with the hub first and last so
    that generic and fallback multiplets of one (n, m) meet in one stack."""
    laps = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["symmetric", "weighted", "star", "repeat", "permuted"]))
        if kind in ("repeat", "permuted") and laps:
            lap = laps[draw(st.integers(0, len(laps) - 1))]
            if kind == "permuted":
                perm = np.array(draw(st.permutations(range(len(lap)))))
                lap = lap[np.ix_(perm, perm)]
            laps.append(lap.copy())
        elif kind == "star":
            leaves = draw(st.integers(2, 9))
            laps += [_star(leaves, 0), _star(leaves, leaves)]
            a, b = draw(st.integers(1, 4)), draw(st.integers(2, 5))
            k_ab = _bipartite_edges(a, b)[0]
            for order in (np.arange(a + b), np.arange(a + b)[::-1]):
                adj = np.zeros((a + b, a + b))
                for u, v in k_ab:
                    adj[order[u], order[v]] = adj[order[v], order[u]] = 1.0
                laps.append(np.diag(adj.sum(axis=1)) - adj)
        elif kind == "weighted":
            laps.append(draw(weighted_laplacians()))
        else:
            laps.append(draw(symmetric_laplacians()))
    return laps


def _assert_same_basis(got, ref):
    assert np.array_equal(got.eigenvalues, ref.eigenvalues)
    assert np.array_equal(got.analysis, ref.analysis)
    assert np.array_equal(got.synthesis, ref.synthesis)


def _stack_bases(laps, p):
    """The bases of equal-size Laplacians, solved by one `eigenbasis_stack`."""
    w, q, synthesis = spectral.eigenbasis_stack(np.stack(laps), p)
    return [spectral.LocalEigenBasis(*parts, p=p) for parts in zip(w, q, synthesis)]


class TestStackedAgainstOracle:
    """The stacked spectral stage against the per-block functions it replaced,
    kept verbatim in `spectral_oracle`: equal bits, not merely close values."""

    @settings(max_examples=60, deadline=None)
    @given(laps=mixed_levels(), p=st.sampled_from([1, 2]))
    def test_level_bases_bit_identical(self, laps, p):
        # One `eigenbasis_stack` per size, as `build_operators` solves a level.
        for size in {len(lap) for lap in laps}:
            group = [lap for lap in laps if len(lap) == size]
            for lap, basis in zip(group, _stack_bases(group, p)):
                _assert_same_basis(basis, oracle.local_eigenbasis(lap, p))

    @settings(max_examples=30, deadline=None)
    @given(lap=st.one_of(symmetric_laplacians(), weighted_laplacians()),
           p=st.sampled_from([1, 2]))
    def test_single_block_functions_bit_identical(self, lap, p):
        _assert_same_basis(local_eigenbasis(lap, p), oracle.local_eigenbasis(lap, p))
        w, q = laplacian_eigh(lap, p)
        w_ref, q_ref = oracle.laplacian_eigh(lap, p)
        assert np.array_equal(w, w_ref) and np.array_equal(q, q_ref)
        assert np.array_equal(dual_basis(q), oracle.dual_basis(q_ref))
        for block in _multiplets(lap):
            assert np.array_equal(canonicalize_degenerate(block, p),
                                  oracle.canonicalize_degenerate(block, None, p))

    def test_generic_and_fallback_multiplets_in_one_stack(self, monkeypatch):
        searched = []
        reference = spectral._canonicalize_by_search
        monkeypatch.setattr(spectral, "_canonicalize_by_search",
                            lambda e, p: searched.append(e.shape) or reference(e, p))
        laps = [_star(6, 0), _star(6, 6), _star(6, 1)]
        for p in (1, 2):
            for lap, basis in zip(laps, _stack_bases(laps, p)):
                _assert_same_basis(basis, oracle.local_eigenbasis(lap, p))
        # The eigenvalue-1 multiplet has m=5; only the hub-last star has its
        # hub, a zero row of the frame, among the trailing m-1 rows.
        assert searched == [(7, 5), (7, 5)]

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("bad", [
        np.array([[1.0, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]]),
        np.array([[1.0, -1, 0], [0, 2, -1], [-1, -1, 1]]),
        np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 3]]),
    ], ids=["disconnected", "asymmetric", "no-zero-eigenvalue"])
    def test_invalid_block_raises_the_same_error(self, bad, p):
        with pytest.raises(ValueError) as ref:
            oracle.local_eigenbasis(bad, p)
        message = re.escape(str(ref.value))
        good = laplacian(grid_graph(1, len(bad)))
        with pytest.raises(ValueError, match=message):
            spectral.eigenbasis_stack(np.stack([good, bad, good]), p)
        with pytest.raises(ValueError, match=message):
            local_eigenbasis(bad, p)


class TestSharedBases:
    def test_grid_tiles_share_one_basis_per_level(self):
        # A 4x6 grid cut into 2x2 tiles: six byte-identical local Laplacians.
        labels = [(r // 2) * 3 + c // 2 + 1 for r in range(4) for c in range(6)]
        ops = build_operators(grid_graph(4, 6), SubgraphPartition.from_labels(labels), p=1)
        assert len(ops.bases) == 6
        assert all(basis is ops.bases[0] for basis in ops.bases)

    @pytest.mark.parametrize("p", [1, 2])
    def test_bases_are_read_only(self, p):
        ops = build_operators(grid_graph(2, 2), SubgraphPartition.from_labels([1, 1, 2, 2]), p)
        for basis in (local_eigenbasis(TRIANGLE, p), ops.bases[0]):
            for array in (basis.eigenvalues, basis.analysis, basis.synthesis):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    array *= 2.0


def test_star_with_1000_leaves_has_no_cliff():
    # The 999-fold leaf multiplet must take the closed-form QR, never the
    # per-vector search.  Time is bounded relative to a plain `eigh` of the
    # same Laplacian, timed just before, so a busy host slows both sides:
    # an idle 2-core host measured a ratio of about 4.
    leaves = 1000
    lap = np.eye(leaves + 1)
    lap[0, 0] = leaves
    lap[0, 1:] = lap[1:, 0] = -1.0
    start = time.perf_counter()
    np.linalg.eigh(lap)
    reference = time.perf_counter() - start
    with mock.patch.object(spectral, "_canonicalize_by_search",
                           wraps=spectral._canonicalize_by_search) as search:
        start = time.perf_counter()
        basis = local_eigenbasis(lap, p=1)
        elapsed = time.perf_counter() - start
    assert search.call_count == 0
    n = leaves + 1
    assert np.abs(basis.synthesis.T @ basis.analysis - np.eye(n)).max() <= 1e-10
    assert np.abs(basis.analysis[:, 1:].sum(axis=0)).max() < 1e-10
    assert elapsed < 20.0 * reference, \
        f"1000-leaf star took {elapsed:.2f} s, eigh alone {reference:.2f} s"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteInput:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("lap", [np.zeros((1, 1)), TRIANGLE, STAR], ids=["1", "3", "4"])
    def test_laplacian_rejected(self, bad, lap, p):
        lap = lap.copy()
        lap[-1, -1] = bad
        with pytest.raises(ValueError, match="Laplacian must be finite"):
            local_eigenbasis(lap, p)
        with pytest.raises(ValueError, match="Laplacian must be finite"):
            laplacian_eigh(lap, p)
        good = laplacian(grid_graph(1, len(lap)))
        with pytest.raises(ValueError, match="Laplacian must be finite"):
            spectral.eigenbasis_stack(np.stack([good, lap]), p)

    def test_dual_basis_rejected(self, bad):
        q = np.eye(3)
        q[1, 2] = bad
        for basis in (q, np.array([[bad]])):
            with pytest.raises(ValueError, match="analysis basis must be finite"):
                dual_basis(basis)

    def test_eigenspace_rejected(self, bad):
        eigenspace = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        eigenspace[0, 1] = bad
        with pytest.raises(ValueError, match="eigenspace must be finite"):
            canonicalize_degenerate(eigenspace, p=1)


class TestDualBasis:
    def test_triangle_dual_matches(self):
        q = np.array([[1 / 3, 1 / 2, 1 / 4], [1 / 3, -1 / 2, 1 / 4], [1 / 3, 0, -1 / 2]])
        p = dual_basis(q)
        expected = np.array([[1, 1, 2 / 3], [1, -1, 2 / 3], [1, 0, -4 / 3]])
        assert np.allclose(p, expected, atol=1e-12)

    def test_orthonormal_dual_is_itself(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert np.allclose(dual_basis(q), q, atol=1e-12)

    def test_random_well_conditioned(self):
        rng = np.random.default_rng(8)
        q = np.eye(5) + 0.3 * rng.normal(size=(5, 5))
        p = dual_basis(q)
        assert np.abs(p.T @ q - np.eye(5)).max() < 1e-10

    def test_singular_rejected(self):
        q = np.ones((3, 3))
        with pytest.raises(ValueError, match="singular|residual"):
            dual_basis(q)
