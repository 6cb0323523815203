"""Acceptance suite: reference values and behavioral bounds, one pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import functools
import math
import time

import numpy as np
import pytest

from conftest import blocks_to_labels, brute_modularity, dense_operators, set_partitions
from cosub import (PartitionConfig, SubgraphPartition, WeightedGraph,
                   analyze_cascade, best_level_nla, build_operators,
                   compute_atoms, denoise, grid_graph, haar_partition,
                   line_graph, louvain, modularity, partition_is_connected,
                   sbm_graph, smooth_test_signal, snr, split_adjacency,
                   synthesize_cascade)

TOL_EXACT = 1e-12
TOY_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]


def reported(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return wrapper
    return decorate


# -- criterion 1 -------------------------------------------------------------


@reported("criterion 1 (5-node toy golden values, exact)")
def test_criterion_1_toy_golden_values():
    start = time.perf_counter()
    graph = WeightedGraph.from_edges(5, TOY_EDGES)
    part1 = SubgraphPartition.from_labels([1, 1, 1, 2, 2])
    part2 = SubgraphPartition.from_labels([1, 1])

    ops = build_operators(graph, part1, p=1)
    basis_tri, basis_pair = ops.bases
    assert np.abs(basis_tri.eigenvalues - [0.0, 3.0, 3.0]).max() <= TOL_EXACT
    assert np.abs(basis_pair.eigenvalues - [0.0, 2.0]).max() <= TOL_EXACT

    q1 = np.array([[1 / 3, 1 / 2, 1 / 4], [1 / 3, -1 / 2, 1 / 4], [1 / 3, 0, -1 / 2]])
    p1 = np.array([[1, 1, 2 / 3], [1, -1, 2 / 3], [1, 0, -4 / 3]], dtype=float)
    q2 = np.array([[1 / 2, 1 / 2], [1 / 2, -1 / 2]])
    p2 = np.array([[1, 1], [1, -1]], dtype=float)
    assert np.abs(basis_tri.analysis - q1).max() <= TOL_EXACT
    assert np.abs(basis_tri.synthesis - p1).max() <= TOL_EXACT
    assert np.abs(basis_pair.analysis - q2).max() <= TOL_EXACT
    assert np.abs(basis_pair.synthesis - p2).max() <= TOL_EXACT

    theta = {
        1: np.array([[1 / 3, 0], [1 / 3, 0], [1 / 3, 0], [0, 1 / 2], [0, 1 / 2]]),
        2: np.array([[1 / 2, 0], [-1 / 2, 0], [0, 0], [0, 1 / 2], [0, -1 / 2]]),
        3: np.array([[1 / 4], [1 / 4], [-1 / 2], [0], [0]]),
    }
    pi = {
        1: np.array([[1, 0], [1, 0], [1, 0], [0, 1], [0, 1]], dtype=float),
        2: np.array([[1, 0], [-1, 0], [0, 0], [0, 1], [0, -1]], dtype=float),
        3: np.array([[2 / 3], [2 / 3], [-4 / 3], [0], [0]]),
    }
    omega = {
        1: np.array([[1, 0], [1, 0], [1, 0], [0, 1], [0, 1]], dtype=float),
        2: np.array([[1, 0], [1, 0], [1, 0], [0, 1], [0, 1]], dtype=float),
        3: np.array([[1], [1], [1], [0], [0]], dtype=float),
    }
    for l in (1, 2, 3):
        assert np.abs(ops.analysis_matrix(l).toarray() - theta[l]).max() <= TOL_EXACT
        assert np.abs(ops.synthesis_matrix(l).toarray() - pi[l]).max() <= TOL_EXACT
        assert np.abs(ops.grouping_matrix(l).toarray() - omega[l]).max() <= TOL_EXACT

    pyramid = analyze_cascade(graph, np.arange(5.0), [part1, part2], p=1)
    coarse = pyramid.levels[0].coarse_graph
    assert np.abs(coarse.dense_adjacency() - [[0.0, 1.0], [1.0, 0.0]]).max() <= TOL_EXACT

    second = pyramid.levels[1].operators
    assert np.abs(second.analysis_matrix(1).toarray().ravel() - [0.5, 0.5]).max() <= TOL_EXACT
    assert np.abs(second.analysis_matrix(2).toarray().ravel() - [0.5, -0.5]).max() <= TOL_EXACT

    atoms = compute_atoms(pyramid)
    psi22 = atoms.details[1][2].toarray().ravel()
    assert np.abs(psi22 - [1 / 6, 1 / 6, 1 / 6, -1 / 4, -1 / 4]).max() <= TOL_EXACT

    pyramid_l2 = analyze_cascade(graph, np.arange(5.0), [part1, part2], p=2)
    psi22_l2 = compute_atoms(pyramid_l2).details[1][2].toarray().ravel()
    expected_l2 = np.array([1 / math.sqrt(6)] * 3 + [-0.5, -0.5])
    assert np.abs(psi22_l2 - expected_l2).max() <= TOL_EXACT

    # Level-2 L1 approximation atom: the pinned level-1 Θ₁ columns composed
    # with level-2 Θ₁ = (1/2, 1/2), i.e. ½(1/3,1/3,1/3,0,0) + ½(0,0,0,1/2,1/2);
    # on x = arange(5) it gives ½·mean(0,1,2) + ½·mean(3,4) = 2.25.
    x = np.arange(5.0)
    phi2 = atoms.approximation[1].toarray().ravel()
    assert np.abs(phi2 - [1 / 6, 1 / 6, 1 / 6, 1 / 4, 1 / 4]).max() <= TOL_EXACT, (
        f"level-2 approximation atom {phi2} differs from "
        "½(1/3,1/3,1/3,0,0) + ½(0,0,0,1/2,1/2) = (1/6,1/6,1/6,1/4,1/4)")
    assert np.abs(atoms.approximation[1].T @ x - pyramid.final_approximation).max() <= TOL_EXACT
    assert abs(pyramid.final_approximation[0] - 2.25) <= TOL_EXACT
    assert abs(phi2.sum() - 1.0) <= TOL_EXACT

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"toy golden suite took {elapsed:.3f}s"


# -- criteria 2 and 3 --------------------------------------------------------


def _trial_plan():
    plan = []
    rng = np.random.default_rng(20260810)
    families = ["er", "sbm", "grid", "line"]
    for t in range(100):
        family = families[t % 4]
        if t < 92:
            n_target = int(rng.integers(30, 320))
        else:
            n_target = int(rng.integers(1200, 2001))
        plan.append({
            "trial": t,
            "family": family,
            "n_target": n_target,
            "variant": "sc" if t % 2 == 0 else "lc",
            "tau": int(rng.choice([50, 200])),
            "p": 1 if (t // 2) % 2 == 0 else 2,
            "levels": 1 + t % 4,
            "seed": int(rng.integers(0, 2**31)),
        })
    return plan


def _make_graph(family: str, n_target: int, seed: int) -> WeightedGraph:
    if family == "er":
        p = min(1.0, 6.0 / n_target)
        return sbm_graph([n_target], p, 0.0, seed)
    if family == "sbm":
        rng = np.random.default_rng(seed)
        blocks = [int(rng.integers(8, max(9, n_target // 4)))
                  for _ in range(int(rng.integers(3, 6)))]
        return sbm_graph(blocks, 0.5, 0.03, seed)
    if family == "grid":
        rows = max(2, int(round(math.sqrt(n_target))))
        return grid_graph(rows, rows)
    n = n_target if n_target % 2 == 0 else n_target + 1
    return line_graph(n)


@pytest.fixture(scope="module")
def reconstruction_trials():
    records = []
    for params in _trial_plan():
        graph = _make_graph(params["family"], params["n_target"], params["seed"])
        rng = np.random.default_rng(params["seed"] + 1)
        x = rng.normal(size=graph.n)
        config = PartitionConfig(variant=params["variant"], tau=params["tau"],
                                 seed=params["seed"] % 1000)
        pyramid = analyze_cascade(graph, x, config, p=params["p"],
                                  max_levels=params["levels"])
        rec = synthesize_cascade(pyramid)
        rel_err = float(np.linalg.norm(rec - x) / np.linalg.norm(x))
        sampling_ok = all(sum(len(c) for c in level.channels) == level.n
                          for level in pyramid.levels)
        biorth = orth = None
        if graph.n <= 200:
            biorth, orth = 0.0, 0.0
            for level in pyramid.levels:
                theta, pi = dense_operators(level.operators)
                eye = np.eye(level.n)
                biorth = max(biorth, float(np.abs(pi @ theta.T - eye).max()))
                if params["p"] == 2:
                    orth = max(orth, float(np.abs(theta.T @ theta - eye).max()))
        records.append({"params": params, "n": graph.n, "levels": pyramid.num_levels,
                        "rel_err": rel_err, "sampling_ok": sampling_ok,
                        "biorth": biorth, "orth": orth})
    return records


@reported("criterion 2 (perfect reconstruction, 100 randomized trials)")
def test_criterion_2_perfect_reconstruction(reconstruction_trials):
    start = time.perf_counter()
    assert len(reconstruction_trials) == 100
    built = [r for r in reconstruction_trials if r["levels"] >= 1]
    assert len(built) >= 90  # detection must make progress in almost all trials
    worst = max(r["rel_err"] for r in reconstruction_trials)
    assert worst < 1e-9, f"worst relative reconstruction error {worst:.3e}"
    assert time.perf_counter() - start < 120.0


@reported("criterion 3 (critical sampling and biorthogonality)")
def test_criterion_3_sampling_and_biorthogonality(reconstruction_trials):
    assert all(r["sampling_ok"] for r in reconstruction_trials)
    checked = [r for r in reconstruction_trials if r["biorth"] is not None]
    assert checked, "no trial small enough for the dense check"
    assert max(r["biorth"] for r in checked) < 1e-10
    l2_checked = [r for r in checked if r["params"]["p"] == 2 and r["levels"] >= 1]
    assert l2_checked
    assert max(r["orth"] for r in l2_checked) < 1e-10


# -- criterion 4 -------------------------------------------------------------


@reported("criterion 4 (pairwise-average/difference equivalence on lines)")
def test_criterion_4_haar_equivalence():
    for n in (4, 8, 64):
        ops = build_operators(line_graph(n), haar_partition(n), p=2)
        avg = np.zeros((n // 2, n))
        diff = np.zeros((n // 2, n))
        for k in range(n // 2):
            avg[k, 2 * k] = avg[k, 2 * k + 1] = 1 / math.sqrt(2)
            diff[k, 2 * k] = -1 / math.sqrt(2)
            diff[k, 2 * k + 1] = 1 / math.sqrt(2)
        theta1 = ops.analysis_matrix(1).toarray().T
        theta2 = ops.analysis_matrix(2).toarray().T
        assert np.abs(theta1 - avg).max() <= TOL_EXACT
        for row, ref in zip(theta2, diff):
            assert min(np.abs(row - ref).max(), np.abs(row + ref).max()) <= TOL_EXACT


# -- criterion 5 -------------------------------------------------------------


def _subgraph_trees(pyramid):
    trees, prev = [], None
    for level in pyramid.levels:
        node_lists = level.operators.node_lists
        if prev is None:
            current = [np.array(nodes) for nodes in node_lists]
        else:
            current = [np.sort(np.concatenate([prev[i] for i in nodes]))
                       for nodes in node_lists]
        trees.append(current)
        prev = current
    return trees


@reported("criterion 5 (atom support, zero mean, critical count)")
def test_criterion_5_atom_properties():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        blocks = [int(rng.integers(10, 26)) for _ in range(3)]
        graph = sbm_graph(blocks, 0.5, 0.04, seed)
        x = rng.normal(size=graph.n)
        pyramid = analyze_cascade(graph, x, PartitionConfig("sc", seed=seed),
                                  p=1, max_levels=3)
        assert pyramid.num_levels >= 1
        atoms = compute_atoms(pyramid)
        total = atoms.total_detail_atoms + atoms.approximation[-1].shape[1]
        assert total == graph.n
        trees = _subgraph_trees(pyramid)
        all_nodes = np.arange(graph.n)
        for j, level_details in enumerate(atoms.details):
            ops = pyramid.levels[j].operators
            for l, mat in level_details.items():
                sums = np.asarray(mat.sum(axis=0)).ravel()
                assert np.abs(sums).max() < 1e-10
                dense = mat.toarray()
                for col, label in enumerate(ops.index_lists[l - 1]):
                    outside = np.setdiff1d(all_nodes, trees[j][label - 1])
                    assert np.all(dense[outside, col] == 0.0)


# -- criterion 6 -------------------------------------------------------------


@reported("criterion 6 (compression: smooth beats random by 10 dB)")
def test_criterion_6_compression_gap():
    graph = sbm_graph([100] * 10, 0.10, 0.002, 60)
    smooth = smooth_test_signal(graph, 5)
    energy = float(np.linalg.norm(smooth))
    smooth_scores, random_scores = [], []
    for seed in range(10):
        config = PartitionConfig("sc", seed=seed)
        res = best_level_nla(graph, smooth, config, keep_hp=0.05, p=1, max_levels=4)
        smooth_scores.append(res.psnr)
        rng = np.random.default_rng(7000 + seed)
        noise = rng.normal(size=graph.n)
        noise *= energy / np.linalg.norm(noise)
        res_rand = best_level_nla(graph, noise, config, keep_hp=0.05, p=1, max_levels=4)
        random_scores.append(res_rand.psnr)
    gap = float(np.median(smooth_scores) - np.median(random_scores))
    assert gap >= 10.0, f"median PSNR gap {gap:.2f} dB"


# -- criterion 7 -------------------------------------------------------------


@reported("criterion 7 (denoising gains 3 dB at every noise level)")
def test_criterion_7_denoising_gain():
    start = time.perf_counter()
    graph = sbm_graph([250] * 4, 0.08, 0.002, 77)
    clean = np.where((np.arange(graph.n) // 250) % 2 == 0, 1.0, -1.0)
    partition = louvain(graph, PartitionConfig("lc", tau=1000, seed=5))
    rng = np.random.default_rng(900)
    for sigma in (1 / 8, 1 / 4, 1 / 2):
        gains = []
        for _ in range(10):
            noisy = clean + rng.normal(scale=sigma, size=graph.n)
            cleaned = denoise(graph, noisy, sigma, levels=1,
                              partitions=[partition], p=2)
            gains.append(snr(clean, cleaned) - snr(clean, noisy))
        med = float(np.median(gains))
        assert med >= 3.0, f"sigma={sigma}: median SNR gain {med:.2f} dB"
    assert time.perf_counter() - start < 120.0


# -- criterion 8 -------------------------------------------------------------


@reported("criterion 8 (exhaustive modularity oracle, small graphs)")
def test_criterion_8_modularity_oracle():
    rng = np.random.default_rng(88)
    graphs = [WeightedGraph.from_edges(5, TOY_EDGES),
              WeightedGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4),
                                           (3, 5), (4, 5), (2, 3)])]
    for n in (7, 8):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = [e for e in pairs if rng.random() < 0.45] or [pairs[0]]
        graphs.append(WeightedGraph.from_edges(n, keep))
    for gi, graph in enumerate(graphs):
        n = graph.n
        best_q = -math.inf
        best_labels = None
        for blocks in set_partitions(n):
            labels = blocks_to_labels(blocks, n)
            part = SubgraphPartition.compact(labels)
            value = modularity(graph, part)
            oracle = brute_modularity(graph, labels)
            assert value == pytest.approx(oracle, abs=1e-12)
            if value > best_q:
                best_q, best_labels = value, part.labels.copy()
        for variant in ("sc", "lc"):
            for seed in range(3):
                config = PartitionConfig(variant=variant, seed=seed, tau=8)
                part = louvain(graph, config)
                assert modularity(graph, part) <= best_q + 1e-12
                assert partition_is_connected(graph, part)
        if gi == 0:
            assert np.array_equal(best_labels, [1, 1, 1, 2, 2])
            assert best_q == pytest.approx(0.22, abs=1e-12)


# -- criterion 9 -------------------------------------------------------------


def _one_level_seconds(n: int, seed: int) -> float:
    block = 20
    graph = sbm_graph([block] * (n // block), 0.7, 4.0 / n, seed)
    x = np.random.default_rng(seed).normal(size=graph.n)
    start = time.perf_counter()
    part = louvain(graph, PartitionConfig("sc", seed=seed))
    a_int, a_ext = split_adjacency(graph, part)
    ops = build_operators(graph, part, p=2)
    from cosub import analyze_level
    analyze_level(x, graph, ops, a_ext)
    return time.perf_counter() - start


@reported("criterion 9 (near-linear single-level scaling)")
def test_criterion_9_complexity_smoke():
    _one_level_seconds(4000, 1)  # warm-up
    t_small = min(_one_level_seconds(10000, 2), _one_level_seconds(10000, 3))
    t_large = _one_level_seconds(40000, 4)
    ratio = t_large / t_small
    print(f"  [criterion 9] t(40000)={t_large:.2f}s t(10000)={t_small:.2f}s "
          f"ratio={ratio:.2f}")
    assert ratio < 8.0, f"scaling ratio {ratio:.2f} >= 8"
