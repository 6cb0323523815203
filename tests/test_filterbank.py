"""Level operators, analysis/synthesis round trips, the cascade and atoms."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from conftest import dense_operators, graphs_equal, local_laplacian
from cosub import (PartitionConfig, SubgraphPartition, WeightedGraph,
                   analyze_cascade, analyze_level, build_operators, compute_atoms,
                   connected_components, filterbank, grid_graph, haar_partition,
                   line_graph, local_eigenbasis, louvain, partition_is_connected,
                   sbm_graph, split_adjacency, synthesize_cascade, synthesize_level)
from test_partition import block_graphs

TOY_SECOND_LEVEL = SubgraphPartition.from_labels([1, 1])


def toy_operators(toy_graph, toy_partition, p=1):
    return build_operators(toy_graph, toy_partition, p=p)


def haar_average(n):
    m = np.zeros((n // 2, n))
    for k in range(n // 2):
        m[k, 2 * k] = m[k, 2 * k + 1] = 1 / np.sqrt(2)
    return m


def haar_difference(n):
    m = np.zeros((n // 2, n))
    for k in range(n // 2):
        m[k, 2 * k] = -1 / np.sqrt(2)
        m[k, 2 * k + 1] = 1 / np.sqrt(2)
    return m


class TestBuildOperators:
    def test_toy_analysis_operators(self, toy_graph, toy_partition):
        ops = toy_operators(toy_graph, toy_partition)
        theta1 = np.array([[1 / 3, 0], [1 / 3, 0], [1 / 3, 0], [0, 1 / 2], [0, 1 / 2]])
        theta2 = np.array([[1 / 2, 0], [-1 / 2, 0], [0, 0], [0, 1 / 2], [0, -1 / 2]])
        theta3 = np.array([1 / 4, 1 / 4, -1 / 2, 0, 0]).reshape(5, 1)
        assert np.allclose(ops.analysis_matrix(1).toarray(), theta1, atol=1e-12)
        assert np.allclose(ops.analysis_matrix(2).toarray(), theta2, atol=1e-12)
        assert np.allclose(ops.analysis_matrix(3).toarray(), theta3, atol=1e-12)

    def test_toy_synthesis_operators(self, toy_graph, toy_partition):
        ops = toy_operators(toy_graph, toy_partition)
        pi1 = np.array([[1, 0], [1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        pi2 = np.array([[1, 0], [-1, 0], [0, 0], [0, 1], [0, -1]], dtype=float)
        pi3 = np.array([2 / 3, 2 / 3, -4 / 3, 0, 0]).reshape(5, 1)
        assert np.allclose(ops.synthesis_matrix(1).toarray(), pi1, atol=1e-12)
        assert np.allclose(ops.synthesis_matrix(2).toarray(), pi2, atol=1e-12)
        assert np.allclose(ops.synthesis_matrix(3).toarray(), pi3, atol=1e-12)

    def test_toy_grouping_operators(self, toy_graph, toy_partition):
        ops = toy_operators(toy_graph, toy_partition)
        omega12 = np.array([[1, 0], [1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        omega3 = np.array([1, 1, 1, 0, 0], dtype=float).reshape(5, 1)
        assert np.array_equal(ops.grouping_matrix(1).toarray(), omega12)
        assert np.array_equal(ops.grouping_matrix(2).toarray(), omega12)
        assert np.array_equal(ops.grouping_matrix(3).toarray(), omega3)

    def test_channel_bookkeeping(self, toy_graph, toy_partition):
        ops = toy_operators(toy_graph, toy_partition)
        assert ops.n_channels == 3
        assert ops.channel_sizes == [2, 2, 1]
        assert sum(ops.channel_sizes) == toy_graph.n
        assert [list(idx) for idx in ops.index_lists] == [[1, 2], [1, 2], [1]]

    def test_haar_equivalence_on_line(self):
        for n in (4, 8):
            ops = build_operators(line_graph(n), haar_partition(n), p=2)
            avg = haar_average(n)
            diff = haar_difference(n)
            assert np.allclose(ops.analysis_matrix(1).toarray().T, avg, atol=1e-12)
            got = ops.analysis_matrix(2).toarray().T
            for row, ref in zip(got, diff):
                assert min(np.abs(row - ref).max(), np.abs(row + ref).max()) < 1e-12

    def test_all_singletons_identity(self, toy_graph):
        part = SubgraphPartition.from_labels([1, 2, 3, 4, 5])
        ops = build_operators(toy_graph, part, p=1)
        assert ops.n_channels == 1
        assert np.array_equal(ops.analysis_matrix(1).toarray(), np.eye(5))
        assert np.array_equal(ops.synthesis_matrix(1).toarray(), np.eye(5))

    def test_disconnected_class_rejected(self, toy_graph):
        part = SubgraphPartition.from_labels([1, 1, 2, 2, 1])  # {0,1,4} not connected
        with pytest.raises(ValueError, match="connected"):
            build_operators(toy_graph, part, p=1)

    def test_biorthogonality_dense(self, toy_graph, toy_partition):
        for p in (1, 2):
            ops = build_operators(toy_graph, toy_partition, p=p)
            theta, pi = dense_operators(ops)
            assert np.abs(pi @ theta.T - np.eye(5)).max() < 1e-10
            if p == 2:
                assert np.abs(theta.T @ theta - np.eye(5)).max() < 1e-10


@st.composite
def tiled_grids(draw):
    """A grid cut into th x tw tiles, the last row and column of tiles
    smaller, so equal tiles repeat beside blocks of other sizes.  Weights are
    all one, periodic in the tile (equal tiles stay equal), drawn from {1, 2}
    (some tiles coincide) or uniform (none do); some edges may be dropped,
    which leaves isolated nodes and disconnected tiles."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    th, tw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = np.arange(rows * cols).reshape(rows, cols)
    u = np.concatenate([idx[:, :-1], idx[:-1]], axis=None)
    v = np.concatenate([idx[:, 1:], idx[1:]], axis=None)
    r, c = np.divmod(u, cols)
    weights = {"ones": np.ones(len(u)),
               "periodic": 1.0 + (r % th) + 0.5 * (c % tw) + 0.25 * (v - u == 1),
               "two": rng.choice([1.0, 2.0], len(u)),
               "uniform": rng.uniform(0.1, 3.0, len(u))}[
        draw(st.sampled_from(["ones", "periodic", "two", "uniform"]))]
    keep = rng.random(len(u)) >= draw(st.sampled_from([0.0, 0.0, 0.1, 0.3]))
    graph = WeightedGraph.from_edges(rows * cols, zip(u[keep], v[keep], weights[keep]))
    rr, cc = np.divmod(np.arange(rows * cols), cols)
    raw = (rr // th) * cols + cc // tw
    if draw(st.booleans()):
        raw = rng.integers(0, draw(st.integers(1, rows * cols)), rows * cols)
    return graph, SubgraphPartition.compact(raw)


class TestDistinctBlocks:
    @settings(max_examples=150, deadline=None)
    @given(case=tiled_grids(), p=st.sampled_from([1, 2]))
    def test_blocks_share_bases_exactly_when_laplacians_match(self, case, p):
        graph, part = case
        a_int, _ = split_adjacency(graph, part)
        dense = a_int.dense_adjacency()
        laps = [local_laplacian(dense, nodes) for nodes in part.node_lists()]
        # Independent of the library's component count: each class alone.
        connected = all(csgraph.connected_components(lap != 0, directed=False)[0] == 1
                        for lap in laps)
        assert partition_is_connected(graph, part) == connected
        assert (connected_components(a_int).n_subgraphs == part.n_subgraphs) == connected
        if not connected:
            with pytest.raises(ValueError, match="connected"):
                build_operators(graph, part, p)
            return
        bases = build_operators(graph, part, p).bases
        for lap, basis in zip(laps, bases):
            alone = local_eigenbasis(lap, p)
            for field in ("eigenvalues", "analysis", "synthesis"):
                assert getattr(basis, field).tobytes() == getattr(alone, field).tobytes()
        keys = [lap.tobytes() for lap in laps]
        for i in range(len(laps)):
            for j in range(i):
                assert (bases[i] is bases[j]) == (keys[i] == keys[j])


def reweighted(graph, rng):
    """`graph` with log-uniform edge weights in [1e-3, 1e3]."""
    u, v, _ = graph.edge_arrays()
    w = 10.0 ** rng.uniform(-3.0, 3.0, len(u))
    return WeightedGraph.from_edges(graph.n, zip(u.tolist(), v.tolist(), w.tolist()))


@st.composite
def weighted_partitioned_graphs(draw):
    """A `tiled_grids` or `block_graphs` graph with log-uniform weights in
    [1e-3, 1e3] and a partition: the tiling, or random labels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        graph, part = draw(tiled_grids())
    else:
        graph, part = draw(block_graphs()), None
    if part is None or draw(st.booleans()):
        part = SubgraphPartition.compact(rng.integers(0, draw(st.integers(1, graph.n)), graph.n))
    return reweighted(graph, rng), part


def spy_connectivity(monkeypatch):
    """Record every csgraph component count and every call of
    `partition_is_connected`, under the names the library modules hold."""
    import cosub.graphs

    calls = []

    def spy(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call
    monkeypatch.setattr(csgraph, "connected_components",
                        spy("connected_components", csgraph.connected_components))
    for module in (cosub.graphs, filterbank):
        monkeypatch.setattr(module, "partition_is_connected",
                            spy("partition_is_connected", cosub.graphs.partition_is_connected),
                            raising=False)
    return calls


class TestConnectivityByEigensolve:
    """`build_operators` proves connectivity only through the eigensolve:
    a disconnected subgraph has a multiple zero eigenvalue."""

    @settings(max_examples=150, deadline=None)
    @given(case=weighted_partitioned_graphs(), p=st.sampled_from([1, 2]))
    def test_disconnected_partition_always_raises(self, case, p):
        graph, part = case
        if not partition_is_connected(graph, part):
            with pytest.raises(ValueError, match="connected"):
                build_operators(graph, part, p)

    def test_no_component_count(self, monkeypatch, toy_graph, toy_partition):
        graph = sbm_graph([20] * 10, 0.7, 0.02, 3)
        part = SubgraphPartition.from_labels(np.repeat(np.arange(1, 11), 20))
        calls = spy_connectivity(monkeypatch)
        build_operators(toy_graph, toy_partition, p=1)
        build_operators(graph, part, p=2)
        with pytest.raises(ValueError, match="connected"):
            build_operators(toy_graph, SubgraphPartition.from_labels([1, 1, 2, 2, 1]), p=1)
        assert calls == []

    def test_tiny_weights_name_the_tolerance(self):
        # Connected blocks whose second eigenvalue falls under the absolute
        # 1e-8 floor of the multiplet tolerance.
        path = WeightedGraph.from_edges(5, [(i, i + 1, 1e-8) for i in range(4)])
        part = SubgraphPartition.from_labels([1, 1, 1, 2, 2])
        assert partition_is_connected(path, part)
        message = ("zero eigenvalue has multiplicity > 1; subgraph is disconnected, or its "
                   "weights are too small (tolerance 1e-8 * max(1, largest eigenvalue))")
        with pytest.raises(ValueError, match=re.escape(message)):
            build_operators(path, part, p=1)
        sbm = sbm_graph([10] * 5, 0.8, 0.05, 1)
        u, v, w = sbm.edge_arrays()
        tiny = WeightedGraph.from_edges(sbm.n, zip(u.tolist(), v.tolist(), (w * 1e-9).tolist()))
        assert partition_is_connected(tiny, louvain(tiny, PartitionConfig("sc", seed=0)))
        with pytest.raises(ValueError, match="weights are too small"):
            analyze_cascade(tiny, np.ones(tiny.n), PartitionConfig("sc", seed=0))


class TestBlockSizeBound:
    def test_block_above_the_bound_is_rejected_before_allocation(self):
        s = filterbank.MAX_BLOCK_SIZE + 1
        graph = line_graph(s + 1)
        part = SubgraphPartition.from_labels([1] + [2] * s)
        tracemalloc.start()
        try:
            with pytest.raises(filterbank.BlockSizeError,
                               match=f"subgraph 2 has {s} nodes, above the block-size bound "
                                     f"of {s - 1}"):
                build_operators(graph, part, p=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One dense (s, s) float array would take 8 s^2 bytes (33.6 MB).
        assert peak < 1e6 < 8 * s * s
        assert issubclass(filterbank.BlockSizeError, ValueError)

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(filterbank, "MAX_BLOCK_SIZE", 5)
        graph = line_graph(11)
        ops = build_operators(graph, SubgraphPartition.from_labels([1] * 5 + [2] * 5 + [3]), p=1)
        assert ops.channel_sizes == [3, 2, 2, 2, 2]
        with pytest.raises(filterbank.BlockSizeError, match="subgraph 2 has 6 nodes"):
            build_operators(graph, SubgraphPartition.from_labels([1] * 5 + [2] * 6), p=2)


def test_cascade_memory_on_a_sbm_sc_instance():
    """tracemalloc peak of one 4-level SC cascade on the benchmark's 5,000-node
    SBM (250 blocks of 20; the sbm-sc workload's first seed-1 instance).
    8.04 MB when each level's Laplacians were listed and then stacked, 7.33 MB
    when each size class is written into one stack."""
    graph = sbm_graph([20] * 250, p_in=0.7, p_out=4.0 / 5000, seed=1835504127)
    x = np.random.default_rng(0).uniform(-1.0, 1.0, graph.n)
    tracemalloc.start()
    try:
        analyze_cascade(graph, x, PartitionConfig("sc", seed=0), p=1, max_levels=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.6e6


def assert_stacked_products_match_blocks(graph, part, ops, x):
    """Channels and reconstruction against each block's own products, bit
    for bit: `basis.analysis.T @ x[nodes]` and `basis.synthesis @ c`."""
    channels, _ = analyze_level(x, graph, ops, ops.a_ext)
    flat = np.concatenate(channels)
    coeffs, rebuilt = np.empty(graph.n), np.empty(graph.n)
    # Channel-order positions of each block's coefficients, mode 1 first.
    where = np.split(np.argsort(ops.order), np.cumsum(part.sizes)[:-1])
    for nodes, basis, at in zip(ops.node_lists, ops.bases, where):
        coeffs[at] = basis.analysis.T @ x[nodes]
        rebuilt[nodes] = basis.synthesis @ flat[at]
    assert flat.tobytes() == coeffs.tobytes()
    assert synthesize_level(channels, ops).tobytes() == rebuilt.tobytes()


class TestStackedProducts:
    @settings(max_examples=150, deadline=None)
    @given(case=tiled_grids(), p=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
    def test_equal_to_per_block_products(self, case, p, seed):
        # Depending on the drawn weights, the blocks of a size class all
        # share one basis, all have their own, or mix both.
        graph, part = case
        assume(partition_is_connected(graph, part))
        ops = build_operators(graph, part, p)
        x = np.random.default_rng(seed).normal(size=graph.n)
        assert_stacked_products_match_blocks(graph, part, ops, x)

    @settings(max_examples=60, deadline=None)
    @given(case=tiled_grids(), p=st.sampled_from([1, 2]))
    def test_classes_hold_each_distinct_basis_once(self, case, p):
        graph, part = case
        assume(partition_is_connected(graph, part))
        ops = build_operators(graph, part, p)
        assert [c.nodes.shape[1] for c in ops.classes] == sorted(set(part.sizes), reverse=True)
        for c in ops.classes:
            blocks = (part.labels[c.nodes[:, 0]] - 1).tolist()
            assert len(c.analysis) == len({id(ops.bases[k]) for k in blocks})
            for nodes, k, row in zip(c.nodes, blocks, c.rows.tolist()):
                assert np.array_equal(nodes, ops.node_lists[k])
                assert np.shares_memory(ops.bases[k].analysis, c.analysis)
                assert ops.bases[k].analysis.tobytes() == c.analysis[row].tobytes()
                assert ops.bases[k].synthesis.tobytes() == c.synthesis[row].tobytes()

    @pytest.mark.parametrize("p", [1, 2])
    def test_each_kind_of_size_class(self, p):
        # A 2x8 grid in 2x2 tiles.  Tiles 1 and 2 are equal, tile 3 doubles
        # its weights and tile 4 triples them: one size class of four blocks
        # with three distinct bases.  Unit weights make all four equal, and
        # weights growing along the grid make all four distinct.
        labels = [c // 2 + 1 for r in range(2) for c in range(8)]
        idx = np.arange(16).reshape(2, 8)
        u = np.concatenate([idx[:, :-1], idx[:-1]], axis=None)
        v = np.concatenate([idx[:, 1:], idx[1:]], axis=None)
        tile = np.maximum(u % 8 // 2 - 1, 0) + 1.0
        for weights, rows in ((tile, [0, 0, 1, 2]), (np.ones(len(u)), [0, 0, 0, 0]),
                              (1.0 + u + 0.5 * v, [0, 1, 2, 3])):
            graph = WeightedGraph.from_edges(16, zip(u, v, weights))
            part = SubgraphPartition.from_labels(labels)
            ops = build_operators(graph, part, p)
            (tiles,) = ops.classes
            assert tiles.rows.tolist() == rows
            assert tiles.analysis.shape == (max(rows) + 1, 4, 4)
            x = np.random.default_rng(3).normal(size=16)
            assert_stacked_products_match_blocks(graph, part, ops, x)

    def test_shared_tiles_are_not_copied(self):
        # 12x12 grid in 4x4 tiles: nine byte-identical blocks, one stored basis.
        labels = [(r // 4) * 3 + c // 4 + 1 for r in range(12) for c in range(12)]
        ops = build_operators(grid_graph(12, 12), SubgraphPartition.from_labels(labels), p=1)
        (tiles,) = ops.classes
        assert tiles.analysis.shape == tiles.synthesis.shape == (1, 16, 16)
        assert tiles.per_block(tiles.analysis) is tiles.analysis
        assert not tiles.analysis.flags.writeable and not tiles.synthesis.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(case=tiled_grids(), p=st.sampled_from([1, 2]))
    def test_channel_matrices_are_column_ranges_of_the_stack(self, case, p):
        graph, part = case
        assume(partition_is_connected(graph, part))
        ops = build_operators(graph, part, p)
        for field, single in (("analysis", ops.analysis_matrix),
                              ("synthesis", ops.synthesis_matrix),
                              (None, ops.grouping_matrix)):
            stacked = ops._stacked(field)
            for l in range(1, ops.n_channels + 1):
                want = stacked[:, ops.offsets[l - 1]:ops.offsets[l]]
                got = single(l)
                assert got.shape == want.shape
                for attr in ("data", "indices", "indptr"):
                    assert getattr(got, attr).dtype == getattr(want, attr).dtype
                    assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()


class TestDerivedViews:
    """`bases` and `node_lists` are built from the classes and the partition
    on first read, never by `build_operators`, and then kept."""

    def test_build_constructs_no_basis(self, monkeypatch):
        built = []
        basis = filterbank.LocalEigenBasis
        monkeypatch.setattr(filterbank, "LocalEigenBasis",
                            lambda *args, **kwargs: built.append(args) or basis(*args, **kwargs))
        # A 4x6 grid: four 2x2 tiles on the left, and on the right one pair
        # of nodes per row.  Two size classes, one distinct basis each.
        labels = [(r // 2) * 2 + c // 2 + 1 if c < 4 else 5 + r
                  for r in range(4) for c in range(6)]
        part = SubgraphPartition.from_labels(labels)
        ops = build_operators(grid_graph(4, 6), part, p=1)
        assert built == []
        assert len(ops.bases) == 8 and len(built) == 2
        assert [len(c.analysis) for c in ops.classes] == [1, 1]

    @pytest.mark.parametrize("p", [1, 2])
    def test_views_are_built_once(self, toy_graph, toy_partition, p):
        ops = build_operators(toy_graph, toy_partition, p)
        assert ops.bases is ops.bases
        assert ops.node_lists is ops.node_lists
        with pytest.raises(AttributeError):
            ops.bases = []

    @settings(max_examples=60, deadline=None)
    @given(case=tiled_grids(), p=st.sampled_from([1, 2]))
    def test_node_lists_are_the_partitions(self, case, p):
        graph, part = case
        assume(partition_is_connected(graph, part))
        ops = build_operators(graph, part, p)
        want = part.node_lists()
        assert len(ops.node_lists) == len(want)
        for got, nodes in zip(ops.node_lists, want):
            assert got.dtype == nodes.dtype and got.tolist() == nodes.tolist()
        for basis, nodes in zip(ops.bases, want):
            assert basis.size == len(nodes) and basis.p == p


class TestAnalyzeSynthesizeLevel:
    def test_locally_constant_signal(self, toy_graph, toy_partition):
        ops = toy_operators(toy_graph, toy_partition)
        _, a_ext = split_adjacency(toy_graph, toy_partition)
        a, b = 2.5, -1.25
        channels, _ = analyze_level([a, a, a, b, b], toy_graph, ops, a_ext)
        assert np.allclose(channels[0], [a, b], atol=1e-12)
        assert np.abs(channels[1]).max() < 1e-12
        assert np.abs(channels[2]).max() < 1e-12

    def test_hand_computed_channels(self, toy_graph, toy_partition):
        ops = toy_operators(toy_graph, toy_partition)
        _, a_ext = split_adjacency(toy_graph, toy_partition)
        channels, coarse = analyze_level([1.0, -1.0, 0, 0, 0], toy_graph, ops, a_ext)
        assert np.allclose(channels[0], [0.0, 0.0], atol=1e-12)
        assert np.allclose(channels[1], [1.0, 0.0], atol=1e-12)
        assert np.allclose(channels[2], [0.0], atol=1e-12)
        assert np.array_equal(coarse.dense_adjacency(), [[0, 1], [1, 0]])

    def test_critical_sampling(self, toy_graph, toy_partition):
        ops = toy_operators(toy_graph, toy_partition)
        _, a_ext = split_adjacency(toy_graph, toy_partition)
        rng = np.random.default_rng(0)
        channels, _ = analyze_level(rng.normal(size=5), toy_graph, ops, a_ext)
        assert sum(len(c) for c in channels) == 5

    def test_round_trip_random_signal(self, toy_graph, toy_partition):
        rng = np.random.default_rng(42)
        for p in (1, 2):
            ops = build_operators(toy_graph, toy_partition, p=p)
            _, a_ext = split_adjacency(toy_graph, toy_partition)
            x = rng.normal(size=5)
            channels, _ = analyze_level(x, toy_graph, ops, a_ext)
            assert np.abs(synthesize_level(channels, ops) - x).max() < 1e-10

    def test_zero_channels_give_zero_signal(self, toy_graph, toy_partition):
        ops = toy_operators(toy_graph, toy_partition)
        out = synthesize_level([np.zeros(2), np.zeros(2), np.zeros(1)], ops)
        assert np.array_equal(out, np.zeros(5))

    def test_constant_round_trip(self, toy_graph, toy_partition):
        ops = toy_operators(toy_graph, toy_partition)
        _, a_ext = split_adjacency(toy_graph, toy_partition)
        x = np.full(5, 0.75)
        channels, _ = analyze_level(x, toy_graph, ops, a_ext)
        assert np.abs(synthesize_level(channels, ops) - x).max() < 1e-12

    def test_size_mismatch_rejected(self, toy_graph, toy_partition):
        ops = toy_operators(toy_graph, toy_partition)
        with pytest.raises(ValueError, match="channel"):
            synthesize_level([np.zeros(3), np.zeros(2), np.zeros(1)], ops)


class TestCascade:
    def test_toy_second_level_operators(self, toy_graph, toy_partition):
        pyramid = analyze_cascade(toy_graph, np.arange(5.0),
                                  [toy_partition, TOY_SECOND_LEVEL], p=1)
        assert pyramid.num_levels == 2
        second = pyramid.levels[1].operators
        assert np.allclose(second.analysis_matrix(1).toarray().ravel(), [0.5, 0.5],
                           atol=1e-12)
        assert np.allclose(second.analysis_matrix(2).toarray().ravel(), [0.5, -0.5],
                           atol=1e-12)

    def test_level_graph_chaining(self, toy_graph, toy_partition):
        pyramid = analyze_cascade(toy_graph, np.arange(5.0),
                                  [toy_partition, TOY_SECOND_LEVEL], p=1)
        first, second = pyramid.levels
        rebuilt_input = WeightedGraph.from_adjacency(
            second.a_int.dense_adjacency() + second.a_ext.dense_adjacency())
        assert graphs_equal(first.coarse_graph, rebuilt_input)

    def test_one_edge_split_per_level(self, monkeypatch):
        # Both module bindings are wrapped, so a split made through either
        # (the cascade, build_operators, partition_is_connected) is counted.
        import cosub.filterbank
        import cosub.graphs

        calls = []
        for module in (cosub.graphs, cosub.filterbank):
            def counted(graph, partition, _split=module.split_adjacency):
                calls.append(graph.n)
                return _split(graph, partition)
            monkeypatch.setattr(module, "split_adjacency", counted)
        g = sbm_graph([30, 30, 30], 0.3, 0.02, 5)
        pyramid = analyze_cascade(g, np.ones(g.n), PartitionConfig("sc", seed=3), p=1,
                                  max_levels=3)
        assert pyramid.num_levels >= 2
        assert calls == [level.n for level in pyramid.levels]

    def test_level_reads_its_structure_from_the_operators(self, toy_graph, toy_partition):
        pyramid = analyze_cascade(toy_graph, np.arange(5.0),
                                  [toy_partition, TOY_SECOND_LEVEL], p=1)
        for level, partition in zip(pyramid.levels, [toy_partition, TOY_SECOND_LEVEL]):
            assert level.partition is level.operators.partition is partition
            assert level.a_int is level.operators.a_int
            assert level.a_ext is level.operators.a_ext
        a_int, a_ext = split_adjacency(toy_graph, toy_partition)
        assert graphs_equal(pyramid.levels[0].a_int, a_int)
        assert graphs_equal(pyramid.levels[0].a_ext, a_ext)

    def test_structural_shape_14_nodes(self):
        # Five connected groups of sizes (4,3,3,2,2) chained by bridges.
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9),
                 (10, 11), (12, 13), (3, 4), (6, 7), (9, 10), (11, 12)]
        g = WeightedGraph.from_edges(14, edges)
        level1 = SubgraphPartition.from_labels([1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 5])
        level2 = SubgraphPartition.from_labels([1, 1, 1, 2, 2])
        level3 = SubgraphPartition.from_labels([1, 1])
        rng = np.random.default_rng(14)
        x = rng.normal(size=14)
        pyramid = analyze_cascade(g, x, [level1, level2, level3], p=1)
        detail_sizes = [[len(c) for c in lvl.channels[1:]] for lvl in pyramid.levels]
        assert detail_sizes == [[5, 3, 1], [2, 1], [1]]
        assert len(pyramid.final_approximation) == 1
        assert np.abs(synthesize_cascade(pyramid) - x).max() < 1e-10

    def test_single_node_graph_empty_cascade(self):
        g = WeightedGraph.from_edges(1, [])
        pyramid = analyze_cascade(g, [4.5], PartitionConfig("sc"))
        assert pyramid.num_levels == 0
        assert np.array_equal(synthesize_cascade(pyramid), [4.5])

    def test_singleton_detection_stops(self, toy_graph):
        pyramid = analyze_cascade(toy_graph, np.zeros(5),
                                  [SubgraphPartition.from_labels([1, 2, 3, 4, 5])], p=1)
        assert pyramid.num_levels == 0

    def test_round_trip_multilevel_sbm(self):
        g = sbm_graph([30, 30, 30], 0.3, 0.02, 5)
        rng = np.random.default_rng(1)
        x = rng.normal(size=g.n)
        for p in (1, 2):
            pyramid = analyze_cascade(g, x, PartitionConfig("sc", seed=3), p=p,
                                      max_levels=3)
            rec = synthesize_cascade(pyramid)
            assert np.linalg.norm(rec - x) / np.linalg.norm(x) < 1e-9

    def test_zeroed_details_on_blockwise_constant(self, toy_graph, toy_partition):
        x = np.array([2.0, 2.0, 2.0, -1.0, -1.0])
        pyramid = analyze_cascade(toy_graph, x, [toy_partition], p=1)
        zeroed = [np.zeros_like(c) for c in pyramid.levels[0].channels[1:]]
        channels = [pyramid.final_approximation] + zeroed
        rec = synthesize_level(channels, pyramid.levels[0].operators)
        assert np.abs(rec - x).max() < 1e-12

    def test_disconnected_input_graph_analyzes(self):
        # Two components; partitions stay within components, reconstruction holds.
        g = WeightedGraph.from_edges(8, [(0, 1), (1, 2), (2, 3),
                                         (4, 5), (5, 6), (6, 7)])
        rng = np.random.default_rng(11)
        x = rng.normal(size=8)
        pyramid = analyze_cascade(g, x, PartitionConfig("sc", seed=0), p=1,
                                  max_levels=2)
        assert pyramid.num_levels >= 1
        assert np.abs(synthesize_cascade(pyramid) - x).max() < 1e-10

    def test_detection_cascade_with_lc(self):
        g = sbm_graph([40, 40], 0.4, 0.02, 9)
        rng = np.random.default_rng(3)
        x = rng.normal(size=g.n)
        pyramid = analyze_cascade(g, x, PartitionConfig("lc", tau=60, seed=4), p=2,
                                  max_levels=4)
        assert pyramid.num_levels >= 1
        for level in pyramid.levels:
            assert level.partition.sizes.max() <= 60
            assert sum(len(c) for c in level.channels) == level.n
        rec = synthesize_cascade(pyramid)
        assert np.linalg.norm(rec - x) / np.linalg.norm(x) < 1e-9


class TestAtoms:
    def toy_pyramid(self, toy_graph, toy_partition, p=1):
        return analyze_cascade(toy_graph, np.arange(5.0),
                               [toy_partition, TOY_SECOND_LEVEL], p=p)

    def test_second_level_detail_atom_l1(self, toy_graph, toy_partition):
        atoms = compute_atoms(self.toy_pyramid(toy_graph, toy_partition, p=1))
        psi = atoms.details[1][2].toarray().ravel()
        assert np.allclose(psi, [1 / 6, 1 / 6, 1 / 6, -1 / 4, -1 / 4], atol=1e-12)

    def test_second_level_detail_atom_l2(self, toy_graph, toy_partition):
        atoms = compute_atoms(self.toy_pyramid(toy_graph, toy_partition, p=2))
        psi = atoms.details[1][2].toarray().ravel()
        expected = [1 / np.sqrt(6)] * 3 + [-0.5, -0.5]
        assert np.allclose(psi, expected, atol=1e-12)

    def test_approximation_atom_is_operator_composition(self, toy_graph, toy_partition):
        pyramid = self.toy_pyramid(toy_graph, toy_partition, p=1)
        atoms = compute_atoms(pyramid)
        theta1_l1 = pyramid.levels[0].operators.analysis_matrix(1).toarray()
        theta1_l2 = pyramid.levels[1].operators.analysis_matrix(1).toarray()
        assert np.allclose(atoms.approximation[1].toarray(), theta1_l1 @ theta1_l2,
                           atol=1e-14)

    def test_atom_count_equals_graph_size(self):
        g = sbm_graph([25, 25, 20], 0.4, 0.03, 2)
        rng = np.random.default_rng(6)
        pyramid = analyze_cascade(g, rng.normal(size=g.n),
                                  PartitionConfig("sc", seed=1), p=1, max_levels=3)
        atoms = compute_atoms(pyramid)
        total = atoms.total_detail_atoms + atoms.approximation[-1].shape[1]
        assert total == g.n

    def test_compact_support_exact_zeros(self):
        g = sbm_graph([20, 20, 20], 0.4, 0.05, 8)
        rng = np.random.default_rng(2)
        pyramid = analyze_cascade(g, rng.normal(size=g.n),
                                  PartitionConfig("sc", seed=5), p=1, max_levels=3)
        atoms = compute_atoms(pyramid)
        trees = _subgraph_trees(pyramid)
        for j, level_details in enumerate(atoms.details):
            ops = pyramid.levels[j].operators
            for l, mat in level_details.items():
                dense = mat.toarray()
                for col, label in enumerate(ops.index_lists[l - 1]):
                    outside = np.setdiff1d(np.arange(g.n), trees[j][label - 1])
                    assert np.all(dense[outside, col] == 0.0)

    def test_detail_atoms_zero_mean_l1(self):
        g = sbm_graph([18, 18], 0.5, 0.05, 3)
        rng = np.random.default_rng(4)
        pyramid = analyze_cascade(g, rng.normal(size=g.n),
                                  PartitionConfig("sc", seed=2), p=1, max_levels=3)
        atoms = compute_atoms(pyramid)
        for level_details in atoms.details:
            for mat in level_details.values():
                sums = np.asarray(mat.sum(axis=0)).ravel()
                assert np.abs(sums).max() < 1e-10


def _subgraph_trees(pyramid):
    """trees[j][k] = original nodes behind supernode k+1 at level j."""
    trees = []
    prev = None
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


@st.composite
def weighted_graphs(draw):
    """Connected or two-component graphs of 6-48 nodes, each component a
    random spanning tree plus extra edges, with log-uniform weights in
    [0.1, 10]: lambda_2 stays far above the 1e-8 multiplet tolerance."""
    n = draw(st.integers(6, 48))
    cut = n if draw(st.booleans()) else draw(st.integers(3, n - 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = set()
    for lo, hi in ((0, cut), (cut, n)):
        edges.update((int(rng.integers(lo, v)), v) for v in range(lo + 1, hi))
        for u, v in rng.integers(lo, hi, (int(rng.integers(0, 2 * (hi - lo) + 1)), 2)):
            if u != v:
                edges.add((int(min(u, v)), int(max(u, v))))
    w = 10.0 ** rng.uniform(-1.0, 1.0, len(edges))
    return WeightedGraph.from_edges(n, [(u, v, x) for (u, v), x in zip(sorted(edges), w)])


class TestInvariantsOnWeightedGraphs:
    """The paper's invariants as properties of detected cascades on weighted
    graphs, rather than as equality with an oracle."""

    @settings(max_examples=60, deadline=None)
    @given(graph=weighted_graphs(), p=st.sampled_from([1, 2]),
           config=st.sampled_from([PartitionConfig("sc", seed=3),
                                   PartitionConfig("lc", tau=8, seed=3),
                                   PartitionConfig("sc", seed=3, edge_aware=True)]),
           seed=st.integers(0, 2**32 - 1))
    def test_cascade_invariants(self, graph, p, config, seed):
        x = np.random.default_rng(seed).normal(size=graph.n)
        pyramid = analyze_cascade(graph, x, config, p=p, max_levels=3)
        error = np.abs(synthesize_cascade(pyramid) - x).max()
        assert error <= 1e-10 * np.abs(x).max()
        level_graph = graph
        for level in pyramid.levels:
            ops, part = level.operators, level.partition
            assert sum(len(c) for c in level.channels) == level.n
            assert partition_is_connected(level_graph, part)
            if config.variant == "lc":
                assert part.sizes.max() <= config.tau
            gram = (ops._stacked("synthesis").T @ ops._stacked("analysis")).toarray()
            assert np.abs(gram - np.eye(level.n)).max() <= 1e-10
            level_graph = level.coarse_graph
        atoms = compute_atoms(pyramid)
        for j, tree in enumerate(_subgraph_trees(pyramid)):
            ops = pyramid.levels[j].operators
            channels = {1: atoms.approximation[j], **atoms.details[j]}
            for l, mat in channels.items():
                dense = mat.toarray()
                for col, label in enumerate(ops.index_lists[l - 1]):
                    outside = np.setdiff1d(np.arange(graph.n), tree[label - 1])
                    assert np.all(dense[outside, col] == 0.0)
                if p == 1 and l > 1:
                    assert np.abs(dense.sum(axis=0)).max() <= 1e-10
        again = analyze_cascade(graph, x, config, p=p, max_levels=3)
        assert again.num_levels == pyramid.num_levels
        for a, b in zip(again.levels, pyramid.levels):
            assert [c.tobytes() for c in a.channels] == [c.tobytes() for c in b.channels]
        assert again.final_approximation.tobytes() == pyramid.final_approximation.tobytes()


def grid_pyramid(side: int):
    """The cascade of a side x side grid over fixed square tiles, 8 x 8 at
    level 1, then 4 x 4 while the coarse side allows, then one tile."""
    def tiles(side, tile):
        r, c = np.divmod(np.arange(side * side), side)
        return SubgraphPartition.from_labels((r // tile) * (side // tile) + c // tile + 1)

    parts, coarse = [tiles(side, 8)], side // 8
    if coarse % 4 == 0 and coarse > 4:
        parts.append(tiles(coarse, 4))
        coarse //= 4
    parts.append(tiles(coarse, coarse))
    x = np.random.default_rng(0).normal(size=side * side)
    return analyze_cascade(grid_graph(side, side), x, parts, p=1)


def returned_matrices(pyramid):
    """Every atom, and every channel operator of every level, each once."""
    atoms = compute_atoms(pyramid)
    mats = atoms.approximation + [m for level in atoms.details for m in level.values()]
    for level in pyramid.levels:
        ops = level.operators
        for l in range(1, ops.n_channels + 1):
            mats += [ops.analysis_matrix(l), ops.synthesis_matrix(l), ops.grouping_matrix(l)]
    return mats


def snapshot(mat):
    return [a.copy() for a in (mat.data, mat.indices, mat.indptr)]


class TestOwnership:
    """Each returned sparse matrix owns its arrays: changing one in place,
    as scipy's own in-place methods do, leaves every other one as it was."""

    @pytest.fixture(params=["grid", "sbm"])
    def pyramid(self, request):
        if request.param == "grid":
            return grid_pyramid(32)
        g = sbm_graph([12, 12, 9, 9, 6], 0.6, 0.05, 3)
        return analyze_cascade(g, np.random.default_rng(1).normal(size=g.n),
                               PartitionConfig("sc", seed=1), p=1, max_levels=3)

    def test_no_two_matrices_share_memory(self, pyramid):
        arrays = [a for m in returned_matrices(pyramid) for a in (m.data, m.indices, m.indptr)]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.may_share_memory(a, b)

    def test_in_place_changes_stay_in_their_matrix(self, pyramid):
        mats = returned_matrices(pyramid)
        before = [snapshot(m) for m in mats]
        for k in range(0, len(mats), max(1, len(mats) // 12)):
            m = mats[k]
            m.data[::2] = 0.0
            m.eliminate_zeros()
            m.indices[:] = m.indices[::-1].copy()
            m.has_sorted_indices = False
            m.sort_indices()
            m.data[:] = 0.0
            m.indptr[:] = 0
            for j, other in enumerate(mats):
                if j != k:
                    assert all(np.array_equal(a, b) for a, b in zip(snapshot(other), before[j]))
            before[k] = snapshot(m)


@pytest.mark.parametrize("at", range(3))
@pytest.mark.parametrize("size", [2**31 - 1, 2**31])
def test_index_dtype_is_scipys_at_the_bound(size, at):
    """n, the column count and the entry count each switch the index dtype at
    2**31, as scipy decides it from the shape and the contents of int64
    indices (< n) and indptr (up to the entry count)."""
    n, columns, nnz = [size if i == at else 1 for i in range(3)]
    want = sp.get_index_dtype((np.array([n - 1]), np.array([0, nnz])),
                              maxval=max(n, columns), check_contents=True)
    assert filterbank._index_dtype(n, columns, nnz) == want
    assert want == (np.int32 if size < 2**31 else np.int64)


@pytest.mark.parametrize("n", [2**31 - 1, 2**31])
def test_csc_index_arrays_match_scipys_own_choice(n):
    # Many rows cost nothing in CSC: only the columns have an indptr entry.
    indices, indptr = np.array([0, n - 1]), np.array([0, 2])
    got = filterbank._csc(n, np.ones(2), indices, indptr)
    want = sp.csc_matrix((np.ones(2), indices, indptr), shape=(n, 1))
    assert got.indices.dtype == got.indptr.dtype == want.indices.dtype
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.indptr, want.indptr)
    assert not np.may_share_memory(got.indices, indices)
    assert not np.may_share_memory(got.indptr, indptr)


def test_atoms_memory_on_the_grid_tiles_pyramid():
    """tracemalloc peak of `compute_atoms` on the 96 x 96 grid's three-level
    tile cascade (11.66 MB when this gate was set)."""
    pyramid = grid_pyramid(96)
    compute_atoms(pyramid)  # first-read views and caches are not the atoms' cost
    tracemalloc.start()
    try:
        compute_atoms(pyramid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11.7e6
