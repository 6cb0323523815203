"""Graph construction, Laplacians, splitting, coarsening, generators."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import components_oracle
import graphs_oracle as oracle
from conftest import brute_coarsen, edge_tuples, graphs_equal, random_connected_partition
from cosub import (SubgraphPartition, WeightedGraph, as_signal, coarsen,
                   connected_components, global_eigenbasis, graphs, grid_graph,
                   laplacian, line_graph, partition_is_connected, sbm_graph,
                   split_adjacency)
from cosub.graphs import MAX_NODE_COUNT


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph.from_edges(3, [(0, 0)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            WeightedGraph.from_edges(3, [(0, 1, 0.0)])

    @pytest.mark.parametrize("w", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(ValueError, match="finite"):
            WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, w)])

    @pytest.mark.parametrize("w", [np.nan, np.inf])
    def test_from_adjacency_rejects_non_finite_weight(self, w):
        a = np.array([[0.0, w, 0.0], [w, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            WeightedGraph.from_adjacency(a)

    def test_as_signal_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_signal([0.0, np.nan, 1.0], 3)
        with pytest.raises(ValueError, match="finite"):
            as_signal([0.0, -np.inf, 1.0], 3)

    def test_symmetry_of_adjacency(self, toy_graph):
        a = toy_graph.dense_adjacency()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)

    def test_adjacency_is_built_per_call(self, toy_graph):
        # The edge arrays are the only stored copy of the edges: writing into
        # one adjacency matrix changes neither them nor the next matrix.
        before = toy_graph.dense_adjacency()
        edges = [a.copy() for a in toy_graph.edge_arrays()]
        toy_graph.adjacency.data[:] = 7.0
        assert np.array_equal(toy_graph.adjacency.toarray(), before)
        assert all(np.array_equal(a, b) for a, b in zip(toy_graph.edge_arrays(), edges))

    def test_from_adjacency_round_trip(self, toy_graph):
        rebuilt = WeightedGraph.from_adjacency(toy_graph.dense_adjacency())
        assert graphs_equal(toy_graph, rebuilt)

    def test_from_adjacency_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            WeightedGraph.from_adjacency(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14])
    def test_symmetry_test_is_relative(self, scale):
        # The same matrices at every scale: a 1e-13 relative mismatch is
        # symmetric, a factor of 3 is not.
        near = WeightedGraph.from_adjacency(np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]]) * scale)
        assert near.edge_arrays()[2].tolist() == [scale]
        with pytest.raises(ValueError, match="symmetric"):
            WeightedGraph.from_adjacency(np.array([[0.0, 1.0], [3.0, 0.0]]) * scale)


def outcome(build, *args):
    """The arrays and dtypes of an accepted graph, or the text of the
    `ValueError` that rejected the input."""
    try:
        graph = build(*args)
    except ValueError as exc:
        return "rejected", str(exc)
    return graph.n, [(a.dtype.str, a.tolist()) for a in graph.edge_arrays()]


# Integral indices within +-2**53 (exact as floats too), weights at and around
# every weight check, 2- and 3-tuples mixed.
NODE_INDICES = st.integers(-2, 9) | st.sampled_from([2**53, -(2**53), 2**40])
WEIGHTS = st.sampled_from([1.0, 0.25, 3, 1e-300, 0.0, -1.0, float("nan"), float("inf")])
EDGES = st.tuples(NODE_INDICES, NODE_INDICES) | st.tuples(NODE_INDICES, NODE_INDICES, WEIGHTS)


@st.composite
def valid_edge_lists(draw):
    """A node count and distinct in-range pairs, either orientation, so that
    most draws are accepted."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]),
                          unique_by=lambda e: (min(e), max(e)), max_size=12))
    weights = draw(st.lists(st.sampled_from([None, 1.0, 0.5, 7]), min_size=len(pairs),
                            max_size=len(pairs)))
    return n, [e if w is None else (*e, w) for e, w in zip(pairs, weights)]


class TestCheckedEntry:
    """Every validated graph passes one checked entry; it must accept and
    reject exactly what the per-constructor checks of `graphs_oracle` did."""

    @settings(max_examples=300, deadline=None)
    @given(case=st.tuples(st.integers(-1, 8), st.lists(EDGES, max_size=8)) | valid_edge_lists())
    def test_from_edges_matches_the_oracle(self, case):
        n, edges = case
        assert outcome(WeightedGraph.from_edges, n, edges) == outcome(oracle.from_edges, n, edges)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), symmetric=st.booleans())
    def test_from_adjacency_matches_the_oracle(self, data, n, symmetric):
        values = st.sampled_from([0.0, 0.0, 1.0, 2.5, -1.0, 0.5])
        a = np.array(data.draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
        if symmetric:
            a = np.triu(a, 1) + np.triu(a, 1).T
        if data.draw(st.booleans()):
            a[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = 1.0
        got = outcome(WeightedGraph.from_adjacency, a)
        want = outcome(oracle.from_adjacency, a)
        assert (got[0] == "rejected") == (want[0] == "rejected")
        if want[0] != "rejected":
            assert got == want

    def test_generators_match_the_oracle(self):
        for rows in range(1, 13):
            for cols in range(1, 13):
                assert outcome(grid_graph, rows, cols) == outcome(oracle.grid_graph, rows, cols)
        cases = [([5], 1.0, 0.0), ([1, 1], 0.5, 0.5), ([3, 4, 5], 0.5, 0.05),
                 ([10, 10], 1.0, 1.0), ([4, 4], 0.0, 0.0), ([50] * 60, 0.3, 5e-4),
                 ([300] * 8, 0.3, 4e-3),
                 # 2,000,000 cross pairs, the last dense case; 2,001,999, sparse.
                 ([1000, 2000], 0.002, 0.001), ([1, 1000, 1999], 0.002, 0.001)]
        for sizes, p_in, p_out in cases:
            for seed in (0, 3):
                assert (outcome(sbm_graph, sizes, p_in, p_out, seed)
                        == outcome(oracle.sbm_graph, sizes, p_in, p_out, seed))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), sizes=st.lists(st.integers(1, 12) | st.just(1), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_sbm_graph_matches_the_oracle(self, data, sizes, seed):
        """Same graph per seed in the dense cross regime (and with no draws at
        p 0 or 1): the rng is consumed in the oracle's order."""
        p_in = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        p_out = data.draw(st.sampled_from([0.0, p_in]) | st.floats(0.0, p_in)
                          | st.sampled_from([1.0]))
        assert (outcome(sbm_graph, sizes, p_in, p_out, seed)
                == outcome(oracle.sbm_graph, sizes, p_in, p_out, seed))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), sizes=st.lists(st.integers(1, 12) | st.just(1), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_checked_keeps_the_sbm_graph(self, data, sizes, seed):
        """`sbm_graph` builds through the raw constructor: its output must
        already be what `_checked` makes of it (int64 u < v sorted by (u, v),
        no repeats, float64 weights)."""
        p_in = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        p_out = data.draw(st.sampled_from([0.0, p_in]) | st.floats(0.0, p_in)
                          | st.sampled_from([1.0]))
        assume(p_out <= p_in)
        g = sbm_graph(sizes, p_in, p_out, seed)
        arrays = g.edge_arrays()
        assert (outcome(WeightedGraph._checked, g.n, *arrays)
                == outcome(lambda: g))

    @pytest.mark.parametrize("args", [([3, 4, 5], 0.5, 0.05), ([1], 1.0, 1.0),
                                      ([20] * 100, 0.7, 0.002), ([50] * 60, 0.3, 5e-4)],
                             ids=["dense", "one-node", "2000-dense", "3000-sparse"])
    def test_sbm_graph_does_not_recheck_its_edges(self, monkeypatch, args):
        calls = []
        checked = WeightedGraph._checked.__func__

        def spy(cls, *a):
            calls.append(a)
            return checked(cls, *a)

        monkeypatch.setattr(WeightedGraph, "_checked", classmethod(spy))
        g = sbm_graph(*args, 1)
        assert calls == []
        assert outcome(lambda: g) == outcome(oracle.sbm_graph, *args, 1)

    @pytest.mark.parametrize("build, n", [
        (line_graph, MAX_NODE_COUNT + 1), (line_graph, 10**400),
        (lambda n: grid_graph(2, n // 2), 2 * MAX_NODE_COUNT),
        (lambda n: sbm_graph([n], 0.5, 0.1, 1), MAX_NODE_COUNT + 1),
        (lambda n: sbm_graph([1, n - 1], 0.5, 0.1, 1), MAX_NODE_COUNT + 2),
        # Block sizes whose int64 running sum would wrap around.
        (lambda n: sbm_graph([2**62, 2**62], 0.5, 0.1, 1), 2**63)],
        ids=["line", "line-huge", "grid", "sbm-one-block", "sbm-two-blocks", "sbm-wraps"])
    def test_generators_check_the_node_count_first(self, build, n):
        """A node count above the maximum is rejected before any node-indexed
        array exists (one of 3e9 int64 entries alone takes 24 GB)."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^node count {n} exceeds the maximum of "
                                                 f"{MAX_NODE_COUNT}$"):
                build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("edges", [[(0, 1.7), (1.2, 2)], [(0, 1), (1, 2, 2.0), (2.5, 0)],
                                       [(0, np.float64(1.5))], [(0, 1), (np.nan, 2)]])
    def test_rejects_fractional_node_index(self, edges):
        with pytest.raises(ValueError, match="non-integer node index"):
            WeightedGraph.from_edges(3, edges)

    def test_names_the_first_offending_edge(self):
        with pytest.raises(ValueError, match=r"edge \(0,1\.5\) has a non-integer"):
            WeightedGraph.from_edges(3, [(0, 1), (0, 1.5), (2, 2)])
        with pytest.raises(ValueError, match="self-loop on node 2"):
            WeightedGraph.from_edges(3, [(0, 1), (2, 2), (0, 1.5)])

    @pytest.mark.parametrize("n", [2.5, np.float64(0.5), float("nan"), float("inf")])
    def test_rejects_fractional_node_count(self, n):
        with pytest.raises(ValueError, match="node count .* is not an integer"):
            WeightedGraph.from_edges(n, [(0, 1)])

    def test_integral_floats_are_accepted(self):
        assert (outcome(WeightedGraph.from_edges, 3.0, [(2.0, np.float64(0.0), 2)])
                == outcome(WeightedGraph.from_edges, 3, [(0, 2, 2.0)]))

    @pytest.mark.parametrize("index", [10**400, -(10**400), 2**63, 2**64 + 1])
    def test_index_beyond_int64_is_out_of_range(self, index):
        with pytest.raises(ValueError, match=f"edge \\(0,{index}\\) out of range for n=5"):
            WeightedGraph.from_edges(5, [(0, 1), (0, index)])

    @pytest.mark.parametrize("edge", [(0,), (0, 1, 1.0, 2)])
    def test_rejects_malformed_tuple(self, edge):
        with pytest.raises(ValueError, match=r"is not \(u, v\) or \(u, v, weight\)"):
            WeightedGraph.from_edges(3, [(1, 2), edge])

    @pytest.mark.parametrize("weight", [10**400, -(10**400)])
    def test_weight_beyond_float_range_is_rejected(self, weight):
        with pytest.raises(ValueError, match=r"weight -?inf on edge \(0,1\) is not positive"):
            WeightedGraph.from_edges(5, [(0, 2, 1.0), (0, 1, weight)])

    def test_node_count_beyond_the_limit_is_rejected(self):
        for n in (10**400, MAX_NODE_COUNT + 1):
            with pytest.raises(ValueError, match=f"node count {n} exceeds the maximum"):
                WeightedGraph.from_edges(n, [(0, 1)])

    def test_largest_node_count_keeps_edges_sorted(self):
        # The (u, v) sort key u * n + v must not wrap around in int64.
        top = MAX_NODE_COUNT - 1
        g = WeightedGraph.from_edges(MAX_NODE_COUNT, [(top - 1, top), (1, top), (0, 1)])
        u, v, _ = g.edge_arrays()
        assert u.tolist() == [0, 1, top - 1] and v.tolist() == [1, top, top]


class TestLaplacian:
    def test_triangle(self):
        tri = WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        expected = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
        assert np.array_equal(laplacian(tri), expected)

    def test_single_node(self):
        g = WeightedGraph.from_edges(1, [])
        assert np.array_equal(laplacian(g), np.zeros((1, 1)))

    def test_pair(self):
        g = WeightedGraph.from_edges(2, [(0, 1)])
        assert np.array_equal(laplacian(g), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_row_sums_zero_and_psd(self):
        g = sbm_graph([8, 8], 0.7, 0.2, 11)
        lap = laplacian(g)
        assert np.abs(lap.sum(axis=1)).max() == 0.0
        w = np.linalg.eigvalsh(lap)
        assert w.min() > -1e-12
        # connected graph: zero eigenvalue is simple
        assert np.sum(np.abs(w) < 1e-8) == 1


class TestPartitionLabels:
    @pytest.mark.parametrize("labels, n_subgraphs, bad", [
        ([1.5, 2.7, 2.2], None, "label 1.5"),
        ([1.0, 2.0, 2.5], None, "label 2.5"),
        (np.array([1.0, np.nan]), None, "label nan"),
        (np.array([np.inf, 1.0]), None, "label inf"),
        (np.array([1.0, -np.inf]), 1, "label -inf"),
        ([1.0, 1e300], None, "label 1e+300"),
        ([1, 10**30], None, f"label {10**30}"),
        ([1, 1, 2], 2.5, "n_subgraphs 2.5"),
        ([1, 1, 2], np.nan, "n_subgraphs nan"),
        ([1, 1, 2], 2.0**63, "n_subgraphs 9.223372036854776e+18"),
        (np.array([1, 3 * 2**62], dtype=np.uint64), None, "label 13835058055282163712"),
        (np.array([2**63, 1, 2**64 - 1], dtype=np.uint64), 1, f"label {2**64 - 1}"),
        ([1, 1, 2], np.uint64(2**63), f"n_subgraphs {2**63}"),
    ], ids=["fractions", "one-fraction", "nan", "inf", "minus-inf", "huge-float",
            "huge-int", "fractional-count", "nan-count", "huge-count", "huge-uint64",
            "largest-uint64", "huge-uint64-count"])
    def test_non_integers_are_rejected(self, labels, n_subgraphs, bad):
        """`n_subgraphs` None builds through `from_labels`."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(bad)} is not a 64-bit integer$"):
                if n_subgraphs is None:
                    SubgraphPartition.from_labels(labels)
                else:
                    SubgraphPartition(labels=labels, n_subgraphs=n_subgraphs)

    @pytest.mark.parametrize("labels, n_subgraphs", [
        ([1.0, 2.0, 2.0], 2.0),
        (np.array([1.0, 2.0, 2.0], dtype=np.float32), np.float64(2)),
        (np.array([1, 2, 2], dtype=np.int32), np.int32(2)),
        (np.array([1, 2, 2], dtype=np.uint8), 2),
        (np.array([1, 2, 2], dtype=np.uint64), np.uint64(2)),
        (np.array([1, 2, 2], dtype=object), 2),
    ], ids=["floats", "float32", "int32", "uint8", "uint64", "object"])
    def test_integral_values_are_accepted(self, labels, n_subgraphs):
        for part in (SubgraphPartition(labels=labels, n_subgraphs=n_subgraphs),
                     SubgraphPartition.from_labels(labels)):
            assert part.labels.dtype == np.int64 and part.labels.tolist() == [1, 2, 2]
            assert type(part.n_subgraphs) is int and part.n_subgraphs == 2
            assert part.sizes.tolist() == [1, 2]

    def test_integer_and_bool_labels_are_checked_by_dtype(self, monkeypatch):
        def entry_by_entry(values):
            raise AssertionError("an integer array was checked entry by entry")

        monkeypatch.setattr(graphs, "_node_indices", entry_by_entry)
        labels = np.array([1, 1, 2, 3])
        assert SubgraphPartition.from_labels(labels).labels is labels
        assert SubgraphPartition.compact(labels).n_subgraphs == 3
        assert SubgraphPartition.from_labels(np.ones(4, dtype=bool)).n_subgraphs == 1


class TestNodeLists:
    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.integers(1, 12), min_size=1, max_size=60))
    def test_equal_to_members(self, labels):
        part = SubgraphPartition.compact(labels)
        lists = part.node_lists()
        assert len(lists) == part.n_subgraphs
        for k, nodes in enumerate(lists, start=1):
            want = np.flatnonzero(part.labels == k)
            assert nodes.dtype == want.dtype and nodes.tolist() == want.tolist()


class TestSplitAdjacency:
    def test_toy_split(self, toy_graph, toy_partition):
        a_int, a_ext = split_adjacency(toy_graph, toy_partition)
        intra = sorted((u, v) for u, v, _ in edge_tuples(a_int))
        assert intra == [(0, 1), (0, 2), (1, 2), (3, 4)]
        assert sorted((u, v) for u, v, _ in edge_tuples(a_ext)) == [(2, 3)]

    def test_singleton_partition(self, toy_graph):
        part = SubgraphPartition.from_labels([1, 2, 3, 4, 5])
        a_int, a_ext = split_adjacency(toy_graph, part)
        assert a_int.num_edges == 0
        assert graphs_equal(a_ext, toy_graph)

    def test_one_block_partition(self, toy_graph):
        part = SubgraphPartition.from_labels([1, 1, 1, 1, 1])
        a_int, a_ext = split_adjacency(toy_graph, part)
        assert graphs_equal(a_int, toy_graph)
        assert a_ext.num_edges == 0

    def test_additivity_random(self):
        rng = np.random.default_rng(4)
        g = sbm_graph([12, 9, 7], 0.6, 0.15, 21)
        part = random_connected_partition(g, rng, 6)
        a_int, a_ext = split_adjacency(g, part)
        total = a_int.dense_adjacency() + a_ext.dense_adjacency()
        assert np.array_equal(total, g.dense_adjacency())

    def test_length_mismatch(self, toy_graph):
        with pytest.raises(ValueError, match="length"):
            split_adjacency(toy_graph, SubgraphPartition.from_labels([1, 1, 2]))


def local_adjacency(graph, partition, k):
    """Block k's local adjacency: `split_adjacency`'s intra-subgraph edges
    among `node_lists()[k-1]`, local node j being the j-th of them."""
    a_int, _ = split_adjacency(graph, partition)
    nodes = partition.node_lists()[k - 1]
    return a_int.dense_adjacency()[np.ix_(nodes, nodes)]


class TestExtractLocal:
    def test_triangle_block(self, toy_graph, toy_partition):
        local = local_adjacency(toy_graph, toy_partition, 1)
        assert local.shape == (3, 3)
        assert list(zip(*np.nonzero(np.triu(local)))) == [(0, 1), (0, 2), (1, 2)]

    def test_pair_block(self, toy_graph, toy_partition):
        local = local_adjacency(toy_graph, toy_partition, 2)
        assert local.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_singleton_block(self, toy_graph):
        part = SubgraphPartition.from_labels([1, 1, 1, 1, 2])
        local = local_adjacency(toy_graph, part, 2)
        assert local.tolist() == [[0.0]]


class TestConnectedComponents:
    def test_recovers_partition_from_intra_edges(self, toy_graph, toy_partition):
        a_int, _ = split_adjacency(toy_graph, toy_partition)
        comp = connected_components(a_int)
        assert np.array_equal(comp.labels, toy_partition.labels)

    def test_complete_graph_single_component(self):
        g = sbm_graph([6], 1.0, 0.0, 0)
        assert connected_components(g).n_subgraphs == 1

    def test_edgeless_graph(self):
        g = WeightedGraph.from_edges(4, [])
        comp = connected_components(g)
        assert comp.n_subgraphs == 4
        assert np.array_equal(comp.labels, [1, 2, 3, 4])

    def test_round_trip_random_partitions(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            g = sbm_graph([10, 10, 10], 0.5, 0.1, seed)
            part = random_connected_partition(g, rng, 7)
            a_int, _ = split_adjacency(g, part)
            comp = connected_components(a_int)
            # identical up to renaming; compact order makes them equal
            assert np.array_equal(comp.labels, part.labels)
            assert partition_is_connected(g, part)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30))
    def test_matches_a_breadth_first_search(self, data, n):
        """Any graph (isolated nodes, any positive weights) and any labelling:
        the components are the oracle's, numbered by smallest node, and the
        labelling is connected exactly when each class searched alone is.
        Half the labellings are the components of some of the edges, which
        are connected."""
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                    max_size=2 * n) if pairs else st.just([]))
        weights = data.draw(st.lists(st.floats(1e-300, 1e300), min_size=len(chosen),
                                     max_size=len(chosen)))
        edges = [(u, v, w) for (u, v), w in zip(chosen, weights)]
        graph = WeightedGraph.from_edges(n, edges)
        assert connected_components(graph).labels.tolist() == \
            components_oracle.component_labels(n, edges)
        if data.draw(st.booleans()):
            raw = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
        else:
            some = [e for e in edges if data.draw(st.booleans())]
            raw = components_oracle.component_labels(n, some)
        part = SubgraphPartition.compact(raw)
        assert partition_is_connected(graph, part) == \
            components_oracle.classes_connected(n, edges, part.labels.tolist())


class TestCoarsen:
    def test_toy_coarse_graph(self, toy_graph, toy_partition):
        _, a_ext = split_adjacency(toy_graph, toy_partition)
        coarse = coarsen(a_ext, toy_partition)
        assert np.array_equal(coarse.dense_adjacency(), [[0.0, 1.0], [1.0, 0.0]])

    def test_empty_inter_edges(self, toy_graph):
        part = SubgraphPartition.from_labels([1, 1, 1, 1, 1])
        _, a_ext = split_adjacency(toy_graph, part)
        coarse = coarsen(a_ext, part)
        assert coarse.n == 1 and coarse.num_edges == 0

    def test_parallel_crossing_edges_sum(self):
        g = WeightedGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5),
                                         (0, 3), (1, 4), (2, 5)])
        part = SubgraphPartition.from_labels([1, 1, 1, 2, 2, 2])
        _, a_ext = split_adjacency(g, part)
        coarse = coarsen(a_ext, part)
        expected = brute_coarsen(a_ext, part.labels, [1, 2])
        assert expected[0, 1] == 3.0
        assert np.array_equal(coarse.dense_adjacency(), expected)

    def test_zero_diagonal_and_weight_conservation(self):
        rng = np.random.default_rng(3)
        g = sbm_graph([9, 9, 9], 0.6, 0.25, 13)
        part = random_connected_partition(g, rng, 5)
        _, a_ext = split_adjacency(g, part)
        coarse = coarsen(a_ext, part)
        dense = coarse.dense_adjacency()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0.0)
        assert coarse.edge_arrays()[2].sum() == pytest.approx(a_ext.edge_arrays()[2].sum(),
                                                              abs=1e-12)
        oracle = brute_coarsen(a_ext, part.labels, range(1, part.n_subgraphs + 1))
        assert np.allclose(dense, oracle, atol=1e-12)


def global_fourier(graph, signal):
    """Coefficients of a signal on the orthonormal global eigenbasis."""
    _, q = global_eigenbasis(graph, p=2)
    return q.T @ signal


class TestGlobalFourier:
    def test_constant_signal_concentrates(self):
        g = sbm_graph([10], 0.8, 0.0, 5)
        x = np.full(g.n, 1.0 / np.sqrt(g.n))
        coeffs = global_fourier(g, x)
        assert coeffs[0] == pytest.approx(np.linalg.norm(x), abs=1e-12)
        assert np.abs(coeffs[1:]).max() < 1e-12

    def test_single_mode_maps_to_unit_vector(self):
        g = sbm_graph([4, 4], 0.9, 0.3, 2)
        _, q = global_eigenbasis(g)
        coeffs = global_fourier(g, q[:, 3])
        expected = np.zeros(g.n)
        expected[3] = 1.0
        assert np.allclose(coeffs, expected, atol=1e-10)

    def test_energy_preservation(self):
        rng = np.random.default_rng(9)
        g = sbm_graph([10, 10], 0.6, 0.2, 9)
        x = rng.normal(size=g.n)
        coeffs = global_fourier(g, x)
        assert np.linalg.norm(coeffs) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_disconnected_graph_rejected(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            global_fourier(g, np.zeros(4))


class TestGenerators:
    def test_line_graph(self):
        g = line_graph(4)
        assert sorted((u, v) for u, v, _ in edge_tuples(g)) == [(0, 1), (1, 2), (2, 3)]

    def test_grid_graph(self):
        g = grid_graph(2, 2)
        assert g.n == 4 and g.num_edges == 4

    def test_sbm_extreme_probabilities(self):
        g = sbm_graph([10, 10], 1.0, 0.0, 42)
        comp = connected_components(g)
        assert comp.n_subgraphs == 2
        assert g.num_edges == 2 * (10 * 9 // 2)

    def test_sbm_deterministic(self):
        a = sbm_graph([15, 15], 0.5, 0.05, 12)
        b = sbm_graph([15, 15], 0.5, 0.05, 12)
        assert graphs_equal(a, b)

    def test_sbm_large_sparse_regime(self):
        g = sbm_graph([50] * 60, 0.5, 0.0005, 3)
        assert g.n == 3000
        # cross edges present but sparse
        labels = np.repeat(np.arange(60), 50)
        u, v, _ = g.edge_arrays()
        cross = np.sum(labels[u] != labels[v])
        assert 0 < cross < 6000

    @pytest.mark.parametrize("sizes", [[50] * 60, [20] * 110 + [7], [300] * 8],
                             ids=["60x50", "110x20+7", "8x300"])
    def test_sbm_large_sparse_regime_matches_the_candidate_loop(self, sizes):
        """The batch-vectorized rejection sampling accepts exactly the pairs
        of the per-candidate loop, so graphs stay identical per seed."""
        stats = {"batches": [], "mid_batch": 0}
        for p_out in (1e-6, 5e-4, 4e-3):
            for seed in range(6):
                got = sbm_graph(sizes, 0.3, p_out, seed)
                want = oracle_sbm_graph(sizes, 0.3, p_out, seed, stats)
                assert got.n == want.n
                for a, b in zip(got.edge_arrays(), want.edge_arrays()):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
        # The cases cover a count reached inside a batch and several batches.
        assert stats["mid_batch"] > 0
        assert max(stats["batches"]) > 1

    @pytest.mark.parametrize("args, limit_mb", [(([20] * 100, 0.7, 0.002, 1), 2.0),
                                                (([20] * 250, 0.7, 0.0008, 1), 3.0)],
                             ids=["2000-dense", "5000-sparse"])
    def test_sbm_memory_is_linear(self, args, limit_mb):
        """No table of all node pairs: a table of the 2,000-node graph's
        1,999,000 pairs alone took over 60 MB.  Re-checking and argsorting
        the 5,000-node graph's 43,250 edges took its peak to 4.36 MB."""
        sbm_graph(*args)
        tracemalloc.start()
        try:
            sbm_graph(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            line_graph(0)
        with pytest.raises(ValueError):
            grid_graph(0, 3)
        with pytest.raises(ValueError):
            sbm_graph([5, 0], 0.5, 0.1, 1)
        with pytest.raises(ValueError):
            sbm_graph([5, 5], 0.2, 0.5, 1)


def oracle_sbm_graph(block_sizes, p_in, p_out, seed, stats):
    """`sbm_graph` with its per-candidate rejection loop, frozen; `stats`
    records the batches drawn per call and how often the edge count was
    reached inside a batch."""
    sizes = [int(s) for s in block_sizes]
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
    assert cross_pairs > 2_000_000 and 0.0 < p_out < 1.0
    count = int(rng.binomial(cross_pairs, p_out))
    seen: set[int] = set()
    iu, iv = [], []
    batches = 0
    while len(seen) < count:
        batches += 1
        batch = max(1024, 2 * (count - len(seen)))
        a = rng.integers(0, n, size=batch)
        b = rng.integers(0, n, size=batch)
        for x, y in zip(a, b):
            if x >= y or block_of[x] == block_of[y]:
                continue
            code = int(x) * n + int(y)
            if code in seen:
                continue
            seen.add(code)
            iu.append(int(x))
            iv.append(int(y))
            if len(seen) == count:
                stats["mid_batch"] += 1
                break
    stats["batches"].append(batches)
    us.append(np.asarray(iu, dtype=np.int64))
    vs.append(np.asarray(iv, dtype=np.int64))

    u = np.concatenate(us).astype(np.int64)
    v = np.concatenate(vs).astype(np.int64)
    order = np.argsort(u * n + v, kind="stable")
    return WeightedGraph(n, u[order], v[order], np.ones(len(u)))
