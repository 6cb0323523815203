"""Modularity, greedy detection (SC/LC), edge-aware weights, Haar pairs."""

import collections
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blocks_to_labels, brute_modularity, edge_tuples, set_partitions
from cosub import (PartitionConfig, SubgraphPartition, WeightedGraph,
                   edge_aware_adjacency, grid_graph, haar_partition, line_graph, louvain,
                   modularity, partition_is_connected, sbm_graph)
from cosub.partition import (GAIN_EPS, _aggregate, _local_moves, _split_disconnected,
                             _WorkingGraph)


def two_triangles_bridge() -> WeightedGraph:
    return WeightedGraph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


class TestModularity:
    def test_one_block_is_zero(self, toy_graph):
        part = SubgraphPartition.from_labels([1] * 5)
        assert modularity(toy_graph, part) == pytest.approx(0.0, abs=1e-15)

    def test_toy_partition_value(self, toy_graph, toy_partition):
        assert modularity(toy_graph, toy_partition) == pytest.approx(0.22, abs=1e-12)

    def test_singleton_value(self, toy_graph):
        part = SubgraphPartition.from_labels([1, 2, 3, 4, 5])
        assert modularity(toy_graph, part) == pytest.approx(-22 / 100, abs=1e-12)

    def test_zero_weight_graph_rejected(self):
        g = WeightedGraph.from_edges(3, [])
        with pytest.raises(ValueError, match="zero total weight"):
            modularity(g, SubgraphPartition.from_labels([1, 2, 3]))

    def test_matches_brute_force_oracle(self, toy_graph):
        for blocks in set_partitions(5):
            labels = blocks_to_labels(blocks, 5)
            part = SubgraphPartition.compact(labels)
            assert modularity(toy_graph, part) == pytest.approx(
                brute_modularity(toy_graph, labels), abs=1e-12)

    def test_toy_maximizer_is_triangle_pair(self, toy_graph, toy_partition):
        best_q = max(brute_modularity(toy_graph, blocks_to_labels(b, 5))
                     for b in set_partitions(5))
        assert best_q == pytest.approx(0.22, abs=1e-12)
        assert modularity(toy_graph, toy_partition) == pytest.approx(best_q, abs=1e-12)


class TestLouvain:
    def test_sc_finds_triangles(self):
        g = two_triangles_bridge()
        best_q = max(brute_modularity(g, blocks_to_labels(b, 6))
                     for b in set_partitions(6))
        for seed in range(6):
            part = louvain(g, PartitionConfig(variant="sc", seed=seed))
            assert np.array_equal(part.labels, [1, 1, 1, 2, 2, 2])
            assert modularity(g, part) == pytest.approx(best_q, abs=1e-12)

    def test_lc_disjoint_cliques(self):
        g = sbm_graph([10, 10], 1.0, 0.0, 3)
        part = louvain(g, PartitionConfig(variant="lc", tau=1000, seed=5))
        assert part.n_subgraphs == 2
        assert len(set(part.labels[:10])) == 1
        assert len(set(part.labels[10:])) == 1

    def test_lc_respects_tau(self):
        for seed in range(4):
            g = sbm_graph([8, 8, 8], 0.8, 0.1, seed)
            part = louvain(g, PartitionConfig(variant="lc", tau=2, seed=seed))
            assert part.sizes.max() <= 2

    def test_all_communities_connected(self):
        for seed in range(8):
            g = sbm_graph([12, 10, 9], 0.5, 0.08, seed)
            for variant in ("sc", "lc"):
                part = louvain(g, PartitionConfig(variant=variant, seed=seed, tau=15))
                assert partition_is_connected(g, part)

    def test_final_q_beats_singletons(self):
        for seed in range(5):
            g = sbm_graph([9, 9], 0.6, 0.1, seed)
            part = louvain(g, PartitionConfig(variant="sc", seed=seed))
            singles = SubgraphPartition.from_labels(np.arange(1, g.n + 1))
            assert modularity(g, part) >= modularity(g, singles) - 1e-12

    def test_deterministic_given_seed(self):
        g = sbm_graph([14, 14], 0.4, 0.05, 8)
        a = louvain(g, PartitionConfig(variant="lc", tau=20, seed=2))
        b = louvain(g, PartitionConfig(variant="lc", tau=20, seed=2))
        assert np.array_equal(a.labels, b.labels)

    def test_edgeless_graph_rejected(self):
        g = WeightedGraph.from_edges(3, [])
        with pytest.raises(ValueError, match="edge"):
            louvain(g, PartitionConfig())

    def test_never_exceeds_enumerated_maximum(self):
        rng = np.random.default_rng(0)
        for trial in range(4):
            n = int(rng.integers(5, 8))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            keep = [p for p in pairs if rng.random() < 0.55]
            if not keep:
                keep = [pairs[0]]
            g = WeightedGraph.from_edges(n, keep)
            best_q = max(brute_modularity(g, blocks_to_labels(b, n))
                         for b in set_partitions(n))
            part = louvain(g, PartitionConfig(variant="sc", seed=trial))
            assert modularity(g, part) <= best_q + 1e-12


class TestPartitionConfig:
    def test_lc_tau_validation(self):
        with pytest.raises(ValueError, match="tau"):
            PartitionConfig(variant="lc", tau=1)

    def test_variant_validation(self):
        with pytest.raises(ValueError, match="variant"):
            PartitionConfig(variant="xl")

    @pytest.mark.parametrize("variant", ["sc", "lc"])
    def test_negative_seed_rejected(self, variant):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            PartitionConfig(variant=variant, seed=-1)
        assert PartitionConfig(variant=variant, seed=0).seed == 0


class TestEdgeAware:
    def test_constant_signal_degenerates_to_unit_weights(self, toy_graph):
        out = edge_aware_adjacency(toy_graph, np.full(5, 3.25))
        assert all(w == 1.0 for _, _, w in edge_tuples(out))

    def test_single_difference_degenerates(self):
        g = WeightedGraph.from_edges(2, [(0, 1)])
        out = edge_aware_adjacency(g, [0.0, 1.0])
        assert edge_tuples(out) == [(0, 1, 1.0)]

    def test_non_finite_signal_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            edge_aware_adjacency(line_graph(4), [0.0, 1.0, np.nan, 2.0])

    def test_underflowing_kernel_keeps_weights_positive(self):
        # One spike on a 40x40 grid: sigma is tiny, and the kernel of the two
        # edges at the spike underflows to exactly 0.0 unless clamped.
        g = grid_graph(40, 40)
        x = np.zeros(g.n)
        x[0] = 1.0
        out = edge_aware_adjacency(g, x)
        u, v, w = out.edge_arrays()
        assert np.all(w > 0.0)
        assert np.count_nonzero(w == np.finfo(np.float64).tiny) == 2
        assert np.all(w[(u != 0) & (v != 0)] == 1.0)
        rebuilt = WeightedGraph.from_edges(g.n, edge_tuples(out))
        assert np.array_equal(rebuilt.edge_arrays()[2], w)

    def test_overflowing_differences_give_valid_weights(self):
        # Unscaled, the differences 2e308 and 1e308 overflow: sigma and both
        # weights were NaN.  Scaled, they stand at 2:1, sigma is half the
        # smaller one, and the kernel gives exp(-8) and exp(-2).
        out = edge_aware_adjacency(line_graph(3), [1e308, -1e308, 0.0])
        w = out.edge_arrays()[2]
        assert w == pytest.approx([np.exp(-8.0), np.exp(-2.0)], rel=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30),
           exponent=st.floats(-30.0, 30.0), steps=st.booleans())
    def test_scaling_leaves_weights_bit_identical(self, seed, n, exponent, steps):
        # Where nothing overflows, the weights equal the unscaled kernel's,
        # bit for bit.
        g = sbm_graph([n], 0.3, 0.0, seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        x = 10.0 ** exponent * (np.round(3.0 * x) if steps else x)
        u, v, _ = g.edge_arrays()
        diffs = np.abs(x[u] - x[v])
        sigma = float(diffs.std()) if len(diffs) else 0.0
        want = (np.ones(len(u)) if sigma == 0.0 else
                np.maximum(np.exp(-np.square(diffs) / (2.0 * sigma * sigma)),
                           np.finfo(np.float64).tiny))
        got = edge_aware_adjacency(g, x).edge_arrays()[2]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_path_kernel_values(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (1, 2)])
        out = edge_aware_adjacency(g, [0.0, 0.0, 1.0])
        weights = {(u, v): w for u, v, w in edge_tuples(out)}
        assert weights[(0, 1)] == pytest.approx(1.0, abs=1e-15)
        assert weights[(1, 2)] == pytest.approx(np.exp(-2.0), abs=1e-15)

    def test_support_preserved_and_bounded(self):
        rng = np.random.default_rng(5)
        g = sbm_graph([10, 10], 0.5, 0.2, 17)
        x = rng.normal(size=g.n)
        out = edge_aware_adjacency(g, x)
        src = sorted((u, v) for u, v, _ in edge_tuples(g))
        dst = sorted((u, v) for u, v, _ in edge_tuples(out))
        assert src == dst
        weights = np.array([w for _, _, w in edge_tuples(out)])
        assert np.all((weights > 0.0) & (weights <= 1.0))


class TestHaarPartition:
    def test_examples(self):
        assert np.array_equal(haar_partition(4).labels, [1, 1, 2, 2])
        assert np.array_equal(haar_partition(2).labels, [1, 1])
        assert np.array_equal(haar_partition(6).labels, [1, 1, 2, 2, 3, 3])

    def test_odd_rejected(self):
        with pytest.raises(ValueError, match="even"):
            haar_partition(5)


# -- oracles -----------------------------------------------------------------
# `oracle_local_moves` is the repeated full sweep that `_local_moves` ran
# before it became queue-driven, on numpy scalars with a per-node sorted(); it
# stays as the quality reference.  `oracle_queue_local_moves` is the queue
# written plainly, and `_local_moves` must reproduce it bit for bit, as
# `_split_disconnected` must reproduce the Python DFS of
# `oracle_split_disconnected`.


def oracle_local_moves(work: _WorkingGraph, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """One full local-move phase; returns node->community ids and whether any
    move was accepted.  Sweeps use a fresh random order each pass; ties in
    gain go to the smallest community id."""
    adj = work.adj
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    strength, total = work.strength, work.strength.sum()
    comm = np.arange(work.n)
    comm_tot = strength.copy()
    improved = False
    while True:
        moved = 0
        for i in rng.permutation(work.n):
            row = slice(indptr[i], indptr[i + 1])
            neigh, wts = indices[row], data[row]
            if len(neigh) == 0:
                continue
            links: dict[int, float] = {}
            for j, w in zip(neigh, wts):
                c = comm[j]
                links[c] = links.get(c, 0.0) + w
            old = comm[i]
            d_i = strength[i]
            comm_tot[old] -= d_i
            base = links.get(old, 0.0) - d_i * comm_tot[old] / total
            # Ascending candidate order plus strict improvement sends exact
            # gain ties to the smallest community id.
            best_c, best_gain = old, GAIN_EPS
            for c in sorted(links):
                if c == old:
                    continue
                gain = links[c] - d_i * comm_tot[c] / total - base
                if gain > best_gain:
                    best_c, best_gain = c, gain
            comm[i] = best_c
            comm_tot[best_c] += d_i
            if best_c != old:
                moved += 1
        if moved == 0:
            break
        improved = True
    return comm, improved


def oracle_queue_local_moves(work: _WorkingGraph,
                             rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """Queue-driven local moves: every node once in random order, then the
    neighbours of each moved node that are outside its new community and not
    queued yet.  Ties in gain go to the smallest community id."""
    adj = work.adj
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    strength, total = work.strength, work.strength.sum()
    comm = np.arange(work.n)
    comm_tot = strength.copy()
    queue = list(rng.permutation(work.n))
    improved = False
    while queue:
        i = queue.pop(0)
        row = slice(indptr[i], indptr[i + 1])
        neigh, wts = indices[row], data[row]
        if len(neigh) == 0:
            continue
        links: dict[int, float] = {}
        for j, w in zip(neigh, wts):
            c = comm[j]
            links[c] = links.get(c, 0.0) + w
        old = comm[i]
        d_i = strength[i]
        comm_tot[old] -= d_i
        base = links.get(old, 0.0) - d_i * comm_tot[old] / total
        best_c, best_gain = old, GAIN_EPS
        for c in sorted(links):
            if c == old:
                continue
            gain = links[c] - d_i * comm_tot[c] / total - base
            if gain > best_gain:
                best_c, best_gain = c, gain
        comm[i] = best_c
        comm_tot[best_c] += d_i
        if best_c != old:
            improved = True
            for j in neigh:
                if j not in queue and comm[j] != best_c:
                    queue.append(j)
    return comm, improved


def oracle_split_disconnected(work: _WorkingGraph, comm: np.ndarray) -> np.ndarray:
    """Split any community that is disconnected in the working graph into its
    connected components (a strict modularity improvement)."""
    adj = work.adj
    indptr, indices = adj.indptr, adj.indices
    out = -np.ones(work.n, dtype=np.int64)
    next_id = 0
    for i in range(work.n):
        if out[i] >= 0:
            continue
        stack = [i]
        out[i] = next_id
        while stack:
            u = stack.pop()
            for v in indices[indptr[u]:indptr[u + 1]]:
                if out[v] < 0 and comm[v] == comm[i]:
                    out[v] = next_id
                    stack.append(v)
        next_id += 1
    return out


def oracle_compact(raw_labels) -> np.ndarray:
    """Relabelling to 1..K by smallest member, through a per-node dict lookup."""
    raw = np.asarray(raw_labels)
    values, first = np.unique(raw, return_index=True)
    order = np.argsort(first, kind="stable")
    mapping = {int(values[c]): i + 1 for i, c in enumerate(order)}
    return np.array([mapping[int(c)] for c in raw], dtype=np.int64)


@st.composite
def block_graphs(draw):
    """Random block graphs with unit, integer (exact gain ties) or float
    weights; zero cross-block density gives disconnected graphs, and a few
    trailing nodes stay isolated."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    p_in = draw(st.sampled_from([0.4, 0.8, 1.0]))
    p_out = draw(st.sampled_from([0.0, 0.05, 0.2]))
    weights = draw(st.sampled_from(["unit", "integer", "float"]))
    isolated = max(draw(st.integers(0, 3)), 2 - sum(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = np.repeat(np.arange(len(sizes)), sizes)
    n = len(block) + isolated
    edges = []
    for i in range(len(block)):
        for j in range(i + 1, len(block)):
            if rng.random() < (p_in if block[i] == block[j] else p_out):
                if weights == "unit":
                    w = 1.0
                elif weights == "integer":
                    w = float(rng.integers(1, 4))
                else:
                    w = float(rng.uniform(0.1, 2.0))
                edges.append((i, j, w))
    if not edges:
        edges.append((0, 1, 1.0))
    return WeightedGraph.from_edges(n, edges)


class TestLocalMovesMatchOracle:
    @settings(max_examples=80, deadline=None)
    @given(graph=block_graphs(), seed=st.integers(0, 2**16))
    def test_local_moves_and_split_bit_identical(self, graph, seed):
        work = _WorkingGraph.from_graph(graph)
        # A second round runs on an aggregated graph with self-loop weights.
        for _ in range(2):
            comm, improved = _local_moves(work, np.random.default_rng(seed))
            ref, ref_improved = oracle_queue_local_moves(work, np.random.default_rng(seed))
            assert comm.dtype == np.int64
            assert np.array_equal(comm, ref) and improved == ref_improved
            split = _split_disconnected(work, comm)
            ref_split = oracle_split_disconnected(work, ref)
            assert split.dtype == ref_split.dtype
            assert np.array_equal(split, ref_split)
            work = _aggregate(work, split)

    @settings(max_examples=80, deadline=None)
    @given(graph=block_graphs(), data=st.data())
    def test_split_of_any_labelling_matches_oracle(self, graph, data):
        """Arbitrary community ids, so that most communities are disconnected
        and are split, on the working graph and on its aggregate."""
        work = _WorkingGraph.from_graph(graph)
        for _ in range(2):
            comm = np.array(data.draw(st.lists(st.integers(0, 5), min_size=work.n,
                                               max_size=work.n)), dtype=np.int64)
            split = _split_disconnected(work, comm)
            assert np.array_equal(split, oracle_split_disconnected(work, comm))
            work = _aggregate(work, split)

    @settings(max_examples=40, deadline=None)
    @given(graph=block_graphs())
    def test_louvain_labels_match_oracle(self, graph):
        configs = [PartitionConfig("sc", seed=seed) for seed in (0, 1, 7)]
        configs += [PartitionConfig("lc", tau=tau, seed=seed)
                    for seed in (0, 3) for tau in (2, 5, 1000)]
        for config in configs:
            labels = louvain(graph, config).labels
            with mock.patch.multiple("cosub.partition", _local_moves=oracle_queue_local_moves,
                                     _split_disconnected=oracle_split_disconnected):
                expected = louvain(graph, config).labels
            assert np.array_equal(labels, expected), config

    @settings(max_examples=60, deadline=None)
    @given(raw=st.lists(st.integers(-5, 40), min_size=1, max_size=60))
    def test_compact_matches_dict_relabelling(self, raw):
        part = SubgraphPartition.compact(raw)
        assert np.array_equal(part.labels, oracle_compact(raw))
        assert part.n_subgraphs == len(set(raw))

    def test_exact_tie_joins_smaller_id(self):
        # Sweep order 0, 2, 4, 1, 3 first puts node 0 into community 3 and
        # node 2 into community 1, each of total strength 3 (total 8).  Node
        # 4 then sees community 3 (via node 0) before community 1 (via node
        # 2), with gain 1 - 2*3/8 = 0.25 for both: it must join 1.
        graph = WeightedGraph.from_edges(5, [(0, 3), (1, 2), (0, 4), (2, 4)])

        class FixedOrder:
            def permutation(self, n):
                return np.array([0, 2, 4, 1, 3])

        work = _WorkingGraph.from_graph(graph)
        comm, improved = _local_moves(work, FixedOrder())
        assert improved
        assert comm.tolist() == [3, 1, 1, 3, 1]
        assert np.array_equal(comm, oracle_local_moves(work, FixedOrder())[0])

    def test_queue_quality_matches_the_sweep(self):
        # The queue revisits only the neighbours of moved nodes, so it may
        # stop in another local optimum than the repeated full sweep; on
        # average over seeds it must give up no more than 1% of modularity.
        for variant in ("sc", "lc"):
            queue_q, sweep_q = [], []
            for seed in range(12):
                g = sbm_graph([8, 12, 10, 6, 14, 9, 11, 7, 13, 10], 0.5, 0.04, seed)
                config = PartitionConfig(variant, seed=seed)
                queue_q.append(modularity(g, louvain(g, config)))
                with mock.patch("cosub.partition._local_moves", oracle_local_moves):
                    sweep_q.append(modularity(g, louvain(g, config)))
            assert np.mean(queue_q) >= 0.99 * np.mean(sweep_q), variant


@st.composite
def dense_unit_sbms(draw):
    """Unit-weight SBMs of 100-300 nodes in blocks of 25-50 whose rows mostly
    hold 15 or more entries: larger and denser rows than `block_graphs`."""
    sizes = draw(st.lists(st.integers(25, 50), min_size=4, max_size=6))
    p_in = draw(st.sampled_from([0.7, 0.85, 1.0]))
    p_out = draw(st.sampled_from([0.005, 0.02, 0.05]))
    return sbm_graph(sizes, p_in, p_out, draw(st.integers(0, 2**16)))


def with_one_weight(graph: WeightedGraph, k: int, weight: float) -> WeightedGraph:
    u, v, w = graph.edge_arrays()
    w = w.copy()
    w[k % len(w)] = weight
    return WeightedGraph(graph.n, u, v, w)


class TestCountedRows:
    """Unit-weight rows are counted (`_count_elements`); any other weight in
    the working graph sends every row through the ordered float sum.  Both
    paths must reproduce `oracle_queue_local_moves` bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(graph=dense_unit_sbms(), seed=st.integers(0, 2**16), k=st.integers(0, 2**16))
    def test_local_moves_bit_identical_on_both_paths(self, graph, seed, k):
        assert np.median(np.diff(graph.adjacency.indptr)) >= 15
        cases = [(graph, True)]
        cases += [(with_one_weight(graph, k, w), False) for w in (2.0, np.nextafter(1.0, 2.0))]
        for g, counted in cases:
            work = _WorkingGraph.from_graph(g)
            with mock.patch("cosub.partition._count_elements",
                            wraps=collections._count_elements) as count:
                comm, improved = _local_moves(work, np.random.default_rng(seed))
            assert count.called == counted
            ref, ref_improved = oracle_queue_local_moves(work, np.random.default_rng(seed))
            assert np.array_equal(comm, ref) and improved == ref_improved

    @settings(max_examples=15, deadline=None)
    @given(graph=dense_unit_sbms(), seed=st.integers(0, 2**16),
           tau=st.sampled_from([30, 120, 1000]))
    def test_lc_labels_match_oracle(self, graph, seed, tau):
        # The first round counts; the aggregated rounds carry merged weights
        # and take the float path.
        config = PartitionConfig("lc", tau=tau, seed=seed)
        labels = louvain(graph, config).labels
        with mock.patch.multiple("cosub.partition", _local_moves=oracle_queue_local_moves,
                                 _split_disconnected=oracle_split_disconnected):
            expected = louvain(graph, config).labels
        assert np.array_equal(labels, expected)


class TestLouvainProperties:
    @settings(max_examples=60, deadline=None)
    @given(graph=block_graphs(), variant=st.sampled_from(["sc", "lc"]),
           seed=st.integers(0, 2**16), tau=st.sampled_from([2, 3, 5, 1000]))
    def test_invariants(self, graph, variant, seed, tau):
        config = PartitionConfig(variant, tau=tau, seed=seed)
        part = louvain(graph, config)
        labels, k = part.labels, part.n_subgraphs
        assert partition_is_connected(graph, part)
        if variant == "lc":
            assert part.sizes.max() <= tau
        assert np.array_equal(louvain(graph, config).labels, labels)
        # Compact: labels 1..K, numbered in order of their smallest node.
        _, first = np.unique(labels, return_index=True)
        assert np.array_equal(labels[np.sort(first)], np.arange(1, k + 1))
        singles = SubgraphPartition.from_labels(np.arange(1, graph.n + 1))
        assert modularity(graph, part) >= modularity(graph, singles) - 1e-12
