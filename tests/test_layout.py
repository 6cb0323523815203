"""The per-level coefficient layout (subgraph blocks plus one channel
permutation) against a frozen copy of the per-coefficient implementation it
replaced: channels, reconstructions, per-channel CSC operators, NLA and
denoising must agree bit for bit.  Atoms and channel operators are also held
to the per-channel code in `atoms_oracle`."""

import types
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cosub import (PartitionConfig, Pyramid, SubgraphPartition, WeightedGraph,
                   analyze_cascade, as_signal, build_operators, coarsen, compute_atoms,
                   denoise, grid_graph, louvain, nla_compress, sbm_graph,
                   synthesize_cascade, synthesize_level)

import atoms_oracle
from conftest import random_connected_partition


# -- frozen oracle ------------------------------------------------------------
# Copied verbatim from the per-coefficient implementation, except that the
# channel membership comes from `oracle_index_lists` (the computation that
# `build_operators` used to store) instead of the operators themselves.


def oracle_index_lists(partition: SubgraphPartition) -> list[np.ndarray]:
    sizes = partition.sizes
    n_channels = int(sizes.max())
    return [np.flatnonzero(sizes >= l) + 1 for l in range(1, n_channels + 1)]


def oracle_analyze_level(signal, graph, operators, a_ext):
    x = as_signal(signal, graph.n)
    if operators.n != graph.n or a_ext.n != graph.n:
        raise ValueError("operators, graph and inter-subgraph adjacency disagree in size")
    channels = [np.empty(len(idx)) for idx in oracle_index_lists(operators.partition)]
    positions = oracle_label_positions(operators)
    for k, (nodes, basis) in enumerate(zip(operators.node_lists, operators.bases)):
        coeffs = basis.analysis.T @ x[nodes]
        for l in range(len(nodes)):
            channels[l][positions[l][k]] = coeffs[l]
    return channels, coarsen(a_ext, operators.partition)


def oracle_label_positions(operators) -> list[np.ndarray]:
    """positions[l-1][k-1] = column of subgraph k in channel l (or -1)."""
    k_total = operators.partition.n_subgraphs
    out = []
    for idx in oracle_index_lists(operators.partition):
        pos = -np.ones(k_total, dtype=np.int64)
        pos[idx - 1] = np.arange(len(idx))
        out.append(pos)
    return out


def oracle_synthesize_level(channels, operators) -> np.ndarray:
    index_lists = oracle_index_lists(operators.partition)
    if len(channels) != len(index_lists):
        raise ValueError("channel count does not match the operators")
    sizes = [len(idx) for idx in index_lists]
    for l, (chan, size) in enumerate(zip(channels, sizes), start=1):
        if len(chan) != size:
            raise ValueError(f"channel {l} has length {len(chan)}, expected {size}")
    positions = oracle_label_positions(operators)
    x = np.zeros(operators.n)
    for k, (nodes, basis) in enumerate(zip(operators.node_lists, operators.bases)):
        coeffs = np.array([channels[l][positions[l][k]] for l in range(len(nodes))])
        x[nodes] = basis.synthesis @ coeffs
    return x


def oracle_synthesize_cascade(pyramid) -> np.ndarray:
    x = pyramid.final_approximation.copy()
    for level in reversed(pyramid.levels):
        if len(x) != len(level.channels[0]):
            raise ValueError("pyramid approximation sizes are inconsistent")
        x = oracle_synthesize_level([x] + list(level.channels[1:]), level.operators)
    return x


def oracle_stacked(ops, l: int, use_synthesis: bool):
    index_lists = oracle_index_lists(ops.partition)
    if not 1 <= l <= len(index_lists):
        raise ValueError(f"channel {l} out of range")
    labels = index_lists[l - 1]
    rows, cols, vals = [], [], []
    for j, k in enumerate(labels):
        nodes = ops.node_lists[k - 1]
        basis = ops.bases[k - 1]
        column = basis.synthesis[:, l - 1] if use_synthesis else basis.analysis[:, l - 1]
        rows.append(nodes)
        cols.append(np.full(len(nodes), j))
        vals.append(column)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.csc_matrix((vals, (rows, cols)), shape=(ops.n, len(labels)))


def oracle_grouping_matrix(ops, l: int):
    index_lists = oracle_index_lists(ops.partition)
    if not 1 <= l <= len(index_lists):
        raise ValueError(f"channel {l} out of range")
    labels = index_lists[l - 1]
    rows, cols = [], []
    for j, k in enumerate(labels):
        nodes = ops.node_lists[k - 1]
        rows.append(nodes)
        cols.append(np.full(len(nodes), j))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    return sp.csc_matrix((np.ones(len(rows)), (rows, cols)),
                         shape=(ops.n, len(labels)))


def oracle_nla_compress(pyramid, keep_hp: int):
    entries = []
    for j, level in enumerate(pyramid.levels):
        for l, chan in enumerate(level.channels[1:], start=2):
            for idx, value in enumerate(chan):
                entries.append((abs(value), j, l, idx))
    if keep_hp < 0 or keep_hp > len(entries):
        raise ValueError("keep_hp must lie in [0, total detail count]")
    entries.sort(key=lambda e: (-e[0], e[1], e[2], e[3]))
    keep = {(j, l, idx) for _, j, l, idx in entries[:keep_hp]}
    new_levels = []
    for j, level in enumerate(pyramid.levels):
        channels = [level.channels[0].copy()]
        for l, chan in enumerate(level.channels[1:], start=2):
            kept = np.array([v if (j, l, i) in keep else 0.0
                             for i, v in enumerate(chan)])
            channels.append(kept)
        new_levels.append(replace(level, channels=channels))
    return Pyramid(levels=new_levels,
                   final_approximation=pyramid.final_approximation.copy(),
                   p=pyramid.p, n=pyramid.n)


def oracle_denoise(graph, noisy, sigma, levels, partitions, p):
    x = as_signal(noisy, graph.n)
    pyramid = analyze_cascade(graph, x, partitions, p=p, max_levels=levels)
    threshold = 3.0 * sigma
    new_levels = []
    for level in pyramid.levels:
        channels = [level.channels[0].copy()]
        for chan in level.channels[1:]:
            channels.append(np.where(np.abs(chan) > threshold, chan, 0.0))
        new_levels.append(replace(level, channels=channels))
    cleaned = Pyramid(levels=new_levels,
                      final_approximation=pyramid.final_approximation.copy(),
                      p=pyramid.p, n=pyramid.n)
    return oracle_synthesize_cascade(cleaned)


# -- the operators as the oracles read them -----------------------------------


class OracleView:
    """A level's operators as the frozen oracles read them: `node_lists` comes
    from the partition, every other attribute is the operators' own."""

    def __init__(self, operators):
        self.operators = operators
        self.node_lists = operators.partition.node_lists()

    def __getattr__(self, name):
        return getattr(self.operators, name)


def viewed(pyramid):
    """`pyramid` with every level's operators behind an `OracleView`."""
    return replace(pyramid, levels=[replace(level, operators=OracleView(level.operators))
                                    for level in pyramid.levels])


# `oracle_denoise` as copied, with the cascade it builds read through views.
oracle_denoise_viewed = types.FunctionType(
    oracle_denoise.__code__,
    {**globals(), "analyze_cascade": lambda *args, **kw: viewed(analyze_cascade(*args, **kw))})


# -- partition sources ----------------------------------------------------------


def first_then_sc(first: SubgraphPartition):
    """Callable partitioner: `first` on the input graph, SC detection on every
    coarser graph (which has fewer nodes), so fixed sources still cascade."""
    def detect(graph: WeightedGraph, signal):
        if graph.n == first.n:
            return first
        return louvain(graph, PartitionConfig("sc", seed=0))
    return detect


def sbm_case(draw, variant: str):
    sizes = draw(st.lists(st.integers(1, 9), min_size=2, max_size=7))
    graph = sbm_graph(sizes, 0.8, draw(st.sampled_from([0.02, 0.08, 0.2])),
                      draw(st.integers(0, 2**16)))
    if variant == "sc":
        config = PartitionConfig("sc", seed=draw(st.integers(0, 50)))
    else:
        config = PartitionConfig("lc", tau=draw(st.integers(3, 12)),
                                 seed=draw(st.integers(0, 50)))
    return graph, config


def tiles_case(draw):
    rows, cols = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    th, tw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    r, c = np.divmod(np.arange(rows * cols), cols)
    raw = (r // th) * cols + c // tw
    return grid_graph(rows, cols), first_then_sc(SubgraphPartition.compact(raw))


def one_block_case(draw):
    """All singletons except one connected block grown from a random node."""
    graph = sbm_graph(draw(st.lists(st.integers(2, 8), min_size=1, max_size=5)),
                      0.9, 0.15, draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    grown = random_connected_partition(graph, rng, 1)
    block = grown.labels == 1
    assume(block.sum() >= 2)
    raw = np.where(block, -1, np.arange(graph.n))
    return graph, first_then_sc(SubgraphPartition.compact(raw))


def star_hub_case(draw):
    """A hub with many leaves (a large eigenvalue multiplet) as one block, and
    a tail path split into pairs."""
    leaves, tail = draw(st.integers(2, 30)), draw(st.integers(0, 9))
    n = 1 + leaves + tail
    edges = [(0, i) for i in range(1, leaves + 1)]
    edges += [(i, i + 1) for i in range(leaves, n - 1)]
    raw = np.concatenate([np.zeros(leaves + 1, dtype=np.int64),
                          1 + np.arange(tail) // 2])
    return (WeightedGraph.from_edges(n, edges),
            first_then_sc(SubgraphPartition.compact(raw)))


SOURCES = {
    "sc": lambda draw: sbm_case(draw, "sc"),
    "lc": lambda draw: sbm_case(draw, "lc"),
    "tiles": tiles_case,
    "one-block": one_block_case,
    "star-hub": star_hub_case,
}


@st.composite
def cases(draw, source: str):
    graph, partitions = SOURCES[source](draw)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        x = rng.normal(size=graph.n)
    else:
        # Small integers give exactly tied detail magnitudes.
        x = rng.integers(-2, 3, size=graph.n).astype(np.float64)
    return graph, partitions, x, draw(st.sampled_from([1, 2])), draw(st.integers(0, 10**6))


def assert_same_csc(got, want):
    assert got.format == want.format == "csc"
    assert got.shape == want.shape
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.indptr, want.indptr)


def assert_identical_csc(got, want):
    """Bit-identical stored arrays, index dtypes included."""
    assert_same_csc(got, want)
    assert got.indices.dtype == want.indices.dtype
    assert got.indptr.dtype == want.indptr.dtype


def assert_same_pyramid(got, want):
    assert len(got.levels) == len(want.levels)
    for a, b in zip(got.levels, want.levels):
        assert len(a.channels) == len(b.channels)
        for ca, cb in zip(a.channels, b.channels):
            assert np.array_equal(ca, cb)
    assert np.array_equal(got.final_approximation, want.final_approximation)


@pytest.mark.parametrize("source", sorted(SOURCES))
class TestLayoutMatchesOracle:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_channels_reconstruction_and_operators(self, source, data):
        graph, partitions, x, p, _ = data.draw(cases(source))
        pyramid = analyze_cascade(graph, x, partitions, p=p, max_levels=3)
        current, signal = graph, x
        for level in pyramid.levels:
            ops = level.operators
            view = OracleView(ops)
            oracle_lists = oracle_index_lists(level.partition)
            assert ops.n_channels == len(oracle_lists)
            assert ops.channel_sizes == [len(idx) for idx in oracle_lists]
            assert all(np.array_equal(a, b) for a, b in zip(ops.index_lists, oracle_lists))
            want, _ = oracle_analyze_level(signal, current, view, level.a_ext)
            assert len(level.channels) == len(want)
            for got, expected in zip(level.channels, want):
                assert np.array_equal(got, expected)
            assert np.array_equal(synthesize_level(level.channels, ops),
                                  oracle_synthesize_level(want, view))
            for l in range(1, ops.n_channels + 1):
                assert_same_csc(ops.analysis_matrix(l), oracle_stacked(view, l, False))
                assert_same_csc(ops.synthesis_matrix(l), oracle_stacked(view, l, True))
                assert_same_csc(ops.grouping_matrix(l), oracle_grouping_matrix(view, l))
            current, signal = level.coarse_graph, level.channels[0]
        assert np.array_equal(synthesize_cascade(pyramid),
                              oracle_synthesize_cascade(viewed(pyramid)))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_atoms_and_channel_operators_match_frozen_oracle(self, source, data):
        graph, partitions, x, p, _ = data.draw(cases(source))
        pyramid = analyze_cascade(graph, x, partitions, p=p, max_levels=3)
        for level in pyramid.levels:
            ops = level.operators
            view = OracleView(ops)
            for l in range(1, ops.n_channels + 1):
                assert_identical_csc(ops.analysis_matrix(l),
                                     atoms_oracle._channel_matrix(view, l, "analysis"))
                assert_identical_csc(ops.synthesis_matrix(l),
                                     atoms_oracle._channel_matrix(view, l, "synthesis"))
                assert_identical_csc(ops.grouping_matrix(l),
                                     atoms_oracle._channel_matrix(view, l, None))
        got, want = compute_atoms(pyramid), atoms_oracle.compute_atoms(viewed(pyramid))
        assert len(got.approximation) == len(want.approximation) == pyramid.num_levels
        for a, b in zip(got.approximation, want.approximation):
            assert_identical_csc(a, b)
        for a, b in zip(got.details, want.details):
            assert list(a) == list(b)
            for l in a:
                assert_identical_csc(a[l], b[l])

    @pytest.mark.filterwarnings("ignore:hard-threshold denoising expects")
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_nla_and_denoise(self, source, data):
        graph, partitions, x, p, draw_keep = data.draw(cases(source))
        pyramid = analyze_cascade(graph, x, partitions, p=p, max_levels=3)
        total = pyramid.detail_counts()
        for keep in range(total + 1):
            assert_same_pyramid(nla_compress(pyramid, keep), oracle_nla_compress(pyramid, keep))
        keep = draw_keep % (total + 1)
        assert np.array_equal(
            synthesize_cascade(nla_compress(pyramid, keep)),
            oracle_synthesize_cascade(oracle_nla_compress(viewed(pyramid), keep)))
        sigma = float(np.std(x)) / 4.0
        assert np.array_equal(denoise(graph, x, sigma, 2, partitions, p=p),
                              oracle_denoise_viewed(graph, x, sigma, 2, partitions, p))


def test_order_and_offsets_on_the_toy_example(toy_graph, toy_partition):
    """Sizes (3, 2): block order is (1:m1, 1:m2, 1:m3, 2:m1, 2:m2), channels
    are {1, 2}, {1, 2}, {1}."""
    ops = build_operators(toy_graph, toy_partition, p=1)
    assert ops.order.tolist() == [0, 3, 1, 4, 2]
    assert ops.offsets.tolist() == [0, 2, 4, 5]
    assert ops.n_channels == 3
    assert ops.channel_sizes == [2, 2, 1]


def test_nla_magnitude_ties_keep_the_earliest_coefficients():
    """A 40x40 grid cut into horizontal pairs with values in {0, 1, 2, 3}: the
    800 level-1 details take four magnitudes, so the cut at 300 kept falls
    inside a run of ties, which must be kept in (level, channel, index) order."""
    side = 40
    graph = grid_graph(side, side)
    pairs = SubgraphPartition.compact(np.arange(side * side) // 2)
    x = np.random.default_rng(0).integers(0, 4, side * side).astype(np.float64)
    pyramid = analyze_cascade(graph, x, [pairs], p=1)
    magnitude = np.abs(pyramid.levels[0].channels[1])
    kept = nla_compress(pyramid, 300)
    assert_same_pyramid(kept, oracle_nla_compress(pyramid, 300))
    is_kept = kept.levels[0].channels[1] != 0.0
    boundary = magnitude[is_kept].min()
    tied = np.flatnonzero(magnitude == boundary)
    assert is_kept[tied].any() and not is_kept[tied].all()
    assert np.array_equal(np.flatnonzero(is_kept[tied]), np.arange(is_kept[tied].sum()))
