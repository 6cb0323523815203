"""Critically-sampled biorthogonal filterbanks for graph signals, built on
partitions of the graph into connected subgraphs."""

from .applications import (NlaResult, best_level_nla, compression_ratio,
                           denoise, nla_compress, psnr, smooth_test_signal, snr)
from .filterbank import (Atoms, LevelOperators, Pyramid, PyramidLevel,
                         analyze_cascade, analyze_level, build_operators,
                         compute_atoms, synthesize_cascade, synthesize_level)
from .graphs import (SubgraphPartition, WeightedGraph, as_signal, coarsen,
                     connected_components, global_eigenbasis, grid_graph,
                     laplacian, line_graph, partition_is_connected, sbm_graph,
                     split_adjacency)
from .partition import (PartitionConfig, edge_aware_adjacency, haar_partition,
                        louvain, modularity)
from .spectral import (LocalEigenBasis, canonicalize_degenerate, dual_basis,
                       laplacian_eigh, local_eigenbasis)

__version__ = "0.1.0"

__all__ = [
    "Atoms", "LevelOperators", "LocalEigenBasis", "NlaResult", "PartitionConfig",
    "Pyramid", "PyramidLevel", "SubgraphPartition", "WeightedGraph",
    "analyze_cascade", "analyze_level", "as_signal", "best_level_nla",
    "build_operators", "canonicalize_degenerate", "coarsen",
    "compression_ratio", "compute_atoms", "connected_components", "denoise",
    "dual_basis", "edge_aware_adjacency", "global_eigenbasis", "grid_graph",
    "haar_partition", "laplacian", "laplacian_eigh", "line_graph",
    "local_eigenbasis", "louvain", "modularity", "nla_compress",
    "partition_is_connected", "psnr", "sbm_graph", "smooth_test_signal", "snr",
    "split_adjacency", "synthesize_cascade", "synthesize_level",
]
