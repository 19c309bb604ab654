"""The weighted directed data graph and its construction utilities."""

from .datagraph import DataGraph, NodeInfo
from .csr import CompiledGraph, compile_graph
from .builder import GraphBuilder, build_graph
from .traversal import (
    bfs_distances,
    bfs_within,
    best_retention_paths,
    shortest_path,
    tree_diameter,
)
from .sampling import sample_subgraph
from .metrics import GraphStats, community_mixing, graph_stats

__all__ = [
    "DataGraph",
    "NodeInfo",
    "CompiledGraph",
    "compile_graph",
    "GraphBuilder",
    "build_graph",
    "bfs_distances",
    "bfs_within",
    "best_retention_paths",
    "shortest_path",
    "tree_diameter",
    "sample_subgraph",
    "GraphStats",
    "graph_stats",
    "community_mixing",
]
