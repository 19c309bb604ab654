"""CI-Rank scoring of joined tuple trees (Equations 3-4).

A destination non-free node's score is the count of its *least populous*
incoming message type — one message of each type assembled together is
"complete knowledge of all sources", so the minimum determines how many
complete combinations the node can form.  The tree's score is the average
node score over its non-free nodes.

Convention (documented in DESIGN.md): a tree whose only non-free node is
its single node has no other sources; its node score is defined as its own
generation count ``r_ii``, so that important single-node answers (Fig. 4's
``T1``) outrank poorly connected multi-node alternatives.

The module also implements the three straw-man scoring functions of
Section III-B, used by the ablation benchmarks:

* :func:`average_importance_score` — mean importance of non-free nodes
  (ignores cohesiveness);
* :func:`all_node_average_score` — mean importance over *all* nodes
  (suffers the free-node domination problem);
* :func:`size_normalized_importance_score` — all-node average divided by
  tree size (still blind to structure).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..exceptions import InvalidTreeError
from ..graph.datagraph import DataGraph
from ..importance.pagerank import ImportanceVector
from ..model.jtt import JoinedTupleTree
from ..text.inverted_index import InvertedIndex
from ..text.matcher import MatchSets
from ..utils.lru import CacheStats, LRUCache
from .dampening import DampeningModel
from .messages import TreeMessageKernel


class RWMPScorer:
    """Scores trees for one query under the RWMP model.

    Scoring runs on the vectorized fast path: each tree's message
    kernel (tree-local CSR slice, see
    :class:`~repro.rwmp.messages.TreeMessageKernel`) is compiled and
    delivers all sources in one batched pass — the dict-based
    :func:`~repro.rwmp.messages.pass_messages` remains available as the
    reference oracle.

    One bounded LRU (``cache_size`` entries) keeps tree scores, so a
    tree is scored, and its kernel compiled, once while its score stays
    cached.
    :meth:`cache_stats` exposes its hit/miss/eviction counters
    (surfaced by the CLI's ``--stats`` flag).  Generation counts are a
    per-query constant of each node the search asks about — at most one
    per matched node — so they live in a plain dict that never evicts.

    Args:
        graph: the data graph.
        index: inverted index (provides ``|v_i ∩ Q|`` and ``|v_i|``).
        match: the query's match sets.
        dampening: the dampening model (importance + parameters).
        cache_size: tree-score LRU capacity (0 disables caching).
    """

    def __init__(
        self,
        graph: DataGraph,
        index: InvertedIndex,
        match: MatchSets,
        dampening: DampeningModel,
        cache_size: int = 4096,
    ) -> None:
        self.graph = graph
        self.index = index
        self.match = match
        self.dampening = dampening
        self._generation: Dict[int, float] = {}
        self._tree_cache: LRUCache = LRUCache(cache_size)

    # ------------------------------------------------------------ pieces

    def generation(self, node: int) -> float:
        """``r_ii = t * p_i * |v_i ∩ Q| / |v_i|`` (0 for free nodes)."""
        cached = self._generation.get(node)
        if cached is not None:
            return cached
        keywords = self.match.keywords_of.get(node)
        if not keywords:
            value = 0.0
        else:
            matched_words = sum(
                self.index.tf(keyword, node) for keyword in keywords
            )
            total_words = self.index.doc_length(node)
            if total_words <= 0 or matched_words <= 0:
                value = 0.0
            else:
                surfers = self.dampening.surfers(node)
                value = surfers * matched_words / total_words
        self._generation[node] = value
        return value

    def sources_in(self, tree: JoinedTupleTree) -> List[int]:
        """The message sources: non-free nodes of the tree."""
        return tree.non_free_nodes(self.match)

    def kernel_for(self, tree: JoinedTupleTree) -> TreeMessageKernel:
        """The tree's compiled message kernel."""
        return TreeMessageKernel(self.graph, tree, self.dampening.rate)

    def node_scores(self, tree: JoinedTupleTree) -> Dict[int, float]:
        """Equation (3) for every non-free node of ``tree``."""
        sources = self.sources_in(tree)
        if not sources:
            raise InvalidTreeError("tree contains no non-free node")
        if len(sources) == 1:
            # Single-source convention: self-knowledge.
            return {sources[0]: self.generation(sources[0])}
        kernel = self.kernel_for(tree)
        gens = [self.generation(source) for source in sources]
        delivered = kernel.deliver(sources, gens)
        # Equation (3): at each destination, the least populous incoming
        # message type.  Restrict to the source columns and mask each
        # source's own entry out of its column's minimum.
        cols = [kernel.index[source] for source in sources]
        cross = delivered[:, cols]
        np.fill_diagonal(cross, np.inf)
        minima = cross.min(axis=0)
        return {
            destination: float(minima[j])
            for j, destination in enumerate(sources)
        }

    # ------------------------------------------------------------- score

    def score(self, tree: JoinedTupleTree) -> float:
        """Equation (4): average non-free node score."""
        cached = self._tree_cache.get(tree)
        if cached is not None:
            return cached
        scores = self.node_scores(tree)
        value = sum(scores.values()) / len(scores)
        self._tree_cache.put(tree, value)
        return value

    # ----------------------------------------------------------- metrics

    def cache_stats(self) -> Dict[str, CacheStats]:
        """Hit/miss/eviction snapshots of the scorer's caches."""
        return {"tree_score": self._tree_cache.stats()}


# ----------------------------------------------------------- straw men


def average_importance_score(
    tree: JoinedTupleTree,
    match: MatchSets,
    importance: ImportanceVector,
) -> float:
    """Section III-B straw man 1: mean importance of non-free nodes."""
    non_free = tree.non_free_nodes(match)
    if not non_free:
        raise InvalidTreeError("tree contains no non-free node")
    return sum(importance[n] for n in non_free) / len(non_free)


def all_node_average_score(
    tree: JoinedTupleTree,
    importance: ImportanceVector,
) -> float:
    """Section III-B straw man 2: mean importance over all nodes.

    Exhibits the free-node domination problem (Fig. 4).
    """
    return sum(importance[n] for n in tree.nodes) / len(tree.nodes)


def size_normalized_importance_score(
    tree: JoinedTupleTree,
    importance: ImportanceVector,
) -> float:
    """Section III-B straw man 3: all-node average divided by tree size.

    Cannot distinguish structurally different trees of equal size (the
    star-vs-chain example).
    """
    return all_node_average_score(tree, importance) / len(tree.nodes)
