"""Brute-force reference oracles and the differential entry point.

Everything the optimized stack computes has an independent, deliberately
naive re-implementation here:

* :func:`oracle_generation` / :func:`oracle_delivery` /
  :func:`oracle_tree_score` — Equations 3-4 evaluated as explicit
  path products along ``tree.path(u, v)`` (a third implementation,
  independent of both the per-source BFS in
  :func:`repro.rwmp.messages.pass_messages` and the batched
  :class:`~repro.rwmp.messages.TreeMessageKernel`);
* :func:`oracle_pagerank` — Equation 1 as a pure-Python dict iteration
  (no numpy);
* :func:`exhaustive_answers` — every Definition-3 answer up to the
  diameter cap, under AND or OR semantics;
* :func:`differential_check` — builds the full
  :class:`~repro.system.CIRankSystem` stack over a database and asserts
  that branch-and-bound (plain, pairs-indexed, star-indexed), the naive
  search, and the exhaustive oracle agree on the top-k, with ties
  handled by score-equivalence classes.

Agreement contracts (see docs/TESTING.md for the narrative):

* **branch-and-bound with permissive merges** is provably complete
  (Theorem 1), so its top-k must *equal* the oracle's up to ties;
  attaching a pairs or star index must not change the result.
* **naive search** explores shortest-path assemblies only — a strict
  subset of the answer space (e.g. multi-leaf redundant-coverage stars
  are unreachable) — so it is held to the *subset contract*: every
  answer it returns is a true answer with the true score, ranked
  correctly, and pointwise no better than the oracle's top-k.
* **strict-merge branch-and-bound** (the production default) cannot
  build redundant-coverage trees either and is held to the same subset
  contract.

Any violation raises :class:`DifferentialFailure` whose message embeds
the case label (the generating seed), making every failure replayable
via ``repro.testing.generators.random_case(seed)`` or the serialized
corpus (:mod:`repro.testing.corpus`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from ..config import EdgeWeights, SearchParams
from ..db.database import Database
from ..exceptions import EvaluationError, InvalidTreeError
from ..graph.datagraph import DataGraph
from ..indexing.pairs import PairsIndex
from ..indexing.star import StarIndex
from ..model.answer import RankedAnswer, RankedList
from ..model.jtt import JoinedTupleTree
from ..rwmp.dampening import DampeningModel
from ..search.branch_and_bound import BranchAndBoundSearch
from ..search.enumerate import enumerate_answers
from ..system import CIRankSystem
from ..text.inverted_index import InvertedIndex
from ..text.matcher import MatchSets
from .generators import GeneratedCase

#: Relative score tolerance for cross-implementation agreement.  The
#: kernel, the BFS reference, and the path-product oracle multiply the
#: same factors in different orders, so they agree to rounding only.
SCORE_RTOL = 1e-9


class DifferentialFailure(AssertionError):
    """One engine disagreed with the brute-force oracle.

    Attributes:
        engine: which comparison leg failed.
        label: the case label (usually ``seed=N query=...``).
    """

    def __init__(self, engine: str, label: str, detail: str) -> None:
        self.engine = engine
        self.label = label
        super().__init__(f"[{engine}] {detail} ({label})")


@dataclass
class DifferentialReport:
    """Outcome of one :func:`differential_check` run.

    Attributes:
        label: the case label.
        trivial: True when the query was unmatchable (all engines must
            return nothing; no enumeration happened).
        answers_enumerated: size of the exhaustive answer space.
        topk: the oracle's top-k (best first).
        engines: comparison legs that ran and agreed.
    """

    label: str = ""
    trivial: bool = False
    answers_enumerated: int = 0
    topk: List[RankedAnswer] = field(default_factory=list)
    engines: List[str] = field(default_factory=list)


# ----------------------------------------------------------- RWMP oracle


def oracle_generation(
    index: InvertedIndex,
    dampening: DampeningModel,
    match: MatchSets,
    node: int,
) -> float:
    """``r_ii = t * p_i * |v_i ∩ Q| / |v_i|`` recomputed from the index."""
    keywords = match.keywords_of.get(node, frozenset())
    matched = sum(index.tf(keyword, node) for keyword in keywords)
    total = index.doc_length(node)
    if total <= 0 or matched <= 0:
        return 0.0
    return dampening.surfers(node) * matched / total


def oracle_delivery(
    graph: DataGraph,
    tree: JoinedTupleTree,
    source: int,
    initial: float,
    rate,
) -> Dict[int, float]:
    """Deliveries of ``source``'s messages as explicit path products.

    For every other tree node the unique tree path is walked and the
    per-hop factor ``w(a, b) / den(a) * d_b`` accumulated, where
    ``den(a)`` sums the raw directed weights toward ``a``'s tree
    neighbors.  No shared state with the BFS or kernel implementations.
    """
    if source not in tree.nodes:
        raise InvalidTreeError(f"source {source} not in tree")
    den = {
        node: sum(graph.weight(node, nbr) for nbr in tree.neighbors(node))
        for node in tree.nodes
    }
    out: Dict[int, float] = {}
    for target in tree.nodes:
        if target == source:
            continue
        value = max(initial, 0.0)
        path = tree.path(source, target)
        for a, b in zip(path, path[1:]):
            if den[a] <= 0.0:
                value = 0.0
                break
            value *= graph.weight(a, b) / den[a] * rate(b)
        out[target] = value
    return out


def oracle_node_scores(
    graph: DataGraph,
    tree: JoinedTupleTree,
    match: MatchSets,
    index: InvertedIndex,
    dampening: DampeningModel,
) -> Dict[int, float]:
    """Equation (3) per non-free node, from the path-product deliveries."""
    sources = tree.non_free_nodes(match)
    if not sources:
        raise InvalidTreeError("tree contains no non-free node")
    gen = {
        s: oracle_generation(index, dampening, match, s) for s in sources
    }
    if len(sources) == 1:
        only = sources[0]
        return {only: gen[only]}
    delivered = {
        s: oracle_delivery(graph, tree, s, gen[s], dampening.rate)
        for s in sources
    }
    return {
        v: min(delivered[u][v] for u in sources if u != v) for v in sources
    }


def oracle_tree_score(
    graph: DataGraph,
    tree: JoinedTupleTree,
    match: MatchSets,
    index: InvertedIndex,
    dampening: DampeningModel,
) -> float:
    """Equation (4): the average of the oracle node scores."""
    scores = oracle_node_scores(graph, tree, match, index, dampening)
    return sum(scores.values()) / len(scores)


# ------------------------------------------------------- pagerank oracle


def oracle_pagerank(
    graph: DataGraph,
    teleport: float = 0.15,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> List[float]:
    """Equation (1) as a pure-Python power iteration (no numpy).

    Uniform teleport vector, dangling mass redistributed uniformly —
    the configuration :func:`repro.importance.pagerank.pagerank` runs
    by default.  Returns the stationary distribution as a list.
    """
    n = graph.node_count
    if n == 0:
        return []
    out_norm = [graph.normalized_out(node) for node in graph.nodes()]
    u = 1.0 / n
    p = [u] * n
    for _ in range(max_iterations):
        new = [0.0] * n
        dangling = 0.0
        for node, dist in enumerate(out_norm):
            if not dist:
                dangling += p[node]
                continue
            mass = p[node]
            for target, share in dist.items():
                new[target] += mass * share
        new = [
            (1.0 - teleport) * (value + dangling * u) + teleport * u
            for value in new
        ]
        residual = sum(abs(a - b) for a, b in zip(new, p))
        p = new
        if residual < tolerance:
            break
    total = sum(p)
    return [value / total for value in p]


# -------------------------------------------------- exhaustive answers


def exhaustive_answers(
    graph: DataGraph,
    match: MatchSets,
    max_diameter: int,
    max_nodes: Optional[int] = None,
    semantics: str = "and",
) -> Iterator[JoinedTupleTree]:
    """Every valid answer up to the caps, under either semantics.

    AND delegates to :func:`repro.search.enumerate.enumerate_answers`;
    OR runs the same subtree growth but accepts any reduced tree (every
    enumerated tree contains at least one keyword node by construction).
    Growing never shrinks the diameter, so diameter pruning during
    growth is safe: every subtree of a valid answer respects the cap.
    """
    if max_nodes is None:
        max_nodes = graph.node_count
    if semantics == "and":
        yield from enumerate_answers(graph, match, max_diameter, max_nodes)
        return
    seen: Set[JoinedTupleTree] = set()
    frontier: List[JoinedTupleTree] = []
    for node in sorted(match.all_nodes):
        tree = JoinedTupleTree.single(node)
        seen.add(tree)
        frontier.append(tree)
    emitted: List[JoinedTupleTree] = []
    while frontier:
        tree = frontier.pop()
        if tree.diameter <= max_diameter and tree.is_reduced(match):
            emitted.append(tree)
        if len(tree.nodes) >= max_nodes:
            continue
        for node in tree.nodes:
            for neighbor in graph.neighbors(node):
                if neighbor in tree.nodes:
                    continue
                extended = tree.with_edge(node, neighbor)
                if extended.diameter > max_diameter:
                    continue
                if extended not in seen:
                    seen.add(extended)
                    frontier.append(extended)
    emitted.sort(
        key=lambda t: (len(t.nodes), sorted(t.nodes), sorted(t.edges))
    )
    yield from emitted


def exhaustive_topk(
    scores: Dict[JoinedTupleTree, float], k: int
) -> List[RankedAnswer]:
    """The oracle top-k over a scored answer space (deterministic ties)."""
    top = RankedList(k)
    for tree, score in scores.items():
        top.offer(RankedAnswer(tree, score))
    return top.as_list()


# -------------------------------------------------------- comparisons


def _close(a: float, b: float, rtol: float = SCORE_RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)


def _check_exact_topk(
    engine: str,
    label: str,
    got: List[RankedAnswer],
    oracle_topk: List[RankedAnswer],
    scores: Dict[JoinedTupleTree, float],
) -> None:
    """Top-k equality up to score-equivalence classes.

    The returned list must (1) contain no duplicate trees, (2) have
    exactly the oracle's score profile, and (3) consist of genuine
    answers reported at their true scores.  Together these pin the
    top-k: any answer above the k-th tie class is forced, and inside
    the boundary class any representative is acceptable.
    """
    trees = [answer.tree for answer in got]
    if len(set(trees)) != len(trees):
        raise DifferentialFailure(engine, label, "duplicate answers returned")
    if len(got) != len(oracle_topk):
        raise DifferentialFailure(
            engine, label,
            f"returned {len(got)} answers, oracle found {len(oracle_topk)}",
        )
    for rank, (answer, expected) in enumerate(zip(got, oracle_topk)):
        if not _close(answer.score, expected.score):
            raise DifferentialFailure(
                engine, label,
                f"rank {rank}: score {answer.score!r} != oracle "
                f"{expected.score!r}",
            )
    for answer in got:
        truth = scores.get(answer.tree)
        if truth is None:
            raise DifferentialFailure(
                engine, label,
                f"returned tree {sorted(answer.tree.nodes)} is not a valid "
                "answer (not in the exhaustive space)",
            )
        if not _close(answer.score, truth):
            raise DifferentialFailure(
                engine, label,
                f"tree {sorted(answer.tree.nodes)} scored {answer.score!r}, "
                f"oracle says {truth!r}",
            )


def _check_subset_topk(
    engine: str,
    label: str,
    got: List[RankedAnswer],
    oracle_topk: List[RankedAnswer],
    scores: Dict[JoinedTupleTree, float],
) -> None:
    """The subset contract for incomplete engines (naive, strict merge)."""
    trees = [answer.tree for answer in got]
    if len(set(trees)) != len(trees):
        raise DifferentialFailure(engine, label, "duplicate answers returned")
    for previous, answer in zip(got, got[1:]):
        if answer.score > previous.score + 1e-12:
            raise DifferentialFailure(
                engine, label, "answers are not sorted best-first"
            )
    for answer in got:
        truth = scores.get(answer.tree)
        if truth is None:
            raise DifferentialFailure(
                engine, label,
                f"returned tree {sorted(answer.tree.nodes)} is not a valid "
                "answer (not in the exhaustive space)",
            )
        if not _close(answer.score, truth):
            raise DifferentialFailure(
                engine, label,
                f"tree {sorted(answer.tree.nodes)} scored {answer.score!r}, "
                f"oracle says {truth!r}",
            )
    for rank, (answer, expected) in enumerate(zip(got, oracle_topk)):
        if answer.score > expected.score and not _close(
            answer.score, expected.score
        ):
            raise DifferentialFailure(
                engine, label,
                f"rank {rank}: score {answer.score!r} beats the oracle's "
                f"{expected.score!r} — impossible for a sound engine",
            )


# ----------------------------------------------------- the entry point


def differential_check(
    db: Database,
    query: str,
    params: Optional[SearchParams] = None,
    weights: Optional[EdgeWeights] = None,
    *,
    max_nodes: Optional[int] = None,
    check_indexes: bool = True,
    check_naive: bool = True,
    check_strict: bool = True,
    label: str = "",
) -> DifferentialReport:
    """Assert the whole optimized stack agrees with brute force.

    Builds a :class:`CIRankSystem` over ``db``, enumerates the complete
    answer space, scores it with the independent path-product oracle
    (cross-checking the vectorized scorer on every tree), and compares
    every search engine against the oracle top-k.

    Args:
        db: the database under test.
        query: keyword query text.
        params: search parameters (defaults to ``k=3, D=3``); the
            ``strict_merge`` flag is overridden per comparison leg.
        weights: edge-weight table for the graph build.
        max_nodes: enumeration node cap; defaults to the whole graph
            (required for the exactness of the oracle — only lower it
            for graphs too big to enumerate, where the check degrades
            to the subset contract).
        check_indexes: also run branch-and-bound with a pairs and a
            star index attached (results must be identical).
        check_naive: also run the naive search (subset contract).
        check_strict: also run strict-merge branch-and-bound (subset
            contract).
        label: case label embedded in failure messages.

    Returns:
        A :class:`DifferentialReport`.

    Raises:
        DifferentialFailure: on the first disagreement.
    """
    params = params or SearchParams(k=3, diameter=3)
    complete = dataclasses.replace(params, strict_merge=False)
    system = CIRankSystem.from_database(
        db, weights=weights, search_params=complete
    )
    report = DifferentialReport(label=label)
    try:
        match = system.matcher.match(query)
    except EvaluationError:
        # No analyzable keywords: the facade raises too; nothing to diff.
        report.trivial = True
        return report

    if params.semantics == "or":
        matchable = any(match.per_keyword.values())
    else:
        matchable = match.matchable
    if not matchable:
        for algorithm in ("branch-and-bound", "naive"):
            answers = system.search(query, algorithm=algorithm)
            if answers:
                raise DifferentialFailure(
                    algorithm, label,
                    "returned answers for an unmatchable query",
                )
        report.trivial = True
        report.engines = ["branch-and-bound", "naive"]
        return report

    graph = system.graph
    scorer = system.scorer_for(match)
    scores: Dict[JoinedTupleTree, float] = {}
    for tree in exhaustive_answers(
        graph, match, params.diameter, max_nodes, params.semantics
    ):
        truth = oracle_tree_score(
            graph, tree, match, system.index, system.dampening
        )
        fast = scorer.score(tree)
        if not _close(fast, truth):
            raise DifferentialFailure(
                "scorer", label,
                f"vectorized score {fast!r} != path-product oracle "
                f"{truth!r} on tree {sorted(tree.nodes)}",
            )
        scores[tree] = truth
    report.answers_enumerated = len(scores)
    oracle_topk = exhaustive_topk(scores, params.k)
    report.topk = oracle_topk

    bnb = system.search(query)
    _check_exact_topk("branch-and-bound", label, bnb, oracle_topk, scores)
    report.engines.append("branch-and-bound")

    # A repeated identical query must come back from the answer cache
    # (same object sequence — the cache stores the proven result) and
    # still satisfy the exactness contract.
    if system.answer_cache.enabled:
        before = system.answer_cache.stats().hits
        warm = system.search(query)
        after = system.answer_cache.stats()
        if after.hits != before + 1:
            raise DifferentialFailure(
                "answer-cache", label,
                f"repeated query was not served from the cache "
                f"(hits {before} -> {after.hits})",
            )
        if [(a.tree, a.score) for a in warm] != [
            (a.tree, a.score) for a in bnb
        ]:
            raise DifferentialFailure(
                "answer-cache", label,
                "warm-cache result differs from the cold search result",
            )
        _check_exact_topk("answer-cache", label, warm, oracle_topk, scores)
        report.engines.append("answer-cache")

    if check_indexes:
        horizon = max(1, params.diameter)
        pairs = PairsIndex(graph, system.dampening, horizon=horizon)
        star = StarIndex(graph, system.dampening, horizon=horizon)
        for name, index in (("pairs-index", pairs), ("star-index", star)):
            search = BranchAndBoundSearch(
                graph, scorer, match, complete, index=index
            )
            _check_exact_topk(name, label, search.run(), oracle_topk, scores)
            report.engines.append(name)

    if check_naive:
        naive = system.search(query, algorithm="naive")
        _check_subset_topk("naive", label, naive, oracle_topk, scores)
        report.engines.append("naive")

    if check_strict:
        strict = dataclasses.replace(params, strict_merge=True)
        search = BranchAndBoundSearch(graph, scorer, match, strict)
        _check_subset_topk(
            "strict-merge", label, search.run(), oracle_topk, scores
        )
        report.engines.append("strict-merge")

    return report


def check_case(case: GeneratedCase, **kwargs) -> DifferentialReport:
    """Run :func:`differential_check` on one generated case."""
    return differential_check(
        case.db,
        case.query,
        case.params,
        weights=case.weights,
        label=case.describe(),
        **kwargs,
    )
