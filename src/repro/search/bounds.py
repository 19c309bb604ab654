"""Admissible upper bounds for candidate trees (Section IV-B).

The paper combines a *complete estimate* ``ce`` (best score reachable by
completing the candidate) and a *potential estimate* ``pe`` (best node
score any additionally attached non-free node could get) into
``ub(C) = max(ce(C), pe(C))`` (Lemma 1).  This module implements both,
tightened to be provably admissible under this library's exact scoring —
the property tests in ``tests/test_search_bounds.py`` check
``ub(C) >= score(T)`` for every answer ``T`` expandable from ``C``.

Derivation (see DESIGN.md for the narrative version).  Write ``C`` for the
candidate with root ``r``, ``S`` for its non-free nodes, and ``T ⊇ C`` for
any answer grown/merged from it.  The expansion invariant guarantees that
in ``T`` only ``r`` has gained tree neighbors; every other node of ``C``
keeps exactly the neighborhood it has in ``C``.  Consequently:

* ``f_T(u→v) <= fbar_C(u→v)`` for ``u, v ∈ C``, where ``fbar`` is the
  delivery computed on ``C`` with the split share at ``r`` replaced by 1
  (expansion can only enlarge ``r``'s split denominator);
* any message from a future source ``x ∉ C`` reaches ``v ∈ C`` only
  through ``r``, so ``f_T(x→v) <= gen(x) * ret(x→r) * inside(v)``, where
  ``ret(x→r)`` is an upper bound on the retention of any path into ``r``
  (at worst ``d_r``, tighter with an index) and ``inside(v)`` is the exact
  in-``C`` delivery factor from ``r`` to ``v`` (dampening *after* ``r``);
* symmetrically ``f_T(u→x) <= fbar_C(u→r) * ret(r→x)``; per-``x``
  retention and missing-keyword generation caps combine in
  :meth:`UpperBoundEstimator._potential_estimate` (see also
  docs/ALGORITHMS.md §2.2).

Then for ``v ∈ S`` the node score in any ``T`` is bounded by
``b(v) = min( min_{u∈S\\{v}} fbar_C(u→v),
min_{k missing} G_k * inside(v) )`` with
``G_k = max_{x∈En(k)\\C} gen(x) * ret(x→r)`` (some ``x`` covering each
missing keyword must exist in any completion).  Every node of
``T \\ C`` scores at most the potential estimate ``pe``.  Since ``score(T)`` is the average over ``S(T) = S ∪ X`` and
``avg(A ∪ B) <= max(avg A, max B)``:

    score(T) <= max( ce = avg_{v∈S} b(v),  pe )            (Lemma 1)

The search evaluates this bound on rows of its candidate arena
(:meth:`UpperBoundEstimator.arena_bound`, with structurally shared
factor lists and memoized per-root tables).
:meth:`UpperBoundEstimator.upper_bound` evaluates it from scratch on a
:class:`CandidateTree`; it is the reference the tests check
admissibility on, and the arena's bound equals it bitwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..graph.datagraph import DataGraph
from ..model.jtt import JoinedTupleTree
from ..rwmp.scoring import RWMPScorer
from ..text.matcher import MatchSets
from .candidate import CandidateTree


class UpperBoundEstimator:
    """Computes ``ub(C) = max(ce(C), pe(C))`` for candidate trees.

    Args:
        graph: the data graph.
        scorer: the query's RWMP scorer (supplies generation counts and
            dampening rates).
        index: optional index (naive pairs or star) exposing
            ``retention_upper(u, v)`` and ``distance_lower(u, v)``; used to
            tighten the outside-retention factors (Section V "Benefits").
    """

    def __init__(
        self,
        graph: DataGraph,
        scorer: RWMPScorer,
        index: Optional[object] = None,
        semantics: str = "and",
    ) -> None:
        self.graph = graph
        self.scorer = scorer
        self.match: MatchSets = scorer.match
        self.index = index
        #: Per-node dampening rates, indexed directly by the hot paths.
        self._rates = scorer.dampening.rates
        # Compiled CSR view: binary-search adjacency tests and
        # pre-sorted neighbor arrays for the bound terms.
        self._compiled = graph.compiled()
        #: Under OR semantics a completion need not supply the missing
        #: keywords, so every missing-keyword bound term is dropped (the
        #: remaining terms stay admissible for the wider answer space).
        self.semantics = semantics
        self._sorted_gen: Dict[str, List[Tuple[float, int]]] = {}
        self._max_rate_enq: Optional[float] = None
        # Index lookups repeat heavily across candidates sharing a root
        # (star-index case 2/3 decompositions are not free); memoize them
        # for the lifetime of the query.
        self._ret_cache: Dict[Tuple[int, int], float] = {}
        self._dist_cache: Dict[Tuple[int, int], float] = {}
        self._nbr_rate_cache: Dict[int, float] = {}
        # Per-root tables for the potential estimate: the per-addition
        # retention factors depend only on (root, x), not on the
        # candidate, and roots repeat across thousands of candidates.
        self._pe_cache: Dict[int, List[Tuple[int, float, float, frozenset]]] = {}
        self._into_cache: Dict[Tuple[int, int], float] = {}
        # Admit-time cap tables: G_k(r) = max_{x in En(k)} gen(x) *
        # ret(x -> r) is a pure function of (root, keyword) — see
        # :meth:`admit_cap`.
        self._gk_cache: Dict[Tuple[int, str], float] = {}
        self._all_keywords = frozenset(self.match.keywords)

    def _index_retention(self, u: int, v: int) -> float:
        key = (u, v)
        cached = self._ret_cache.get(key)
        if cached is None:
            cached = self.index.retention_upper(u, v)
            self._ret_cache[key] = cached
        return cached

    def _index_distance(self, u: int, v: int) -> float:
        key = (u, v)
        cached = self._dist_cache.get(key)
        if cached is None:
            cached = self.index.distance_lower(u, v)
            self._dist_cache[key] = cached
        return cached

    # -------------------------------------------------------------- pieces

    def _keyword_candidates(self, keyword: str) -> List[Tuple[float, int]]:
        """Nodes of ``En(k)`` with their generation counts, descending."""
        cached = self._sorted_gen.get(keyword)
        if cached is None:
            pairs = [
                (self.scorer.generation(node), node)
                for node in self.match.per_keyword.get(keyword, ())
            ]
            pairs.sort(key=lambda item: (-item[0], item[1]))
            cached = pairs
            self._sorted_gen[keyword] = cached
        return cached

    def _max_enq_rate(self) -> float:
        """Maximum dampening rate among all non-free nodes of the query."""
        if self._max_rate_enq is None:
            table = self._rates
            rates = [table[node] for node in self.match.all_nodes]
            self._max_rate_enq = max(rates) if rates else 1.0
        return self._max_rate_enq

    def _max_neighbor_rate(self, node: int) -> float:
        """Largest dampening rate among ``node``'s graph neighbors.

        Any path ending (or starting) at ``node`` whose other endpoint is
        not adjacent must pass through one of these neighbors, so their
        best rate bounds the extra hop's retention.  Cached per node.
        """
        cached = self._nbr_rate_cache.get(node)
        if cached is None:
            rates = self._rates
            neighbors = self._compiled.neighbors(node)
            cached = max((rates[n] for n in neighbors), default=1.0)
            self._nbr_rate_cache[node] = cached
        return cached

    def _adjacent(self, a: int, b: int) -> bool:
        return self._compiled.adjacent(a, b)

    def _retention_into(self, node: int, root: int, d_root: float) -> float:
        """Upper bound on message retention of any path ``node -> root``.

        A pure function of ``(node, root)`` for the lifetime of the
        query, memoized — the adjacency test behind it is a CSR binary
        search, and candidates sharing a root repeat the same lookups.
        """
        key = (node, root)
        cached = self._into_cache.get(key)
        if cached is not None:
            return cached
        if self.index is not None:
            value = min(d_root, self._index_retention(node, root))
        elif self._adjacent(node, root):
            value = d_root
        else:
            # non-adjacent: at least one intermediate, itself a root
            # neighbor
            value = d_root * self._max_neighbor_rate(root)
        self._into_cache[key] = value
        return value

    def admit_cap(self, root: int, missing, sources) -> float:
        """Admit-time cap on any completion of an *incomplete* candidate.

        An O(|S| + |M|) admissible bound that needs no delivery pass —
        cheap enough to evaluate at admission, where the lazy path
        otherwise relies on the (much looser) inherited parent bound.
        With a pairs/star index attached, :meth:`_retention_into` uses
        the precomputed retentions, which is what makes this cap bite;
        without one the adjacency fallbacks keep it sound but looser.
        AND semantics only — under OR nothing forces the missing
        keywords to attach, so no cap of this shape is admissible.

        Derivation (docs/ALGORITHMS.md §2.8).  Let ``C`` have root
        ``r``, sources ``S`` and missing keywords ``M != {}``.  Any
        answer ``T`` completed from ``C`` satisfies
        ``score(T) <= max(avg_{v in S} b(v), max_{x in S(T) \\ S} b(x))``
        (the Lemma-1 split).  Every node of ``T \\ C`` attaches through
        ``r``:

        * for ``v in S``: each missing ``k`` is supplied by a source
          ``x_k in T \\ C``, so
          ``b(v) <= f_T(x_k -> v) <= gen(x_k) * ret(x_k -> r) <= G_k(r)``
          with ``G_k(r) = max_{x in En(k)} gen(x) * ret(x -> r)``
          (in-tree continuation factors are <= 1), hence
          ``avg_S <= min_{k in M} G_k(r)``;
        * for a new source ``x``: any ``u in S`` (nonempty) bounds it,
          ``b(x) <= f_T(u -> x) <= gen(u) * ret(u -> r)``, hence
          ``max_X <= H = min_{u in S} gen(u) * ret(u -> r)``
          (``ret = 1`` when ``u == r``).

        ``cap = max(min_k G_k(r), H)``.  ``G_k`` ranges over all of
        ``En(k)`` — a pure function of ``(root, keyword)``, memoized for
        the lifetime of the query.

        Args:
            root: the candidate's root node.
            missing: the missing keywords (must be non-empty).
            sources: the candidate's non-free nodes (non-empty).
        """
        d_root = self._rates[root]
        gk_min = float("inf")
        for keyword in missing:
            key = (root, keyword)
            gk = self._gk_cache.get(key)
            if gk is None:
                gk = 0.0
                for gen, node in self._keyword_candidates(keyword):
                    if gen * d_root <= gk:
                        break  # sorted desc and ret <= d_root
                    value = gen * self._retention_into(node, root, d_root)
                    if value > gk:
                        gk = value
                self._gk_cache[key] = gk
            if gk < gk_min:
                gk_min = gk
        generation = self.scorer.generation
        h = float("inf")
        for u in sources:
            g = generation(u)
            value = g if u == root else (
                g * self._retention_into(u, root, d_root)
            )
            if value < h:
                h = value
        return max(gk_min, h) if h != float("inf") else gk_min

    def _best_outside_gen(
        self, keyword: str, nodes, root: int, d_root: float
    ) -> float:
        """``G_k``: best ``gen(x) * ret(x -> root)`` over ``En(k) \\ C``.

        ``nodes`` is any set-like container of the candidate's node ids —
        a plain ``set`` built from an arena slice, or a reference
        candidate's ``frozenset``.
        """
        best = 0.0
        for gen, node in self._keyword_candidates(keyword):
            if gen * d_root <= best:
                break  # sorted by gen desc; no later node can beat `best`
            if node in nodes:
                continue
            best = max(best, gen * self._retention_into(node, root, d_root))
        return best

    def _max_gen_outside(self, keyword: str, nodes) -> float:
        """Largest generation count among ``En(k) \\ C`` (no retention)."""
        for gen, node in self._keyword_candidates(keyword):
            if node not in nodes:
                return gen
        return 0.0

    def _pe_entries(
        self, root: int
    ) -> List[Tuple[int, float, float, frozenset]]:
        """Per-root table of ``(x, d_x, ret(root -> x), keywords(x))``.

        Everything :meth:`_potential_estimate` needs about an addition
        ``x`` except the per-candidate pieces (tree membership, missing
        keywords) is a function of the root alone, and a root is shared
        by thousands of candidates in one search.  The table preserves
        the iteration order of ``match.all_nodes`` so the early-exit
        point — and hence the returned value — is identical to the
        uncached reference.
        """
        cached = self._pe_cache.get(root)
        if cached is None:
            rates = self._rates
            keywords_of = self.match.keywords_of
            cached = []
            for x in self.match.all_nodes:
                d_x = rates[x]
                if self.index is not None:
                    ret = min(d_x, self._index_retention(root, x))
                elif self._adjacent(root, x):
                    ret = d_x
                else:
                    # non-adjacent: charge the forced intermediate hop
                    ret = d_x * self._max_neighbor_rate(root)
                cached.append(
                    (x, d_x, ret, keywords_of.get(x, frozenset()))
                )
            self._pe_cache[root] = cached
        return cached

    def _potential_estimate(
        self,
        root: int,
        nodes,
        fbar_min: float,
        missing,
    ) -> float:
        """``pe``: bound on the score of any node added outside ``C``.

        For a specific added node ``x`` two families of deliveries bound
        its min-over-sources score:

        * from any source already in ``C``: at most
          ``fbar_min * ret(root -> x)``, where the retention is at worst
          ``d_x`` (every delivery dampens at its destination) and tighter
          with an index;
        * for every *missing* keyword ``k`` that ``x`` itself does not
          match, the completion contains a source ``y ∈ En(k) \\ C``
          distinct from ``x``, and ``f(y -> x) <= gen(y) * d_x``.

        ``pe`` is the max of this per-``x`` bound over all possible
        additions; nodes matching every missing keyword fall back to the
        first family only.  The per-``x`` retention factors come from the
        memoized per-root table (:meth:`_pe_entries`); the returned value
        is bitwise identical to :meth:`_potential_estimate_reference`.
        """
        caps = {k: self._max_gen_outside(k, nodes) for k in missing}
        best = 0.0
        cutoff = fbar_min * self._max_enq_rate()
        for x, d_x, ret, x_keywords in self._pe_entries(root):
            if x in nodes:
                continue
            bound = fbar_min * ret
            for keyword in missing:
                if keyword not in x_keywords:
                    cap = caps[keyword] * d_x
                    if cap < bound:
                        bound = cap
            if bound > best:
                best = bound
            if best >= cutoff:
                break  # cannot grow further
        return best

    def _potential_estimate_reference(
        self,
        cand: CandidateTree,
        fbar_min: float,
        missing,
    ) -> float:
        """The uncached ``pe`` (see :meth:`_potential_estimate`).

        Recomputes every retention factor from the graph on each call:
        the reference bound (:meth:`upper_bound`) uses it so that it
        shares no per-root table with the search's bound.
        """
        rate = self.scorer.dampening.rate
        caps = {k: self._max_gen_outside(k, cand.tree.nodes) for k in missing}
        best = 0.0
        for x in self.match.all_nodes:
            if x in cand.tree.nodes:
                continue
            d_x = rate(x)
            if self.index is not None:
                ret = min(d_x, self._index_retention(cand.root, x))
            elif self._adjacent(cand.root, x):
                ret = d_x
            else:
                # non-adjacent: charge the forced intermediate hop
                ret = d_x * self._max_neighbor_rate(cand.root)
            bound = fbar_min * ret
            x_keywords = self.match.keywords_of.get(x, frozenset())
            for keyword in missing:
                if keyword not in x_keywords:
                    bound = min(bound, caps[keyword] * d_x)
            best = max(best, bound)
            if best >= fbar_min * self._max_enq_rate():
                break  # cannot grow further
        return best

    def _tree_transfer(
        self, tree: JoinedTupleTree, root: int
    ) -> Tuple[Dict[int, Tuple[int, ...]], Dict[Tuple[int, int], float]]:
        """Per-directed-edge transfer factors with the root split freed.

        The delivery of one message unit across edge ``a -> b`` is
        ``share(a -> b) * d_b`` with ``share = w(a, b) / den(a)`` over
        ``a``'s in-tree out-weights — except at the root, whose split is
        replaced by 1 (the admissibility device: expansion only enlarges
        the root's denominator).  A delivery between any two tree nodes
        is then the product of the factors along their unique path, which
        lets every per-source pass run without touching the graph.
        """
        rate = self.scorer.dampening.rate
        adj: Dict[int, Tuple[int, ...]] = {
            n: tuple(sorted(tree.neighbors(n))) for n in tree.nodes
        }
        tau: Dict[Tuple[int, int], float] = {}
        for a in tree.nodes:
            out = self.graph.out_edges(a)
            if a == root:
                for b in adj[a]:
                    tau[(a, b)] = rate(b)
                continue
            den = sum(out.get(b, 0.0) for b in adj[a])
            for b in adj[a]:
                share = out.get(b, 0.0) / den if den > 0.0 else 0.0
                tau[(a, b)] = share * rate(b)
        return adj, tau

    @staticmethod
    def _deliver_factors(
        factors: Dict[int, Tuple[Tuple[int, float], ...]],
        source: int,
        initial: float,
    ) -> Dict[int, float]:
        """Deliveries from ``source`` to every other tree node.

        ``factors`` maps each node to its ``(neighbor, tau)`` list; a
        delivery is the product of the factors along the unique tree
        path.  A non-positive initial value short-circuits to an empty
        mapping — read results with ``.get(node, 0.0)``.
        """
        out: Dict[int, float] = {}
        if initial <= 0.0:
            return out
        stack = [(source, -1, initial)]
        while stack:
            node, parent, value = stack.pop()
            for nbr, factor in factors[node]:
                if nbr != parent:
                    kept = value * factor
                    out[nbr] = kept
                    if len(factors[nbr]) > 1:
                        # leaves (single factor entry: the edge back to
                        # `node`) have nothing further to deliver to
                        stack.append((nbr, node, kept))
        return out

    # -------------------------------------------------------------- bounds

    def arena_bound(self, arena, cid: int, missing) -> float:
        """``ub(C) = max(ce(C), pe(C))`` of one arena row (Lemma 1).

        The search's full bound.  It reads the row's factor lists (the
        engine builds them before the call) from the arena's flat
        ``flist`` arrays and the per-root tables of
        :meth:`_potential_estimate`, and performs the same float
        operations in the same order as the from-scratch
        :meth:`upper_bound`, so the two agree bitwise (pinned by
        tests/test_search_arena.py).  A method of its own so the
        mutation tests can break it on purpose.

        Args:
            arena: the search's
                :class:`~repro.search.arena.CandidateArena`.
            cid: the row id.
            missing: the row's missing keywords (empty under OR).
        """
        root = arena.root[cid]
        sources = arena.sources_of(cid)
        n_sources = len(sources)
        gen = self.scorer.generation
        d_root = self._rates[root]
        fid_of = arena.fmap_of(cid)
        flist_start = arena.flist_start
        flist_len = arena.flist_len
        flist_nbr = arena.flist_nbr
        flist_tau = arena.flist_tau

        def deliver(source: int, initial: float) -> Dict[int, float]:
            out: Dict[int, float] = {}
            if initial <= 0.0:
                return out
            stack = [(source, -1, initial)]
            while stack:
                node, par, value = stack.pop()
                f = fid_of[node]
                s = flist_start[f]
                for i in range(s, s + flist_len[f]):
                    nbr = flist_nbr[i]
                    if nbr != par:
                        kept = value * flist_tau[i]
                        out[nbr] = kept
                        if flist_len[fid_of[nbr]] > 1:
                            stack.append((nbr, node, kept))
            return out

        gens = []
        fbar = []
        fbar_to_root_min = float("inf")
        for u in sources:
            g = gen(u)
            gens.append(g)
            delivered = deliver(u, g)
            fbar.append(delivered)
            to_root = g if u == root else delivered.get(root, 0.0)
            if to_root < fbar_to_root_min:
                fbar_to_root_min = to_root

        if missing or n_sources == 1:
            inside = deliver(root, 1.0)
            inside[root] = 1.0
        else:
            inside = {}
        node_set = set(arena.nodes_of(cid))
        g_of = {
            k: self._best_outside_gen(k, node_set, root, d_root)
            for k in missing
        }

        total = 0.0
        for i in range(n_sources):
            v = sources[i]
            best = float("inf")
            for j in range(n_sources):
                if j != i:
                    val = fbar[j].get(v, 0.0)
                    if val < best:
                        best = val
            if missing:
                inside_v = inside.get(v, 0.0)
                for k in missing:
                    term = g_of[k] * inside_v
                    if term < best:
                        best = term
            if best == float("inf"):
                # Lone complete source (see upper_bound): T may equal C,
                # or gain sources whose deliveries bound v's new min.
                outside_best = max(
                    (
                        self._best_outside_gen(k, node_set, root, d_root)
                        for k in self.match.keywords
                    ),
                    default=0.0,
                )
                best = max(gens[i], outside_best * inside.get(v, 0.0))
            total += best
        ce = total / n_sources
        pe = self._potential_estimate(
            root, node_set, fbar_to_root_min, missing
        )
        return max(ce, pe)

    def upper_bound(self, cand: CandidateTree) -> float:
        """``ub(C) = max(ce(C), pe(C))`` from scratch — the reference.

        Rebuilds the transfer factors from the tree
        (:meth:`_tree_transfer`) and runs the uncached
        :meth:`_potential_estimate_reference`, so it shares no factor
        list or per-root table with :meth:`arena_bound`.  The search
        never calls it: the admissibility tests check it against
        enumerated answers, and the arena's bound is pinned to it
        bitwise.
        """
        tree = cand.tree
        root = cand.root
        sources = cand.sources(self.match)
        if not sources:
            return 0.0
        gen = self.scorer.generation
        d_root = self.scorer.dampening.rate(root)

        adj, tau = self._tree_transfer(tree, root)
        factors = {a: tuple((b, tau[(a, b)]) for b in adj[a]) for a in adj}
        deliver = self._deliver_factors
        gens = []
        fbar = []
        fbar_to_root_min = float("inf")
        for u in sources:
            g = gen(u)
            gens.append(g)
            delivered = deliver(factors, u, g)
            fbar.append(delivered)
            to_root = g if u == root else delivered.get(root, 0.0)
            if to_root < fbar_to_root_min:
                fbar_to_root_min = to_root

        if self.semantics == "or":
            missing: frozenset = frozenset()
        else:
            missing = self._all_keywords - cand.covered
        n_sources = len(sources)
        if missing or n_sources == 1:
            # `inside` feeds only the missing-keyword terms and the
            # lone-source fallback; skip the delivery pass otherwise.
            inside = deliver(factors, root, 1.0)
            inside[root] = 1.0
        else:
            inside = {}
        g_of = {
            k: self._best_outside_gen(k, tree.nodes, root, d_root)
            for k in missing
        }

        total = 0.0
        for i, v in enumerate(sources):
            best = float("inf")
            for j in range(n_sources):
                if j != i:
                    val = fbar[j].get(v, 0.0)
                    if val < best:
                        best = val
            if missing:
                inside_v = inside.get(v, 0.0)
                for k in missing:
                    term = g_of[k] * inside_v
                    if term < best:
                        best = term
            if best == float("inf"):
                # Lone complete source: T may equal C (score = gen(v)), or
                # gain extra sources whose deliveries bound v's new min.
                outside_best = max(
                    (
                        self._best_outside_gen(k, tree.nodes, root, d_root)
                        for k in self.match.keywords
                    ),
                    default=0.0,
                )
                best = max(gens[i], outside_best * inside.get(v, 0.0))
            total += best
        ce = total / n_sources

        pe = self._potential_estimate_reference(
            cand, fbar_to_root_min, missing
        )
        return max(ce, pe)

    # ------------------------------------------------------------- pruning

    def completion_impossible(
        self, root: int, depth: int, nodes, missing, max_diameter: int
    ) -> bool:
        """Distance-based pruning: no completion can respect the cap.

        For every missing keyword some matching node must eventually attach
        through the (current or a future) root; as shown in DESIGN.md the
        final diameter is then at least ``dist(root, En(k)) + depth(C)``,
        which is safe to test with any *lower bound* on the distance.
        Without an index only the keyword-supply test runs (the paper's
        no-index configuration has no distance information either).

        Args:
            root: the candidate's root node.
            depth: the candidate's depth (longest root-to-node path).
            nodes: the candidate's node ids (anything supporting ``in``).
            missing: the keywords the candidate does not cover — empty
                under OR semantics, where nothing is required to attach.
            max_diameter: the diameter cap ``D``.
        """
        budget = max_diameter - depth
        for keyword in missing:
            outside = [
                n for n in self.match.per_keyword.get(keyword, ())
                if n not in nodes
            ]
            if not outside:
                return True  # keyword cannot be supplied at all
            if self.index is None:
                continue
            if budget < 1 or all(
                self._index_distance(root, n) > budget for n in outside
            ):
                # attaching anything would exceed the cap
                return True
        return False
