"""The star index (Section V-B).

Only *star nodes* — nodes of the star tables — are materialized.  A star
table is one whose removal disconnects the remaining tuples; when one
table is not enough, several star tables jointly cover every edge
(every edge then touches at least one star node).  Movie is the star
table of IMDB, Paper of DBLP.

Lookups between arbitrary nodes go through the three cases of Section
V-B, using each non-star node's star neighbor set ``S(v)``:

* **Case 1** (star, star): direct index lookup.
* **Case 2** (star u, non-star v): every path enters ``v`` through a star
  neighbor, so ``dist(u, v) = min_{s in S(v)} dist(u, s) + 1``; with the
  indexed values being exact-or-lower bounds this stays a lower bound.
  (The paper conservatively uses ``DS(v_h, v_i) - 1``; the neighbor
  decomposition is tighter and equally sound — see DESIGN.md.)
* **Case 3** (non-star, non-star): decompose through both endpoints'
  star neighbors: ``min_{s_a, s_b} dist(s_a, s_b) + 2``.

Retention upper bounds decompose the same way, multiplying the boundary
dampening rates explicitly (derivation in DESIGN.md / bounds docstring).

The decomposition's inputs are tabulated once per index (at build and
at :meth:`StarIndex.restore`): each node's ``S(v)``, each star's sparse
entry table and beyond-ball fallback, and the dampening rate table, so
a lookup is a single loop over precomputed tuples.  The star×star
entries stay sparse; a dense matrix would not scale to the paper's
graphs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..exceptions import IndexingError
from ..graph.datagraph import DataGraph
from ..rwmp.dampening import DampeningModel
from .build import BuildStats, build_ball_tables, tables_to_dicts
from .loss import ball_bfs, retention_within
from .pairs import BUILD_METHODS


def find_star_relations(graph: DataGraph) -> FrozenSet[str]:
    """Detect a minimal-ish set of relations covering every edge.

    Greedy set cover over edge endpoint relations: repeatedly pick the
    relation incident to the most uncovered edges.  For the paper's
    schemas this returns exactly {"movie"} / {"paper"}.

    Raises:
        IndexingError: if the graph has nodes but covering fails (cannot
            happen — singleton relations always cover — but guards against
            inconsistent metadata).
    """
    uncovered: List[Tuple[int, int]] = []
    for node in graph.nodes():
        for target in graph.out_edges(node):
            if node < target:
                uncovered.append((node, target))
    chosen: Set[str] = set()
    while uncovered:
        counts: Dict[str, int] = {}
        for a, b in uncovered:
            counts[graph.info(a).relation] = counts.get(graph.info(a).relation, 0) + 1
            counts[graph.info(b).relation] = counts.get(graph.info(b).relation, 0) + 1
        best = max(sorted(counts), key=lambda r: counts[r])
        chosen.add(best)
        uncovered = [
            (a, b)
            for a, b in uncovered
            if graph.info(a).relation != best and graph.info(b).relation != best
        ]
        if not counts:  # pragma: no cover - defensive
            raise IndexingError("edge cover failed")
    return frozenset(chosen)


class StarIndex:
    """Distance / retention index materialized on star nodes only.

    Args:
        graph: the data graph.
        dampening: the dampening model.
        star_relations: relations to treat as star tables; autodetected
            via :func:`find_star_relations` when omitted.
        horizon: BFS horizon per star node.
        max_ball: per-node ball size valve (0 = unlimited).
        method: ``"kernel"`` (default, vectorized batch builder) or
            ``"reference"`` (per-source Python loops); both produce
            identical tables.
        workers: process count for the kernel builder; ``<= 1`` builds
            in-process (tiny graphs always do).

    The index records the graph version it was built against and every
    lookup re-checks it, so a mutated graph can never silently serve
    stale distances — rebuild (or reload) after mutating.

    Raises:
        IndexingError: when the chosen star relations do not cover every
            edge (the Case-2/3 decompositions would be unsound).
    """

    def __init__(
        self,
        graph: DataGraph,
        dampening: DampeningModel,
        star_relations: Optional[Iterable[str]] = None,
        horizon: int = 8,
        max_ball: int = 0,
        method: str = "kernel",
        workers: int = 1,
    ) -> None:
        if horizon < 1:
            raise IndexingError(f"horizon must be >= 1, got {horizon}")
        if method not in BUILD_METHODS:
            raise IndexingError(
                f"unknown build method {method!r}; use one of {BUILD_METHODS}"
            )
        self.graph = graph
        self.dampening = dampening
        self.horizon = horizon
        self.max_ball = max_ball
        self.method = method
        if star_relations is None:
            self.star_relations = find_star_relations(graph)
        else:
            self.star_relations = frozenset(r.lower() for r in star_relations)
        self._is_star = [
            graph.info(node).relation in self.star_relations
            for node in graph.nodes()
        ]
        self._verify_cover()
        self._d_max = dampening.max_rate()
        self._entries: Dict[int, Dict[int, Tuple[int, float]]] = {}
        self._radius: Dict[int, int] = {}
        self.graph_version = graph.version
        #: Counters of the last build (None for restored indexes).
        self.build_stats: Optional[BuildStats] = None
        if method == "reference":
            self._build()
        else:
            self._build_kernel(workers)
        self._build_lookup_tables()

    def _verify_cover(self) -> None:
        for node in self.graph.nodes():
            if self._is_star[node]:
                continue
            for target in self.graph.out_edges(node):
                if not self._is_star[target]:
                    raise IndexingError(
                        f"edge ({node}, {target}) touches no star node; "
                        f"star relations {sorted(self.star_relations)} do "
                        "not cover the graph"
                    )

    def _build(self) -> None:
        rate = self.dampening.rate
        for source in self.graph.nodes():
            if not self._is_star[source]:
                continue
            distances, radius = ball_bfs(
                self.graph, source, self.horizon, self.max_ball
            )
            retention = retention_within(
                self.graph, source, set(distances), rate
            )
            beyond = self._d_max ** (radius + 1)
            table: Dict[int, Tuple[int, float]] = {}
            for node, dist in distances.items():
                if node == source or not self._is_star[node]:
                    continue
                table[node] = (dist, max(retention.get(node, 0.0), beyond))
            self._entries[source] = table
            self._radius[source] = radius

    def _build_kernel(self, workers: int) -> None:
        keep = np.asarray(self._is_star, dtype=bool)
        sources = np.flatnonzero(keep)
        shards, stats = build_ball_tables(
            self.graph, self.dampening, sources, self.horizon,
            max_ball=self.max_ball, keep=keep, workers=workers,
        )
        self._entries, self._radius = tables_to_dicts(shards)
        self.build_stats = stats

    @classmethod
    def restore(
        cls,
        graph: DataGraph,
        dampening: DampeningModel,
        star_relations: Iterable[str],
        horizon: int,
        max_ball: int,
        d_max: float,
        entries: Dict[int, Dict[int, Tuple[int, float]]],
        radius: Dict[int, int],
    ) -> "StarIndex":
        """Rehydrate an index from persisted tables (no rebuild).

        The star cover is re-verified against the live graph, so a
        restored index can never serve unsound case-2/3 decompositions.
        """
        index = cls.__new__(cls)
        index.graph = graph
        index.dampening = dampening
        index.horizon = int(horizon)
        index.max_ball = int(max_ball)
        index.method = "restored"
        index.star_relations = frozenset(r.lower() for r in star_relations)
        index._is_star = [
            graph.info(node).relation in index.star_relations
            for node in graph.nodes()
        ]
        index._verify_cover()
        index._d_max = float(d_max)
        index._entries = entries
        index._radius = radius
        index.graph_version = graph.version
        index.build_stats = None
        index._build_lookup_tables()
        return index

    def _build_lookup_tables(self) -> None:
        """Per-node tables the three lookup cases read (built once).

        * ``_snbrs[v]`` — ``S(v)`` as an ascending tuple (every node);
        * ``_rows[s]`` — star ``s``'s sparse entry table (empty dict for
          non-star nodes and stars without materialized entries);
        * ``_far[s]`` / ``_beyond[s]`` — the beyond-ball fallback of
          star ``s``: distance ``radius + 1`` and retention
          ``d_max ** (radius + 1)``, exactly the values a per-pair
          lookup would derive for an unmaterialized target;
        * ``_rates`` — the dampening model's rate table.

        They are derived from the graph at :attr:`graph_version`; every
        lookup still runs :meth:`_check_fresh` first.
        """
        compiled = self.graph.compiled()
        n = self.graph.node_count
        is_star = np.asarray(self._is_star, dtype=bool)
        targets = compiled.nbr_targets
        keep = is_star[targets]
        kept_before = np.zeros(targets.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        offsets = kept_before[compiled.nbr_offsets].tolist()
        flat = targets[keep].tolist()
        self._snbrs: List[Tuple[int, ...]] = [
            tuple(flat[offsets[v]:offsets[v + 1]]) for v in range(n)
        ]
        empty: Dict[int, Tuple[int, float]] = {}
        self._rows: List[Dict[int, Tuple[int, float]]] = [empty] * n
        self._far: List[float] = [0.0] * n
        self._beyond: List[float] = [0.0] * n
        for s in range(n):
            if not self._is_star[s]:
                continue
            self._rows[s] = self._entries.get(s, empty)
            radius = self._radius.get(s, self.horizon)
            self._far[s] = float(radius + 1)
            self._beyond[s] = self._d_max ** (radius + 1)
        self._rates = self.dampening.rates

    # ----------------------------------------------------------- freshness

    def _check_fresh(self) -> None:
        if self.graph.version != self.graph_version:
            raise IndexingError(
                f"stale StarIndex: built at graph version "
                f"{self.graph_version}, graph is now at "
                f"{self.graph.version}; rebuild the index after mutating "
                "the graph"
            )

    @property
    def is_stale(self) -> bool:
        """Whether the graph has mutated since this index was built."""
        return self.graph.version != self.graph_version

    # -------------------------------------------------------- star lookups

    def is_star(self, node: int) -> bool:
        """Whether ``node`` belongs to a star table."""
        return self._is_star[node]

    def star_neighbors(self, node: int) -> List[int]:
        """``S(v)``: the star nodes directly connected to ``v``, ascending.

        Read from the table built with the index, so like every lookup
        it raises :class:`IndexingError` once the graph has mutated.
        """
        self._check_fresh()
        return list(self._snbrs[node])

    # ------------------------------------------------------------- lookups

    def distance_lower(self, u: int, v: int) -> float:
        """Lower bound on ``dist(u, v)`` via the three star-index cases.

        Cases 2 and 3 take the minimum of ``dist(a, b)`` over
        ``a in S(u)`` (or ``{u}`` for a star ``u``) and ``b in S(v)`` (or
        ``{v}``), then add one per non-star endpoint.  A pair the star
        ``a`` did not materialize reads ``a``'s beyond-ball distance.
        """
        self._check_fresh()
        if u == v:
            return 0.0
        u_star = self._is_star[u]
        v_star = self._is_star[v]
        if u_star:
            if v_star:
                entry = self._rows[u].get(v)
                return float(entry[0]) if entry is not None else self._far[u]
            su = (u,)
            sv = self._snbrs[v]
            hops = 1
        else:
            su = self._snbrs[u]
            sv = (v,) if v_star else self._snbrs[v]
            hops = 1 if v_star else 2
        if not su or not sv:
            return float("inf")
        rows = self._rows
        far = self._far
        best = float("inf")
        for a in su:
            row = rows[a]
            for b in sv:
                if a == b:
                    dist = 0.0
                else:
                    entry = row.get(b)
                    dist = float(entry[0]) if entry is not None else far[a]
                if dist < best:
                    best = dist
        return best + hops

    def retention_upper(self, u: int, v: int) -> float:
        """Upper bound on best-path retention via the three cases.

        Cases 2 and 3 take the maximum of ``d_a * ret(a, b)`` over the
        same star pairs as :meth:`distance_lower` (``d_a`` only when
        ``u`` is non-star, since the path then passes through ``a``),
        then multiply by ``d_v`` for a non-star ``v``.
        """
        self._check_fresh()
        if u == v:
            return 1.0
        u_star = self._is_star[u]
        v_star = self._is_star[v]
        rates = self._rates
        if u_star:
            if v_star:
                entry = self._rows[u].get(v)
                return entry[1] if entry is not None else self._beyond[u]
            sv = self._snbrs[v]
            if not sv:
                return 0.0
            row = self._rows[u]
            best = 0.0
            for b in sv:
                if b == u:
                    ret = 1.0
                else:
                    entry = row.get(b)
                    ret = entry[1] if entry is not None else self._beyond[u]
                if ret > best:
                    best = ret
            return best * rates[v]
        su = self._snbrs[u]
        sv = (v,) if v_star else self._snbrs[v]
        if not su or not sv:
            return 0.0
        rows = self._rows
        beyond = self._beyond
        best = 0.0
        for a in su:
            row = rows[a]
            d_a = rates[a]
            for b in sv:
                if a == b:
                    ret = 1.0
                else:
                    entry = row.get(b)
                    ret = entry[1] if entry is not None else beyond[a]
                value = d_a * ret
                if value > best:
                    best = value
        return best if v_star else best * rates[v]

    # ---------------------------------------------------------- inspection

    @property
    def entry_count(self) -> int:
        """Number of materialized (star, star) entries."""
        return sum(len(table) for table in self._entries.values())

    @property
    def star_node_count(self) -> int:
        """Number of star nodes."""
        return sum(1 for flag in self._is_star if flag)
