"""Flat candidate arena: columnar storage for the lazy search loop.

The lazy search admits far more candidates than it ever tightens, so
per-candidate *admission* cost — object allocation, tuple maintenance,
transfer maps — would dominate the search phase.  The search therefore
keeps its candidates in a **flat arena**: one :class:`CandidateArena`
per search run holding every candidate as a row across parallel
``array('q')``/``array('d')`` columns (zero-copy viewable as numpy
arrays via :meth:`CandidateArena.column`), indexed by an integer
candidate id.

Layout
------

Scalar columns (one entry per candidate): ``root``, ``depth``,
``diameter``, ``ub`` (latest admissible bound, cheap or tight),
``parent`` / ``partner`` (provenance: the grow parent, or both merge
operands), and the CSR descriptors below.  Set-valued state lives in
shared pools addressed by ``(start, len)`` slices:

* ``node_pool`` — ascending node ids (``node_start``/``node_len``);
* ``edge_pool`` — ascending packed edge codes ``(min << 32) | max``
  (``edge_start``/``edge_len``); sorting codes equals sorting canonical
  ``(a, b)`` tuples, so slices merge with integer comparisons only;
* ``src_pool`` — ascending non-free node ids (``src_start``/``src_len``);
* ``fmap_pool`` — per-node *factor-list ids*, parallel to the node
  slice (``fmap_start``, sentinel ``-1`` until the candidate is
  tightened); a factor-list id indexes the global
  ``flist_start``/``flist_len``/``flist_nbr``/``flist_tau`` table, so
  the bound's delivery passes iterate contiguous arrays instead of
  dict-of-tuples.  Structural sharing becomes *index reuse*: a grow
  child re-points at the parent's factor lists for every node except
  the old and new root, and a merge concatenates only the shared
  root's list.

Two Python-list side columns carry the per-candidate ``cover`` bitmask
(arbitrary keyword count) and the memoized little-endian byte images of
the node/edge slices, used both as dedup signatures and as heap-key
tie-break components (bytes compare lexicographically — a total order
over admitted candidates).

Admission decides on the component lists before anything is stored:
the signature dedup, the answer check, the distance prune and the
cheap bound with its Lemma-1 prune all read the candidate's ascending
node/edge/source lists (and the byte images the dedup signature needs
anyway), and only a survivor is appended as a row.  The one exception
is the initial single-node candidates, whose admission bound is the
full ``ce/pe`` bound that :func:`arena_snapshots`' ``tighten`` computes
from a stored row: they are appended at a :meth:`CandidateArena.mark`
and reclaimed by :meth:`CandidateArena.rollback` when Lemma 1 prunes
them.  Only the arena *top* is ever rolled back — parents and merge
partners are always older, already-tightened rows — so no live heap
entry or merge-partner list can reference a reclaimed region (asserted
when ``BranchAndBoundSearch._debug_validate`` is set).

The factor lists of a candidate are **deferred**: they are built at
tighten time from the parent's lists (parents and merge operands are
always tightened before they expand, so their lists exist), which keeps
the admit path free of per-node float work; the full bound itself is
:meth:`~repro.search.bounds.UpperBoundEstimator.arena_bound`.
Admit-time bounding uses the inherited parent bound capped by
:meth:`~repro.search.bounds.UpperBoundEstimator.admit_cap` — the
index-assisted completion cap (docs/ALGORITHMS.md §2.8).

See docs/PERFORMANCE.md §9 for the measured memory-per-candidate and
admission-throughput effects.
"""

from __future__ import annotations

import heapq
import time
from array import array
from bisect import insort
from typing import Dict, List, Optional, Tuple

from ..model.answer import RankedAnswer, RankedList

#: Sentinel for "no candidate" in the parent/partner columns and for a
#: not-yet-built factor map in ``fmap_start``.
NO_ID = -1

_LOW32 = 0xFFFFFFFF

#: Approximate CPython overhead charged per ``cover`` list entry in
#: :meth:`CandidateArena.nbytes` (small-int object + list slot).
_COVER_SLOT_BYTES = 36

#: Bytes :meth:`CandidateArena.nbytes` charges per row: the 12 int64
#: scalar columns and the ``ub`` float64 column, plus the cover slot.
_ROW_BYTES = 13 * 8 + _COVER_SLOT_BYTES


def _keyword_mask(node_masks: Dict[int, int], node: int) -> int:
    """Keyword-coverage bitmask of one node.

    Module-level (rather than inlined in the engine) so the arena
    mutation tests can corrupt coverage bookkeeping on purpose and
    prove the differential harness notices a damaged cover slice.
    """
    return node_masks.get(node, 0)


def pack_edge(a: int, b: int) -> int:
    """Canonical undirected edge packed into one int64 code."""
    return (a << 32) | b if a <= b else (b << 32) | a


def unpack_edge(code: int) -> Tuple[int, int]:
    """The canonical ``(min, max)`` endpoints of a packed edge code."""
    return code >> 32, code & _LOW32


def _merge_sorted(a, b, dedup: bool = False) -> Tuple[List[int], int]:
    """Linear merge of two ascending int sequences.

    Returns ``(merged, shared)`` where ``shared`` counts values present
    in both inputs; with ``dedup`` those values appear once in the
    output (the merge operator's node/source union), otherwise twice
    (never used on overlapping inputs here).
    """
    out: List[int] = []
    i = j = 0
    la, lb = len(a), len(b)
    shared = 0
    while i < la and j < lb:
        x = a[i]
        y = b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            shared += 1
            out.append(x)
            i += 1
            if dedup:
                j += 1
            else:
                out.append(y)
                j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out, shared


class CandidateArena:
    """Columnar candidate storage for one search run (see module doc).

    All columns and pools are typed ``array`` buffers (``'q'`` int64 /
    ``'d'`` float64); :meth:`column` exposes any of them as a zero-copy
    numpy view for offline analysis and the CLI's ``--stats`` section.
    """

    #: int64 scalar columns, one entry per candidate.
    _INT_COLUMNS = (
        "root", "depth", "diameter", "parent", "partner",
        "node_start", "node_len", "edge_start", "edge_len",
        "src_start", "src_len", "fmap_start",
    )
    #: Shared int64 pools addressed by the CSR descriptors above.
    _INT_POOLS = (
        "node_pool", "edge_pool", "src_pool", "fmap_pool",
        "flist_start", "flist_len", "flist_nbr",
    )
    _FLOAT_ARRAYS = ("ub", "flist_tau")

    __slots__ = (
        _INT_COLUMNS + _INT_POOLS + _FLOAT_ARRAYS
        + ("cover", "node_bytes", "edge_bytes",
           "peak_bytes", "rollbacks", "_sig_bytes")
    )

    def __init__(self) -> None:
        for name in self._INT_COLUMNS + self._INT_POOLS:
            setattr(self, name, array("q"))
        for name in self._FLOAT_ARRAYS:
            setattr(self, name, array("d"))
        #: Per-candidate keyword-coverage bitmask (arbitrary precision).
        self.cover: List[int] = []
        #: Little-endian byte images of the node/edge slices — dedup
        #: signatures and heap-key tie-break components.
        self.node_bytes: List[bytes] = []
        self.edge_bytes: List[bytes] = []
        #: High-water mark of :meth:`nbytes` across the run.
        self.peak_bytes = 0
        #: Rollbacks performed (duplicate or pruned admissions).
        self.rollbacks = 0
        self._sig_bytes = 0

    # ------------------------------------------------------------ shape

    def __len__(self) -> int:
        """Number of live candidates (also the next candidate id)."""
        return len(self.root)

    def nbytes(self) -> int:
        """Approximate bytes held by all columns and pools, O(1).

        Every scalar column holds one entry per row, and the factor-list
        table's ``flist_start``/``flist_len`` and ``flist_nbr``/
        ``flist_tau`` pairs stay equal in length, so the sum over all
        columns and pools closes over five lengths.
        """
        return (
            self._sig_bytes
            + _ROW_BYTES * len(self.root)
            + 8 * (
                len(self.node_pool) + len(self.edge_pool)
                + len(self.src_pool) + len(self.fmap_pool)
                + 2 * len(self.flist_start) + 2 * len(self.flist_nbr)
            )
        )

    def column(self, name: str):
        """Zero-copy numpy view of one column or pool.

        The view aliases the live buffer: valid until the next append
        (array growth may reallocate), which is fine for the post-run
        analysis it exists for.
        """
        import numpy as np

        arr = getattr(self, name)
        if not isinstance(arr, array):
            raise TypeError(f"{name} is not an array column")
        dtype = np.int64 if arr.typecode == "q" else np.float64
        if len(arr) == 0:
            return np.empty(0, dtype=dtype)
        return np.frombuffer(arr, dtype=dtype)

    # ------------------------------------------------------- candidates

    def append_candidate(
        self,
        root: int,
        depth: int,
        diameter: int,
        nodes,
        edge_codes,
        srcs,
        cover: int,
        parent: int = NO_ID,
        partner: int = NO_ID,
        node_bytes: Optional[bytes] = None,
        edge_bytes: Optional[bytes] = None,
    ) -> int:
        """Append one candidate row; returns its id.

        ``nodes``/``edge_codes``/``srcs`` must be ascending.  A caller
        that already holds the ``array("q")`` byte images of the node
        and edge lists (the engine's dedup signature) passes them as
        ``node_bytes``/``edge_bytes`` and the pools are filled from them
        instead of encoding the lists again.  The bound column starts at
        0.0 and the factor map unbuilt (``-1``); the engine fills both.
        """
        nb = array("q", nodes).tobytes() if node_bytes is None else node_bytes
        eb = (
            array("q", edge_codes).tobytes() if edge_bytes is None
            else edge_bytes
        )
        ns = len(self.node_pool)
        self.node_pool.frombytes(nb)
        es = len(self.edge_pool)
        self.edge_pool.frombytes(eb)
        ss = len(self.src_pool)
        self.src_pool.extend(srcs)
        cid = len(self.root)
        self.root.append(root)
        self.depth.append(depth)
        self.diameter.append(diameter)
        self.parent.append(parent)
        self.partner.append(partner)
        self.node_start.append(ns)
        self.node_len.append(len(nb) >> 3)
        self.edge_start.append(es)
        self.edge_len.append(len(eb) >> 3)
        self.src_start.append(ss)
        self.src_len.append(len(srcs))
        self.fmap_start.append(NO_ID)
        self.ub.append(0.0)
        self.cover.append(cover)
        self.node_bytes.append(nb)
        self.edge_bytes.append(eb)
        self._sig_bytes += len(nb) + len(eb)
        size = self.nbytes()
        if size > self.peak_bytes:
            self.peak_bytes = size
        return cid

    def nodes_of(self, cid: int):
        """The ascending node-id slice of one candidate (a fresh array)."""
        start = self.node_start[cid]
        return self.node_pool[start:start + self.node_len[cid]]

    def edges_of(self, cid: int):
        """The ascending packed-edge slice of one candidate."""
        start = self.edge_start[cid]
        return self.edge_pool[start:start + self.edge_len[cid]]

    def sources_of(self, cid: int):
        """The ascending non-free-node slice of one candidate."""
        start = self.src_start[cid]
        return self.src_pool[start:start + self.src_len[cid]]

    # ----------------------------------------------------- factor lists

    def add_flist(self, nbrs, taus) -> int:
        """Append one factor list ``(neighbors, transfer factors)``."""
        fid = len(self.flist_start)
        self.flist_start.append(len(self.flist_nbr))
        self.flist_len.append(len(nbrs))
        self.flist_nbr.extend(nbrs)
        self.flist_tau.extend(taus)
        return fid

    def set_fmap(self, cid: int, flist_ids) -> None:
        """Attach the per-node factor-list ids (parallel to the node
        slice) of one candidate."""
        start = len(self.fmap_pool)
        self.fmap_pool.extend(flist_ids)
        self.fmap_start[cid] = start

    def fmap_of(self, cid: int) -> Dict[int, int]:
        """``node -> factor-list id`` for one tightened candidate."""
        ns = self.node_start[cid]
        nl = self.node_len[cid]
        fs = self.fmap_start[cid]
        return dict(zip(
            self.node_pool[ns:ns + nl], self.fmap_pool[fs:fs + nl]
        ))

    # -------------------------------------------------- mark / rollback

    def mark(self) -> Tuple[int, ...]:
        """Snapshot of every column/pool length, for :meth:`rollback`."""
        return (
            len(self.root),
            len(self.node_pool),
            len(self.edge_pool),
            len(self.src_pool),
            len(self.fmap_pool),
            len(self.flist_start),
            len(self.flist_nbr),
            self._sig_bytes,
        )

    def rollback(self, mark: Tuple[int, ...]) -> None:
        """Reclaim every row and pool entry appended since ``mark``.

        Safe by construction in the engine: only the admission in
        progress (the arena top) is ever rolled back, so no live heap
        entry or merge-partner id can point into the reclaimed region.
        """
        n, np_, ep, sp, fp, fls, fln, sig = mark
        for name in self._INT_COLUMNS:
            arr = getattr(self, name)
            del arr[n:]
        del self.ub[n:]
        del self.cover[n:]
        del self.node_bytes[n:]
        del self.edge_bytes[n:]
        del self.node_pool[np_:]
        del self.edge_pool[ep:]
        del self.src_pool[sp:]
        del self.fmap_pool[fp:]
        del self.flist_start[fls:]
        del self.flist_len[fls:]
        del self.flist_nbr[fln:]
        del self.flist_tau[fln:]
        self._sig_bytes = sig
        self.rollbacks += 1


def arena_snapshots(search, heartbeat: int = 0):
    """The lazy search loop (Algorithm 1) over arena rows.

    The body of :meth:`BranchAndBoundSearch.snapshots`, with its exact
    contract (including the ``heartbeat`` cadence for deadline-bounded
    consumers).  Admission runs in a fixed order — diameter prune,
    signature dedup, answer offer, distance prune, bound, Lemma-1
    prune, registration, push — followed by the stop rule, head
    tightening, re-push and merge-partner discipline described in
    :mod:`repro.search.branch_and_bound`.  Heap entries carry integer
    candidate ids; the returned top-k equals the exhaustive oracle's up
    to tie classes (pinned by the differential harness).
    """
    from .branch_and_bound import AnytimeSnapshot

    params = search.params
    stats = search.stats
    match = search.match
    scorer = search.scorer
    bounds = search.bounds
    graph = search.graph
    compiled = search._compiled
    rates = scorer.dampening.rates
    semantics = params.semantics
    max_diameter = params.diameter
    strict = params.strict_merge
    debug = search._debug_validate
    cheap_bound = search._cheap_bound
    admit_cap = bounds.admit_cap
    full_bound = bounds.arena_bound
    completion_impossible = bounds.completion_impossible
    perf = time.perf_counter

    keywords = list(match.keywords)
    kw_bit = {k: 1 << i for i, k in enumerate(keywords)}
    node_masks: Dict[int, int] = {}
    for node, kws in match.keywords_of.items():
        m = 0
        for k in kws:
            m |= kw_bit[k]
        node_masks[node] = m
    all_mask = (1 << len(keywords)) - 1
    #: cover mask -> tuple of missing keywords, in ``match.keywords``
    #: order (deterministic, unlike frozenset iteration).
    missing_memo: Dict[int, Tuple[str, ...]] = {}

    def missing_of(cover: int) -> Tuple[str, ...]:
        got = missing_memo.get(cover)
        if got is None:
            got = tuple(k for k in keywords if not (cover & kw_bit[k]))
            missing_memo[cover] = got
        return got

    arena = CandidateArena()
    search.last_arena = arena
    search.last_proven = False
    top_k = RankedList(params.k)
    heap: List = []
    seen = set()
    by_root: Dict[int, List[int]] = {}

    def check_live() -> None:
        """Debug invariant: no live reference into a rolled-back region."""
        n = len(arena)
        assert all(entry[2] < n for entry in heap), (
            "heap entry references a rolled-back arena region"
        )
        assert all(c < n for lst in by_root.values() for c in lst), (
            "merge-partner list references a rolled-back arena region"
        )
        assert len(arena.node_bytes) == n and len(arena.cover) == n

    def materialize(node_list, edge_codes):
        """A trusted :class:`JoinedTupleTree` of one candidate.

        Built from the candidate's component lists, before (or without)
        an arena row.  Treeness is guaranteed by construction (grow
        attaches a leaf, merge unions at the shared root), exactly the
        cases the trusted constructor exists for.
        """
        from ..model.jtt import JoinedTupleTree

        nodes = frozenset(node_list)
        adj: Dict[int, List[int]] = {n: [] for n in nodes}
        edges = set()
        for code in edge_codes:
            a = code >> 32
            b = code & _LOW32
            edges.add((a, b))
            adj[a].append(b)
            adj[b].append(a)
        return JoinedTupleTree._trusted(
            nodes, frozenset(edges),
            {n: frozenset(s) for n, s in adj.items()},
        )

    # ------------------------------------------------------- tightening

    def build_fmap(cid: int) -> None:
        """Construct the deferred factor lists of one candidate.

        Parents and merge operands are always tightened before they
        expand, so their factor maps exist; only the root(s) whose
        neighborhoods changed get fresh lists — every other node
        re-points at the parent's list (structural sharing as index
        reuse).
        """
        parent = arena.parent[cid]
        partner = arena.partner[cid]
        root = arena.root[cid]
        nodes = arena.nodes_of(cid)
        if parent == NO_ID:
            # Initial single-node candidate: one empty factor list.
            arena.set_fmap(cid, [arena.add_flist((), ())])
            return
        pf = arena.fmap_of(parent)
        if partner != NO_ID:
            # Merge: the shared root's list is the concatenation of
            # both operands' (each already split-freed); every other
            # node keeps its frozen neighborhood.
            qf = arena.fmap_of(partner)
            fa = pf[root]
            fb = qf[root]
            sa = arena.flist_start[fa]
            sb = arena.flist_start[fb]
            la = arena.flist_len[fa]
            lb = arena.flist_len[fb]
            root_fid = arena.add_flist(
                arena.flist_nbr[sa:sa + la] + arena.flist_nbr[sb:sb + lb],
                arena.flist_tau[sa:sa + la] + arena.flist_tau[sb:sb + lb],
            )
            arena.set_fmap(cid, [
                root_fid if n == root else pf[n] if n in pf else qf[n]
                for n in nodes
            ])
            return
        # Grow: the old root's split denominator gains the new edge, and
        # the new root gets its one-entry list.
        old_root = arena.root[parent]
        old_fid = pf[old_root]
        fs = arena.flist_start[old_fid]
        fl = arena.flist_len[old_fid]
        nbrs = list(arena.flist_nbr[fs:fs + fl])
        insort(nbrs, root)
        out = graph.out_edges(old_root)
        den = 0.0
        for b in nbrs:
            den += out.get(b, 0.0)
        if den > 0.0:
            taus = [out.get(b, 0.0) / den * rates[b] for b in nbrs]
        else:
            taus = [0.0] * len(nbrs)
        new_old = arena.add_flist(nbrs, taus)
        new_root = arena.add_flist((old_root,), (rates[old_root],))
        arena.set_fmap(cid, [
            new_root if n == root
            else new_old if n == old_root
            else pf[n]
            for n in nodes
        ])

    def tighten(cid: int) -> float:
        """The full ``ce/pe`` bound of one row, stored as its ``ub``.

        Deferred factor lists are built here first.  Untimed: the caller
        books it as ``bound_seconds`` (admission) or ``tighten_seconds``
        (heap head).
        """
        if arena.fmap_start[cid] == NO_ID:
            build_fmap(cid)
        ub = full_bound(
            arena, cid,
            () if semantics == "or" else missing_of(arena.cover[cid]),
        )
        arena.ub[cid] = ub
        stats.bound_evals += 1
        return ub

    # -------------------------------------------------------- admission

    def admit(root, depth, diameter, nodes, edge_codes, srcs, cover,
              parent, partner, inherited):
        """Admit one candidate built from ascending component lists.

        ``inherited`` is None for the tight-bounded initial candidates
        and the parents' latest bound otherwise.  Every decision
        up to the Lemma-1 prune reads the component lists, so only a
        surviving candidate is appended; an initial candidate is
        appended first (``tighten`` bounds a stored row) and rolled back
        if pruned.  Returns the new candidate id, or None when pruned or
        duplicate.
        """
        stats.generated += 1
        if diameter > max_diameter:
            stats.pruned_diameter += 1
            return None
        nb = array("q", nodes).tobytes()
        eb = array("q", edge_codes).tobytes()
        sig = (root, nb, eb)
        if sig in seen:
            return None
        seen.add(sig)
        if semantics == "or" or cover == all_mask:
            # Answer check: complete (per semantics) and reduced —
            # every tree leaf covers a keyword.  Degrees come straight
            # from the edge list.
            if len(nodes) == 1:
                reduced = _keyword_mask(node_masks, nodes[0]) != 0
            else:
                deg: Dict[int, int] = {}
                for code in edge_codes:
                    a = code >> 32
                    b = code & _LOW32
                    deg[a] = deg.get(a, 0) + 1
                    deg[b] = deg.get(b, 0) + 1
                reduced = all(
                    deg[n] > 1 or _keyword_mask(node_masks, n)
                    for n in nodes
                )
            if reduced:
                t0 = perf()
                tree = materialize(nodes, edge_codes)
                answer = RankedAnswer(tree, scorer.score(tree))
                stats.score_seconds += perf() - t0
                stats.answers_found += 1
                top_k.offer(answer)
        missing = () if semantics == "or" else missing_of(cover)
        if missing and completion_impossible(
            root, depth, nodes, missing, max_diameter
        ):
            stats.pruned_distance += 1
            return None
        if inherited is not None:
            t0 = perf()
            ub = cheap_bound(inherited)
            if missing:
                cap = admit_cap(root, missing, srcs)
                if cap < ub:
                    ub = cap
                    stats.admit_capped += 1
            stats.cheap_bound_seconds += perf() - t0
            stats.cheap_admissions += 1
            if top_k.full and ub <= top_k.min_score():
                # Lemma 1: nothing expandable from this candidate can
                # beat the kept top-k (its signature stays in `seen`).
                stats.pruned_bound += 1
                return None
            cid = arena.append_candidate(
                root, depth, diameter, nodes, edge_codes, srcs, cover,
                parent, partner, node_bytes=nb, edge_bytes=eb,
            )
            arena.ub[cid] = ub
            tight = False
        else:
            # Initial candidate: its tight bound reads a stored row, so
            # append first and roll back if Lemma 1 prunes it.
            mark = arena.mark()
            cid = arena.append_candidate(
                root, depth, diameter, nodes, edge_codes, srcs, cover,
                parent, partner, node_bytes=nb, edge_bytes=eb,
            )
            t0 = perf()
            ub = tighten(cid)
            stats.bound_seconds += perf() - t0
            if top_k.full and ub <= top_k.min_score():
                stats.pruned_bound += 1
                arena.rollback(mark)
                if debug:
                    check_live()
                return None
            by_root.setdefault(root, []).append(cid)
            tight = True
        heapq.heappush(heap, (
            (-ub, len(nodes), nb, root, eb),
            tight, cid,
        ))
        stats.enqueued += 1
        return cid

    # -------------------------------------------------------- expansion

    def expand(cid: int) -> None:
        """Grows and merges of one tightened row (lazy discipline)."""
        root = arena.root[cid]
        depth = arena.depth[cid]
        diam = arena.diameter[cid]
        parent_ub = arena.ub[cid]
        nodes = list(arena.nodes_of(cid))
        node_set = set(nodes)
        cover = arena.cover[cid]
        if depth + 1 <= max_diameter:
            edges = arena.edges_of(cid)
            srcs = arena.sources_of(cid)
            for neighbor in compiled.neighbors(root):
                if neighbor in node_set:
                    continue
                child_nodes = list(nodes)
                insort(child_nodes, neighbor)
                child_edges = list(edges)
                insort(child_edges, pack_edge(root, neighbor))
                nmask = _keyword_mask(node_masks, neighbor)
                if nmask:
                    child_srcs = list(srcs)
                    insort(child_srcs, neighbor)
                else:
                    child_srcs = srcs
                admit(
                    neighbor, depth + 1, max(diam, depth + 1),
                    child_nodes, child_edges, child_srcs,
                    cover | nmask, cid, NO_ID, parent_ub,
                )
        for partner in list(by_root.get(root, ())):
            if partner == cid:
                continue
            p_depth = arena.depth[partner]
            if depth + p_depth > max_diameter:
                # the merged tree would break the cap; skip before
                # paying for the union construction
                stats.generated += 1
                stats.pruned_diameter += 1
                continue
            p_cover = arena.cover[partner]
            merged_cover = cover | p_cover
            if strict and (
                merged_cover == cover or merged_cover == p_cover
            ):
                continue
            merged_nodes, shared = _merge_sorted(
                nodes, arena.nodes_of(partner), dedup=True
            )
            if shared != 1:
                continue  # operands overlap beyond the shared root
            merged_edges, _ = _merge_sorted(
                arena.edges_of(cid), arena.edges_of(partner)
            )
            merged_srcs, _ = _merge_sorted(
                arena.sources_of(cid), arena.sources_of(partner),
                dedup=True,
            )
            admit(
                root, max(depth, p_depth),
                max(diam, arena.diameter[partner], depth + p_depth),
                merged_nodes, merged_edges, merged_srcs, merged_cover,
                cid, partner, min(parent_ub, arena.ub[partner]),
            )

    # -------------------------------------------------------- main loop

    for node in sorted(match.all_nodes):
        admit(
            node, 0, 0, [node], [], [node],
            _keyword_mask(node_masks, node), NO_ID, NO_ID, None,
        )

    last_revision = -1
    proven = True
    frontier = float("-inf")
    ticks = 0
    try:
        while heap:
            key, tight, cid = heapq.heappop(heap)
            ub = -key[0]
            if top_k.full and ub <= top_k.min_score():
                stats.stopped_early = True
                frontier = ub
                break
            if (
                params.max_candidates
                and stats.expanded >= params.max_candidates
            ):
                proven = False
                frontier = ub
                break
            ticks += 1
            if heartbeat and ticks % heartbeat == 0:
                # Heartbeat snapshot (see BranchAndBoundSearch.snapshots):
                # the head's bound admissibly caps everything undiscovered.
                stats.snapshots_yielded += 1
                yield AnytimeSnapshot(
                    answers=top_k.as_list(),
                    frontier_bound=ub,
                    proven_optimal=False,
                )
            if not tight:
                t0 = perf()
                ub = tighten(cid)
                stats.tighten_seconds += perf() - t0
                stats.tightened += 1
                if top_k.full and ub <= top_k.min_score():
                    stats.pruned_bound += 1
                    continue
                by_root.setdefault(arena.root[cid], []).append(cid)
                if heap and ub < -heap[0][0][0]:
                    heapq.heappush(
                        heap, ((-ub,) + key[1:], True, cid)
                    )
                    stats.repushed += 1
                    continue
            if top_k.revision != last_revision:
                last_revision = top_k.revision
                stats.snapshots_yielded += 1
                yield AnytimeSnapshot(
                    answers=top_k.as_list(),
                    frontier_bound=ub,
                    proven_optimal=False,
                )
            stats.expanded += 1
            # Self time: the admissions expand() triggers book their
            # own timers, subtracted here so the phase timers stay
            # disjoint.
            nested = stats.admission_seconds()
            t0 = perf()
            expand(cid)
            stats.expand_seconds += perf() - t0 - (
                stats.admission_seconds() - nested
            )
    finally:
        # Published in a finally so a consumer that closes the generator
        # at a yield (every deadline hit) still reports the arena's size.
        stats.arena_candidates = len(arena)
        stats.arena_peak_bytes = arena.peak_bytes
        stats.arena_rollbacks = arena.rollbacks

    search.last_proven = proven
    stats.snapshots_yielded += 1
    yield AnytimeSnapshot(
        answers=top_k.as_list(),
        frontier_bound=frontier,
        proven_optimal=proven,
    )
