"""Candidate trees and the grow/merge expansion operators (Section IV-B).

A candidate tree ``C(v_i)`` is a rooted tree covering at least one query
keyword.  The two expansion operators come from Ding et al.'s dynamic
programming:

* **grow** — a neighbor ``v_j ∉ C`` of the root becomes the new root with
  the old tree as its single child;
* **merge** — two candidates with the same root and otherwise disjoint
  node sets are unioned.

These operators maintain the key invariant the upper bounds rely on: once
a node stops being the root, its tree neighborhood is frozen — any later
expansion attaches only at the current root.

The paper's merge precondition ("the result covers more keywords than
either") is optional (``strict``): DESIGN.md explains why the permissive
variant is required for completeness over Definition-3 answers.

The search itself keeps candidates as rows of a flat arena
(:mod:`repro.search.arena`).  :class:`CandidateTree` is the validating
object form that the reference bound
(:meth:`~repro.search.bounds.UpperBoundEstimator.upper_bound`) and the
admissibility tests work on; :meth:`CandidateTree.from_arena` rebuilds
one from an arena row.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from ..exceptions import SearchError
from ..model.jtt import JoinedTupleTree
from ..text.matcher import MatchSets


class CandidateTree:
    """An immutable rooted candidate tree.

    Attributes:
        tree: the underlying (rootless) tree.
        root: the root node id.
        depth: maximum root-to-node distance.
        diameter: the tree's diameter (maintained incrementally).
        covered: keywords covered by the tree's nodes.
    """

    __slots__ = ("tree", "root", "depth", "diameter", "covered", "_sources")

    def __init__(
        self,
        tree: JoinedTupleTree,
        root: int,
        depth: int,
        diameter: int,
        covered: FrozenSet[str],
    ) -> None:
        if root not in tree.nodes:
            raise SearchError(f"root {root} not in candidate tree")
        self.tree = tree
        self.root = root
        self.depth = depth
        self.diameter = diameter
        self.covered = covered
        self._sources: Optional[Tuple[int, ...]] = None

    # -------------------------------------------------------- construction

    @classmethod
    def initial(cls, node: int, match: MatchSets) -> "CandidateTree":
        """The single-node candidate for a non-free node."""
        keywords = match.keywords_of.get(node)
        if not keywords:
            raise SearchError(
                f"initial candidates must be non-free nodes, got {node}"
            )
        return cls(JoinedTupleTree.single(node), node, 0, 0, keywords)

    @classmethod
    def from_arena(cls, arena, cid: int, match: MatchSets) -> "CandidateTree":
        """Rebuild a validating candidate from one arena row.

        The node/edge slices of :class:`~repro.search.arena.CandidateArena`
        row ``cid`` run through the *validating* tree constructor and
        coverage is recomputed from the match sets — the arena's factor
        lists and cover masks are exactly what this constructor does
        **not** trust.
        """
        nodes = list(arena.nodes_of(cid))
        edges = [
            (code >> 32, code & 0xFFFFFFFF) for code in arena.edges_of(cid)
        ]
        tree = JoinedTupleTree(nodes, edges)
        return cls(
            tree,
            arena.root[cid],
            arena.depth[cid],
            arena.diameter[cid],
            match.covered_by(tree.nodes),
        )

    def grow(self, new_root: int, match: MatchSets) -> "CandidateTree":
        """Tree growing: ``new_root`` adopts this tree as its only child.

        The caller is responsible for checking graph adjacency between
        ``new_root`` and the current root; this method checks only
        tree-level validity.
        """
        if new_root in self.tree.nodes:
            raise SearchError(f"grow target {new_root} already in tree")
        tree = self.tree.with_edge(self.root, new_root)
        depth = self.depth + 1
        covered = self.covered | match.keywords_of.get(new_root, frozenset())
        return CandidateTree(
            tree, new_root, depth, max(self.diameter, depth), covered
        )

    def merge(
        self,
        other: "CandidateTree",
        strict: bool = False,
    ) -> Optional["CandidateTree"]:
        """Tree merging; returns None when the merge is not permitted.

        Permitted when both candidates share the root, their node sets are
        otherwise disjoint (the paper's cycle "sanity check"), and — in
        strict mode — the union covers strictly more keywords than either
        operand.
        """
        if self.root != other.root:
            return None
        if self.tree.nodes & other.tree.nodes != {self.root}:
            return None
        covered = self.covered | other.covered
        if strict and (covered == self.covered or covered == other.covered):
            return None
        diameter = max(
            self.diameter, other.diameter, self.depth + other.depth
        )
        return CandidateTree(
            self.tree.union(other.tree), self.root,
            max(self.depth, other.depth), diameter, covered,
        )

    # ------------------------------------------------------------ queries

    def sources(self, match: MatchSets) -> Tuple[int, ...]:
        """Ascending non-free (keyword-covering) nodes, memoized."""
        cached = self._sources
        if cached is None:
            cached = tuple(self.tree.non_free_nodes(match))
            self._sources = cached
        return cached

    def is_complete(self, match: MatchSets) -> bool:
        """Covers every query keyword."""
        return self.covered == frozenset(match.keywords)

    def is_answer(
        self,
        match: MatchSets,
        max_diameter: int,
        semantics: str = "and",
    ) -> bool:
        """Answer validity: coverage per semantics, reduced, within cap.

        Under the paper's AND semantics every keyword must be covered
        (Definition 3); under OR semantics any non-empty coverage counts
        (candidates always cover at least one keyword).
        """
        if semantics == "and" and not self.is_complete(match):
            return False
        return (
            self.diameter <= max_diameter
            and self.tree.is_reduced(match)
        )

    def __len__(self) -> int:
        return len(self.tree.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Candidate(root={self.root}, nodes={sorted(self.tree.nodes)}, "
            f"covered={sorted(self.covered)})"
        )
