"""Answer checks applied to every response of a run.

The load generator holds a deployment built exactly like the daemon's
and checks each ``POST /search`` document against it:

* at most k answers, sorted by score;
* each answer, rebuilt as ``JoinedTupleTree(nodes, edges)``, passes
  ``validate_answer(graph, match, D)``;
* each score matches the independent path-product scorer
  ``oracle_tree_score`` within ``SCORE_RTOL``;
* the labels are consistent: a deadline-hit response is not proven, a
  proven one has gap 0, and an unproven one has ``gap >= 0`` or ``null``
  when it has no answers;
* a proven response chosen for a reference check is tie-class identical
  to a direct ``CIRankSystem.search``.

Each check returns ``None`` or the reason the response fails.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.exceptions import ReproError
from repro.model.jtt import JoinedTupleTree
from repro.obs.replay import tie_classes_direct, tie_classes_wire
from repro.testing.oracles import SCORE_RTOL, oracle_tree_score


class AnswerChecker:
    """Checks response documents against a locally built deployment."""

    def __init__(self, system, k: int, diameter: int) -> None:
        self.system = system
        self.k = k
        self.diameter = diameter
        self._matches: Dict[str, object] = {}
        self._references: Dict[str, list] = {}

    def match(self, text: str):
        """Match sets of a query on the local deployment (memoized)."""
        match = self._matches.get(text)
        if match is None:
            match = self._matches[text] = self.system.matcher.match(text)
        return match

    def answers(self, text: str, doc: dict) -> Optional[str]:
        """Count, order, Definition-3 validity and oracle score."""
        answers = doc.get("answers")
        if not isinstance(answers, list):
            return "no answer list"
        if len(answers) > self.k:
            return f"{len(answers)} answers for k={self.k}"
        scores = [a["score"] for a in answers]
        if any(a < b for a, b in zip(scores, scores[1:])):
            return "answers not sorted by score"
        match = self.match(text)
        system = self.system
        for rank, answer in enumerate(answers):
            try:
                tree = JoinedTupleTree(answer["nodes"], answer["edges"])
                tree.validate_answer(system.graph, match, self.diameter)
                oracle = oracle_tree_score(
                    system.graph, tree, match, system.index,
                    system.dampening,
                )
            except (ReproError, KeyError, TypeError) as exc:
                return f"answer {rank} invalid: {exc}"
            if not math.isclose(answer["score"], oracle, rel_tol=SCORE_RTOL,
                                abs_tol=1e-12):
                return (
                    f"answer {rank} score {answer['score']!r} != oracle "
                    f"{oracle!r}"
                )
        return None

    @staticmethod
    def labels(doc: dict) -> Optional[str]:
        """Proof, deadline and gap labels agree with each other."""
        proven, gap = doc.get("proven"), doc.get("gap")
        if doc.get("deadline_hit") and proven:
            return "deadline-hit response labelled proven"
        if proven:
            return None if gap == 0 else f"proven response with gap {gap!r}"
        if not doc.get("answers"):
            return None if gap is None else f"empty response with gap {gap!r}"
        if not isinstance(gap, (int, float)) or not gap >= 0:
            return f"unproven response with gap {gap!r}"
        return None

    def expected(self, text: str) -> list:
        """Tie classes of a direct search on the local deployment."""
        classes = self._references.get(text)
        if classes is None:
            classes = self._references[text] = tie_classes_direct(
                self.system.search(text, k=self.k, diameter=self.diameter)
            )
        return classes

    def reference(self, text: str, doc: dict) -> Optional[str]:
        """A proven response equals a direct search, tie class by tie class."""
        if doc.get("proven") and (
            tie_classes_wire(doc["answers"]) != self.expected(text)
        ):
            return "proven answers differ from a direct search"
        return None

    def full(self, text: str, doc: dict, reference: bool) -> Optional[str]:
        """Every per-response check, the reference one when asked."""
        return (
            self.answers(text, doc)
            or self.labels(doc)
            or (self.reference(text, doc) if reference else None)
        )

    @staticmethod
    def repeated(first: dict, doc: dict) -> Optional[str]:
        """A repeated query returns what its first, checked response did."""
        for field in ("answers", "proven", "gap"):
            if doc.get(field) != first.get(field):
                return f"repeated query changed its {field!r}"
        return None
