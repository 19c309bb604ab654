"""Configuration objects for the CI-Rank system.

Four dataclasses gather every tunable the system exposes:

* :class:`RWMPParams` — the message-passing model parameters (Section III):
  the teleportation constant ``c`` of the underlying random walk, and the
  dampening parameters ``alpha`` (probability a surfer keeps a message per
  talk step) and ``g`` (listener group size).
* :class:`SearchParams` — the top-k search parameters (Section IV): ``k``
  and the answer-tree diameter cap ``D``.
* :class:`EdgeWeights` — the per-edge-type weights of Table II, plus helpers
  to register additional link types.
* :class:`ServingParams` — the asyncio serving front end's knobs
  (:mod:`repro.serving`): bind address, worker pool size,
  single-flight dedup, and per-query deadlines.

All paper-level values default to the paper's choices (``alpha = 0.15``,
``g = 20``, ``c = 0.15``, ``k = 5``, ``D = 4``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .exceptions import ReproError

#: The paper's default teleportation constant for Equation (1).
DEFAULT_TELEPORT = 0.15

#: The paper's recommended dampening parameters (Section VI-B).
DEFAULT_ALPHA = 0.15
DEFAULT_GROUP_SIZE = 20.0

#: Default top-k and diameter cap used in the efficiency experiments.
DEFAULT_K = 5
DEFAULT_DIAMETER = 4


@dataclass(frozen=True)
class RWMPParams:
    """Parameters of the Random Walk with Message Passing model.

    Attributes:
        alpha: probability that a message-carrying surfer keeps the message
            in one talk step; the minimum possible dampening rate.  The
            paper finds ``0.1 <= alpha <= 0.25`` effective and uses 0.15.
        g: listener group size per talk step; with ``alpha`` fixed, larger
            ``g`` lowers the maximum dampening rate.  The paper uses 20.
        teleport: the teleportation constant ``c`` in Equation (1).
    """

    alpha: float = DEFAULT_ALPHA
    g: float = DEFAULT_GROUP_SIZE
    teleport: float = DEFAULT_TELEPORT

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ReproError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.g <= 1.0:
            raise ReproError(f"g must be > 1, got {self.g}")
        if not 0.0 < self.teleport < 1.0:
            raise ReproError(f"teleport must be in (0, 1), got {self.teleport}")


@dataclass(frozen=True)
class SearchParams:
    """Parameters of the top-k answer search (Section IV).

    Attributes:
        k: number of answers to return.
        diameter: cap ``D`` on the answer-tree diameter (in edges).
        strict_merge: when True (default — the paper's rule), a merge
            must cover strictly more keywords than either operand, which
            prunes redundant-coverage trees but can miss answers; when
            False, any cycle-free merge is allowed, making the search
            provably complete over all Definition-3 answers.  The two
            do not always return the same top-k: they differ on 2 of
            the first 80 ``cold-imdb`` and 4 of the first 80
            ``deadline-dblp`` perfbench queries, where the complete
            rule costs 1.14x / 1.33x the search CPU
            (docs/ALGORITHMS.md §2.3, ROADMAP item 1).
        max_candidates: safety valve — abort the search after this many
            candidate-tree expansions (0 disables the cap).
        semantics: ``"and"`` (the paper's assumption — answers must cover
            every keyword) or ``"or"`` (answers may cover any non-empty
            subset; the SPARK-style relaxation).  OR mode widens the
            answer space and weakens the search bounds accordingly.
    """

    k: int = DEFAULT_K
    diameter: int = DEFAULT_DIAMETER
    strict_merge: bool = True
    max_candidates: int = 0
    semantics: str = "and"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ReproError(f"k must be >= 1, got {self.k}")
        if self.diameter < 0:
            raise ReproError(f"diameter must be >= 0, got {self.diameter}")
        if self.max_candidates < 0:
            raise ReproError("max_candidates must be >= 0")
        if self.semantics not in ("and", "or"):
            raise ReproError(
                f"semantics must be 'and' or 'or', got {self.semantics!r}"
            )


@dataclass(frozen=True)
class ServingParams:
    """Knobs of the asyncio serving front end (:mod:`repro.serving`).

    Attributes:
        host: bind address of the HTTP front end.
        port: TCP port (0 = ephemeral, reported after bind).
        workers: executor threads searching concurrently; the event loop
            itself never runs a search.
        deadline_ms: default per-query deadline; 0 runs every search to
            proven completion.  Requests can override per call.
        heartbeat: anytime-snapshot cadence (queue pops between
            heartbeat snapshots) used when a deadline is set — smaller
            values bound deadline overshoot tighter at slightly more
            generator overhead.
        dedup: coalesce identical in-flight queries into one execution
            (single-flight stampede protection in front of the answer
            cache).
        max_request_bytes: request-body size limit (HTTP 413 beyond it).
        drain_seconds: graceful-shutdown budget for in-flight queries
            and open connections.
        trace: enable query tracing (trace-id'd span trees and the
            slow-query ring; :mod:`repro.obs.trace`).  Off, requests
            carry no spans and ``trace_id`` is null in responses.
        trace_sample: fraction of requests traced (1.0 = all); an
            unsampled request costs one RNG draw.
        slow_query_ms: root spans at or above this duration are dumped
            (full span tree) into the slow-query ring and logged at
            WARNING.
        slow_log_size: slow-query ring capacity (oldest dumps evicted).
        metrics: enable the metrics registry and ``GET /metrics``
            (Prometheus text exposition; :mod:`repro.obs.metrics`).
        capture_path: when non-empty, append one JSONL record per
            accepted request to this rotating workload log
            (:mod:`repro.obs.workload`); the audit invariant extends to
            ``logged == received``.
        capture_max_bytes: rotate the capture log at this size.
        capture_backups: rotated generations kept (``.1`` … ``.N``).
        plan: path of the planner report this deployment adopted at
            startup (``cirank serve --plan``; :mod:`repro.planner`).
            Informational — a plan sets search-side knobs only, and
            those are already applied to the system — but it
            surfaces in ``/stats`` and the ``cirank_plan_applied``
            gauge so operators can see *which* plan is live.
    """

    host: str = "127.0.0.1"
    port: int = 8377
    workers: int = 4
    deadline_ms: float = 0.0
    heartbeat: int = 16
    dedup: bool = True
    max_request_bytes: int = 1 << 20
    drain_seconds: float = 10.0
    trace: bool = True
    trace_sample: float = 1.0
    slow_query_ms: float = 500.0
    slow_log_size: int = 64
    metrics: bool = True
    capture_path: str = ""
    capture_max_bytes: int = 16 << 20
    capture_backups: int = 3
    plan: str = ""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {self.workers}")
        if self.deadline_ms < 0:
            raise ReproError(
                f"deadline_ms must be >= 0, got {self.deadline_ms}"
            )
        if self.heartbeat < 1:
            raise ReproError(f"heartbeat must be >= 1, got {self.heartbeat}")
        if self.max_request_bytes < 1:
            raise ReproError("max_request_bytes must be >= 1")
        if self.drain_seconds < 0:
            raise ReproError("drain_seconds must be >= 0")
        if not 0 <= self.port <= 65535:
            raise ReproError(f"port must be in [0, 65535], got {self.port}")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ReproError(
                f"trace_sample must be in [0, 1], got {self.trace_sample}"
            )
        if self.slow_query_ms < 0:
            raise ReproError(
                f"slow_query_ms must be >= 0, got {self.slow_query_ms}"
            )
        if self.slow_log_size < 0:
            raise ReproError(
                f"slow_log_size must be >= 0, got {self.slow_log_size}"
            )
        if self.capture_max_bytes < 1:
            raise ReproError("capture_max_bytes must be >= 1")
        if self.capture_backups < 0:
            raise ReproError("capture_backups must be >= 0")


def _table2_weights() -> Dict[Tuple[str, str], float]:
    """The edge weights of Table II, keyed by (source table, target table).

    Citation links are a self-relationship on the paper table and are keyed
    by the special link names ``("paper:cites", "paper")`` and
    ``("paper", "paper:cites")`` — see :class:`EdgeWeights.weight_for`.
    """
    return {
        # IMDB (Fig. 1(b))
        ("actor", "movie"): 1.0,
        ("movie", "actor"): 1.0,
        ("actress", "movie"): 1.0,
        ("movie", "actress"): 1.0,
        ("director", "movie"): 1.0,
        ("movie", "director"): 1.0,
        ("producer", "movie"): 0.5,
        ("movie", "producer"): 0.5,
        ("company", "movie"): 0.5,
        ("movie", "company"): 0.5,
        # DBLP (Fig. 1(a))
        ("conference", "paper"): 0.5,
        ("paper", "conference"): 0.5,
        ("author", "paper"): 1.0,
        ("paper", "author"): 1.0,
        # Citations: citing -> cited 0.5, cited -> citing 0.1 (Table II).
        ("paper#cites", "paper"): 0.5,
        ("paper", "paper#cites"): 0.1,
    }


@dataclass
class EdgeWeights:
    """Edge-type weight table (Table II) with sensible fallbacks.

    Weights are looked up by ``(source_table, target_table)`` pairs in
    lowercase.  Self-referencing links (e.g. paper citations) are
    disambiguated by suffixing the *link name* with ``#<fk-name>`` on the
    side that owns the foreign key; :meth:`weight_for` handles the lookup.

    Attributes:
        weights: the mapping; initialized to Table II.
        default: weight used for unknown edge types.
    """

    weights: Dict[Tuple[str, str], float] = field(default_factory=_table2_weights)
    default: float = 1.0

    def set_weight(self, source: str, target: str, weight: float) -> None:
        """Register or override the weight of one directed edge type."""
        if weight <= 0:
            raise ReproError(f"edge weight must be positive, got {weight}")
        self.weights[(source.lower(), target.lower())] = weight

    def weight_for(
        self,
        source: str,
        target: str,
        link: str = "",
        owner: str = "source",
    ) -> float:
        """Return the weight of a ``source -> target`` edge.

        Args:
            source: source table name.
            target: target table name.
            link: optional foreign-key/link name; used to disambiguate
                self-referencing relations (the ``paper#cites`` keys above).
            owner: which end owns the link — ``"source"`` when the edge
                runs from the owning side (citing -> cited), ``"target"``
                for the reverse direction.
        """
        source = source.lower()
        target = target.lower()
        if link:
            if owner == "source":
                keyed = (f"{source}#{link.lower()}", target)
            else:
                keyed = (source, f"{target}#{link.lower()}")
            if keyed in self.weights:
                return self.weights[keyed]
        return self.weights.get((source, target), self.default)
