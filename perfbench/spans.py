"""Spans recorded around calls into the repo's layers, and their budget.

The traced launcher wraps public functions of the serving stack before
it builds the deployment.  Each wrapper records one span (name, start,
end, parent, request id) per call; a generator's span is one segment per
resume, so the time its consumer spends between resumes is not booked to
it.  Spans stay in memory and are written out when the daemon shuts
down.

The request id is opened by the ``CIRankDaemon.handle_search`` wrapper
and travels in a context variable.  asyncio tasks copy it when they are
created; the one thread hop, from the event loop to a worker, is carried
by the ``QueryBatcher.submit`` wrapper, which wraps the submitted
callable.  Nothing here relies on the daemon's own tracer.

A wrapper looks its function up when it is installed.  A function the
repo no longer has is reported as an absent layer, and the run goes on.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: (request id, span id) of the innermost open span of this task/thread.
_CURRENT: contextvars.ContextVar[Optional[Tuple[int, int]]] = (
    contextvars.ContextVar("perfbench_span", default=None)
)

#: Layers wrapped on the request path: (span name, module, attribute,
#: wrapper kind).  ``root`` opens a request id, ``submit`` carries it to
#: the worker thread, ``deadline`` also keeps the execution's SearchStats,
#: ``gen`` books generator resumes, and ``call`` times one call.
REQUEST_LAYERS = (
    ("serving.daemon", "repro.serving.daemon",
     "CIRankDaemon.handle_search", "root"),
    ("serving.dedup", "repro.serving.dedup", "SingleFlight.run", "call"),
    ("serving.batching", "repro.serving.batching", "QueryBatcher.submit",
     "submit"),
    ("serving.deadline", "repro.serving.deadline", "run_with_deadline",
     "deadline"),
    ("system", "repro.system", "CIRankSystem.search_anytime", "gen"),
    ("system.answer_key", "repro.system", "CIRankSystem.answer_key", "call"),
    ("text.match", "repro.text.matcher", "KeywordMatcher.match", "call"),
    ("storage.answer_cache.lookup", "repro.storage.answer_cache",
     "AnswerCache.lookup", "call"),
    ("storage.answer_cache.store", "repro.storage.answer_cache",
     "AnswerCache.store", "call"),
    ("rwmp.scorer_setup", "repro.system", "CIRankSystem.scorer_for", "call"),
    ("search", "repro.search.branch_and_bound",
     "BranchAndBoundSearch.snapshots", "gen"),
    ("model.describe", "repro.model.answer", "RankedAnswer.describe", "call"),
)

#: Layers wrapped in the launcher's set-up (same layout).
SETUP_LAYERS = (
    ("datasets.generate", "repro.datasets.imdb", "generate_imdb", "call"),
    ("datasets.generate", "repro.datasets.dblp", "generate_dblp", "call"),
    ("graph.build", "repro.graph.builder", "GraphBuilder.build", "call"),
    ("text.index_build", "repro.text.inverted_index", "InvertedIndex.build",
     "call"),
    ("importance.pagerank", "repro.importance.pagerank", "pagerank", "call"),
    ("indexing.star_build", "repro.system", "CIRankSystem.build_star_index",
     "call"),
    ("serving.server.start", "repro.serving.server", "ServingServer.start",
     "call"),
)

#: SearchStats fields kept per execution, in record order.
EXECUTION_FIELDS = (
    "expanded", "generated", "bound_evals", "pruned_distance",
    "arena_peak_bytes",
)


class SpanRecorder:
    """In-memory span and execution store of one traced daemon."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self.spans: List[Tuple] = []
        self.executions: List[Tuple] = []
        self.absent: List[str] = []
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    # ------------------------------------------------------------ recording

    def _open(self, root: bool):
        parent = _CURRENT.get()
        if root:
            request, parent_span = next(self._request_ids), None
        elif parent is None:
            request, parent_span = None, None
        else:
            request, parent_span = parent
        span = next(self._span_ids)
        token = _CURRENT.set((request, span))
        return span, parent_span, request, token

    def _close(self, name, opened, start) -> None:
        span, parent_span, request, token = opened
        end = self.clock()
        _CURRENT.reset(token)
        self.spans.append((span, parent_span, request, name, start, end))

    def wrap_sync(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self._open(False)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, opened, start)
        return wrapper

    def wrap_async(self, name: str, fn, root: bool = False):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            opened = self._open(root)
            start = self.clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(name, opened, start)
        return wrapper

    def wrap_submit(self, name: str, fn):
        """``QueryBatcher.submit``: carry the span across the thread hop."""
        @functools.wraps(fn)
        async def wrapper(batcher, work, *args, **kwargs):
            opened = self._open(False)
            start = self.clock()
            here = _CURRENT.get()

            def hop():
                token = _CURRENT.set(here)
                try:
                    return work()
                finally:
                    _CURRENT.reset(token)

            try:
                return await fn(batcher, hop, *args, **kwargs)
            finally:
                self._close(name, opened, start)
        return wrapper

    def wrap_deadline(self, name: str, fn):
        """``run_with_deadline``: also keep each execution's SearchStats."""
        timed = self.wrap_sync(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outcome = timed(*args, **kwargs)
            parent = _CURRENT.get()
            stats = getattr(outcome, "stats", None)
            self.executions.append((
                parent[0] if parent else None,
                bool(getattr(outcome, "deadline_hit", False)),
                bool(getattr(outcome, "served_from_cache", False)),
                *(getattr(stats, f, 0) if stats is not None else 0
                  for f in EXECUTION_FIELDS),
            ))
            return outcome
        return wrapper

    def wrap_generator(self, name: str, fn):
        recorder = self

        class Segments:
            """Iterator booking each resume (and the close) as a span."""

            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                opened = recorder._open(False)
                start = recorder.clock()
                try:
                    return next(self._inner)
                finally:
                    recorder._close(name, opened, start)

            def close(self):
                opened = recorder._open(False)
                start = recorder.clock()
                try:
                    self._inner.close()
                finally:
                    recorder._close(name, opened, start)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return Segments(fn(*args, **kwargs))
        return wrapper

    # ------------------------------------------------------------ installing

    def install(self, layers: Iterable[Tuple[str, str, str, str]]) -> None:
        """Wrap every listed function; note the ones that are gone."""
        for name, module_name, attr, kind in layers:
            try:
                module = importlib.import_module(module_name)
                owner_path, _, leaf = attr.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}:{attr}")
                continue
            self._replace(name, owner, leaf, raw, kind)

    def _replace(self, name, owner, leaf, raw, kind) -> None:
        binder = None
        fn = raw
        if isinstance(raw, (classmethod, staticmethod)):
            binder, fn = type(raw), raw.__func__
        if kind == "root":
            wrapped = self.wrap_async(name, fn, root=True)
        elif kind == "submit":
            wrapped = self.wrap_submit(name, fn)
        elif kind == "deadline":
            wrapped = self.wrap_deadline(name, fn)
        elif kind == "gen":
            wrapped = self.wrap_generator(name, fn)
        elif inspect.iscoroutinefunction(fn):
            wrapped = self.wrap_async(name, fn)
        else:
            wrapped = self.wrap_sync(name, fn)
        setattr(owner, leaf, binder(wrapped) if binder else wrapped)
        if inspect.ismodule(owner):
            # Rebind the names other modules imported it under, so a
            # ``from .deadline import run_with_deadline`` caller is timed.
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").split(".")[0] == "repro"
                    and getattr(module, leaf, None) is raw
                ):
                    setattr(module, leaf, wrapped)

    def dump(self) -> Dict:
        return {
            "spans": self.spans,
            "executions": self.executions,
            "absent": self.absent,
        }


# ---------------------------------------------------------------- analysis


def covered(intervals: Sequence[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Tuple]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        span: (end - start) - covered(children.get(span, ()), start, end)
        for span, _, _, _, start, end in spans
    }


def layer_budget(spans: Sequence[Tuple], requests: Iterable[int]
                 ) -> Dict[str, float]:
    """Self seconds per span name, summed over the given requests."""
    wanted = set(requests)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span, _, request, name, _, _ in spans:
        if request in wanted:
            totals[name] = totals.get(name, 0.0) + own[span]
    return totals
