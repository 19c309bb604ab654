"""A metrics registry with Prometheus text exposition (stdlib only).

Three metric kinds, the smallest set a serving system needs:

* :class:`Counter` — a monotonically increasing total (requests
  received, errors, seconds spent in a search phase);
* :class:`Gauge` — a point-in-time value that can move both ways
  (in-flight requests, cache size, answer-cache hit ratio);
* :class:`Histogram` — fixed-bucket cumulative distribution (request
  latency, gap at deadline, arena bytes).  Buckets are chosen at
  registration and never change, so two scrapes are always comparable.

Counters and gauges optionally take a ``fn`` callback: the value is
read at scrape time instead of being pushed.  This is how existing
counter blocks (:class:`repro.serving.stats.ServingStats`, the answer
cache's :class:`~repro.storage.answer_cache.AnswerCacheStats`) surface
in ``/metrics`` without double bookkeeping — the registry mirrors the
one source of truth instead of maintaining a copy.

Exposition follows the Prometheus text format (version 0.0.4): ``#
HELP`` / ``# TYPE`` headers, ``name{label="value"} value`` samples, and
for histograms the cumulative ``_bucket{le=...}`` series ending in
``le="+Inf"`` plus ``_sum`` and ``_count``.  ``tests/test_obs_metrics.py``
parses the rendered text back and checks it against :meth:`MetricsRegistry.as_dict`
(round trip) and asserts bucket monotonicity.

Thread-safety: every mutation takes the owning metric's lock; rendering
snapshots under the same locks.  The critical sections are a few
arithmetic operations, so contention is irrelevant next to a search.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Default latency buckets in milliseconds — sub-millisecond cache hits
#: through multi-second cold searches.
DEFAULT_LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_text(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class Metric:
    """Common bookkeeping: name, help text, declared label names."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _check_labels(self, values: Sequence[str]) -> Tuple[str, ...]:
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {len(values)} values"
            )
        return tuple(str(v) for v in values)

    # Subclasses implement render_samples() -> List[str] and
    # sample_dict() -> JSON-able payload.


class Counter(Metric):
    """A monotonically increasing total, optionally label-partitioned.

    With ``fn`` set the counter is *function-backed*: the callback is
    read at scrape time and :meth:`inc` is forbidden — mirroring an
    existing atomic counter rather than owning the count.
    """

    kind = "counter"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        if fn is not None and labelnames:
            raise ValueError("function-backed metrics cannot have labels")
        self._fn = fn
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0) -> None:
        """Increase the unlabeled series (``amount`` must be >= 0)."""
        self.labels().inc(amount)

    def labels(self, *values: str) -> "_CounterChild":
        key = self._check_labels(values)
        return _CounterChild(self, key)

    def value(self, *label_values: str) -> float:
        if self._fn is not None:
            return float(self._fn())
        key = self._check_labels(label_values)
        with self._lock:
            return self._values.get(key, 0.0)

    def _inc(self, key: Tuple[str, ...], amount: float) -> None:
        if self._fn is not None:
            raise ValueError(f"{self.name} is function-backed; cannot inc")
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def render_samples(self) -> List[str]:
        if self._fn is not None:
            return [f"{self.name} {_format_value(float(self._fn()))}"]
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        return [
            f"{self.name}{_labels_text(self.labelnames, key)} "
            f"{_format_value(value)}"
            for key, value in items
        ]

    def sample_dict(self) -> Dict[str, Any]:
        if self._fn is not None:
            return {"": float(self._fn())}
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        return {",".join(key): value for key, value in items}


class _CounterChild:
    __slots__ = ("_parent", "_key")

    def __init__(self, parent: Counter, key: Tuple[str, ...]) -> None:
        self._parent = parent
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._parent._inc(self._key, amount)


class Gauge(Metric):
    """A value that can go up and down (or be computed at scrape)."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        if fn is not None and labelnames:
            raise ValueError("function-backed metrics cannot have labels")
        self._fn = fn
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, *label_values: str) -> None:
        if self._fn is not None:
            raise ValueError(f"{self.name} is function-backed; cannot set")
        key = self._check_labels(label_values)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, *label_values: str) -> None:
        if self._fn is not None:
            raise ValueError(f"{self.name} is function-backed; cannot inc")
        key = self._check_labels(label_values)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, *label_values: str) -> None:
        self.inc(-amount, *label_values)

    def value(self, *label_values: str) -> float:
        if self._fn is not None:
            return float(self._fn())
        key = self._check_labels(label_values)
        with self._lock:
            return self._values.get(key, 0.0)

    def render_samples(self) -> List[str]:
        if self._fn is not None:
            return [f"{self.name} {_format_value(float(self._fn()))}"]
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        return [
            f"{self.name}{_labels_text(self.labelnames, key)} "
            f"{_format_value(value)}"
            for key, value in items
        ]

    def sample_dict(self) -> Dict[str, Any]:
        if self._fn is not None:
            return {"": float(self._fn())}
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        return {",".join(key): value for key, value in items}


class Histogram(Metric):
    """A fixed-bucket distribution (``le`` = less-than-or-equal bounds).

    Buckets store per-bucket counts internally and render the standard
    cumulative Prometheus series — every scrape's ``_bucket`` values
    are non-decreasing in ``le`` and end at ``_count`` under
    ``le="+Inf"``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds in {bounds}")
        self.bounds = bounds
        # key -> [per-bucket counts..., overflow], sum, count
        self._states: Dict[Tuple[str, ...], List[Any]] = {}

    def observe(self, value: float, *label_values: str) -> None:
        key = self._check_labels(label_values)
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = [[0] * (len(self.bounds) + 1), 0.0, 0]
                self._states[key] = state
            state[0][index] += 1
            state[1] += value
            state[2] += 1

    def snapshot(
        self, *label_values: str
    ) -> Dict[str, Any]:
        """One series' cumulative buckets, sum, and count."""
        key = self._check_labels(label_values)
        with self._lock:
            state = self._states.get(key)
            counts = list(state[0]) if state else [0] * (len(self.bounds) + 1)
            total = state[1] if state else 0.0
            count = state[2] if state else 0
        cumulative = []
        running = 0
        for c in counts:
            running += c
            cumulative.append(running)
        return {
            "buckets": {
                _format_value(bound): cumulative[i]
                for i, bound in enumerate(self.bounds)
            },
            "inf": cumulative[-1],
            "sum": total,
            "count": count,
        }

    def render_samples(self) -> List[str]:
        with self._lock:
            items = sorted(
                (key, list(state[0]), state[1], state[2])
                for key, state in self._states.items()
            )
        if not items and not self.labelnames:
            items = [((), [0] * (len(self.bounds) + 1), 0.0, 0)]
        lines: List[str] = []
        for key, counts, total, count in items:
            running = 0
            for bound, bucket_count in zip(self.bounds, counts):
                running += bucket_count
                labels = _labels_text(
                    self.labelnames + ("le",),
                    key + (_format_value(bound),),
                )
                lines.append(f"{self.name}_bucket{labels} {running}")
            running += counts[-1]
            labels = _labels_text(
                self.labelnames + ("le",), key + ("+Inf",)
            )
            lines.append(f"{self.name}_bucket{labels} {running}")
            plain = _labels_text(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(total)}")
            lines.append(f"{self.name}_count{plain} {count}")
        return lines

    def sample_dict(self) -> Dict[str, Any]:
        with self._lock:
            keys = sorted(self._states)
        if not keys and not self.labelnames:
            keys = [()]
        return {",".join(key): self.snapshot(*key) for key in keys}


class MetricsRegistry:
    """The per-daemon metric namespace behind ``GET /metrics``.

    Registration is idempotent by name: asking for an existing metric
    returns it (so layers can register independently), while a kind or
    shape mismatch raises — two subsystems silently sharing a name
    with different meanings is exactly the bug a registry exists to
    prevent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _register(self, metric: Metric, **shape: Any) -> Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is None:
                self._metrics[metric.name] = metric
                return metric
            if type(existing) is not type(metric):
                raise ValueError(
                    f"{metric.name} already registered as {existing.kind}"
                )
            if existing.labelnames != metric.labelnames:
                raise ValueError(
                    f"{metric.name} label mismatch: "
                    f"{existing.labelnames} != {metric.labelnames}"
                )
            for attr, value in shape.items():
                if getattr(existing, attr) != value:
                    raise ValueError(
                        f"{metric.name} {attr} mismatch on re-registration"
                    )
            return existing

    def counter(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> Counter:
        metric = self._register(Counter(name, help_text, labelnames, fn))
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        metric = self._register(Gauge(name, help_text, labelnames, fn))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        metric = self._register(
            Histogram(name, help_text, buckets, labelnames),
            bounds=tuple(sorted(float(b) for b in buckets)),
        )
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The Prometheus text exposition (version 0.0.4)."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: List[str] = []
        for metric in metrics:
            if metric.help_text:
                lines.append(f"# HELP {metric.name} {metric.help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render_samples())
        return "\n".join(lines) + "\n"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot mirroring :meth:`render`."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return {
            metric.name: {
                "kind": metric.kind,
                "help": metric.help_text,
                "labelnames": list(metric.labelnames),
                "samples": metric.sample_dict(),
            }
            for metric in metrics
        }
