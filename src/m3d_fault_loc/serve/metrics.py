"""Serving metrics: counters, gauges, and latency histograms.

A deliberately tiny, dependency-free subset of the Prometheus client model:
instruments are registered by name and optional fixed labels on a
:class:`MetricsRegistry`, updated with per-instrument locks, and exported
two ways — ``to_json_dict()`` for programmatic consumers (keyed by series
id: the bare name, or ``name{k="v"}`` plus a ``"labels"`` field) and
``render_prometheus()`` for scrapers (text exposition format, cumulative
histogram buckets with ``+Inf``). All series of one name form a family
with one kind and one help text.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Mapping

#: Default latency buckets in seconds (sub-ms to multi-second tail).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_LABEL_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", '"': '\\"'})

#: A series' fixed labels as given, and as stored (sorted, validated).
LabelMap = Mapping[str, str] | None
Labels = tuple[tuple[str, str], ...]


def _fmt(value: float) -> str:
    """Prometheus-friendly number formatting (integers without a dot)."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _label_set(labels: LabelMap, reserved: str = "") -> Labels:
    """Sorted ``(name, value)`` pairs, names checked against the Prometheus
    grammar (``__``-prefixed names and ``reserved`` belong to the format)."""
    pairs = tuple(sorted((labels or {}).items()))
    for key, _ in pairs:
        if not _LABEL_NAME_RE.fullmatch(key) or key.startswith("__") or key == reserved:
            raise ValueError(f"invalid label name {key!r}")
    return pairs


def _series(name: str, labels: Labels) -> str:
    """``name`` or ``name{k="v",...}`` with escaped values: a sample's prefix."""
    if not labels:
        return name
    body = ",".join(f'{key}="{value.translate(_LABEL_ESCAPES)}"' for key, value in labels)
    return f"{name}{{{body}}}"


class _Instrument:
    """Name, help text, fixed labels and the lock every instrument shares."""

    kind = ""
    #: A label name the instrument adds to its own samples.
    reserved_label = ""

    def __init__(self, name: str, help_text: str, labels: LabelMap = None):
        self.name = name
        self.help_text = help_text
        self.labels = _label_set(labels, self.reserved_label)
        #: The series id: the sample prefix and the JSON export key.
        self.series = _series(name, self.labels)
        self._lock = threading.Lock()

    def _json(self, **fields: Any) -> dict[str, Any]:
        out = {"type": self.kind, "help": self.help_text, **fields}
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class _Scalar(_Instrument):
    """One float value behind the instrument lock."""

    _value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_json_dict(self) -> dict[str, Any]:
        return self._json(value=self.value)

    def render_prometheus(self) -> list[str]:
        return [f"{self.series} {_fmt(self.value)}"]


class Counter(_Scalar):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    """Point-in-time value (queue depth, cache size)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount


class StateGauge(_Instrument):
    """One-hot enum gauge: exactly one of a fixed state set is 1 at a time.

    Renders Prometheus-idiomatically as one ``name{state="..."}`` series per
    state (TYPE gauge), so dashboards can plot breaker/health transitions
    without string-valued metrics.
    """

    kind = "state_gauge"
    prom_type = "gauge"
    reserved_label = "state"

    def __init__(
        self, name: str, help_text: str, states: tuple[str, ...], labels: LabelMap = None
    ):
        if not states or len(set(states)) != len(states):
            raise ValueError(f"state gauge {name} needs a non-empty, unique state set")
        super().__init__(name, help_text, labels)
        self.states = tuple(states)
        self._state = self.states[0]

    def set_state(self, state: str) -> None:
        if state not in self.states:
            raise ValueError(f"{self.name}: unknown state {state!r} (have {self.states})")
        with self._lock:
            self._state = state

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def to_json_dict(self) -> dict[str, Any]:
        return self._json(state=self.state, states=list(self.states))

    def render_prometheus(self) -> list[str]:
        current = self.state
        return [
            f"{_series(self.name, (*self.labels, ('state', state)))} {int(state == current)}"
            for state in self.states
        ]


class Histogram(_Instrument):
    """Cumulative-bucket histogram with sum and count (Prometheus semantics)."""

    kind = "histogram"
    reserved_label = "le"

    def __init__(
        self, name: str, help_text: str, buckets: tuple[float, ...], labels: LabelMap = None
    ):
        # Strictly increasing, not merely sorted: a duplicate bound would
        # collapse two buckets onto one `le=` label and corrupt the
        # cumulative counts in both snapshot() and the text exposition.
        if not buckets or any(a >= b for a, b in zip(buckets, buckets[1:])):
            raise ValueError(f"histogram {name} needs strictly increasing, non-empty buckets")
        super().__init__(name, help_text, labels)
        self.buckets = tuple(float(b) for b in buckets)
        self._bucket_counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    break

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def percentile(self, q: float) -> float:
        """Bucket-interpolated percentile estimate (Prometheus-style).

        Returns 0.0 for an empty histogram, the mean (``sum/count``) for a
        single observation — the best point estimate a bucketed histogram
        can give — and, when the target rank lands past the last finite
        bucket, the last finite bound (no upper edge to interpolate toward).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            if self._count == 1:
                return self._sum
            target = (q / 100.0) * self._count
            cumulative = 0
            for i, n in enumerate(self._bucket_counts):
                cumulative += n
                if cumulative >= target and n > 0:
                    lo = self.buckets[i - 1] if i > 0 else 0.0
                    hi = self.buckets[i]
                    frac = (target - (cumulative - n)) / n
                    return lo + max(0.0, min(1.0, frac)) * (hi - lo)
            return self.buckets[-1]

    def snapshot(self) -> dict[str, Any]:
        """Cumulative bucket counts keyed by upper bound, plus sum/count."""
        with self._lock:
            cumulative = 0
            buckets: dict[str, int] = {}
            for bound, n in zip(self.buckets, self._bucket_counts, strict=True):
                cumulative += n
                buckets[_fmt(bound)] = cumulative
            buckets["+Inf"] = self._count
            return {"buckets": buckets, "sum": self._sum, "count": self._count}

    def merge(self, other: Histogram) -> None:
        """Fold ``other``'s observations into this histogram, in place.

        Both histograms must share identical bucket bounds — merging across
        mismatched bounds would silently misplace counts, so it raises
        instead. Used by metrics federation to bucket-merge per-replica
        latency histograms into one fleet histogram whose percentiles stay
        meaningful.
        """
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histogram {other.name!r} into {self.name!r}: "
                f"bucket bounds differ ({other.buckets} vs {self.buckets})"
            )
        # Snapshot the source first: taking both locks at once would impose
        # a lock order between arbitrary histogram pairs (M3D304 territory).
        snap = other.snapshot()
        per_bucket = self._per_bucket_counts(snap["buckets"], other.buckets)
        with self._lock:
            for i, n in enumerate(per_bucket):
                self._bucket_counts[i] += n
            self._sum += snap["sum"]
            self._count += snap["count"]

    @classmethod
    def from_snapshot(cls, name: str, snap: dict[str, Any]) -> Histogram:
        """Rebuild a histogram from a :meth:`snapshot` (or ``/metrics`` JSON).

        Snapshots carry **cumulative** bucket counts; feeding those directly
        into per-bucket storage would inflate every bucket after the first
        occupied one (and make leading zero-count buckets look occupied once
        merged), so they are differenced back to per-bucket counts here —
        the percentile interpolation then behaves identically to a
        directly-observed histogram.
        """
        bucket_snap = snap.get("buckets") or {}
        bounds = tuple(float(key) for key in bucket_snap if key != "+Inf")
        if not bounds:
            raise ValueError(f"histogram snapshot for {name!r} has no finite buckets")
        histogram = cls(name, "", buckets=bounds)
        per_bucket = histogram._per_bucket_counts(bucket_snap, bounds)
        histogram._bucket_counts = per_bucket
        histogram._sum = float(snap.get("sum", 0.0))
        histogram._count = int(snap.get("count", 0))
        return histogram

    @staticmethod
    def _per_bucket_counts(
        bucket_snap: dict[str, int], bounds: tuple[float, ...]
    ) -> list[int]:
        """Difference a snapshot's cumulative counts into per-bucket counts."""
        per_bucket: list[int] = []
        previous = 0
        for bound in bounds:
            cumulative = int(bucket_snap[_fmt(bound)])
            if cumulative < previous:
                raise ValueError(
                    f"histogram snapshot is not cumulative at le={_fmt(bound)}: "
                    f"{cumulative} < {previous}"
                )
            per_bucket.append(cumulative - previous)
            previous = cumulative
        return per_bucket

    def to_json_dict(self) -> dict[str, Any]:
        return self._json(**self.snapshot())

    def render_prometheus(self) -> list[str]:
        snap = self.snapshot()
        lines = [
            f"{_series(self.name + '_bucket', (*self.labels, ('le', bound)))} {count}"
            for bound, count in snap["buckets"].items()
        ]
        lines.append(f"{_series(self.name + '_sum', self.labels)} {_fmt(snap['sum'])}")
        lines.append(f"{_series(self.name + '_count', self.labels)} {snap['count']}")
        return lines


class MetricsRegistry:
    """Instrument registry keyed by (name, labels), with JSON and
    Prometheus-text export.

    Registration is idempotent per series, but a family keeps the kind and
    help text it was first registered with: re-registering a name as another
    kind or with another help text is a programming error and raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, Labels], _Instrument] = {}
        self._families: dict[str, tuple[str, str]] = {}
        self._lock = threading.Lock()

    def _register(self, cls, name: str, help_text: str, labels: LabelMap, **kwargs):
        key = (name, _label_set(labels, cls.reserved_label))
        with self._lock:
            family = self._families.get(name, (cls.kind, help_text))
            if family != (cls.kind, help_text):
                raise ValueError(
                    f"metric {name!r} already registered as {family}, not {(cls.kind, help_text)}"
                )
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, help_text, labels=labels, **kwargs)
                self._instruments[key] = instrument
                self._families[name] = family
            return instrument

    def counter(self, name: str, help_text: str = "", labels: LabelMap = None) -> Counter:
        return self._register(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: LabelMap = None) -> Gauge:
        return self._register(Gauge, name, help_text, labels)

    def state_gauge(
        self,
        name: str,
        help_text: str = "",
        states: tuple[str, ...] = (),
        labels: LabelMap = None,
    ) -> StateGauge:
        return self._register(StateGauge, name, help_text, labels, states=states)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        labels: LabelMap = None,
    ) -> Histogram:
        return self._register(Histogram, name, help_text, labels, buckets=buckets)

    def to_json_dict(self) -> dict[str, Any]:
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {inst.series: inst.to_json_dict() for _, inst in instruments}

    def render_prometheus(self) -> str:
        with self._lock:
            instruments = sorted(self._instruments.items())  # grouped by family
        lines: list[str] = []
        family = None
        for (name, _), inst in instruments:
            if name != family:
                family = name
                if inst.help_text:
                    lines.append(f"# HELP {name} {inst.help_text}")
                lines.append(f"# TYPE {name} {getattr(inst, 'prom_type', inst.kind)}")
            lines.extend(inst.render_prometheus())
        return "\n".join(lines) + "\n"
