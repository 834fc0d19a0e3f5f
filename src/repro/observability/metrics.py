"""Process-wide metrics registry: counters, gauges, histograms, adapters.

The stack grew one ad-hoc ledger per subsystem —
:class:`~repro.protocols.faults.FaultStats`,
:class:`~repro.core.supervisor.DegradationReport`,
:class:`~repro.protocols.gateway_runtime.RuntimeStats`, raw ``int``
attributes on :class:`~repro.protocols.wap.WAPGateway` — none of which
could be correlated in one place.  This module is the unification:

* first-class :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  metrics with label sets, owned by a :class:`MetricsRegistry`;
* **ledger adapters** (:func:`attach_ledger` and the ``export_*``
  helpers) that re-export the existing ledgers *live*: the ledger
  attributes stay the authoritative store the old code keeps mutating,
  and every scrape reads through them at collection time — so one
  :meth:`MetricsRegistry.render` sees gateway traffic, channel faults,
  supervisor degradations and battery state together without changing
  a single existing call site.

Everything renders deterministically (families sorted by name, series
by label tuple), because telemetry exports must be byte-identical
across same-seed runs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets (virtual seconds / generic magnitudes).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, float("inf"))

#: Finer-grained buckets for request/recovery latencies: the quantile
#: interpolation below is only as sharp as the bucket grid, and the
#: gateway's virtual-time latencies cluster between 5 ms and a few
#: seconds of failover delay.
LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75,
                   1.0, 1.5, 2.5, 5.0, 10.0, float("inf"))


def interpolate_quantile(bounds: Sequence[float], counts: Sequence[int],
                         q: float) -> float:
    """The quantile of a fixed-bucket histogram, Prometheus-style.

    Walks cumulative bucket counts to the bucket containing rank
    ``q * total`` and linearly interpolates within it (lower edge of
    the first bucket is 0.0).  An answer landing in the ``+Inf``
    bucket clamps to the highest finite bound — the distribution's
    tail is unknowable beyond the grid.  Deterministic: pure integer
    walk plus one division, no sampling.
    """
    q = min(1.0, max(0.0, q))
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    lower = 0.0
    for bound, count in zip(bounds, counts):
        if count > 0 and cumulative + count >= target:
            if bound == float("inf"):
                return lower
            fraction = (target - cumulative) / count
            return lower + (bound - lower) * min(1.0, max(0.0, fraction))
        cumulative += count
        if bound != float("inf"):
            lower = bound
    return lower


def quantile_of(values: Sequence[float], q: float,
                buckets: Sequence[float] = LATENCY_BUCKETS) -> float:
    """One-shot bucketed quantile of a raw value list (the shared
    implementation behind the failover/survivability percentile
    fields — no more ad-hoc sorted-index math per ledger)."""
    bounds = tuple(buckets)
    counts = [0] * len(bounds)
    for value in values:
        for index, bound in enumerate(bounds):
            if value <= bound:
                counts[index] += 1
                break
    return interpolate_quantile(bounds, counts, q)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, hashable, sorted form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class _Series:
    """One labelled series of a counter or gauge."""

    __slots__ = ("_store", "_key")

    def __init__(self, store: Dict[LabelKey, float], key: LabelKey) -> None:
        self._store = store
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (counters must only ever go up)."""
        self._store[self._key] = self._store.get(self._key, 0.0) + amount

    def set(self, value: float) -> None:
        """Set the series to an absolute value (gauges)."""
        self._store[self._key] = float(value)

    @property
    def value(self) -> float:
        """Current value of this series."""
        return self._store.get(self._key, 0.0)


class Counter:
    """A monotonically increasing metric with optional labels."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._values: Dict[LabelKey, float] = {}

    def labels(self, **labels) -> _Series:
        """The series for one label set (created on first touch)."""
        return _Series(self._values, _label_key(labels))

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Increment (the unlabelled series unless labels are given)."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self.labels(**labels).inc(amount)

    def value(self, **labels) -> float:
        """Read one series' current value."""
        return self.labels(**labels).value

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        """All series, deterministically ordered."""
        return [(self.name, key, self._values[key])
                for key in sorted(self._values)]


class Gauge(Counter):
    """A metric that can go up and down (or be set outright)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (may be negative for gauges)."""
        self.labels(**labels).inc(amount)

    def set(self, value: float, **labels) -> None:
        """Set the (labelled) gauge to an absolute value."""
        self.labels(**labels).set(value)


class Histogram:
    """A bucketed distribution with Prometheus-style exposition.

    Exports ``name_bucket{le=...}`` (cumulative), ``name_sum`` and
    ``name_count`` per label set.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.help_text = help_text
        bounds = sorted(float(b) for b in buckets)
        if not bounds or bounds[-1] != float("inf"):
            bounds.append(float("inf"))
        self.buckets: Tuple[float, ...] = tuple(bounds)
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation."""
        key = _label_key(labels)
        counts = self._counts.setdefault(key, [0] * len(self.buckets))
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
                break
        self._sums[key] = self._sums.get(key, 0.0) + value

    def count(self, **labels) -> int:
        """Total observations for one label set."""
        return sum(self._counts.get(_label_key(labels), ()))

    def sum(self, **labels) -> float:
        """Sum of observations for one label set."""
        return self._sums.get(_label_key(labels), 0.0)

    def quantile(self, q: float, **labels) -> float:
        """Deterministic quantile estimate for one label set: linear
        interpolation within the fixed buckets (see
        :func:`interpolate_quantile` for the clamping rules)."""
        counts = self._counts.get(_label_key(labels))
        if counts is None:
            return 0.0
        return interpolate_quantile(self.buckets, counts, q)

    def percentiles(self, qs: Sequence[float] = (0.5, 0.95, 0.99),
                    **labels) -> Dict[str, float]:
        """A ``{"p50": ..., "p95": ...}`` map for one label set."""
        out: Dict[str, float] = {}
        for q in qs:
            label = f"p{q * 100:g}".replace(".", "_")
            out[label] = self.quantile(q, **labels)
        return out

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        """Bucket/sum/count series, deterministically ordered."""
        out: List[Tuple[str, LabelKey, float]] = []
        for key in sorted(self._counts):
            cumulative = 0
            for bound, count in zip(self.buckets, self._counts[key]):
                cumulative += count
                le = "+Inf" if bound == float("inf") else repr(bound)
                out.append((f"{self.name}_bucket",
                            key + (("le", le),), float(cumulative)))
            out.append((f"{self.name}_sum", key, self._sums[key]))
            out.append((f"{self.name}_count", key, float(cumulative)))
        return out


#: A collector returns live samples: (name, help, labels, value).
Collector = Callable[[], Iterable[Tuple[str, str, Dict[str, object], float]]]


class MetricsRegistry:
    """Owns a namespace of metrics plus live read-through collectors."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._collectors: List[Collector] = []

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}")
            return existing
        metric = cls(name, help_text, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get-or-create a counter."""
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get-or-create a gauge."""
        return self._get_or_create(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get-or-create a histogram."""
        return self._get_or_create(Histogram, name, help_text,
                                   buckets=buckets)

    def register_collector(self, collector: Collector) -> None:
        """Add a live collector consulted at every scrape."""
        self._collectors.append(collector)

    # -- scraping ------------------------------------------------------------

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        """Every series — stored metrics plus collector read-throughs —
        as ``(name, label_key, value)``, deterministically ordered."""
        out: List[Tuple[str, LabelKey, float]] = []
        for name in sorted(self._metrics):
            out.extend(self._metrics[name].samples())
        collected: List[Tuple[str, LabelKey, float]] = []
        for collector in self._collectors:
            for name, _help, labels, value in collector():
                collected.append((name, _label_key(labels), float(value)))
        out.extend(sorted(collected))
        return out

    def value(self, name: str, **labels) -> float:
        """Scrape-time read of one series (collectors included)."""
        key = _label_key(labels)
        for sample_name, sample_key, sample_value in self.samples():
            if sample_name == name and sample_key == key:
                return sample_value
        raise KeyError(f"no series {name!r} with labels {labels!r}")

    def render(self) -> str:
        """Prometheus-style text exposition, byte-deterministic."""
        lines: List[str] = []
        helps: Dict[str, Tuple[str, str]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            helps[name] = (metric.kind, metric.help_text)
        families: Dict[str, List[Tuple[LabelKey, float]]] = {}
        for name, key, value in self.samples():
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in helps:
                    family = name[: -len(suffix)]
                    break
            families.setdefault(family, []).append((key, value))
            families[family].sort()
        for family in sorted(families):
            kind, help_text = helps.get(family, ("gauge", ""))
            if help_text:
                lines.append(f"# HELP {family} {help_text}")
            lines.append(f"# TYPE {family} {kind}")
            for key, value in families[family]:
                rendered = repr(value) if value != int(value) else str(int(value))
                lines.append(f"{family}{_format_labels(key)} {rendered}")
        return "\n".join(lines) + "\n"


#: The default process-wide registry (a fresh one per run is usually
#: better for determinism — :class:`~repro.observability.spans.Telemetry`
#: creates its own unless told otherwise).
REGISTRY = MetricsRegistry()


# ---------------------------------------------------------------------------
# Ledger adapters: the old counter idioms, unified behind one scrape
# ---------------------------------------------------------------------------

def _numeric_fields(obj) -> List[str]:
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
    else:
        names = [n for n in vars(obj) if not n.startswith("_")]
    out = []
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out.append(name)
    return out


def attach_ledger(registry: MetricsRegistry, prefix: str, obj,
                  fields: Optional[Sequence[str]] = None,
                  labels: Optional[Dict[str, object]] = None,
                  help_text: str = "") -> None:
    """Re-export a ledger object's numeric attributes as live gauges.

    ``obj``'s attributes remain the authoritative store (existing code
    keeps doing ``ledger.field += 1``); every scrape reads the current
    values through ``getattr``.  ``fields`` defaults to the object's
    numeric dataclass fields / instance attributes and may name
    properties too (e.g. ``FaultStats.total_drops``).
    """
    chosen = list(fields) if fields is not None else _numeric_fields(obj)
    fixed = dict(labels or {})
    note = help_text or f"live read-through of {type(obj).__name__}"

    def collect():
        out = []
        for field in chosen:
            value = getattr(obj, field)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            out.append((f"{prefix}_{field}", note, fixed, float(value)))
        return out

    registry.register_collector(collect)


def export_fault_stats(registry: MetricsRegistry, stats,
                       channel: str = "radio") -> None:
    """Adapter for :class:`~repro.protocols.faults.FaultStats`."""
    attach_ledger(registry, "repro_channel_faults", stats,
                  fields=["drops", "burst_drops", "duplicates", "corruptions",
                          "reorders", "delivered", "bad_state_frames",
                          "total_drops"],
                  labels={"channel": channel},
                  help_text="channel fault-injection ledger")


def export_dos_responder(registry: MetricsRegistry, responder,
                         role: str = "gateway") -> None:
    """Adapter for :class:`~repro.protocols.dos.CookieProtectedResponder`:
    the cookie-gate accounting, including the bounded pending table
    (``pending_cookies`` is a property — read through live) and its
    flood-pressure evictions."""
    attach_ledger(registry, "repro_dos_responder", responder,
                  fields=["pending_cookies", "cookies_issued",
                          "cookies_verified", "cookies_rejected",
                          "cookies_grace_accepted", "cookies_unmatched",
                          "evicted", "secret_rotations",
                          "handshakes_started", "work_spent_mi"],
                  labels={"role": role},
                  help_text="stateless-cookie DoS gate ledger")


def export_adversary_population(registry: MetricsRegistry,
                                population) -> None:
    """Adapter for :class:`~repro.adversary.population.AdversaryPopulation`:
    one labelled sample series per adversary, read live from each
    adversary's ``snapshot()`` ledger."""

    def collect():
        out = []
        for adversary in population.adversaries:
            labels = {"adversary": adversary.kind, "name": adversary.name}
            for key, value in adversary.snapshot().items():
                if isinstance(value, bool):
                    value = int(value)
                if not isinstance(value, (int, float)):
                    continue
                out.append((f"repro_adversary_{key}",
                            "adversary population ledger", labels,
                            float(value)))
        return out

    registry.register_collector(collect)


def export_degradation_report(registry: MetricsRegistry, report,
                              device: str = "appliance") -> None:
    """Adapter for :class:`~repro.core.supervisor.DegradationReport`."""
    attach_ledger(registry, "repro_supervisor", report,
                  fields=["engine_fallbacks", "engine_restorations",
                          "suite_downgrades", "suite_restorations",
                          "brownout_refusals", "tamper_zeroizations",
                          "reprovisions"],
                  labels={"device": device},
                  help_text="appliance supervisor degradation ledger")


def export_battery(registry: MetricsRegistry, battery,
                   device: str = "appliance") -> None:
    """Live gauges for a :class:`~repro.hardware.battery.Battery`."""
    labels = {"device": device}

    def collect():
        return [
            ("repro_battery_capacity_j", "battery capacity", labels,
             battery.capacity_j),
            ("repro_battery_remaining_j", "battery charge remaining", labels,
             battery.remaining_j),
            ("repro_battery_drained_mj", "energy withdrawn so far", labels,
             battery.drained_mj),
            ("repro_battery_fraction_remaining", "charge fraction", labels,
             battery.fraction_remaining),
        ]

    registry.register_collector(collect)


def export_gateway(registry: MetricsRegistry, gateway) -> None:
    """Adapter for the raw ``int`` counters on
    :class:`~repro.protocols.wap.WAPGateway` (plus the WAP-gap
    plaintext exposure, which is a *security* metric)."""
    attach_ledger(registry, "repro_gateway", gateway,
                  fields=["wired_leg_failures", "handler_failures",
                          "degraded_responses"],
                  help_text="WAP gateway proxy ledger")

    def collect():
        return [("repro_gateway_plaintext_records",
                 "records exposed in gateway memory (the WAP gap)", {},
                 float(len(gateway.plaintext_log)))]

    registry.register_collector(collect)


def export_runtime(registry: MetricsRegistry, runtime) -> None:
    """One call wiring a whole
    :class:`~repro.protocols.gateway_runtime.GatewayRuntime` world:
    runtime stats, the gateway's raw counters, per-origin breaker
    state, and every attached session battery."""
    attach_ledger(registry, "repro_gateway_runtime", runtime.stats,
                  fields=["submitted", "admitted", "served", "degraded",
                          "shed_rate_limited", "shed_queue_full",
                          "shed_deadline", "shed_malformed",
                          "malformed_discarded", "breaker_fast_fails",
                          "wired_failures", "handler_failures",
                          "battery_refusals", "energy_mj", "shed",
                          "answered"],
                  help_text="gateway runtime answer ledger")
    export_gateway(registry, runtime.gateway)

    def collect_breakers():
        out = []
        for origin in sorted(runtime.breakers):
            breaker = runtime.breakers[origin]
            out.append(("repro_gateway_breaker_fast_fails",
                        "requests fast-failed by an open breaker",
                        {"origin": origin}, float(breaker.fast_fails)))
            out.append(("repro_gateway_breaker_transitions",
                        "breaker state transitions",
                        {"origin": origin}, float(len(breaker.transitions))))
        return out

    registry.register_collector(collect_breakers)
    for session_id in sorted(runtime.sessions):
        battery = runtime.sessions[session_id].battery
        if battery is not None:
            export_battery(registry, battery, device=session_id)


def export_fleet(registry: MetricsRegistry, fleet) -> None:
    """Adapter for a :class:`~repro.fleet.runtime.ShardedFleet`: the
    supervisor's crash/recovery ledger plus live per-shard collectors
    (checkpoints written, journal health, liveness, session counts)
    and the recovery-latency distribution."""
    attach_ledger(registry, "repro_fleet", fleet.stats,
                  fields=["crashes", "detections", "restarts",
                          "heartbeat_misses", "sessions_migrated",
                          "migrations_warm", "migrations_cold_resume",
                          "migrations_cold_full", "checkpoints_restored",
                          "shed_recovering", "requests_while_down",
                          "black_holed_frames", "flushed_replies",
                          "migration_deferrals", "battery_refusals",
                          "recovery_energy_mj", "journal_bytes_torn"],
                  help_text="sharded fleet crash/recovery ledger")

    def collect_shards():
        out = []
        for shard in fleet.shards:
            labels = {"shard": shard.name}
            journal = shard.journal
            out.append(("repro_fleet_shard_alive",
                        "1 when the shard is live", labels,
                        1.0 if shard.alive else 0.0))
            out.append(("repro_fleet_shard_sessions",
                        "sessions currently owned", labels,
                        float(len(shard.runtime.sessions))))
            out.append(("repro_fleet_shard_crashes",
                        "times this shard died", labels,
                        float(shard.crash_count)))
            out.append(("repro_fleet_checkpoints_written",
                        "checkpoint frames durably appended", labels,
                        float(journal.checkpoints_written)))
            out.append(("repro_fleet_journal_bytes",
                        "journal bytes on stable storage", labels,
                        float(len(journal))))
            out.append(("repro_fleet_journal_evictions",
                        "journal index evictions (bounded state)", labels,
                        float(journal.evictions)))
            out.append(("repro_fleet_journal_torn_records",
                        "torn frames seen during recovery", labels,
                        float(journal.torn_records)))
            # Answer ledger summed across incarnations (restarts swap
            # the live stats object; the retired ones still count).
            ledgers = shard.ledgers
            for field_name, help_text in (
                    ("served", "requests served across incarnations"),
                    ("degraded", "degraded answers across incarnations"),
                    ("shed", "requests shed across incarnations"),
                    ("energy_mj",
                     "airlink energy charged across incarnations (mJ)")):
                total = sum(getattr(stats, field_name)
                            for stats in ledgers)
                out.append((f"repro_fleet_shard_{field_name}",
                            help_text, labels, float(total)))
        return out

    def collect_recovery():
        stats = fleet.stats
        cache = fleet.ticket_cache
        return [
            ("repro_fleet_recovery_p50_s",
             "median crash-to-migrated virtual latency", {},
             stats.recovery_p50_s()),
            ("repro_fleet_recovery_p95_s",
             "p95 crash-to-migrated virtual latency", {},
             stats.recovery_p95_s()),
            ("repro_fleet_ticket_cache_entries",
             "resumable tickets currently cached", {},
             float(len(cache))),
            ("repro_fleet_ticket_cache_evictions",
             "tickets evicted by the bounded cache", {},
             float(cache.evictions)),
            ("repro_fleet_ticket_cache_expired",
             "tickets expired by rotation GC", {},
             float(cache.expired)),
        ]

    registry.register_collector(collect_shards)
    registry.register_collector(collect_recovery)
