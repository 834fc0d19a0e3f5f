"""The fleet watchtower: tracing + windows + SLOs over one chaos run.

This is the tentpole assembly of the fleet observability plane.  A
:class:`FleetWatch` rides the failover scenario through the
``instrument`` seam of :func:`~repro.fleet.scenario.run_failover`:

* a recurring sampler on the shared
  :class:`~repro.fleet.scheduler.EventScheduler` scrapes the ordinary
  metrics registry (the per-shard answer-ledger collectors from
  :func:`~repro.observability.metrics.export_fleet`) and converts
  cumulative counters into **windowed deltas** — per-window goodput,
  shed mix, serve-vs-recovery energy split, recovery-tier counts —
  per shard and fleet-wide;
* served latencies and crash-to-migrated recovery latencies feed
  quantile-sketched :class:`~repro.observability.timeseries.WindowedSeries`
  (p50/p95/p99 per window, sketches mergeable across shards);
* every closed tumbling window is fed to an
  :class:`~repro.observability.slo.SloEngine` evaluating the default
  availability / latency-quantile / energy-budget objectives with
  fast+slow burn-rate policies, latching alerts into the ledger.

Scheduling the sampler is **behaviour-neutral**: a recurring control
event only advances the virtual clock to times the run would cross
anyway — serve outcomes depend on arrival and service times, never on
which intermediate instants the clock visited — and recurring events
do not count against scheduler quiescence.  Same seed, same report
bytes, with or without a watcher is *not* claimed (the watcher adds
spans of its own); what is guaranteed is that two same-seed *watched*
runs are byte-identical, and that the underlying failover ledger is
unchanged by watching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .slo import BurnRatePolicy, SloEngine, SloSpec
from .spans import Telemetry
from .timeseries import QuantileSketch, WindowedSeries, register_series

_EPS = 1e-9

#: Fleet-ledger counters mirrored into windowed series (metric name in
#: the registry scrape -> series key).
_FLEET_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("repro_fleet_migrations_warm", "tier_warm"),
    ("repro_fleet_migrations_cold_resume", "tier_cold_resume"),
    ("repro_fleet_migrations_cold_full", "tier_cold_full"),
    ("repro_fleet_shed_recovering", "shed_recovering"),
    ("repro_fleet_recovery_energy_mj", "recovery_mj"),
)


@dataclass(frozen=True)
class FleetWatchConfig:
    """Window geometry, sampling cadence, and SLO thresholds.

    Defaults are sized for the canonical seed-2003 failover run
    (~18.5 virtual seconds): one-second tumbling windows sliding by
    half, sampled four times per window.
    """

    window_s: float = 1.0
    slide_s: float = 0.5
    sample_interval_s: float = 0.25
    availability_objective: float = 0.95
    latency_objective: float = 0.95
    latency_threshold_s: float = 0.25
    #: Sustainable airlink spend (serve + recovery) per served
    #: request, in mJ.  The healthy fleet runs well under 2 mJ; crash
    #: windows blow through it — which is the point.
    energy_budget_mj: float = 2.0


def default_slos(config: FleetWatchConfig) -> List[SloSpec]:
    """The stock objective set for a watched failover run."""
    return [
        SloSpec(name="availability", kind="availability",
                objective=config.availability_objective,
                description="answered requests actually served"),
        SloSpec(name="latency", kind="latency_quantile",
                objective=config.latency_objective,
                threshold=config.latency_threshold_s,
                description="served latency under the bound"),
        SloSpec(name="energy", kind="energy_budget",
                threshold=config.energy_budget_mj,
                description="airlink mJ per served request"),
    ]


def default_policies() -> List[BurnRatePolicy]:
    """Fast-page plus slow-ticket, the two-policy SRE shape."""
    return [
        BurnRatePolicy(name="page", fast_windows=1, slow_windows=4,
                       fast_burn=10.0, slow_burn=2.0, severity="page"),
        BurnRatePolicy(name="ticket", fast_windows=2, slow_windows=6,
                       fast_burn=3.0, slow_burn=1.0, severity="ticket"),
    ]


class FleetWatch:
    """Windowed metrics + SLO evaluation riding one fleet run.

    Construct it inside :func:`~repro.fleet.scenario.run_failover`'s
    ``instrument`` hook (the fleet exists, no session has attached
    yet); its :meth:`finish` is the finisher the hook returns.
    """

    def __init__(self, fleet, telemetry: Telemetry,
                 config: Optional[FleetWatchConfig] = None,
                 specs: Optional[List[SloSpec]] = None,
                 policies: Optional[List[BurnRatePolicy]] = None) -> None:
        self.fleet = fleet
        self.telemetry = telemetry
        self.config = config or FleetWatchConfig()
        cfg = self.config

        def counter(name: str) -> WindowedSeries:
            return WindowedSeries(name, cfg.window_s, cfg.slide_s)

        def quantiled(name: str) -> WindowedSeries:
            return WindowedSeries(name, cfg.window_s, cfg.slide_s,
                                  track_quantiles=True)

        self.fleet_series: Dict[str, WindowedSeries] = {
            "served": counter("fleet.served"),
            "shed": counter("fleet.shed"),
            "shed_recovering": counter("fleet.shed_recovering"),
            "serve_mj": counter("fleet.serve_mj"),
            "recovery_mj": counter("fleet.recovery_mj"),
            "tier_warm": counter("fleet.tier_warm"),
            "tier_cold_resume": counter("fleet.tier_cold_resume"),
            "tier_cold_full": counter("fleet.tier_cold_full"),
            "latency": quantiled("fleet.latency_s"),
            "recovery_latency": quantiled("fleet.recovery_latency_s"),
        }
        self.shard_series: Dict[str, Dict[str, WindowedSeries]] = {}
        for shard in fleet.shards:
            self.shard_series[shard.name] = {
                "served": counter(f"{shard.name}.served"),
                "shed": counter(f"{shard.name}.shed"),
                "energy_mj": counter(f"{shard.name}.energy_mj"),
                "latency": quantiled(f"{shard.name}.latency_s"),
            }
        self.engine = SloEngine(
            specs if specs is not None else default_slos(cfg),
            policies if policies is not None else default_policies())
        #: Scrape cursor: last seen cumulative value per (name, key).
        self._cursor: Dict[Tuple[str, Tuple], float] = {}
        #: Per-shard read position into the incarnation ledger list
        #: (ledger index, offset) — restarts append retired ledgers,
        #: so positions stay monotone across crashes.
        self._latency_pos: Dict[str, Tuple[int, int]] = {}
        self._recovery_pos = 0
        self._fed_until = 0.0
        self.samples_taken = 0
        register_series(telemetry.registry,
                        list(self.fleet_series.values()))
        self._ticker = fleet.scheduler.every(
            cfg.sample_interval_s, self.sample, label="fleetwatch")

    # -- sampling ------------------------------------------------------------

    def _delta(self, scrape: Dict[Tuple[str, Tuple], float],
               name: str, key: Tuple = ()) -> float:
        value = scrape.get((name, key), 0.0)
        previous = self._cursor.get((name, key), 0.0)
        self._cursor[(name, key)] = value
        return value - previous

    def _new_latencies(self, shard) -> List[float]:
        """Served latencies recorded since the last sample, across
        shard incarnations (restarts swap the live stats object)."""
        ledgers = shard.ledgers
        index, offset = self._latency_pos.get(shard.name, (0, 0))
        fresh: List[float] = []
        while index < len(ledgers):
            latencies = ledgers[index].latencies
            fresh.extend(latencies[offset:])
            if index == len(ledgers) - 1:
                offset = len(latencies)
                break
            index += 1
            offset = 0
        self._latency_pos[shard.name] = (index, offset)
        return fresh

    def sample(self, now: float) -> None:
        """One sampler tick: scrape the registry, bank the deltas."""
        scrape = {(name, key): value
                  for name, key, value in self.telemetry.registry.samples()}
        fleet_series = self.fleet_series
        for shard in self.fleet.shards:
            key = (("shard", shard.name),)
            mine = self.shard_series[shard.name]
            served = (
                self._delta(scrape, "repro_fleet_shard_served", key)
                + self._delta(scrape, "repro_fleet_shard_degraded", key))
            shed = self._delta(scrape, "repro_fleet_shard_shed", key)
            energy = self._delta(scrape, "repro_fleet_shard_energy_mj", key)
            mine["served"].inc(now, served)
            mine["shed"].inc(now, shed)
            mine["energy_mj"].inc(now, energy)
            fleet_series["served"].inc(now, served)
            fleet_series["shed"].inc(now, shed)
            fleet_series["serve_mj"].inc(now, energy)
            for value in self._new_latencies(shard):
                mine["latency"].observe(now, value)
                fleet_series["latency"].observe(now, value)
        for metric, series in _FLEET_COUNTERS:
            fleet_series[series].inc(now, self._delta(scrape, metric))
        recovery = self.fleet.stats.recovery_latencies
        while self._recovery_pos < len(recovery):
            fleet_series["recovery_latency"].observe(
                now, recovery[self._recovery_pos])
            self._recovery_pos += 1
        self.samples_taken += 1
        self._feed_closed_windows(now)

    def finish(self) -> None:
        """Final flush: one last sample at the run's end time, the
        trailing partial window fed, the sampler cancelled."""
        now = self.fleet.clock.now
        self.sample(now)
        self._feed_closed_windows(now, final=True)
        self._ticker.cancel()

    # -- SLO feeding ---------------------------------------------------------

    def _feed_closed_windows(self, now: float, final: bool = False) -> None:
        width = self.config.window_s
        limit = now if final \
            else math.floor((now + _EPS) / width) * width
        start = self._fed_until
        while start + width <= limit + _EPS:
            self._feed_window(start, start + width)
            start += width
        self._fed_until = start
        if final and now > start + _EPS:
            # The trailing partial window still counts for the ledger.
            self._feed_window(start, start + width)
            self._fed_until = start + width

    def _feed_window(self, start: float, end: float) -> None:
        engine = self.engine
        fs = self.fleet_series
        served = fs["served"].window(start).sum
        shed = (fs["shed"].window(start).sum
                + fs["shed_recovering"].window(start).sum)
        if "availability" in engine.specs:
            engine.record_window("availability", start, end,
                                 good=served, total=served + shed)
        if "latency" in engine.specs:
            sketch = fs["latency"].window(start).sketch
            total = sketch.total if sketch is not None else 0
            good = (sketch.count_le(self.config.latency_threshold_s)
                    if sketch is not None else 0)
            engine.record_window("latency", start, end,
                                 good=good, total=total)
        if "energy" in engine.specs:
            consumed = (fs["serve_mj"].window(start).sum
                        + fs["recovery_mj"].window(start).sum)
            engine.record_budget_window("energy", start, end,
                                        consumed=consumed, served=served)

    # -- reading -------------------------------------------------------------

    def _window_starts(self) -> List[float]:
        width = self.config.window_s
        out = []
        start = 0.0
        while start + _EPS < self._fed_until:
            out.append(start)
            start += width
        return out

    def fleet_windows(self) -> List[Dict[str, object]]:
        """The fleet-wide per-window table (JSON-ready, rounded)."""
        fs = self.fleet_series
        rows: List[Dict[str, object]] = []
        for start in self._window_starts():
            served = fs["served"].window(start).sum
            shed = fs["shed"].window(start).sum
            recovering = fs["shed_recovering"].window(start).sum
            answered = served + shed + recovering
            row: Dict[str, object] = {
                "start_s": round(start, 6),
                "end_s": round(start + self.config.window_s, 6),
                "served": round(served, 6),
                "shed": round(shed, 6),
                "shed_recovering": round(recovering, 6),
                "goodput": (round(served / answered, 6)
                            if answered else 1.0),
                "tiers": {
                    "warm": round(fs["tier_warm"].window(start).sum, 6),
                    "cold_resume": round(
                        fs["tier_cold_resume"].window(start).sum, 6),
                    "cold_full": round(
                        fs["tier_cold_full"].window(start).sum, 6),
                },
                "energy_mj": {
                    "serve": round(fs["serve_mj"].window(start).sum, 6),
                    "recovery": round(
                        fs["recovery_mj"].window(start).sum, 6),
                },
            }
            for label, series in (("latency", fs["latency"]),
                                  ("recovery_latency",
                                   fs["recovery_latency"])):
                sketch = series.window(start).sketch
                if sketch is not None and sketch.total:
                    row[label] = {
                        "p50": round(sketch.quantile(0.50), 6),
                        "p95": round(sketch.quantile(0.95), 6),
                        "p99": round(sketch.quantile(0.99), 6),
                    }
            rows.append(row)
        return rows

    def shard_windows(self) -> Dict[str, object]:
        """Per-shard window tables plus whole-run merged percentiles
        (window sketches folded with :meth:`QuantileSketch.merge` —
        the mergeability the fleet-wide view is built on)."""
        out: Dict[str, object] = {}
        for name in sorted(self.shard_series):
            series = self.shard_series[name]
            rows = []
            for start in self._window_starts():
                row = {
                    "start_s": round(start, 6),
                    "served": round(series["served"].window(start).sum, 6),
                    "shed": round(series["shed"].window(start).sum, 6),
                    "energy_mj": round(
                        series["energy_mj"].window(start).sum, 6),
                }
                sketch = series["latency"].window(start).sketch
                if sketch is not None and sketch.total:
                    row["p95"] = round(sketch.quantile(0.95), 6)
                rows.append(row)
            merged = QuantileSketch(series["latency"].bounds)
            for window in series["latency"].tumbling():
                if window.sketch is not None:
                    merged.merge(window.sketch)
            entry: Dict[str, object] = {"windows": rows}
            if merged.total:
                entry["latency"] = {
                    "count": merged.total,
                    "p50": round(merged.quantile(0.50), 6),
                    "p95": round(merged.quantile(0.95), 6),
                    "p99": round(merged.quantile(0.99), 6),
                }
            out[name] = entry
        return out

    def overall_latency(self) -> Dict[str, object]:
        """Whole-run fleet latency percentiles from merged window
        sketches (empty dict when nothing was served)."""
        merged = QuantileSketch(self.fleet_series["latency"].bounds)
        for window in self.fleet_series["latency"].tumbling():
            if window.sketch is not None:
                merged.merge(window.sketch)
        if not merged.total:
            return {}
        return {
            "count": merged.total,
            "p50": round(merged.quantile(0.50), 6),
            "p95": round(merged.quantile(0.95), 6),
            "p99": round(merged.quantile(0.99), 6),
        }


# ---------------------------------------------------------------------------
# The one-call scenario
# ---------------------------------------------------------------------------


@dataclass
class FleetwatchResult:
    """Everything one watched failover run produced."""

    failover: object          # FailoverResult (fleet, telemetry, ...)
    watch: FleetWatch
    store: object             # FleetTraceStore over the run's spans
    config: FleetWatchConfig


def run_fleetwatch(sessions: int = 24, shards: int = 4,
                   requests_per_session: int = 6,
                   interarrival_s: float = 0.35,
                   seed: int = 2003,
                   config: Optional[FleetWatchConfig] = None,
                   **failover_kwargs) -> FleetwatchResult:
    """One seeded failover chaos run with the watchtower riding along.

    Reuses :func:`~repro.fleet.scenario.run_failover` verbatim through
    its ``instrument`` seam — same fleet, same crash plan, same
    answers — and returns the watcher plus a
    :class:`~repro.observability.tracecontext.FleetTraceStore`
    partitioned from the run's single telemetry stream.
    """
    from ..fleet.scenario import run_failover
    from .tracecontext import FleetTraceStore

    watch_config = config or FleetWatchConfig()
    holder: Dict[str, FleetWatch] = {}

    def instrument(fleet, telemetry):
        watch = FleetWatch(fleet, telemetry, config=watch_config)
        holder["watch"] = watch
        return watch.finish

    failover = run_failover(
        sessions=sessions, shards=shards,
        requests_per_session=requests_per_session,
        interarrival_s=interarrival_s, seed=seed,
        instrument=instrument, **failover_kwargs)
    store = FleetTraceStore.partition(failover.telemetry, key="shard")
    return FleetwatchResult(failover=failover, watch=holder["watch"],
                            store=store, config=watch_config)
