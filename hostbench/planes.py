"""The three benchmark workloads, driven through the public ``repro`` API.

* ``failover`` -- :func:`repro.fleet.run_failover`, the seeded crash
  sweep that kills every shard (3DES suite only).
* ``mcommerce`` -- :func:`repro.workloads.run_mcommerce` over a healthy
  fleet (mixed suites, SET payments).
* ``records`` -- a closed loop with one client sealing and opening
  single records on the WTLS (per-record rekey) and mini-TLS (running
  cipher) codecs.

Each plane knows how to ``execute`` one batch on a seed, ``check`` its
outputs (the checks feed ``error_ratio``), and run the timed phase.
Only ``execute`` is timed; the checks run outside the timed spans.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import refspeed
from repro.analysis import failover as failover_report
from repro.analysis import mcommerce as mcommerce_report
from repro.fleet import FleetConfig, ShardedFleet, run_failover
from repro.hardware.energy import EnergyModel
from repro.protocols.alerts import ProtocolAlert
from repro.protocols.ciphersuites import SUITES_BY_NAME
from repro.protocols.gateway_runtime import GatewayRuntime
from repro.protocols.records import (
    CONTENT_APPLICATION,
    RecordDecoder,
    RecordEncoder,
)
from repro.protocols.wtls import WTLSRecordDecoder, WTLSRecordEncoder
from repro.workloads import plan_workload, run_mcommerce

RECORD_SUITES = [
    "NULL_WITH_SHA",
    "RSA_WITH_RC4_128_SHA",
    "RSA_WITH_AES_128_CBC_SHA",
    "RSA_WITH_A51_228_SHA",
    "RSA_WITH_GRAIN_V1_SHA",
    "RSA_WITH_TRIVIUM_SHA",
]
CODECS = {
    "wtls": (WTLSRecordEncoder, WTLSRecordDecoder),
    "tls": (RecordEncoder, RecordDecoder),
}


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th batch of a run: the run's own seed
    first (so batch 0 matches ``python -m repro <plane> --seed``),
    then ``seed * 1000 + index``."""
    return seed if index == 0 else seed * 1000 + index


@dataclass
class Batch:
    """What one operation batch did and whether its outputs held."""

    ops: int
    failed_ops: int
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Simulated quantities (deterministic for a given seed).
    drain_mj: float = 0.0
    answered: int = 0
    served: int = 0
    report_sha256: Optional[str] = None

    @property
    def failed_checks(self) -> List[str]:
        return sorted(name for name, ok in self.checks.items() if not ok)


class ServeSampler:
    """Host time of each request the gateway serves (origin proxy over
    the wired TLS leg, WTLS reply), sampled around
    ``GatewayRuntime._serve_one``, with a calibration slice
    (:mod:`refspeed`) after every ``EVERY`` serves.

    Admissions are left out: a cheap admission and a serve are
    different operations, and mixed into one distribution they put the
    median on the gap between the two.  ``owner[i]`` is the index of
    the last slice taken before serve ``i`` (``-1`` before the first);
    slice ``j`` paused the workload from ``pause_start_ns[j]`` to
    ``pause_end_ns[j]`` and timed ``slices_ns[j]`` of that."""

    EVERY = 8

    def __init__(self, calibrator: refspeed.Calibrator) -> None:
        self.calibrator = calibrator
        self.serves_ns: List[int] = []
        self.owner: List[int] = []
        self.slices_ns: List[int] = []
        self.pause_start_ns: List[int] = []
        self.pause_end_ns: List[int] = []
        self._original = None

    def __enter__(self) -> "ServeSampler":
        original = self._original = GatewayRuntime._serve_one
        serves = self.serves_ns
        owner = self.owner
        slices = self.slices_ns
        starts = self.pause_start_ns
        ends = self.pause_end_ns
        clock = time.perf_counter_ns
        every = self.EVERY
        calibrate = self.calibrator.slice_ns

        def serve_one(runtime) -> None:
            start = clock()
            original(runtime)
            serves.append(clock() - start)
            owner.append(len(slices) - 1)
            if len(serves) % every == 0:
                starts.append(clock())
                slices.append(calibrate())
                ends.append(clock())

        GatewayRuntime._serve_one = serve_one
        return self

    def __exit__(self, *exc) -> None:
        GatewayRuntime._serve_one = self._original


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _drained_mj(batteries) -> float:
    return sum((battery.capacity_j - battery.remaining_j) * 1000.0
               for battery in batteries)


class FleetPlane:
    """A fleet workload: one batch is one seeded simulation run and an
    operation is one submitted request.  Subclasses give ``PARAMS``,
    ``execute`` and ``check``."""

    name = ""
    #: Workload parameters the benchmark measures.
    PARAMS: Dict[str, object] = {}
    #: Batches that always run; the ``sim_*`` metrics are read from
    #: exactly these, so they do not depend on host speed.
    sim_batches = 0

    def __init__(self, params: Optional[Dict[str, object]] = None) -> None:
        self.params = dict(self.PARAMS if params is None else params)

    def timed_run(self, seed: int, seconds: float
                  ) -> Tuple[List[Batch], refspeed.Timing, Dict[str, bool]]:
        """Batches on sub-seeds of ``seed`` for about ``seconds``.

        Each batch's ``execute`` is timed; its check runs after the
        timed span.  The span is cut at the calibration slices inside
        it; each piece of work is scaled by the slowdown measured at
        the slice that ends it (the last slice for the tail)."""
        sampler = ServeSampler(refspeed.Calibrator())
        batches: List[Batch] = []
        spans = []
        start = time.perf_counter()
        with sampler:
            index = 0
            while True:
                elapsed = time.perf_counter() - start
                if index >= self.sim_batches and (
                        elapsed + elapsed / index > seconds):
                    break
                first = (len(sampler.slices_ns), len(sampler.serves_ns),
                         time.perf_counter_ns())
                result = self.execute(sub_seed(seed, index))
                spans.append((first, (len(sampler.slices_ns),
                                      len(sampler.serves_ns),
                                      time.perf_counter_ns())))
                batches.append(self.check(result))
                index += 1
        factors = refspeed.slowdowns(sampler.slices_ns)
        timing = refspeed.Timing()
        for batch, ((s0, e0, t0), (s1, e1, t1)) in zip(batches, spans):
            resumed = [t0] + sampler.pause_end_ns[s0:s1]
            paused = sampler.pause_start_ns[s0:s1] + [t1]
            local = factors[s0:s1] or [statistics.median(factors)]
            work_ns = scaled_ns = 0.0
            for k, (begin, end) in enumerate(zip(resumed, paused)):
                work_ns += end - begin
                scaled_ns += (end - begin) / local[min(k, len(local) - 1)]
            timing.add(batch.ops, work_ns / 1e9, work_ns / scaled_ns,
                       sampler.serves_ns[e0:e1],
                       [factors[max(0, owner)]
                        for owner in sampler.owner[e0:e1]])
        return batches, timing, {}


class FailoverPlane(FleetPlane):
    """The seeded crash sweep."""

    name = "failover"
    PARAMS = {"sessions": 192, "shards": 8, "requests_per_session": 6,
              "interarrival_s": 4.0}
    sim_batches = 2

    def build_world(self, seed: int) -> ShardedFleet:
        """The fleet the run stands up: CA, gateway/origin keys, shards."""
        return ShardedFleet(config=FleetConfig(shards=self.params["shards"]),
                            seed=seed)

    def execute(self, seed: int):
        return run_failover(seed=seed, **self.params)

    def check(self, result) -> Batch:
        expected = self.params["requests_per_session"]
        missing = sum(max(0, expected - count)
                      for count in result.per_session_replies.values())
        submitted = result.fleet.submitted
        text = failover_report.format_report(
            failover_report.build_report(result))
        return Batch(
            ops=submitted, failed_ops=missing,
            checks={
                "every_request_answered": (
                    missing == 0
                    and submitted == expected * self.params["sessions"]),
                "energy_reconciles": result.reconciliation.ok,
                "every_shard_crashed": all(
                    shard.crash_count >= 1 for shard in result.fleet.shards),
            },
            drain_mj=_drained_mj(result.batteries.values()),
            answered=sum(result.per_session_replies.values()),
            served=result.counts["served"],
            report_sha256=_sha256(text))


class MCommercePlane(FleetPlane):
    """Mixed-suite m-commerce over a healthy fleet."""

    name = "mcommerce"
    PARAMS = {"sessions": 120, "shards": 24, "duration_s": 8.0}
    #: More than ``failover``: the seed draws the purchase mix, which
    #: moves the energy per request by several percent per batch.
    sim_batches = 4

    def build_world(self, seed: int):
        """The fleet plus the seeded handset plan."""
        fleet = ShardedFleet(config=FleetConfig(shards=self.params["shards"]),
                             seed=seed)
        plans = plan_workload(self.params["sessions"], seed,
                              self.params["duration_s"])
        return fleet, plans

    def execute(self, seed: int):
        return run_mcommerce(seed=seed, **self.params)

    def check(self, result) -> Batch:
        submitted = sum(len(plan.arrivals_s) for plan in result.plans)
        missing = sum(
            max(0, len(plan.arrivals_s)
                - result.per_session_replies[plan.session_id])
            for plan in result.plans)
        text = mcommerce_report.format_report(
            mcommerce_report.build_report(result))
        return Batch(
            ops=submitted, failed_ops=missing,
            checks={
                "every_request_answered": missing == 0,
                "energy_reconciles": result.reconciliation.ok,
                "payment_bindings_hold": bool(result.payments) and all(
                    payment["binding_holds"] for payment in result.payments),
            },
            drain_mj=_drained_mj(result.batteries.values()),
            answered=sum(result.per_session_replies.values()),
            served=result.counts["served"],
            report_sha256=_sha256(text))


@dataclass
class Cell:
    """One (suite, codec, record size) combination with its live
    encoder/decoder pair."""

    suite: str
    codec: str
    size: int
    encoder: object
    decoder: object

    def seal(self, payload: bytes) -> bytes:
        if self.codec == "wtls":
            return self.encoder.encode(payload)
        return self.encoder.encode(CONTENT_APPLICATION, payload)

    def open(self, record: bytes) -> bytes:
        if self.codec == "wtls":
            return self.decoder.decode(record)[1]
        content_type, payload = self.decoder.decode(record)
        if content_type != CONTENT_APPLICATION:
            raise ValueError("content type changed in transit")
        return payload


class RecordsWorld:
    """Codec pairs for every cell plus a seeded payload pool."""

    POOL = 16

    def __init__(self, sizes: List[int], seed: int) -> None:
        rng = random.Random(seed)
        self.cells: List[Cell] = []
        for name in RECORD_SUITES:
            suite = SUITES_BY_NAME[name]
            for codec, (encoder_cls, decoder_cls) in CODECS.items():
                for size in sizes:
                    cipher_key = rng.randbytes(suite.cipher_key_bytes)
                    mac_key = rng.randbytes(suite.mac_key_bytes)
                    iv = rng.randbytes(suite.iv_bytes)
                    self.cells.append(Cell(
                        name, codec, size,
                        encoder_cls(suite, cipher_key, mac_key, iv),
                        decoder_cls(suite, cipher_key, mac_key, iv)))
        self.payloads = {size: [rng.randbytes(size)
                                for _ in range(self.POOL)]
                         for size in sizes}
        self.order_rng = random.Random(seed ^ 0x5EED)
        self.round = 0

    def next_round(self) -> List[tuple]:
        """The next round: every cell once, in seeded order, each with
        a payload from the pool."""
        order = list(range(len(self.cells)))
        self.order_rng.shuffle(order)
        pool_index = self.round % self.POOL
        self.round += 1
        return [(self.cells[index],
                 self.payloads[self.cells[index].size][pool_index])
                for index in order]


class RecordsPlane:
    """Closed loop with one client.  An operation is one record sealed
    and opened, checked byte-identical; a batch is one round (every
    cell once)."""

    name = "records"
    #: ``trace_rounds`` is the number of rounds in the traced batch.
    PARAMS = {"sizes": [64, 1024], "trace_rounds": 30}
    #: The ``sim_*`` metrics are read from the first round.
    sim_batches = 1

    def __init__(self, params: Optional[Dict[str, object]] = None) -> None:
        self.params = dict(self.PARAMS if params is None else params)
        self.energy = EnergyModel()

    def build_world(self, seed: int) -> RecordsWorld:
        return RecordsWorld(self.params["sizes"], seed)

    def round_trip_mj(self, suite_name: str, wire_bytes: int,
                      payload_bytes: int) -> float:
        """§3 compute energy of one seal+open: the cipher over the
        sealed record's wire bytes and the MAC over the payload, once
        on each side."""
        suite = SUITES_BY_NAME[suite_name]
        return 2 * (self.energy.bulk_crypto_mj(suite.cipher,
                                               wire_bytes / 1024.0)
                    + self.energy.bulk_crypto_mj(suite.mac,
                                                 payload_bytes / 1024.0))

    def run_round(self, world: RecordsWorld,
                  samples: Optional[List[int]] = None) -> Batch:
        """Seal and open one record per cell; ``samples`` collects the
        host nanoseconds of each round trip.  The modelled energy is
        summed over the records that round-tripped, at the length the
        codec sealed them."""
        clock = time.perf_counter_ns
        failed = 0
        drain_mj = 0.0
        cells = world.next_round()
        for cell, payload in cells:
            began = clock()
            try:
                record = cell.seal(payload)
                ok = cell.open(record) == payload
            except (ProtocolAlert, ValueError):
                ok = False
            elapsed = clock() - began
            if samples is not None:
                samples.append(elapsed)
            if ok:
                drain_mj += self.round_trip_mj(cell.suite, len(record),
                                               len(payload))
            else:
                failed += 1
        return Batch(ops=len(cells), failed_ops=failed, drain_mj=drain_mj,
                     answered=len(cells) - failed,
                     served=len(cells) - failed)

    @staticmethod
    def tamper_checks(world: RecordsWorld) -> Dict[str, bool]:
        """Per suite and codec: a record with one flipped bit is
        rejected, and the genuine record still opens afterwards."""
        checks: Dict[str, bool] = {}
        for cell in world.cells:
            if cell.size != min(world.payloads):
                continue
            payload = world.payloads[cell.size][0]
            record = cell.seal(payload)
            damaged = bytearray(record)
            damaged[-1] ^= 0x01
            try:
                cell.open(bytes(damaged))
                rejected = False
            except (ProtocolAlert, ValueError):
                rejected = True
            try:
                recovered = cell.open(record) == payload
            except (ProtocolAlert, ValueError):
                recovered = False
            checks[f"tamper_rejected:{cell.codec}/{cell.suite}"] = (
                rejected and recovered)
        return checks

    def execute(self, seed: int) -> Tuple[RecordsWorld, List[Batch]]:
        """The traced batch: build the codecs (so the tracer sees every
        rekey bind) and run ``trace_rounds`` rounds."""
        world = self.build_world(seed)
        return world, [self.run_round(world)
                       for _ in range(self.params["trace_rounds"])]

    def check(self, result: Tuple[RecordsWorld, List[Batch]]) -> Batch:
        world, rounds = result
        return Batch(
            ops=sum(batch.ops for batch in rounds),
            failed_ops=sum(batch.failed_ops for batch in rounds),
            checks=self.tamper_checks(world),
            drain_mj=sum(batch.drain_mj for batch in rounds),
            answered=sum(batch.answered for batch in rounds),
            served=sum(batch.served for batch in rounds))

    def timed_run(self, seed: int, seconds: float
                  ) -> Tuple[List[Batch], refspeed.Timing, Dict[str, bool]]:
        """Rounds for about ``seconds``, each after a calibration slice
        and scaled by the slowdown around it; then the tamper checks."""
        calibrator = refspeed.Calibrator()
        world = self.build_world(seed)
        batches: List[Batch] = []
        walls: List[int] = []
        slices: List[int] = []
        round_samples: List[List[int]] = []
        start = time.perf_counter()
        while (len(batches) < self.sim_batches
               or time.perf_counter() - start < seconds):
            slices.append(calibrator.slice_ns())
            samples: List[int] = []
            began = time.perf_counter_ns()
            batches.append(self.run_round(world, samples))
            walls.append(time.perf_counter_ns() - began)
            round_samples.append(samples)
        checks = self.tamper_checks(world)
        timing = refspeed.Timing()
        for batch, wall, samples, factor in zip(
                batches, walls, round_samples, refspeed.slowdowns(slices)):
            timing.add(batch.ops, wall / 1e9, factor, samples,
                       [factor] * len(samples))
        return batches, timing, checks


PLANES = {
    "failover": FailoverPlane,
    "mcommerce": MCommercePlane,
    "records": RecordsPlane,
}
