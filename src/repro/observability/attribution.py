"""Energy/cycle attribution: the bridge between spans and the §3.2/§4.1
cost models.

Instrumented layers call the ``*_cycles`` helpers to price their work
with the calibrated :mod:`repro.hardware.cycles` model and charge it to
the innermost open span; ``Battery.drain_mj`` charges real battery
withdrawals the same way.  The roll-up helpers then answer the paper's
measurement questions from a finished trace:

* :func:`span_rollup` — per-span-name self/inclusive totals (the
  flamegraph aggregation behind ``python -m repro telemetry-report``);
* :func:`phase_energy_mj` — "which protocol phase burned the battery",
  the live-run regeneration of the Fig. 4 breakdown;
* :func:`reconcile_energy` — the acceptance check that everything the
  batteries lost is attributed somewhere in the trace.

Reconciliation holds *by construction*: the battery probe fires only
after a successful withdrawal, so refused
:class:`~repro.hardware.battery.BatteryEmpty` drains are never
attributed, and the sum over spans (plus the unattributed bucket)
equals ``capacity - remaining`` summed over batteries, up to float
summation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..hardware.cycles import bulk_ipb, handshake_cost, modmult_instructions
from .spans import Span, Telemetry


# ---------------------------------------------------------------------------
# Pricing helpers (called from instrumented layers while a span is open)
# ---------------------------------------------------------------------------

def record_cycles(cipher: str, mac: str, n_bytes: int) -> float:
    """Modelled instruction count for protecting one record's payload."""
    return bulk_ipb(cipher, mac) * n_bytes


def handshake_cycles(rsa_bits: int = 1024, use_crt: bool = False,
                     resumed: bool = False) -> float:
    """Modelled instruction count for one full/resumed handshake."""
    return handshake_cost(rsa_bits, use_crt, resumed=resumed).total_mi * 1e6


def modexp_cycles(exponent: int, mod_bits: int) -> float:
    """Square-and-multiply cost: one modular multiply per exponent bit
    plus one per set bit (same convention as
    :func:`~repro.hardware.cycles.rsa_public_instructions`)."""
    if exponent <= 0:
        return 0.0
    mults = exponent.bit_length() + bin(exponent).count("1") - 1
    return mults * modmult_instructions(mod_bits)


# ---------------------------------------------------------------------------
# Roll-ups over a finished trace
# ---------------------------------------------------------------------------

@dataclass
class RollupRow:
    """Aggregate over every span sharing one name."""

    name: str
    count: int = 0
    self_mj: float = 0.0
    self_cycles: float = 0.0
    inclusive_mj: float = 0.0
    inclusive_cycles: float = 0.0
    duration_s: float = 0.0


def _inclusive(span: Span, children: Dict[Optional[int], List[Span]],
               cache: Dict[int, tuple]) -> tuple:
    cached = cache.get(span.span_id)
    if cached is not None:
        return cached
    mj = span.energy_mj
    cycles = span.cycles
    for child in children.get(span.span_id, ()):
        child_mj, child_cycles = _inclusive(child, children, cache)
        mj += child_mj
        cycles += child_cycles
    cache[span.span_id] = (mj, cycles)
    return mj, cycles


def span_rollup(telemetry: Telemetry) -> List[RollupRow]:
    """Per-name aggregation with self and inclusive energy/cycles,
    sorted by inclusive energy (heaviest first), ties by name."""
    children: Dict[Optional[int], List[Span]] = {}
    for span in telemetry.spans:
        children.setdefault(span.parent_id, []).append(span)
    cache: Dict[int, tuple] = {}
    rows: Dict[str, RollupRow] = {}
    for span in telemetry.spans:
        row = rows.setdefault(span.name, RollupRow(span.name))
        row.count += 1
        row.self_mj += span.energy_mj
        row.self_cycles += span.cycles
        inc_mj, inc_cycles = _inclusive(span, children, cache)
        row.inclusive_mj += inc_mj
        row.inclusive_cycles += inc_cycles
        row.duration_s += span.duration_s
    return sorted(rows.values(),
                  key=lambda r: (-r.inclusive_mj, r.name))


def phase_energy_mj(telemetry: Telemetry,
                    phases: Sequence[str] = ("handshake", "record.encode",
                                             "record.decode", "arq.retransmit",
                                             "gateway.admit", "gateway.serve",
                                             "gateway.wired-leg")) -> Dict[str, float]:
    """The Fig. 4 question answered from a live trace: inclusive mJ per
    protocol phase (plus ``other`` and ``unattributed`` buckets so the
    totals always account for every millijoule)."""
    children: Dict[Optional[int], List[Span]] = {}
    for span in telemetry.spans:
        children.setdefault(span.parent_id, []).append(span)
    cache: Dict[int, tuple] = {}
    by_id = {span.span_id: span for span in telemetry.spans}

    def covered_by_phase(span: Span) -> bool:
        node: Optional[Span] = span
        while node is not None:
            if node.name in phases:
                return True
            node = by_id.get(node.parent_id) if node.parent_id else None
        return False

    out: Dict[str, float] = {name: 0.0 for name in phases}
    other = 0.0
    for span in telemetry.spans:
        if span.name in phases:
            # Only count at the outermost phase boundary: a phase span
            # nested under another phase span is already included.
            parent = by_id.get(span.parent_id) if span.parent_id else None
            if parent is not None and covered_by_phase(parent):
                continue
            mj, _ = _inclusive(span, children, cache)
            out[span.name] += mj
        elif not covered_by_phase(span):
            other += span.energy_mj
    out["other"] = other
    out["unattributed"] = telemetry.unattributed_mj
    return out


def adversary_energy_mj(telemetry: Telemetry) -> Dict[str, float]:
    """Inclusive millijoules per adversary class, from ``adversary.fire``
    spans (the adversary plane wraps every attack event in one).

    The survivability report uses this to split "energy the attackers
    spent" by class; benign/user energy is whatever the batteries lost
    outside these spans."""
    children: Dict[Optional[int], List[Span]] = {}
    for span in telemetry.spans:
        children.setdefault(span.parent_id, []).append(span)
    cache: Dict[int, tuple] = {}
    out: Dict[str, float] = {}
    for span in telemetry.spans:
        if span.name != "adversary.fire":
            continue
        kind = str(span.attrs.get("adversary", "unknown"))
        mj, _ = _inclusive(span, children, cache)
        out[kind] = out.get(kind, 0.0) + mj
    return out


@dataclass
class EnergyReconciliation:
    """Result of checking the trace against the batteries themselves."""

    attributed_mj: float
    battery_drain_mj: float
    tolerance_mj: float
    per_phase_mj: Dict[str, float] = field(default_factory=dict)

    @property
    def delta_mj(self) -> float:
        return self.attributed_mj - self.battery_drain_mj

    @property
    def ok(self) -> bool:
        return abs(self.delta_mj) <= self.tolerance_mj


def reconcile_energy(telemetry: Telemetry, batteries,
                     rel_tolerance: float = 1e-9) -> EnergyReconciliation:
    """Check that span-attributed battery energy equals the total the
    batteries actually lost (``capacity - remaining`` summed).

    Only ``kind="battery"`` attribution counts — modelled radio energy
    charged to the gateway (which has no battery) is tracked separately
    by the metrics registry and must not inflate this total.  The
    telemetry side therefore reads the registry's per-kind counter.
    """
    attributed = 0.0
    for name, key, value in telemetry.registry.samples():
        if name != "repro_telemetry_energy_mj_total":
            continue
        if ("kind", "battery") in key:
            attributed += value
    drained = sum(b.drained_mj for b in batteries)
    tolerance = max(1e-6, rel_tolerance * max(abs(attributed), abs(drained)))
    return EnergyReconciliation(
        attributed_mj=attributed,
        battery_drain_mj=drained,
        tolerance_mj=tolerance,
        per_phase_mj=phase_energy_mj(telemetry),
    )
