"""The m-commerce workload report: what a transaction costs, by suite
and by battery class.

Turns one :class:`~repro.workloads.mcommerce.MCommerceResult` into a
plain dict (and its canonical JSON form): the traffic ledger (session
mix, arrivals, answer counts), the SET payment audit (every purchase
authorised, every dual-signature binding holding), the per-suite
transaction economics — transactions, airlink bytes, bulk compute
millijoules, millijoules per transaction — the per-battery-class
drain, and the energy block reconciled exactly against the battery
ledgers.

``format_report`` is byte-stable: ``json.dumps(..., sort_keys=True)``
over rounded floats, so two same-seed runs compare with ``cmp`` — the
CI gate for a deterministic workload plane.
"""

from __future__ import annotations

from typing import Dict

from ..workloads.mcommerce import BATTERY_CLASSES
from .report import format_report  # noqa: F401  (re-exported)


def build_report(result) -> Dict[str, object]:
    """The m-commerce report as a plain, JSON-ready dict."""
    fleet = result.fleet
    recon = result.reconciliation
    totals = fleet.runtime_totals()
    answered = sum(result.per_session_replies.values())
    horizon_s = max((max(plan.arrivals_s) for plan in result.plans
                     if plan.arrivals_s), default=0.0)

    by_suite: Dict[str, Dict[str, float]] = {}
    by_class: Dict[str, Dict[str, float]] = {}
    for plan in result.plans:
        battery = result.batteries[plan.session_id]
        drained_mj = battery.drained_mj
        wire_bytes = fleet.channels[plan.session_id].wire_bytes
        transactions = len(plan.arrivals_s)
        suite_row = by_suite.setdefault(plan.suite_name, {
            "sessions": 0, "transactions": 0, "answered": 0,
            "wire_bytes": 0, "battery_drain_mj": 0.0})
        suite_row["sessions"] += 1
        suite_row["transactions"] += transactions
        suite_row["answered"] += result.per_session_replies[plan.session_id]
        suite_row["wire_bytes"] += wire_bytes
        suite_row["battery_drain_mj"] += drained_mj
        class_row = by_class.setdefault(plan.battery_class, {
            "sessions": 0, "transactions": 0,
            "capacity_mj": 0.0, "battery_drain_mj": 0.0})
        class_row["sessions"] += 1
        class_row["transactions"] += transactions
        class_row["capacity_mj"] += battery.capacity_j * 1000.0
        class_row["battery_drain_mj"] += drained_mj

    for name, row in by_suite.items():
        row["compute_mj"] = round(result.compute_mj.get(name, 0.0), 6)
        row["battery_drain_mj"] = round(row["battery_drain_mj"], 6)
        row["mj_per_transaction"] = round(
            row["battery_drain_mj"] / row["transactions"]
            if row["transactions"] else 0.0, 6)
    for row in by_class.values():
        row["battery_drain_mj"] = round(row["battery_drain_mj"], 6)
        row["capacity_mj"] = round(row["capacity_mj"], 6)
        row["mj_per_transaction"] = round(
            row["battery_drain_mj"] / row["transactions"]
            if row["transactions"] else 0.0, 6)
        row["drain_fraction"] = round(
            row["battery_drain_mj"] / row["capacity_mj"]
            if row["capacity_mj"] else 0.0, 6)

    transactions_total = sum(len(plan.arrivals_s)
                             for plan in result.plans)
    user_mj = sum(battery.drained_mj
                  for battery in result.batteries.values())
    report: Dict[str, object] = {
        "params": dict(result.params),
        "traffic": {
            "sessions": len(result.plans),
            "session_mix": {
                kind: sum(1 for p in result.plans if p.kind == kind)
                for kind in ("browse", "authenticate", "purchase")},
            "battery_classes": {
                klass.name: sum(1 for p in result.plans
                                if p.battery_class == klass.name)
                for klass in BATTERY_CLASSES},
            "transactions": transactions_total,
            "truncated_sessions": sum(1 for p in result.plans
                                      if p.truncated),
            "submitted": fleet.submitted,
            "answered": answered,
            "answer_rate": round(
                answered / fleet.submitted if fleet.submitted else 1.0, 6),
            "counts": dict(result.counts),
            "horizon_s": round(horizon_s, 6),
            "transactions_per_s": round(
                transactions_total / horizon_s if horizon_s else 0.0, 6),
        },
        "payments": {
            "purchases": len(result.payments),
            "authorised": sum(1 for p in result.payments
                              if p["auth_code"]),
            "bindings_hold": all(p["binding_holds"]
                                 for p in result.payments),
            "amount_cents_total": sum(p["amount_cents"]
                                      for p in result.payments),
            "orders": [p["order_id"] for p in result.payments],
        },
        "by_suite": by_suite,
        "by_battery_class": by_class,
        "energy": {
            "user_mj": round(user_mj, 6),
            "gateway_radio_mj": round(totals["energy_mj"], 6),
            "bulk_compute_mj": round(sum(result.compute_mj.values()), 6),
            "dual_signature_mj": round(result.dual_signature_mj, 6),
            "attributed_mj": round(recon.attributed_mj, 6),
            "battery_drain_mj": round(recon.battery_drain_mj, 6),
            "battery_refusals": int(totals["battery_refusals"]),
            "brownouts": {key: result.brownouts[key]
                          for key in sorted(result.brownouts)},
            "reconciled": recon.ok,
        },
    }
    return report
