"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction a front door:

* ``figures``        — regenerate every paper figure's data;
* ``figure N``       — one figure only;
* ``attacks``        — run the §3.4 attack/countermeasure suite;
* ``gap``            — the Figure 3 feasibility explorer;
* ``battery``        — the Figure 4 report + battery-gap projection;
* ``appliance``      — provision/boot/unlock/transact walkthrough;
* ``telemetry-report`` — seeded gateway chaos run with the telemetry
  plane on: span-tree roll-up, per-phase energy attribution, metrics
  dump, optional deterministic JSONL / flamegraph exports.
* ``conformance``    — the full conformance plane: official vectors on
  both dispatch paths, differential oracles, the handshake
  state-machine check, the seeded wire-format fuzzer, and replay of
  the committed regression corpus.  Deterministic: same seed, byte-
  identical report.
* ``survivability``  — mixed benign/attack load on one virtual clock:
  four seeded adversary classes against the gateway, exported as a
  byte-stable JSON survivability report (goodput, shed, breaker
  transitions, alerts, attacker-vs-user energy).
* ``failover``       — the sharded gateway fleet under a seeded crash
  sweep that kills every shard at least once: durable checkpoint
  restores, resumption / re-handshake cold recovery, structured
  ``recovering`` sheds, exact energy reconciliation, byte-stable
  JSON report (the CI two-run ``cmp`` gate).
* ``mcommerce``      — the §2 m-commerce workload over a healthy
  fleet: battery-class handsets negotiating the lightweight stream
  suites, heavy-tailed browse/authenticate/purchase traffic, SET
  dual-signature purchases, and millijoules-per-transaction by suite
  and battery class, energy-reconciled and byte-stable.
* ``fleetwatch``     — the same failover run with the fleet
  observability plane riding along: cross-shard journey traces
  stitched through crash/re-home/restore, windowed goodput/latency/
  energy series, and SLO burn-rate alerting — one byte-stable ops
  report, plus optional fleet-scope JSONL / Prometheus / folded
  flamegraph exports.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from .adversary import run_survivability
from .analysis import failover, fleetwatch, mcommerce, survivability
from .analysis.report import format_report
from .conformance import runner as conformance
from .fleet import run_failover
from .observability.export import (
    fleet_flamegraph_folds,
    fleet_jsonl,
    prometheus_text,
)
from .observability.fleetwatch import run_fleetwatch
from .workloads import run_mcommerce

#: A plane flag's ``run`` keyword, or ``(keyword, help text)``.
FlagSpec = Union[str, Tuple[str, str]]


@dataclass(frozen=True)
class Plane:
    """One byte-stable plane: how the CLI runs, renders and gates it.

    ``flags`` maps each CLI flag to the ``run`` keyword it sets; the
    flag's type and default are read from ``run``'s signature.
    ``exports`` maps extra ``PATH`` flags to ``(render, help text)``.
    """

    name: str
    help: str
    run: Callable[..., object]
    flags: Dict[str, FlagSpec]
    render: Callable[[object], str]
    ok: Callable[[object], bool]
    exports: Dict[str, Tuple[Callable[[object], str], str]] = field(
        default_factory=dict)


def _json(build_report: Callable[[object], dict]) -> Callable[[object], str]:
    """``render`` for a plane whose report is canonical JSON."""
    return lambda result: format_report(build_report(result))


def _reconciled(result) -> bool:
    return result.reconciliation.ok


_FLEET_FLAGS: Dict[str, FlagSpec] = {
    "sessions": "sessions",
    "shards": "shards",
    "requests": "requests_per_session",
    "interarrival": "interarrival_s",
    "seed": "seed",
}

PLANES: Tuple[Plane, ...] = (
    Plane(
        name="conformance",
        help="vectors + oracles + state machine + fuzzing, one report",
        run=conformance.run_conformance,
        flags={
            "seed": "seed",
            "fuzz-iterations": ("fuzz_iterations",
                                "mutations per fuzz target"),
            "depth": ("statemachine_depth",
                      "state-machine enumeration depth"),
        },
        render=conformance.format_report,
        ok=lambda report: report.ok,
    ),
    Plane(
        name="survivability",
        help="mixed benign/attack load -> byte-stable JSON report",
        run=run_survivability,
        flags={
            "sessions": "sessions",
            "requests": "requests_per_session",
            "interarrival": "interarrival_s",
            "attacker-fraction": ("attacker_fraction",
                                  "attacker share of total traffic"),
            "fault-rate": ("fault_rate", "wired-leg fault probability"),
            "seed": "seed",
        },
        render=_json(survivability.build_report),
        ok=_reconciled,
    ),
    Plane(
        name="failover",
        help="sharded-fleet crash sweep -> byte-stable JSON report",
        run=run_failover,
        flags=_FLEET_FLAGS,
        render=_json(failover.build_report),
        ok=_reconciled,
    ),
    Plane(
        name="mcommerce",
        help="m-commerce workload over the fleet -> byte-stable report",
        run=run_mcommerce,
        flags={
            "sessions": "sessions",
            "shards": "shards",
            "duration": ("duration_s", "virtual arrival window in seconds"),
            "seed": "seed",
        },
        render=_json(mcommerce.build_report),
        ok=lambda result: (
            result.reconciliation.ok
            and all(p["binding_holds"] for p in result.payments)),
    ),
    Plane(
        name="fleetwatch",
        help="watched failover run: traces + windows + SLO burn alerts",
        run=run_fleetwatch,
        flags=_FLEET_FLAGS,
        render=_json(fleetwatch.build_report),
        ok=lambda result: result.failover.reconciliation.ok,
        exports={
            "jsonl": (lambda result: fleet_jsonl(
                result.failover.telemetry, result.store),
                "write the fleet-scope JSONL trace log"),
            "metrics": (lambda result: prometheus_text(
                result.failover.telemetry),
                "write the final Prometheus scrape"),
            "folded": (lambda result: fleet_flamegraph_folds(
                result.failover.telemetry, result.store),
                "write shard-rooted folded flame stacks"),
        },
    ),
)


def _flag_spec(spec: FlagSpec) -> Tuple[str, Optional[str]]:
    return (spec, None) if isinstance(spec, str) else spec


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_figures(args: argparse.Namespace) -> int:
    from .analysis.figures import all_figures

    wanted = getattr(args, "number", None)
    for name, data in all_figures():
        if wanted is not None and name != f"Figure {wanted}":
            continue
        print("=" * 24, name, "=" * 24)
        print(data)
        print()
    return 0


def _cmd_attacks(args: argparse.Namespace) -> int:
    from .attacks.countermeasures import verified_crt_sign
    from .attacks.fault import FaultInjector, bellcore_attack
    from .attacks.power import (
        MaskedAES,
        acquire_aes_traces,
        cpa_attack_aes,
    )
    from .crypto.errors import SignatureError
    from .crypto.rng import DeterministicDRBG
    from .crypto.rsa import generate_keypair

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    print("CPA vs AES:", end=" ")
    result = cpa_attack_aes(acquire_aes_traces(key, 150, seed=1))
    print("key recovered" if result.key == key else "failed")
    print("CPA vs masked AES:", end=" ")
    masked = cpa_attack_aes(
        acquire_aes_traces(key, 150, seed=1, cipher_factory=MaskedAES))
    print("defeated (masking)" if masked.key != key else "BROKEN")

    rsa = generate_keypair(512, DeterministicDRBG("cli-rsa"))
    message = b"cli attack demo"
    faulty = rsa.sign(message, use_crt=True,
                      fault_hook=FaultInjector(seed=1))
    factors = bellcore_attack(rsa.public, message, faulty)
    print("Bellcore fault attack:",
          "modulus factored" if factors else "failed")
    try:
        verified_crt_sign(rsa, message, fault_hook=FaultInjector(seed=2))
        print("CRT verification: BROKEN (faulty signature released)")
    except SignatureError:
        print("CRT verification: faulty signature withheld")
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    from .analysis.report import format_table
    from .core.gap import compute_surface, max_sustainable_rate_mbps
    from .hardware.processors import CATALOG

    surface = compute_surface()
    rows = []
    for processor in CATALOG.values():
        rows.append((
            processor.name, processor.mips,
            f"{surface.feasible_fraction(processor):.0%}",
            f"{max_sustainable_rate_mbps(processor, 0.5):.2f}",
        ))
    print(format_table(
        ("processor", "MIPS", "feasible fraction",
         "max Mbps @0.5s"), rows))
    return 0


def _cmd_battery(args: argparse.Namespace) -> int:
    from .analysis.figures import figure4_data
    from .analysis.report import format_series
    from .core.battery_life import battery_gap_series

    print(figure4_data())
    series = [(year, int(count))
              for year, count in battery_gap_series(years=8)]
    print(format_series("battery gap projection", series,
                        "year", "secure transactions/charge"))
    return 0


def _cmd_appliance(args: argparse.Namespace) -> int:
    from .core.appliance import provision_appliance

    device = provision_appliance(seed=args.seed)
    report = device.boot()
    print(f"boot: {'ok' if report.succeeded else 'FAILED'} "
          f"({', '.join(report.stages_verified)})")
    sample = device._finger_simulator.read("owner")
    print(f"unlock: {device.unlock('owner', sample)}")
    execution = device.run_secure_transaction(kilobytes=1.0)
    print(f"secure transaction: {execution.time_s * 1000:.2f} ms on "
          f"{execution.engine}, battery at "
          f"{device.platform.battery.fraction_remaining:.4%}")
    return 0


def _cmd_telemetry_report(args: argparse.Namespace) -> int:
    from .observability.attribution import phase_energy_mj
    from .observability.export import (
        flamegraph_folds,
        rollup_table,
        span_tree,
        write_jsonl,
    )
    from .observability.scenario import run_gateway_chaos

    result = run_gateway_chaos(
        sessions=args.sessions,
        requests_per_session=args.requests,
        interarrival_s=args.interarrival,
        fault_rate=args.fault_rate,
        seed=args.seed,
    )
    telemetry = result.telemetry

    print("=" * 24, "telemetry report", "=" * 24)
    print(f"trace id: {telemetry.trace_id}  "
          f"(seed {args.seed}, {args.sessions} sessions x "
          f"{args.requests} requests, fault rate {args.fault_rate})")
    print(f"replies: {result.counts}")
    print()

    print("-- span tree (truncated) " + "-" * 37)
    print(span_tree(telemetry, max_spans=args.max_spans))
    print()

    print("-- energy/cycle roll-up " + "-" * 38)
    print(rollup_table(telemetry))
    print()

    print("-- per-phase energy (mJ) " + "-" * 37)
    for phase, mj in sorted(phase_energy_mj(telemetry).items(),
                            key=lambda item: (-item[1], item[0])):
        print(f"  {phase:<24} {mj:.6f}")
    recon = result.reconciliation
    print(f"  attributed {recon.attributed_mj:.6f} mJ vs battery drain "
          f"{recon.battery_drain_mj:.6f} mJ "
          f"(delta {recon.delta_mj:.3e}) -> "
          f"{'reconciled' if recon.ok else 'MISMATCH'}")
    print()

    if args.metrics:
        print("-- metrics " + "-" * 51)
        print(prometheus_text(telemetry))
        print()

    if args.jsonl:
        write_jsonl(telemetry, args.jsonl)
        print(f"wrote deterministic trace to {args.jsonl}")
    if args.folded:
        _write(args.folded, flamegraph_folds(telemetry))
        print(f"wrote flamegraph folds to {args.folded}")
    return 0 if recon.ok else 1


def _cmd_plane(plane: Plane, args: argparse.Namespace) -> int:
    result = plane.run(**{
        _flag_spec(spec)[0]: getattr(args, flag.replace("-", "_"))
        for flag, spec in plane.flags.items()})
    text = plane.render(result)
    print(text, end="")
    if args.report:
        _write(args.report, text)
    for flag, (render, _) in plane.exports.items():
        path = getattr(args, flag)
        if path:
            _write(path, render(result))
    return 0 if plane.ok(result) else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser; plane subcommands come from
    :data:`PLANES`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Securing Mobile Appliances (DATE 2003) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="regenerate all paper figures")
    figure = sub.add_parser("figure", help="regenerate one figure")
    figure.add_argument("number", type=int, choices=range(1, 7))
    sub.add_parser("attacks", help="run the attack/countermeasure demos")
    sub.add_parser("gap", help="Figure 3 feasibility explorer")
    sub.add_parser("battery", help="Figure 4 + battery-gap projection")
    appliance = sub.add_parser("appliance",
                               help="provision/boot/transact walkthrough")
    appliance.add_argument("--seed", type=int, default=0)
    telemetry = sub.add_parser(
        "telemetry-report",
        help="gateway chaos run with the telemetry plane on")
    telemetry.add_argument("--sessions", type=int, default=32)
    telemetry.add_argument("--requests", type=int, default=4)
    telemetry.add_argument("--interarrival", type=float, default=0.1)
    telemetry.add_argument("--fault-rate", type=float, default=0.2)
    telemetry.add_argument("--seed", type=int, default=0)
    telemetry.add_argument("--max-spans", type=int, default=60,
                           help="span-tree rows to print")
    telemetry.add_argument("--metrics", action="store_true",
                           help="also dump the Prometheus text format")
    telemetry.add_argument("--jsonl", metavar="PATH", default=None,
                           help="write the deterministic JSONL trace here")
    telemetry.add_argument("--folded", metavar="PATH", default=None,
                           help="write flamegraph-style folded stacks here")
    for plane in PLANES:
        command = sub.add_parser(plane.name, help=plane.help)
        parameters = inspect.signature(plane.run).parameters
        for flag, spec in plane.flags.items():
            keyword, text = _flag_spec(spec)
            default = parameters[keyword].default
            command.add_argument(f"--{flag}", type=type(default),
                                 default=default, help=text)
        command.add_argument("--report", metavar="PATH", default=None,
                             help="also write the report text here")
        for flag, (_, text) in plane.exports.items():
            command.add_argument(f"--{flag}", metavar="PATH", default=None,
                                 help=text)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    planes = {plane.name: plane for plane in PLANES}
    if args.command in planes:
        return _cmd_plane(planes[args.command], args)
    handlers = {
        "figures": _cmd_figures,
        "figure": _cmd_figures,
        "attacks": _cmd_attacks,
        "gap": _cmd_gap,
        "battery": _cmd_battery,
        "appliance": _cmd_appliance,
        "telemetry-report": _cmd_telemetry_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
