"""Layered host-time benchmark for ``repro``.

Usage (from the repository root)::

    python3 hostbench/run.py --workload failover --seed 2003 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs a traced batch between two untraced ones on
the same inputs and prints the per-layer metrics, writing the spans as
JSONL and host-time folded stacks under ``--out``.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check held.

Host time is measured with ``time.perf_counter`` and the end-to-end
timings are scaled to a reference host speed (see :mod:`refspeed`);
the virtual clock and the cycle/energy models stay the paper's
performance model, and the ``sim_*`` metrics are read from them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

import layers
import refspeed
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("failover", "mcommerce", "records")
SETUP_TIMEOUT_S = 60.0
#: Fresh interpreters whose set-up time is measured (median reported).
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_mj_per_op": "mJ",
    "sim_served_ratio": "ratio",
}


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".hostbench-out"))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_planes():
    """Import the workloads (and with them ``repro``) from ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import planes
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    return planes


# -- set-up -------------------------------------------------------------------


def _setup_probe(workload: str, seed: int) -> int:
    """Child side: import ``repro``, build the world, report the split."""
    start = time.perf_counter()
    planes = _import_planes()
    imported = time.perf_counter()
    planes.PLANES[workload]().build_world(seed)
    built = time.perf_counter()
    # Host speed right after set-up, in the same interpreter.
    calibrator = refspeed.Calibrator()
    slices = [calibrator.slice_ns() for _ in range(7)]
    print(json.dumps({
        "import_s": imported - start,
        "world_s": built - imported,
        "slowdown": statistics.median(slices) / refspeed.REF_NS,
        "calibration_s": (time.perf_counter() - built)}), flush=True)
    return 0


def _probe_once(workload: str, seed: int) -> Tuple[float, Dict[str, float]]:
    command = [sys.executable]
    if sys.flags.optimize:
        command.append("-" + "O" * sys.flags.optimize)
    command += [os.path.abspath(__file__), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        # A hung probe is killed, which also ends the blocking readline.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
            _, errors = child.communicate()
        finally:
            watchdog.cancel()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed: {errors.strip()}")
    split = json.loads(line)
    return ready - start - split["calibration_s"], split


def measure_setup(workload: str, seed: int) -> Dict[str, float]:
    """Median set-up time over fresh interpreters (one unmeasured
    probe first, so bytecode caches exist), each scaled to the
    reference speed the probe measured right after its set-up."""
    _probe_once(workload, seed)
    totals, raw, imports, worlds = [], [], [], []
    for _ in range(SETUP_SAMPLES):
        total, split = _probe_once(workload, seed)
        slowdown = split["slowdown"]
        raw.append(total)
        totals.append(total / slowdown)
        imports.append(split["import_s"] / slowdown)
        worlds.append(split["world_s"] / slowdown)
    return {"setup_s": statistics.median(totals),
            "host_setup_s": statistics.median(raw),
            "import_s": statistics.median(imports),
            "world_s": statistics.median(worlds),
            "samples": len(totals)}


# -- timed (untraced) run -----------------------------------------------------


#: Operations per percentile window: p90 of a window has a hundred
#: samples beyond it.
WINDOW_OPS = 1000


def _percentile_ms(samples_ns: List[float], q: int) -> float:
    """The ``q``-th percentile of each window of :data:`WINDOW_OPS`
    consecutive operations, median over the windows (a short host
    stall then moves one window, not the whole tail)."""
    windows = [samples_ns[i:i + WINDOW_OPS]
               for i in range(0, len(samples_ns), WINDOW_OPS)]
    if len(windows) > 1 and len(windows[-1]) < WINDOW_OPS:
        windows.pop()
    return statistics.median(
        statistics.quantiles(window, n=100, method="inclusive")[q - 1]
        for window in windows) / 1e6


def sim_metrics(batches) -> Dict[str, float]:
    """The modelled metrics: energy per answered operation and served
    share, over the batches every run makes (``plane.sim_batches``)."""
    return {
        "sim_mj_per_op": (sum(batch.drain_mj for batch in batches)
                          / sum(batch.answered for batch in batches)),
        "sim_served_ratio": (sum(batch.served for batch in batches)
                             / sum(batch.ops for batch in batches)),
    }


def end_to_end(plane, batches, timing, setup) -> Dict[str, float]:
    return dict(
        setup_s=setup["setup_s"],
        ops_per_s=statistics.median(timing.scaled_rates),
        op_p50_ms=_percentile_ms(timing.scaled_samples, 50),
        op_p90_ms=_percentile_ms(timing.scaled_samples, 90),
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **sim_metrics(batches[:plane.sim_batches]))


def raw_host(timing) -> Dict[str, float]:
    """The same timings unscaled, for the record."""
    return {
        "host_ops_per_s": statistics.median(timing.rates),
        "host_op_p50_ms": _percentile_ms(timing.samples, 50),
        "host_op_p90_ms": _percentile_ms(timing.samples, 90),
    }


# -- traced run ---------------------------------------------------------------


def _one_batch(plane, seed: int):
    """One untraced batch on ``seed``: its execution timed, its check
    after."""
    start = time.perf_counter_ns()
    result = plane.execute(seed)
    wall = time.perf_counter_ns() - start
    return plane.check(result), wall


def traced_run(plane, seed: int, out: str) -> Tuple[list, Dict[str, float],
                                                    Dict[str, bool]]:
    """A traced batch between two untraced ones on the same seed, so
    drift on a shared host does not land in the overhead ratio.  The
    spans go to ``<out>/<workload>-spans.jsonl`` and
    ``<workload>-host.folded`` (the latest traced run per workload: a
    full fleet trace is tens of megabytes)."""
    before, before_ns = _one_batch(plane, seed)
    tracer = Tracer(layers.build_ops())
    tracer.install()
    try:
        start = time.perf_counter_ns()
        result = plane.execute(seed)
        traced_ns = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    # Analysed before the check runs: objects built while the tracer
    # was installed keep its wrappers and would add spans outside the
    # traced wall time.
    summary = tracer.analyse(traced_ns)
    traced = plane.check(result)
    after, after_ns = _one_batch(plane, seed)
    metrics = layers.layer_metrics(summary)
    metrics["trace.overhead_ratio"] = traced_ns / ((before_ns + after_ns) / 2)
    stem = os.path.join(out, plane.name)
    summary.write_jsonl(stem + "-spans.jsonl")
    summary.write_folded(stem + "-host.folded")
    checks = {
        "trace_balanced": summary.balanced,
        "trace_keeps_outputs": all(
            (batch.report_sha256, batch.ops)
            == (traced.report_sha256, traced.ops)
            for batch in (before, after)),
    }
    return [before, traced, after], metrics, checks


# -- main -----------------------------------------------------------------------


def manifest(plane, args) -> Dict[str, object]:
    from repro.crypto import fastpath
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "dispatch_path": fastpath.dispatch_path(),
        "REPRO_FASTPATH": os.environ.get("REPRO_FASTPATH"),
        "optimize": sys.flags.optimize,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": plane.params,
        "sim_batches": plane.sim_batches,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)
    try:
        setup = measure_setup(args.workload, args.seed)
        planes = _import_planes()
    except (ImportError, RuntimeError) as exc:
        print(f"hostbench: cannot set up {args.workload}: {exc}",
              file=sys.stderr)
        return 2
    plane = planes.PLANES[args.workload]()
    os.makedirs(args.out, exist_ok=True)
    info = manifest(plane, args)

    if args.trace:
        batches, metrics, checks = traced_run(plane, args.seed, args.out)
        metrics["setup.import_s"] = setup["import_s"]
        metrics["setup.world_s"] = setup["world_s"]
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        samples: List[int] = []
        host = {}
    else:
        batches, timing, checks = plane.timed_run(args.seed, args.seconds)
        metrics = end_to_end(plane, batches, timing, setup)
        host = dict(raw_host(timing), host_setup_s=setup["host_setup_s"],
                    batch_ops_per_s=timing.scaled_rates[:16])
        samples = timing.samples
        units = END_TO_END

    batch_checks = [ok for batch in batches for ok in batch.checks.values()]
    all_checks = batch_checks + list(checks.values())
    attempted = sum(batch.ops for batch in batches) + len(all_checks)
    failed = (sum(batch.failed_ops for batch in batches)
              + sum(1 for ok in all_checks if not ok))
    failed_names = sorted({name for batch in batches
                           for name in batch.failed_checks}
                          | {name for name, ok in checks.items() if not ok})

    print(f"hostbench {args.workload} seed={args.seed} trace={args.trace}")
    print("manifest " + json.dumps(info, sort_keys=True))
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    for name, value in host.items():
        if name.startswith("host_"):
            print(f"unscaled {name} = {value:.6g}")
    if samples:
        print(f"op_samples = {len(samples)}")
    print(f"error_ratio = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    for index, batch in enumerate(batches):
        if batch.report_sha256:
            print(f"report_sha256 batch={index} {batch.report_sha256}")
    for name in failed_names:
        print(f"check FAILED: {name}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    detail = dict(result, manifest=info, failed_checks=failed_names,
                  op_samples=len(samples), unscaled=host,
                  report_sha256=[batch.report_sha256 for batch in batches],
                  setup=setup)
    path = os.path.join(args.out, f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(detail, out, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
