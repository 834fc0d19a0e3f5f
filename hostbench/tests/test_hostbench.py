"""The benchmark's own tests: contract, parity, seed sweep, fault catching.

Run from the repository root::

    python3 -m pytest hostbench/tests -q

They drive the planes at the small parameters below, in process or
through ``python -c`` children; the command line always measures the
planes' own ``PARAMS``.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HOSTBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HOSTBENCH)
SRC = os.path.join(ROOT, "src")
RUN = os.path.join(HOSTBENCH, "run.py")
for path in (HOSTBENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import planes  # noqa: E402
import run  # noqa: E402

SMALL = {
    "failover": {"sessions": 24, "shards": 4,
                 "requests_per_session": 6, "interarrival_s": 4.0},
    "mcommerce": {"sessions": 18, "shards": 6, "duration_s": 4.0},
    "records": {"sizes": [64, 1024], "trace_rounds": 2},
}


def small(workload):
    return planes.PLANES[workload](SMALL[workload])


def _last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(planes.PLANES) == set(run.WORKLOADS)


PARITY_CHILD = """
import json, sys
sys.path[:0] = [{hostbench!r}, {src!r}]
import planes, run
from repro.crypto import fastpath
plane = planes.PLANES[{workload!r}]({params!r})
batches = [plane.check(plane.execute(planes.sub_seed(2003, index)))
           for index in range(plane.sim_batches)]
print(json.dumps({{
    "mode": [fastpath.dispatch_path(), sys.flags.optimize],
    "sim": run.sim_metrics(batches),
    "hashes": [batch.report_sha256 for batch in batches],
    "failed": [batch.failed_checks for batch in batches]}}))
"""


@pytest.mark.parametrize("workload", ["failover", "mcommerce"])
def test_sim_metrics_and_reports_identical_across_dispatch_modes(workload):
    code = PARITY_CHILD.format(hostbench=HOSTBENCH, src=SRC,
                               workload=workload, params=SMALL[workload])
    seen = []
    for extra_env, flags in [({}, ()), ({"REPRO_FASTPATH": "0"}, ()),
                             ({}, ("-O",))]:
        completed = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True,
            text=True, env=dict(os.environ, **extra_env), timeout=300,
            cwd=ROOT)
        assert completed.returncode == 0, completed.stderr
        seen.append(_last_json(completed.stdout))
    modes = [tuple(result.pop("mode")) for result in seen]
    assert modes == [("fast", 0), ("reference", 0), ("fast", 1)]
    assert seen[0]["failed"] == [[]] * planes.PLANES[workload].sim_batches
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize("seed", [1, 7, 42, 65537])
@pytest.mark.parametrize("workload", ["failover", "mcommerce"])
def test_run_checks_hold_across_seeds(workload, seed):
    plane = small(workload)
    batch = plane.check(plane.execute(seed))
    assert batch.failed_checks == []
    assert batch.failed_ops == 0
    assert batch.ops > 0


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_records_round_trip_and_reject_tampering_across_seeds(seed):
    plane = small("records")
    world = plane.build_world(seed)
    batch = plane.run_round(world)
    assert batch.ops == len(planes.RECORD_SUITES) * len(planes.CODECS) * 2
    assert batch.failed_ops == 0
    assert batch.answered == batch.ops and batch.drain_mj > 0
    checks = plane.tamper_checks(world)
    assert len(checks) == len(planes.RECORD_SUITES) * len(planes.CODECS)
    assert all(checks.values())


def test_records_energy_follows_the_sealed_length():
    plane = small("records")
    suite = "RSA_WITH_AES_128_CBC_SHA"
    assert (plane.round_trip_mj(suite, 100, 64)
            < plane.round_trip_mj(suite, 120, 64))


def test_skipped_mac_verification_fails_the_benchmark(tmp_path, monkeypatch,
                                                      capsys):
    from repro.protocols import records_batch
    monkeypatch.setattr(records_batch, "constant_time_compare",
                        lambda a, b: True)
    code = run.main(["--workload", "records", "--seconds", "0.2",
                     "--out", str(tmp_path)])
    result = _last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_unanswered_request_is_caught(monkeypatch):
    from repro.fleet.runtime import ShardedFleet
    original = ShardedFleet.collect_replies

    def lose_one(fleet, session_id):
        replies = original(fleet, session_id)
        return replies[:-1] if session_id == "handset-00" else replies

    monkeypatch.setattr(ShardedFleet, "collect_replies", lose_one)
    plane = small("failover")
    batch = plane.check(plane.execute(2003))
    assert batch.failed_ops == 1
    assert "every_request_answered" in batch.failed_checks


@pytest.mark.parametrize("workload", ["records", "failover"])
def test_traced_run_balances_and_bypasses(tmp_path, workload):
    batches, metrics, checks = run.traced_run(small(workload), 5,
                                              str(tmp_path))
    assert all(checks.values()), checks
    assert all(not batch.failed_checks and not batch.failed_ops
               for batch in batches)
    assert set(metrics) | {"setup.import_s", "setup.world_s"} \
        == set(layers.PER_LAYER)
    # Every layer reports its self time once (the codec layers split
    # theirs into seal and open).
    layer_self = sum(value for name, value in metrics.items()
                     if name.endswith("self_s"))
    assert layer_self + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], abs=1e-6)
    assert (tmp_path / f"{workload}-spans.jsonl").stat().st_size > 0
    assert (tmp_path / f"{workload}-host.folded").stat().st_size > 0
    if workload == "records":
        for name in ("protocols.handshake.full", "protocols.kdf.calls",
                     "fleet.scheduler.batches", "crypto.tdes.blocks"):
            assert metrics[name] == 0, name
        assert metrics["protocols.rekey.per_record"] > 0
    else:
        for name in ("rc4", "a51", "grain", "trivium"):
            assert metrics[f"crypto.{name}.bytes"] == 0
        assert metrics["crypto.tdes.blocks"] > 0
        assert metrics["fleet.migrations"] > 0


#: Ints walked by the injected slowdown: about 11 MB, more than the
#: calibration table and more than a 2020s core's L2.
BALLAST = list(range(10**6, 10**6 + 400_000))


def _figures(workload):
    """(scaled, raw) pairs of ops_per_s and op_p50_ms of one short
    timed run on the small parameters."""
    batches, timing, checks = small(workload).timed_run(11, 1.0)
    assert all(checks.values()) and not any(b.failed_ops for b in batches)
    return [(statistics.median(timing.scaled_rates),
             statistics.median(timing.rates)),
            (run._percentile_ms(timing.scaled_samples, 50),
             run._percentile_ms(timing.samples, 50))]


@pytest.mark.parametrize("workload, targets", [
    ("records", ["repro.protocols.wtls:WTLSRecordEncoder.encode",
                 "repro.protocols.records:RecordEncoder.encode"]),
    ("failover", ["repro.protocols.gateway_runtime:"
                  "GatewayRuntime._serve_one_inner"]),
])
def test_injected_slowdown_moves_scaled_figures_like_raw_ones(
        monkeypatch, workload, targets):
    """A slowdown inside ``repro`` that also walks a large working set
    must move the scaled figures as much as the raw ones: the
    calibration slices may not absorb it.  Plain and slowed runs come
    in adjacent pairs, so host drift between pairs cancels out."""

    def slowed(original):
        def wrapper(*args, **kwargs):
            sum(BALLAST)
            return original(*args, **kwargs)
        return wrapper

    def patch():
        for target in targets:
            module_name, _, attr_path = target.partition(":")
            owner_name, attr = attr_path.split(".")
            owner = getattr(importlib.import_module(module_name),
                            owner_name)
            monkeypatch.setattr(owner, attr, slowed(getattr(owner, attr)))

    raw_moves = {"ops_per_s": [], "op_p50_ms": []}
    agreement = {"ops_per_s": [], "op_p50_ms": []}
    for _ in range(7):
        plain = _figures(workload)
        patch()
        slow = _figures(workload)
        monkeypatch.undo()
        for index, name in enumerate(agreement):
            scaled = slow[index][0] / plain[index][0]
            raw = slow[index][1] / plain[index][1]
            raw_moves[name].append(raw)
            agreement[name].append(scaled / raw)
    for name in agreement:
        assert abs(statistics.median(raw_moves[name]) - 1) > 0.3, raw_moves
        assert statistics.median(agreement[name]) == pytest.approx(
            1, abs=0.25), (name, agreement[name])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HOSTBENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "records",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
