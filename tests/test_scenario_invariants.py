"""The scenario invariants hold away from seed 2003.

The byte-stable reports pin one seed; a defect that only shows on
other DRBG streams would hide behind them.  Each scenario runner runs
here at small parameters on a fixed list of seeds, and the test checks
the invariants every run must keep (not its bytes): every submitted
request answered, the energy ledger reconciled, no downgrade landing,
every SET payment binding, and the chaos ledger closing.
"""

import pytest

from repro.adversary import run_survivability
from repro.adversary.population import DowngradeAdversary
from repro.analysis.chaos import chaos_point
from repro.fleet import run_failover
from repro.observability.scenario import run_gateway_chaos
from repro.workloads import run_mcommerce

SEEDS = (1, 7, 42, 99, 2004)


@pytest.mark.parametrize("seed", SEEDS)
def test_gateway_chaos(seed):
    result = run_gateway_chaos(sessions=6, requests_per_session=3,
                               interarrival_s=0.05, fault_rate=0.3,
                               seed=seed)
    assert result.stats.answered == result.stats.submitted == 18
    assert sum(result.counts.values()) == result.stats.submitted
    assert result.reconciliation.ok


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_point(seed):
    point = chaos_point(sessions=4, requests_per_session=4,
                        interarrival_s=0.025, fault_rate=0.5, seed=seed)
    assert point["submitted"] == 16
    assert (point["served"] + point["degraded"] + point["shed"]
            == point["submitted"])


@pytest.mark.parametrize("seed", SEEDS)
def test_survivability(seed):
    result = run_survivability(sessions=6, requests_per_session=3,
                               seed=seed)
    assert sum(result.counts.values()) == result.stats.submitted == 18
    assert result.reconciliation.ok
    downgrades = [adversary for adversary in result.population.adversaries
                  if isinstance(adversary, DowngradeAdversary)]
    assert downgrades
    assert all(adversary.downgrades_succeeded == 0
               for adversary in downgrades)


@pytest.mark.parametrize("seed", SEEDS)
def test_failover(seed):
    result = run_failover(sessions=8, shards=2, requests_per_session=3,
                          seed=seed)
    assert result.per_session_replies == {
        f"handset-{index:02d}": 3 for index in range(8)}
    assert sum(result.counts.values()) == result.fleet.submitted == 24
    assert result.reconciliation.ok


@pytest.mark.parametrize("seed", SEEDS)
def test_mcommerce(seed):
    result = run_mcommerce(sessions=6, shards=2, duration_s=0.6, seed=seed)
    for plan in result.plans:
        assert (result.per_session_replies[plan.session_id]
                == len(plan.arrivals_s))
    assert sum(result.counts.values()) == result.fleet.submitted
    assert result.reconciliation.ok
    assert all(payment["binding_holds"] for payment in result.payments)
