"""Seed-matrix chaos cells: fault-injected runs pinned to golden digests.

Same discipline as the recovery layer's chaos matrix (seeds 11/23/47):
every seeded fault plan -- injected errors, slowdowns, retry exhaustion,
a timed SSD failure that flips the cache into degraded bypass mode
mid-run, and a crash -- must reproduce the digest in
``tests/integration/golden/sim_digests.json``.  Fault injection draws
randomness at device submits, so a divergence here means the cache or
the engine perturbed the RNG stream or the event ordering.  The test
names keep the cell identifiers of the former batch-kernel-vs-event
matrix whose agreement the golden digests were frozen from.
"""

import pytest

from repro.sim.config import SimConfig, ssd_cache
from repro.sim.faults import FaultPlan
from repro.sim.procmodel import relabel_copies
from repro.sim.system import simulate
from repro.util.rng import DEFAULT_SEED
from repro.util.units import MB
from repro.workloads.base import generate_workload
from tests.harness import check_result

SEEDS = (11, 23, 47)


@pytest.fixture(scope="module")
def venus_pair():
    venus = generate_workload("venus", scale=0.05, seed=DEFAULT_SEED)
    return relabel_copies(venus.trace, 2)


def _run(venus_pair, spec: str, cell: str, update_golden: bool):
    config = FaultPlan.from_spec(spec).apply(SimConfig(cache=ssd_cache(8 * MB)))
    return check_result(f"chaos/{cell}", simulate(venus_pair, config), update_golden)


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_matches_event_under_seeded_error_plan(venus_pair, seed, update_golden):
    result = _run(
        venus_pair,
        f"error=0.05,slow=0.1,seed={seed},max_retries=4",
        f"error-seed-{seed}",
        update_golden,
    )
    # The plan actually fired; a vacuous pass would prove nothing.
    assert result.faults.injected_errors > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_matches_event_under_retry_exhaustion(venus_pair, seed, update_golden):
    # A high error rate with a single retry exercises failed reads and
    # writes (abandoned frames, re-queued dirty blocks).
    result = _run(
        venus_pair,
        f"error=0.2,seed={seed},max_retries=1",
        f"exhaustion-seed-{seed}",
        update_golden,
    )
    assert result.faults.failed_reads + result.faults.failed_writes > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_matches_event_through_ssd_failure(venus_pair, seed, update_golden):
    result = _run(
        venus_pair,
        f"error=0.02,seed={seed},ssd_fail_at=20",
        f"ssd-fail-seed-{seed}",
        update_golden,
    )
    assert result.faults.degraded_requests > 0


def test_batch_matches_event_through_crash(venus_pair, update_golden):
    result = _run(venus_pair, "crash_at=10", "crash", update_golden)
    assert result.faults.crashed
