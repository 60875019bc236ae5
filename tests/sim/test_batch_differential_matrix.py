"""Seed-matrix golden digests: every cache policy, with and without faults.

This matrix crosses seeded fault plans with every cache policy knob --
read-ahead, write-behind, delayed flush, per-process buffer caps, SSD
hit penalties, both cache implementations -- and pins each cell's digest
to ``tests/integration/golden/sim_digests.json``, so a divergence names
the exact (policy, fault, seed) cell that broke.  The fast and legacy
cells of one policy share a digest: the two cache implementations must
agree bit for bit.

The test names keep the cell identifiers of the former batch-kernel-vs-
event matrix whose agreement the golden digests were frozen from.
"""

import hashlib
import random
import struct

import numpy as np
import pytest

from repro.sim.config import CacheConfig, SimConfig, ssd_cache
from repro.sim.faults import FaultPlan
from repro.sim.procmodel import relabel_copies
from repro.sim.system import SimulatedSystem, simulate
from repro.trace import flags as F
from repro.trace.array import TraceArray
from repro.util.rng import DEFAULT_SEED
from repro.util.units import KB, MB
from repro.workloads.base import generate_workload
from tests.harness import check_digest, check_result

SEEDS = (11, 23, 47)

# Every cache-policy knob the config exposes, each exercised away from
# its default.  Geometry is kept small so misses and evictions happen.
POLICIES = {
    "default": CacheConfig(size_bytes=8 * MB),
    "no-read-ahead": CacheConfig(size_bytes=8 * MB, read_ahead=False),
    "no-write-behind": CacheConfig(size_bytes=8 * MB, write_behind=False),
    "synchronous": CacheConfig(
        size_bytes=8 * MB, read_ahead=False, write_behind=False
    ),
    "delayed-flush": CacheConfig(size_bytes=8 * MB, flush_delay_s=0.5),
    "per-process-cap": CacheConfig(
        size_bytes=8 * MB, max_blocks_per_process=64
    ),
    "deep-read-ahead": CacheConfig(size_bytes=8 * MB, read_ahead_depth=8),
    "small-blocks": CacheConfig(size_bytes=4 * MB, block_bytes=8 * KB),
    "ssd": ssd_cache(8 * MB),
}

FAULT_SPECS = {
    "clean": None,
    "errors": "error=0.05,slow=0.1,seed={seed},max_retries=4",
    "exhaustion": "error=0.2,seed={seed},max_retries=1",
}


@pytest.fixture(scope="module")
def venus_pair():
    venus = generate_workload("venus", scale=0.05, seed=DEFAULT_SEED)
    return relabel_copies(venus.trace, 2)


def _config(policy: str, fault: str, seed: int) -> SimConfig:
    config = SimConfig(cache=POLICIES[policy])
    spec = FAULT_SPECS[fault]
    if spec is None:
        return config
    return FaultPlan.from_spec(spec.format(seed=seed)).apply(config)


def _run(traces, config, cache_impl="fast"):
    return SimulatedSystem(traces, config, cache_impl=cache_impl).run()


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("cache_impl", ["fast", "legacy"])
def test_batch_matches_event_per_policy(venus_pair, policy, cache_impl, update_golden):
    check_result(
        f"policy/{policy}/{cache_impl}",
        _run(venus_pair, _config(policy, "clean", 0), cache_impl),
        update_golden,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fault", ["errors", "exhaustion"])
@pytest.mark.parametrize("policy", ["synchronous", "delayed-flush", "ssd"])
def test_batch_matches_event_per_policy_under_faults(
    venus_pair, policy, fault, seed, update_golden
):
    # Fault injection draws randomness at device submits; a policy that
    # changes when submits happen (no write-behind, delayed flush, SSD
    # retry paths) is exactly where a cache change could skew the RNG
    # stream.
    check_result(
        f"policy-faults/{policy}/{fault}/{seed}",
        _run(venus_pair, _config(policy, fault, seed)),
        update_golden,
    )


# ---------------------------------------------------------------------------
# Write policies x fault plans x cache implementations
# ---------------------------------------------------------------------------

# The three write disciplines: write-behind (absorbed), write-through
# (the writer waits for the disk) and delayed flush (absorbed, with the
# disk write deferred).
WRITE_POLICIES = {
    "write-behind": "default",
    "write-through": "no-write-behind",
    "delayed-flush": "delayed-flush",
}


@pytest.mark.parametrize("cache_impl", ["fast", "legacy"])
@pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
@pytest.mark.parametrize("write_policy", sorted(WRITE_POLICIES))
def test_write_fast_path_matrix(
    venus_pair, write_policy, fault, cache_impl, update_golden
):
    """The digest must hold, and the cell must exercise its policy:
    write-behind and delayed flush absorb writes, write-through never
    does."""
    result = check_result(
        f"write/{write_policy}/{fault}/{cache_impl}",
        _run(
            venus_pair,
            _config(WRITE_POLICIES[write_policy], fault, SEEDS[0]),
            cache_impl,
        ),
        update_golden,
    )
    if write_policy == "write-through":
        assert result.cache.writes_absorbed == 0
    else:
        assert result.cache.writes_absorbed > 0


@pytest.fixture(scope="module")
def forma_solo():
    # forma is the run-structured workload in the suite (sequential read
    # runs up to 92 records); at 32 MB its working set goes
    # clean-resident for long read runs.
    return [generate_workload("forma", scale=0.05, seed=DEFAULT_SEED).trace]


def test_bulk_commit_engages_on_run_structured_workload(forma_solo, update_golden):
    result = check_result(
        "forma-32mb",
        simulate(forma_solo, SimConfig(cache=CacheConfig(size_bytes=32 * MB))),
        update_golden,
    )
    assert result.cache.block_hits > 0


# ---------------------------------------------------------------------------
# Flush-queue trajectories
# ---------------------------------------------------------------------------
BLOCK = 4 * KB


def _run_with_flush_trajectory(traces, config):
    """Run once, recording every ``outstanding_flushes`` transition.

    The digest only sees the flush queue through its side effects; this
    records the gauge itself -- every (sim-time, value) step -- by
    swapping the live cache into a recording subclass, so a change that
    merely *reorders* flush accounting (same totals, different
    trajectory) is still caught.  Returns the result and a digest of the
    trajectory.
    """
    system = SimulatedSystem(traces, config, cache_impl="fast")
    cache = system.cache
    trajectory = hashlib.sha256()
    steps = [0]

    class _Recording(type(cache)):
        @property
        def outstanding_flushes(self):
            return self._of_value

        @outstanding_flushes.setter
        def outstanding_flushes(self, value):
            self._of_value = value
            trajectory.update(struct.pack("<dq", self.engine.now, value))
            steps[0] += 1

    cache._of_value = cache.__dict__.pop("outstanding_flushes")
    cache.__class__ = _Recording
    result = system.run()
    return result, trajectory.hexdigest(), steps[0]


def _check_trajectory(cell, traces, config, update_golden):
    result, trajectory, steps = _run_with_flush_trajectory(traces, config)
    check_result(cell, result, update_golden)
    check_digest(f"{cell}/flush-trajectory", trajectory, update_golden)
    return steps


def _sequential_write_trace(
    n_records=64, stride_blocks=4, process_id=1
) -> TraceArray:
    rt = F.TRACE_LOGICAL_RECORD | F.TRACE_WRITE
    length = stride_blocks * BLOCK
    return TraceArray.from_columns(
        record_type=[rt] * n_records,
        file_id=[1] * n_records,
        process_id=[process_id] * n_records,
        operation_id=list(range(n_records)),
        offset=[i * length for i in range(n_records)],
        length=[length] * n_records,
        process_clock=np.arange(n_records) * 1000,
    )


def test_fast_writes_engage_and_preserve_flush_trajectory(update_golden):
    """Deterministic anchor: a long sequential write-behind run."""
    steps = _check_trajectory(
        "flush/sequential-write",
        [_sequential_write_trace()],
        SimConfig(cache=CacheConfig(size_bytes=8 * MB)),
        update_golden,
    )
    assert steps, "workload never flushed; trajectory check is vacuous"


def write_heavy_trace(rng: random.Random) -> TraceArray:
    """Sequential write runs with occasional reads and jumps."""
    file_ids: list[int] = []
    offsets: list[int] = []
    lengths: list[int] = []
    types: list[int] = []
    deltas: list[int] = []
    for _ in range(rng.randint(1, 5)):
        fid = rng.randint(0, 2)
        run_len = rng.randint(1, 12)
        length = rng.randint(1, 8) * BLOCK
        offset = rng.randint(0, 200) * BLOCK
        rt = F.TRACE_LOGICAL_RECORD
        if rng.randint(0, 4) > 0:  # write-heavy: 80% write runs
            rt |= F.TRACE_WRITE
        for _ in range(run_len):
            file_ids.append(fid)
            offsets.append(offset)
            lengths.append(length)
            types.append(rt)
            deltas.append(rng.randint(0, 2000))
            offset += length
    n = len(file_ids)
    return TraceArray.from_columns(
        record_type=types,
        file_id=file_ids,
        process_id=[1] * n,
        operation_id=list(range(n)),
        offset=offsets,
        length=lengths,
        process_clock=np.cumsum(deltas),
    )


def test_fast_write_absorption_never_changes_flush_trajectory(update_golden):
    """Seeded write-heavy workloads under every write-behind geometry:
    digest and flush-queue trajectory both pinned."""
    for seed in range(30):
        rng = random.Random(f"write-heavy-{seed}")
        trace = write_heavy_trace(rng)
        config = SimConfig(
            cache=CacheConfig(
                size_bytes=rng.choice([256 * KB, 1 * MB, 4 * MB]),
                flush_delay_s=rng.choice([0.0, 0.5]),
            )
        )
        _check_trajectory(f"flush/write-heavy/{seed}", [trace], config, update_golden)
