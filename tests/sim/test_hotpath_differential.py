"""Differential guard: the run-coalesced cache is bit-identical to legacy.

The hot-path overhaul rewrote the buffer cache around columnar frame
tables and extent-level bookkeeping (:mod:`repro.sim.cache`) while
keeping the per-block reference implementation
(:mod:`repro.sim.cache_legacy`) selectable via
``SimulatedSystem(..., cache_impl="legacy")``.  Equivalence is not
approximate: every digest -- which hashes the full scalar result set and
the binned rate series -- must match across every cache policy, on
multi-process and async workloads, and under an active fault plan where
failed reads abandon frames and failed flushes re-queue dirty blocks.

These tests are the contract that lets the legacy implementation be
deleted eventually: any behavioral drift in the fast path shows up here
as a digest mismatch long before it would corrupt a golden figure.
"""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.sim.config import CacheConfig, SimConfig, ssd_cache
from repro.sim.faults import FaultPlan
from repro.sim.procmodel import relabel_copies
from repro.sim.system import SimulatedSystem
from repro.util.rng import DEFAULT_SEED
from repro.util.units import KB, MB
from repro.workloads.base import generate_workload

CONFIGS = {
    "memory": SimConfig(cache=CacheConfig(size_bytes=8 * MB)),
    "ssd": SimConfig(cache=ssd_cache(8 * MB)),
    "no-readahead": SimConfig(
        cache=CacheConfig(size_bytes=8 * MB, read_ahead=False)
    ),
    "write-through": SimConfig(
        cache=CacheConfig(size_bytes=8 * MB, write_behind=False)
    ),
    "raw": SimConfig(
        cache=CacheConfig(
            size_bytes=8 * MB, read_ahead=False, write_behind=False
        )
    ),
    "delayed-flush-8k": SimConfig(
        cache=CacheConfig(
            size_bytes=4 * MB, block_bytes=8 * KB, flush_delay_s=2.0
        )
    ),
    "capped-per-process": SimConfig(
        cache=CacheConfig(size_bytes=8 * MB, max_blocks_per_process=256)
    ),
    "tiny-cache-bypass": SimConfig(cache=CacheConfig(size_bytes=256 * KB)),
    "two-cpus": SimConfig(cache=CacheConfig(size_bytes=8 * MB)).with_scheduler(
        n_cpus=2
    ),
}


@pytest.fixture(scope="module")
def venus_pair():
    venus = generate_workload("venus", scale=0.05, seed=DEFAULT_SEED)
    return relabel_copies(venus.trace, 2)


@pytest.fixture(scope="module")
def les_trace():
    return [generate_workload("les", scale=0.05, seed=DEFAULT_SEED).trace]


def _digest(traces, config, impl):
    return SimulatedSystem(traces, config, cache_impl=impl).run().digest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fast_cache_matches_legacy_across_policies(venus_pair, name):
    config = CONFIGS[name]
    assert _digest(venus_pair, config, "fast") == _digest(
        venus_pair, config, "legacy"
    )


def test_fast_cache_matches_legacy_on_async_workload(les_trace):
    # les issues asynchronous writes (fire-and-forget) -- the path where
    # completions race the issuing process instead of unblocking it.
    config = SimConfig(cache=CacheConfig(size_bytes=4 * MB))
    assert _digest(les_trace, config, "fast") == _digest(
        les_trace, config, "legacy"
    )


def test_fast_cache_matches_legacy_under_fault_plan(venus_pair):
    # Injected errors and slowdowns drive the failure paths: read runs
    # abandoned mid-flight, flush runs re-queued with gaps, retries with
    # seeded backoff.  The two implementations must agree event for
    # event even there.
    plan = FaultPlan.from_spec("error=0.05,slow=0.1,seed=23,max_retries=4")
    config = plan.apply(SimConfig(cache=ssd_cache(8 * MB)))
    fast = SimulatedSystem(venus_pair, config, cache_impl="fast").run()
    legacy = SimulatedSystem(venus_pair, config, cache_impl="legacy").run()
    assert fast.faults.injected_errors > 0  # the plan actually fired
    assert fast.digest() == legacy.digest()


def test_fast_cache_matches_legacy_through_ssd_failure(venus_pair):
    # A timed device failure flips the cache into degraded bypass mode
    # mid-run; both implementations must drop the same frames at the cut.
    plan = FaultPlan.from_spec("ssd_fail_at=20")
    config = plan.apply(SimConfig(cache=ssd_cache(8 * MB)))
    assert _digest(venus_pair, config, "fast") == _digest(
        venus_pair, config, "legacy"
    )


def test_unknown_cache_impl_rejected(venus_pair):
    from repro.util.errors import SimulationError

    with pytest.raises(SimulationError, match="unknown cache_impl"):
        SimulatedSystem(venus_pair, CONFIGS["memory"], cache_impl="turbo")


class _CountingInstrument:
    """Null instrument that counts every call made into it."""

    def __init__(self, registry):
        self._registry = registry

    def _call(self, *args):
        self._registry.calls += 1

    inc = add = set = set_max = observe = _call


class _CountingRegistry(MetricsRegistry):
    """Disabled registry that counts instrument resolutions and the
    calls made into the instruments it hands out."""

    def __init__(self):
        super().__init__(enabled=False)
        self.lookups = 0
        self.calls = 0

    def counter(self, name):
        self.lookups += 1
        return _CountingInstrument(self)

    def gauge(self, name):
        self.lookups += 1
        return _CountingInstrument(self)

    def histogram(self, name):
        self.lookups += 1
        return _CountingInstrument(self)


def test_disabled_obs_makes_zero_registry_calls_per_event(venus_pair):
    # Instruments are resolved once at wiring time, and with
    # observability disabled the per-event code calls none of them:
    # counts the components keep are published once after the run, and
    # per-event peaks and histograms are only wired for an enabled
    # registry.  So a run makes as many instrument calls on a short
    # trace as on a long one -- fault-free, and on the retry path.
    plan = FaultPlan.from_spec("error=0.05,slow=0.1,seed=23,max_retries=4")
    configs = [CONFIGS["memory"], plan.apply(CONFIGS["ssd"])]

    def run(traces, config):
        reg = _CountingRegistry()
        system = SimulatedSystem(traces, config, obs=reg)
        wired = reg.lookups
        assert wired > 0  # construction does resolve instruments
        result = system.run()
        assert reg.lookups == wired
        return result, reg.calls

    short_traces = [t[: len(t) // 20] for t in venus_pair]
    for config in configs:
        short, short_calls = run(short_traces, config)
        long, long_calls = run(venus_pair, config)
        assert long.events_run > 10_000  # a real run, not a trivial one
        assert long.events_run > 10 * short.events_run
        assert long_calls == short_calls
    assert long.faults.retries > 0  # the last config exercised retries
