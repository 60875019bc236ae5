"""Chaos tests for the fault-injection and recovery layers.

Three invariants anchor everything else in this file:

1. same seed, same plan -> byte-identical results (the fault schedule is
   part of the simulation, not noise layered on top);
2. a zero-rate plan is *bit-identical* to running with no plan at all
   (the fault layer is free when off);
3. a crash at time T loses exactly the dirty bytes the cache was
   tracking at T.
"""

import json
import random

import numpy as np
import pytest

from repro.sim.config import CacheConfig, FaultConfig, RecoveryConfig, SimConfig
from repro.sim.faults import _DRAW_BLOCK, FaultInjector, FaultKind, FaultPlan
from repro.sim.system import simulate
from repro.trace import flags as F
from repro.trace.array import TraceArray
from repro.util.rng import derive_rng
from repro.util.units import KB, MB, seconds_to_ticks
from repro.workloads import generate_workload

#: The CI chaos matrix: three fixed fault seeds.
CHAOS_SEEDS = (11, 23, 47)


def make_trace(n_ios=10, *, compute_ticks=1000, length=32 * KB, pid=1, fid=1,
               write=False):
    rt = F.make_record_type(write=write, logical=True)
    clock = np.cumsum(np.full(n_ios, compute_ticks))
    return TraceArray.from_columns(
        record_type=np.full(n_ios, rt),
        file_id=np.full(n_ios, fid),
        process_id=np.full(n_ios, pid),
        operation_id=np.arange(n_ios),
        offset=np.arange(n_ios) * length,
        length=np.full(n_ios, length),
        start_time=clock,
        duration=np.zeros(n_ios),
        process_clock=clock,
    )


@pytest.fixture(scope="module")
def venus_trace():
    return generate_workload("venus", scale=0.05).trace


def _base_config(**cache_kwargs):
    kwargs = dict(size_bytes=16 * MB)
    kwargs.update(cache_kwargs)
    return SimConfig(cache=CacheConfig(**kwargs))


class TestInjector:
    def test_zero_rate_draws_nothing(self):
        inj = FaultInjector(FaultConfig(), seed=7)
        assert not inj.active
        state = inj._rng.bit_generator.state
        for _ in range(100):
            assert inj.decide().kind is FaultKind.OK
        assert inj._rng.bit_generator.state == state

    def test_rates_partition_decisions(self):
        inj = FaultInjector(
            FaultConfig(error_rate=0.3, slow_rate=0.3, slow_factor=4.0), seed=7
        )
        kinds = [inj.decide().kind for _ in range(2000)]
        errors = kinds.count(FaultKind.ERROR) / len(kinds)
        slows = kinds.count(FaultKind.SLOW) / len(kinds)
        assert errors == pytest.approx(0.3, abs=0.05)
        assert slows == pytest.approx(0.3, abs=0.05)

    def test_block_draws_equal_scalar_draws(self):
        # decide() and uniform() share one block filled by random(size=k);
        # interleaved, and across block boundaries, they must see the
        # sequence that one scalar random() per call used to give.
        cfg = FaultConfig(error_rate=0.2, slow_rate=0.3, slow_factor=2.0)
        inj = FaultInjector(cfg, seed=5)
        scalar = derive_rng(5, "faults")
        pick = random.Random(0)
        for _ in range(3 * _DRAW_BLOCK + 11):
            u = float(scalar.random())
            if pick.random() < 0.5:
                assert inj.uniform() == u
                continue
            if u < cfg.error_rate:
                expected = FaultKind.ERROR
            elif u < cfg.error_rate + cfg.slow_rate:
                expected = FaultKind.SLOW
            else:
                expected = FaultKind.OK
            assert inj.decide().kind is expected

    def test_config_seed_overrides_simulation_seed(self):
        cfg = FaultConfig(error_rate=0.5, seed=99)
        a = [FaultInjector(cfg, seed=1).decide().kind for _ in range(50)]
        b = [FaultInjector(cfg, seed=2).decide().kind for _ in range(50)]
        assert a == b


class TestDeterminism:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_same_seed_same_digest(self, venus_trace, seed):
        plan = FaultPlan(faults=FaultConfig(error_rate=0.05, slow_rate=0.05,
                                            seed=seed))
        config = plan.apply(_base_config())
        a = simulate([venus_trace], config)
        b = simulate([venus_trace], config)
        assert a.faults.injected_errors > 0
        assert a.digest() == b.digest()

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_different_seeds_differ(self, venus_trace, seed):
        base = _base_config()
        r1 = simulate(
            [venus_trace],
            FaultPlan(faults=FaultConfig(error_rate=0.1, seed=seed)).apply(base),
        )
        r2 = simulate(
            [venus_trace],
            FaultPlan(
                faults=FaultConfig(error_rate=0.1, seed=seed + 1000)
            ).apply(base),
        )
        assert r1.digest() != r2.digest()

    def test_zero_rate_plan_bit_identical_to_no_plan(self, venus_trace):
        base = _base_config()
        baseline = simulate([venus_trace], base)
        zeroed = simulate([venus_trace], FaultPlan().apply(base))
        assert not zeroed.faults.any_faults
        assert zeroed.digest() == baseline.digest()

    def test_zero_rate_identical_under_ssd_and_policies(self, venus_trace):
        from repro.sim.config import ssd_cache

        for config in (
            SimConfig(cache=ssd_cache(16 * MB)),
            _base_config(write_behind=False),
            _base_config(read_ahead=False),
            _base_config(flush_delay_s=2.0),
        ):
            baseline = simulate([venus_trace], config)
            zeroed = simulate([venus_trace], FaultPlan().apply(config))
            assert zeroed.digest() == baseline.digest()


class TestCrash:
    def test_crash_loses_exactly_tracked_dirty_bytes(self):
        # Ten 32 KB writes, flush delay far beyond the run: every written
        # block is still DIRTY when the machine dies, so the crash loses
        # exactly those bytes -- no more, no less.
        trace = make_trace(10, write=True, compute_ticks=1000)
        config = _base_config(flush_delay_s=1000.0).with_faults(crash_at_s=5.0)
        r = simulate([trace], config)
        assert r.faults.crashed
        assert r.faults.crash_time_s == 5.0
        assert r.faults.lost_bytes == 10 * 32 * KB
        assert r.wall_seconds == 5.0
        assert r.completion_seconds == 5.0

    def test_crash_after_flushes_loses_nothing(self):
        # Immediate write-behind: flushes complete long before the crash.
        trace = make_trace(5, write=True, compute_ticks=1000)
        config = _base_config().with_faults(crash_at_s=100.0)
        r = simulate([trace], config)
        # The run drains naturally before T: no crash happens at all.
        assert not r.faults.crashed
        assert r.faults.lost_bytes == 0

    def test_crash_mid_run_loses_partial(self):
        # Writes at ~1 s intervals, 3 s flush delay, crash at 4.5 s:
        # flushes fired for early writes, later ones still dirty.
        trace = make_trace(8, write=True,
                           compute_ticks=seconds_to_ticks(1.0))
        config = _base_config(flush_delay_s=3.0).with_faults(crash_at_s=4.5)
        r = simulate([trace], config)
        assert r.faults.crashed
        assert 0 < r.faults.lost_bytes < 8 * 32 * KB
        assert r.faults.lost_bytes % (4 * KB) == 0  # whole blocks

    def test_crashed_processes_report_unfinished(self):
        trace = make_trace(10, write=True,
                           compute_ticks=seconds_to_ticks(10.0))
        config = _base_config().with_faults(crash_at_s=5.0)
        r = simulate([trace], config)
        assert r.faults.crashed
        assert not r.processes[1].finished


class TestDegradedMode:
    def test_ssd_failure_reroutes_requests(self, venus_trace):
        config = _base_config().with_faults(ssd_fail_at_s=5.0)
        r = simulate([venus_trace], config)
        assert r.faults.degraded_at_s == 5.0
        assert r.faults.degraded_requests > 0
        assert r.processes[1].finished  # the run survives the failure

    def test_degradation_costs_utilization(self, venus_trace):
        healthy = simulate([venus_trace], _base_config())
        degraded = simulate(
            [venus_trace], _base_config().with_faults(ssd_fail_at_s=2.0)
        )
        # Without the cache every request pays full disk latency.
        assert degraded.completion_seconds > healthy.completion_seconds

    def test_dirty_blocks_lost_with_the_device(self):
        trace = make_trace(6, write=True, compute_ticks=1000)
        config = _base_config(flush_delay_s=1000.0).with_faults(
            ssd_fail_at_s=5.0
        )
        r = simulate([trace], config)
        assert r.faults.degraded_at_s == 5.0
        assert r.faults.lost_bytes == 6 * 32 * KB
        assert r.processes[1].finished


class TestRecoveryOutcomes:
    def test_errors_recovered_by_retries(self, venus_trace):
        config = _base_config().with_faults(error_rate=0.05).with_recovery(
            max_retries=8
        )
        r = simulate([venus_trace], config)
        assert r.faults.injected_errors > 0
        assert r.faults.retries > 0
        assert r.faults.recovered > 0
        # With 8 retries at a 5% error rate, effectively nothing fails.
        assert r.faults.failed_reads == 0
        assert r.faults.failed_writes == 0

    def test_no_retries_means_failures(self, venus_trace):
        config = _base_config().with_faults(error_rate=0.2).with_recovery(
            max_retries=0
        )
        r = simulate([venus_trace], config)
        assert r.faults.retries == 0
        assert r.faults.failed_reads + r.faults.failed_writes > 0
        assert r.goodput_bytes < r.cache.read_bytes + r.cache.write_bytes

    def test_slowdowns_stretch_the_run(self, venus_trace):
        base = _base_config(read_ahead=False, write_behind=False)
        healthy = simulate([venus_trace], base)
        slowed = simulate(
            [venus_trace],
            base.with_faults(slow_rate=0.3, slow_factor=16.0),
        )
        assert slowed.faults.injected_slowdowns > 0
        assert slowed.completion_seconds > healthy.completion_seconds
        assert slowed.disk_busy_seconds > healthy.disk_busy_seconds

    def test_timeouts_abandon_glacial_requests(self, venus_trace):
        config = _base_config().with_faults(
            slow_rate=0.3, slow_factor=50.0
        ).with_recovery(timeout_s=0.05, max_retries=1)
        r = simulate([venus_trace], config)
        assert r.faults.timeouts > 0


class TestFaultPlanSerialization:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan(
            faults=FaultConfig(error_rate=0.1, slow_rate=0.05, crash_at_s=9.5),
            recovery=RecoveryConfig(max_retries=5, timeout_s=0.5),
        )
        path = tmp_path / "plan.json"
        plan.dump(path)
        assert FaultPlan.load(path) == plan

    def test_example_plan_loads(self):
        from pathlib import Path

        example = Path(__file__).resolve().parents[2] / "examples" / "fault_plan.json"
        plan = FaultPlan.load(example)
        assert plan.faults.error_rate > 0
        assert plan.faults.injects

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json{")
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.load(path)

    def test_load_rejects_unknown_sections(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"fautls": {}}))
        with pytest.raises(ValueError, match="unknown fault-plan sections"):
            FaultPlan.load(path)

    def test_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.from_spec("error=0.1,typo_key=3")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(error_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(error_rate=0.7, slow_rate=0.7)
        with pytest.raises(ValueError):
            RecoveryConfig(max_retries=-1)
        with pytest.raises(ValueError):
            # jitter above factor-1 would break backoff monotonicity
            RecoveryConfig(backoff_factor=1.5, backoff_jitter=0.9)
