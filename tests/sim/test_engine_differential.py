"""Golden digests for the quick matrix and seeded synthetic workloads.

Two families of cells, each pinned to
``tests/integration/golden/sim_digests.json``:

* the named quick matrix (:data:`tests.harness.QUICK_MATRIX`), one
  parametrized test per case;
* seeded synthetic workloads: random run/jump access patterns, cache
  geometries, write policies, async mixes, crash-at-T and error-rate
  fault plans.  Each cell is drawn from ``random.Random(seed)``, so it
  is the same workload on every run and every host.

The test names keep the cell identifiers of the former batch-kernel-vs-
event suite whose agreement the golden digests were frozen from.
"""

import random

import numpy as np
import pytest

from repro.sim.config import CacheConfig, SimConfig
from repro.sim.faults import FaultPlan
from repro.sim.system import simulate
from repro.trace import flags as F
from repro.trace.array import TraceArray
from repro.util.units import KB, MB
from tests.harness import QUICK_MATRIX, check_result, run_case

BLOCK = 4 * KB


@pytest.mark.parametrize("case", QUICK_MATRIX, ids=lambda c: c.name)
def test_quick_matrix_case(case, update_golden):
    check_result(f"quick/{case.name}", run_case(case), update_golden)


# ---------------------------------------------------------------------------
# Seeded synthetic workloads
# ---------------------------------------------------------------------------
def synthetic_trace(rng: random.Random, process_id: int) -> TraceArray:
    """A single-process trace of sequential runs broken by random jumps.

    This mirrors the paper's structure -- constant-size sequential spans
    -- while the jumps, direction changes and async records reach the
    cache's partial-overlap and completion-race paths.
    """
    file_ids: list[int] = []
    offsets: list[int] = []
    lengths: list[int] = []
    types: list[int] = []
    deltas: list[int] = []
    for _ in range(rng.randint(1, 6)):
        fid = rng.randint(0, 2)
        run_len = rng.randint(1, 6)
        length = rng.randint(1, 8) * BLOCK
        offset = rng.randint(0, 200) * BLOCK
        rt = F.TRACE_LOGICAL_RECORD
        if rng.random() < 0.5:
            rt |= F.TRACE_WRITE
        if rng.randint(0, 9) == 0:
            rt |= F.TRACE_ASYNC
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
        process_id=[process_id] * n,
        operation_id=list(range(n)),
        offset=offsets,
        length=lengths,
        process_clock=np.cumsum(deltas),
    )


def random_workload(rng: random.Random) -> list[TraceArray]:
    n_procs = rng.randint(1, 3)
    return [synthetic_trace(rng, pid) for pid in range(1, n_procs + 1)]


def random_config(rng: random.Random) -> SimConfig:
    config = SimConfig(
        cache=CacheConfig(
            size_bytes=rng.choice([256 * KB, 1 * MB, 4 * MB]),
            block_bytes=rng.choice([4 * KB, 8 * KB]),
            read_ahead=rng.random() < 0.5,
            write_behind=rng.random() < 0.5,
            flush_delay_s=rng.choice([0.0, 0.5]),
        )
    )
    n_cpus = rng.choice([1, 1, 2])
    if n_cpus != 1:
        config = config.with_scheduler(n_cpus=n_cpus)
    return config


def _check_seeded(family: str, n_cells: int, plan_for, update_golden: bool) -> None:
    for seed in range(n_cells):
        rng = random.Random(f"{family}-{seed}")
        traces = random_workload(rng)
        config = random_config(rng)
        spec = plan_for(rng)
        if spec is not None:
            config = FaultPlan.from_spec(spec).apply(config)
        check_result(
            f"seeded/{family}/{seed}", simulate(traces, config), update_golden
        )


def test_batch_matches_event_on_random_workloads(update_golden):
    _check_seeded("random-workload", 40, lambda rng: None, update_golden)


def test_batch_matches_event_under_crash_plans(update_golden):
    _check_seeded(
        "crash-plan",
        20,
        lambda rng: f"crash_at={rng.uniform(0.5, 30.0)!r}",
        update_golden,
    )


def test_batch_matches_event_under_error_plans(update_golden):
    _check_seeded(
        "error-plan",
        20,
        lambda rng: (
            f"error=0.1,slow=0.1,seed={rng.randint(0, 999)},max_retries=3"
        ),
        update_golden,
    )
