"""Golden simulation digests: named cells checked against a frozen table.

A cell is one reconstructible (workload, config, fault-plan, cache-impl)
tuple.  Its :meth:`~repro.sim.metrics.SimulationResult.digest` -- every
scalar, every cache counter, every binned rate series -- is compared
against ``tests/integration/golden/sim_digests.json``.  The table was
frozen while the event engine and the former run-level batch kernel
still agreed on every cell, so each entry is a digest two independent
implementations produced.

:data:`QUICK_MATRIX` is the named quick matrix: venus pairs across both
cache implementations and fault-free/faulted plans, plus an async and a
crash cell.  After an intentional change to the simulator, regenerate
the table with::

    PYTHONPATH=src python -m pytest tests/sim/test_engine_differential.py \\
        tests/sim/test_batch_differential_matrix.py \\
        tests/sim/test_batch_chaos_matrix.py --update-golden

and review the diff like any other code change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.sim.config import CacheConfig, SimConfig, ssd_cache
from repro.sim.faults import FaultPlan
from repro.sim.metrics import SimulationResult
from repro.sim.procmodel import relabel_copies
from repro.sim.system import SimulatedSystem
from repro.trace.array import TraceArray
from repro.util.rng import DEFAULT_SEED
from repro.util.units import KB, MB
from repro.workloads.base import generate_workload

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "integration" / "golden" / "sim_digests.json"
)


def check_digest(cell: str, digest: str, update: bool) -> None:
    """Assert ``digest`` equals the golden entry for ``cell``.

    With ``update`` the entry is (re)written instead; the rest of the
    table is left as it was, so one test module can be regenerated on
    its own.
    """
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if update:
        golden[cell] = digest
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert cell in golden, (
        f"no golden digest for {cell!r}; run with --update-golden to add it"
    )
    assert digest == golden[cell], (
        f"digest of {cell!r} diverged from the golden table: "
        f"{digest} != {golden[cell]}"
    )


def check_result(
    cell: str, result: SimulationResult, update: bool
) -> SimulationResult:
    """:func:`check_digest` on a result's digest; returns the result."""
    check_digest(cell, result.digest(), update)
    return result


# ---------------------------------------------------------------------------
# Named, reconstructible cases (the quick matrix)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DifferentialCase:
    """One named (workload, config, fault-plan, cache-impl) tuple."""

    name: str
    config: SimConfig
    workload: str = "venus"
    scale: float = 0.05
    seed: int = DEFAULT_SEED
    n_copies: int = 2
    fault_spec: str | None = None
    cache_impl: str = "fast"

    def build_traces(self) -> list[TraceArray]:
        trace = generate_workload(
            self.workload, scale=self.scale, seed=self.seed
        ).trace
        if self.n_copies > 1:
            return relabel_copies(trace, self.n_copies)
        return [trace]

    def resolved_config(self) -> SimConfig:
        if self.fault_spec is None:
            return self.config
        return FaultPlan.from_spec(self.fault_spec).apply(self.config)


# Traces are rebuilt per (workload, scale, seed, copies) at most once;
# workload generation is the expensive part and most cases share it.
_TRACE_CACHE: dict[tuple, list[TraceArray]] = {}


def _traces_for(case: DifferentialCase) -> list[TraceArray]:
    key = (case.workload, case.scale, case.seed, case.n_copies)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = case.build_traces()
    return _TRACE_CACHE[key]


def run_case(case: DifferentialCase) -> SimulationResult:
    return SimulatedSystem(
        _traces_for(case), case.resolved_config(), cache_impl=case.cache_impl
    ).run()


def _quick_matrix() -> list[DifferentialCase]:
    mem = SimConfig(cache=CacheConfig(size_bytes=8 * MB))
    small = SimConfig(
        cache=CacheConfig(size_bytes=4 * MB, block_bytes=8 * KB)
    )
    cases = []
    for cache_impl in ("fast", "legacy"):
        cases.extend(
            [
                DifferentialCase(
                    f"memory-{cache_impl}", mem, cache_impl=cache_impl
                ),
                DifferentialCase(
                    f"ssd-{cache_impl}",
                    SimConfig(cache=ssd_cache(8 * MB)),
                    cache_impl=cache_impl,
                ),
                DifferentialCase(
                    f"small-blocks-{cache_impl}", small, cache_impl=cache_impl
                ),
                DifferentialCase(
                    f"faulted-{cache_impl}",
                    SimConfig(cache=ssd_cache(8 * MB)),
                    fault_spec="error=0.05,slow=0.1,seed=23,max_retries=4",
                    cache_impl=cache_impl,
                ),
                DifferentialCase(
                    f"ssd-fail-{cache_impl}",
                    SimConfig(cache=ssd_cache(8 * MB)),
                    fault_spec="ssd_fail_at=20",
                    cache_impl=cache_impl,
                ),
            ]
        )
    cases.append(
        DifferentialCase(
            "les-async", SimConfig(cache=CacheConfig(size_bytes=4 * MB)),
            workload="les", n_copies=1,
        )
    )
    cases.append(
        DifferentialCase(
            "crash", mem, fault_spec="crash_at=10",
        )
    )
    return cases


QUICK_MATRIX: list[DifferentialCase] = _quick_matrix()
