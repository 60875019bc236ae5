"""The benchmark's workloads: set-up, one measured pass, output checks.

Every workload is a closed loop: one caller issues an operation, waits
for its answer, then issues the next.  An *operation* is one sweep point
or warm rerun of the sweep (``fig8_cold``) or one served job
(``serve_mixed``).  It
fails if it raises, gets a non-2xx answer, ends in a state other than
``done``, or fails any output check below.

Output checks:

* at the default seed and size, ``fig8_cold``'s row digest equals the
  golden :data:`FIG8_GOLDEN`;
* every operation's ``SimulationResult.digest()`` is the same in every
  pass of one invocation (checked by the caller, :mod:`perfbench.run`);
* every served job's digest equals that of the same point run in-process
  through ``SweepRunner``;
* a warm rerun of a sweep simulates nothing and returns the digests of
  the pass it reruns;
* outside-in conservation laws (:func:`conservation_errors`).

Besides the simulated ("cold") operations, each pass of the sweep
workloads reruns its whole sweep through a ``SweepRunner`` whose result
cache already holds that pass's results, as a user reruns a cached
``repro sweep`` ("warm" operations, outside ``run_s``); on
``serve_mixed`` warm operations are repeated jobs.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench import _fig8_digest
from repro.exec.cache import ResultCache
from repro.exec.runner import (
    PointResult,
    SweepRunner,
    clear_workload_memo,
    generated_workload,
)
from repro.sim.config import SimConfig
from repro.sim.experiments import (
    FIG8_BLOCK_SIZES_KB,
    FIG8_CACHE_SIZES_MB,
    cache_size_sweep,
)
from repro.sim.metrics import SimulationResult
from repro.trace.array import TraceArray
from repro.util.rng import DEFAULT_SEED

ROOT = Path(__file__).resolve().parents[1]

#: Row digest of the Figure 8 sweep at scale 0.05 and the default seed.
FIG8_GOLDEN = "34f8938cf206aa41"

@dataclass(frozen=True)
class Size:
    """Input sizes; :data:`FULL` is the benchmark, :data:`TINY` the test."""

    fig8_scale: float = 0.05
    fig8_cache_mb: tuple = FIG8_CACHE_SIZES_MB
    fig8_block_kb: tuple = FIG8_BLOCK_SIZES_KB
    #: scale of the venus trace file ``serve_mixed`` writes in set-up,
    #: that of README.md's ``repro generate venus --scale 0.1``
    serve_venus_scale: float = 0.1
    #: A pass has 4 cold jobs and a 45 s run makes at least 20 passes, so
    #: 10 warm jobs per cold one give a run at least 800 warm samples: 40
    #: of them at or above the warm jobs' 95th percentile.
    serve_warm_per_cold: int = 10
    #: Warm reruns of the sweep per pass.  A 45 s run makes at least 8
    #: passes, so 50 give a run 400 warm samples: 20 of them at or above
    #: their 95th percentile.
    warm_replays: int = 50


FULL = Size()
TINY = Size(
    fig8_scale=0.01,
    fig8_cache_mb=(4, 64),
    fig8_block_kb=(4,),
    serve_venus_scale=0.01,
    serve_warm_per_cold=2,
    warm_replays=1,
)


@dataclass
class Op:
    """One operation's outcome."""

    label: str
    digest: str | None
    cold: bool
    latency_s: float
    errors: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    """One measured pass of a workload body."""

    run_s: float
    #: events run by the simulations of this pass
    events: int
    ops: list[Op]
    #: full results of the points simulated in this pass
    simulated: list[SimulationResult]
    #: client-side serve timings (serve_mixed only)
    serve_timings: dict[str, list[float]] = field(default_factory=dict)


# -- output checks -------------------------------------------------------------


def expected_framed_blocks(traces: list[TraceArray], config: SimConfig):
    """(demand-read blocks, bypassed requests) computed from the inputs.

    Independent of the simulator: a read of ``[offset, offset+length)``
    asks for every block it overlaps, unless its span cannot be framed at
    all (larger than the cache or the per-process cap), in which case the
    request bypasses the cache.
    """
    cache = config.cache
    bs = cache.block_bytes
    limit = cache.n_blocks
    if cache.max_blocks_per_process is not None:
        limit = min(limit, cache.max_blocks_per_process)
    blocks = bypassed = 0
    for trace in traces:
        first = trace.offset // bs
        last = (trace.offset + trace.length - 1) // bs
        span = last - first + 1
        framed = span <= limit
        reads = ~trace.is_write
        blocks += int(span[framed & reads].sum())
        bypassed += int((~framed).sum())
    return blocks, bypassed


def conservation_errors(
    result: SimulationResult, traces: list[TraceArray], config: SimConfig
) -> list[str]:
    """Conservation laws checked from outside the simulator."""
    errors = []
    c = result.cache
    demand, bypassed = expected_framed_blocks(traces, config)
    got = c.block_hits + c.block_inflight_hits + c.block_misses
    if result.faults.degraded_requests == 0:
        if got != demand:
            errors.append(f"demand blocks {demand} != hits+in-flight+misses {got}")
        if c.bypass_requests != bypassed:
            errors.append(f"bypassed {c.bypass_requests} != expected {bypassed}")
    n_reads = sum(int((~t.is_write).sum()) for t in traces)
    if c.read_requests != n_reads:
        errors.append(f"read requests {c.read_requests} != trace reads {n_reads}")
    if not 0.0 <= c.hit_fraction <= 1.0:
        errors.append(f"hit fraction {c.hit_fraction} outside [0, 1]")
    capacity = result.wall_seconds * result.n_cpus
    if result.accounted_busy_seconds > capacity * (1 + 1e-9):
        errors.append(
            f"busy {result.accounted_busy_seconds} s > makespan x CPUs {capacity} s"
        )
    return errors


# -- sweep workload --------------------------------------------------------------


class _RecordingRunner(SweepRunner):
    """A serial runner that keeps every ``PointResult`` it returns."""

    def __init__(self, cache: ResultCache | None = None) -> None:
        super().__init__(jobs=1, cache=cache)
        self.recorded: list[PointResult] = []

    def run(self, points):
        results = super().run(points)
        self.recorded.extend(results)
        return results


class _SweepWorkload:
    """Pass and check logic of an in-process sweep workload."""

    name = ""
    #: Largest share of a traced pass that no wrapped layer may cover:
    #: only building the rows runs outside ``SweepRunner.run`` (~0.01%).
    unattributed_max = 0.01

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self._warm_dirs = 0
        self._last: tuple = ((), [])

    def _sweep(self, runner: SweepRunner):
        raise NotImplementedError

    def _pass_errors(self, sweep_rows) -> list[str]:
        return []

    def run_pass(self) -> PassResult:
        runner = _RecordingRunner()
        t0 = time.perf_counter()
        rows = self._sweep(runner)
        run_s = time.perf_counter() - t0
        self._last = (rows, runner.recorded)
        return PassResult(
            run_s=run_s,
            events=sum(pr.result.events_run for pr in runner.recorded),
            ops=[],
            simulated=[pr.result for pr in runner.recorded],
        )

    def finish_pass(self, result: PassResult) -> None:
        """Check the pass's outputs and add its warm operations."""
        rows, recorded = self._last
        self._last = ((), [])
        pass_errors = self._pass_errors(rows)
        for pr in recorded:
            traces = pr.point.workload.materialize()
            errors = conservation_errors(pr.result, traces, pr.point.config)
            result.ops.append(
                Op(
                    label=pr.label,
                    digest=pr.result.digest(),
                    cold=True,
                    latency_s=pr.elapsed_s,
                    errors=pass_errors + errors,
                )
            )
        result.ops.extend(self._warm_ops(recorded))

    def _warm_ops(self, recorded: list[PointResult]) -> list[Op]:
        """Rerun the sweep from a result cache holding this pass's results."""
        self._warm_dirs += 1
        root = self.workdir / f"{self.name}-warm-{self._warm_dirs}"
        cache = ResultCache(root=root)
        for pr in recorded:
            cache.put(pr.key, pr.result)
        expected = [pr.result.digest() for pr in recorded]
        ops = []
        for _ in range(self.size.warm_replays):
            runner = _RecordingRunner(cache)
            t0 = time.perf_counter()
            self._sweep(runner)
            latency = time.perf_counter() - t0
            digests = [pr.result.digest() for pr in runner.recorded]
            errors = []
            if runner.simulated:
                errors.append(f"warm rerun simulated {runner.simulated} points")
            if digests != expected:
                errors.append("warm rerun digests differ from the pass's")
            ops.append(
                Op(
                    label="warm sweep",
                    digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
                    cold=False,
                    latency_s=latency,
                    errors=errors,
                )
            )
        shutil.rmtree(root, ignore_errors=True)
        return ops


class Fig8Cold(_SweepWorkload):
    """Figure 8's two-venus cache-size sweep, serial, result cache off."""

    name = "fig8_cold"

    def setup(self) -> None:
        clear_workload_memo()
        generated_workload("venus", self.size.fig8_scale, self.seed)

    def _sweep(self, runner):
        return cache_size_sweep(
            cache_sizes_mb=self.size.fig8_cache_mb,
            block_sizes_kb=self.size.fig8_block_kb,
            scale=self.size.fig8_scale,
            seed=self.seed,
            runner=runner,
        )

    def _pass_errors(self, rows) -> list[str]:
        if self.seed != DEFAULT_SEED or self.size != FULL:
            return []
        digest = _fig8_digest(rows)[:16]
        if digest != FIG8_GOLDEN:
            return [f"fig8 row digest {digest} != golden {FIG8_GOLDEN}"]
        return []


# -- serve_mixed ---------------------------------------------------------------


#: The cold jobs: every ``repro simulate`` command line in README.md and
#: docs/FAULTS.md, as a job spec.  ``traces`` is how many times the one
#: venus trace file is given; ``fault_plan`` names the plan file passed.
SERVE_JOBS = (
    {"traces": 2, "cache_mb": 128, "ssd": True},
    {"traces": 1, "ssd": True, "faults": "error=0.05,slow=0.1"},
    {"traces": 1, "ssd": True, "fault_plan": "examples/fault_plan.json"},
    {"traces": 1, "ssd": True, "cache_mb": 32,
     "faults": "error=0.05,slow=0.1,slow_factor=8,max_retries=4"},
)


class ServeMixed:
    """Closed-loop client of an in-process server: cold and warm jobs.

    Set-up writes a venus ASCII trace file from the seed and fixes the job
    sequence: the :data:`SERVE_JOBS` in a seeded order, each followed by
    warm jobs that repeat a uniformly chosen job already submitted.  Each
    pass starts a server (one worker) over a fresh result cache, then
    submits the sequence one job at a time, timing each job from submit
    until its SSE ``end`` event plus the result fetch.
    """

    name = "serve_mixed"
    #: Largest share of a traced pass that no wrapped layer may cover:
    #: the HTTP and SSE handling on both sides, ~5% of it.
    unattributed_max = 0.15

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self._dirs = 0
        self.specs: list[dict] = []
        self.plan: list[int] = []
        self.trace_file_bytes = 0

    def _fresh_dir(self, kind: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"serve-{kind}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        from repro.trace.io import write_trace_array
        from repro.workloads.base import generate_workload

        rng = random.Random(self.seed)
        workload = generate_workload(
            "venus", scale=self.size.serve_venus_scale, seed=rng.randrange(2**31)
        )
        path = self._fresh_dir("traces") / "venus.trace"
        write_trace_array(path, workload.trace)
        specs = []
        for job in SERVE_JOBS:
            spec = dict(job, traces=[str(path)] * job["traces"], jobs=1)
            if "fault_plan" in spec:
                spec["fault_plan"] = json.loads((ROOT / spec["fault_plan"]).read_text())
            specs.append(spec)
        order = list(range(len(specs)))
        rng.shuffle(order)
        plan = []
        for k, cold in enumerate(order):
            plan.append(cold)
            seen = order[: k + 1]
            plan.extend(rng.choice(seen) for _ in range(self.size.serve_warm_per_cold))
        self.specs = specs
        self.plan = plan
        self.trace_file_bytes = path.stat().st_size

    def run_pass(self) -> PassResult:
        from repro.serve.app import ServeConfig, ServerThread
        from repro.serve.client import ServeClient

        cache_dir = self._fresh_dir("cache")
        config = ServeConfig(port=0, workers=1, cache_dir=str(cache_dir))
        ops: list[Op] = []
        timings: dict[str, list[float]] = {
            "submit_s": [],
            "queue_wait_s": [],
            "result_fetch_s": [],
        }
        events = 0
        first_seen: set[int] = set()
        with ServerThread(config) as server:
            client = ServeClient(port=server.port, timeout=120.0)
            t0 = time.perf_counter()
            for spec_index in self.plan:
                cold = spec_index not in first_seen
                first_seen.add(spec_index)
                op, payload = self._job(client, spec_index, cold, timings)
                ops.append(op)
                if payload is not None and not payload["cached"]:
                    events += int(payload["events_run"])
            run_s = time.perf_counter() - t0
        shutil.rmtree(cache_dir, ignore_errors=True)
        return PassResult(
            run_s=run_s,
            events=events,
            ops=ops,
            simulated=[],
            serve_timings=timings,
        )

    def finish_pass(self, result: PassResult) -> None:
        """Jobs are checked as they complete; see :meth:`reference`."""

    def _job(self, client, spec_index: int, cold: bool, timings):
        from http.client import HTTPException

        from repro.serve.client import ServeClientError

        label = f"job{spec_index}"
        t0 = time.perf_counter()
        try:
            job = client.submit_simulate(self.specs[spec_index])
            t_submitted = time.perf_counter()
            t_running = None
            end = None
            for record in client.events(job["id"]):
                if t_running is None and record.get("state") == "running":
                    t_running = time.perf_counter()
                if record.get("kind") == "end":
                    end = record
            t_end = time.perf_counter()
            result = client.result(job["id"])
            t_done = time.perf_counter()
        except (OSError, HTTPException, ServeClientError, ValueError) as exc:
            return (
                Op(label, None, cold, time.perf_counter() - t0,
                   [f"{type(exc).__name__}: {exc}"]),
                None,
            )
        timings["submit_s"].append(t_submitted - t0)
        timings["queue_wait_s"].append((t_running or t_end) - t0)
        timings["result_fetch_s"].append(t_done - t_end)
        errors = []
        if end is None or end.get("state") != "done":
            errors.append(f"job ended {end!r}")
        payloads = result.get("results") or []
        if len(payloads) != 1:
            errors.append(f"expected 1 point result, got {len(payloads)}")
            return Op(label, None, cold, t_done - t0, errors), None
        payload = payloads[0]
        if payload["cached"] == cold:
            errors.append(f"cold={cold} job answered with cached={payload['cached']}")
        if not 0.0 <= payload["hit_fraction"] <= 1.0:
            errors.append(f"hit fraction {payload['hit_fraction']} outside [0, 1]")
        return Op(label, payload["digest"], cold, t_done - t0, errors), payload

    def reference(self) -> tuple[dict[str, str], list[SimulationResult], dict[str, list[str]]]:
        """Every job shape run in-process: digests, results, check errors."""
        from repro.serve.jobs import parse_job

        digests, results, errors = {}, [], {}
        runner = SweepRunner(jobs=1)
        for i, spec in enumerate(self.specs):
            points = parse_job({"kind": "simulate", "spec": spec}, "ref").points
            (pr,) = runner.run(points)
            label = f"job{i}"
            digests[label] = pr.result.digest()
            results.append(pr.result)
            errors[label] = conservation_errors(
                pr.result, pr.point.workload.materialize(), pr.point.config
            )
        return digests, results, errors


WORKLOADS = {w.name: w for w in (Fig8Cold, ServeMixed)}

