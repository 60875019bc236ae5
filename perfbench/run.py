"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig8_cold --seed 19910616 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures untraced passes for half the time, then one
traced pass with every layer entry point wrapped
(:mod:`perfbench.layers`), and prints the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a human-readable report (host fingerprint,
passes, metric table, layer split).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("fig8_cold", "serve_mixed")
DEFAULT_SEED = 19910616
#: Set-up is repeated before the first pass and after every pass, each
#: time at least once and for at least this many seconds, so that its
#: samples are spread over the run like the passes are.
SETUP_GAP_S = 0.1
#: glibc's mallopt parameter number for the arena limit
_M_ARENA_MAX = -8

#: name -> unit of every end-to-end metric (``--trace 0``)
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_events_per_s": "1/s",
    "cold_mean_s": "s",
    "warm_best_s": "s",
}

#: layer metrics derived from exact simulated counts or client timings
_EXTRA_LAYER_UNITS = {
    "cache.block_hit_frac": "frac",
    "cache.prefetch_useful_frac": "frac",
    "cache.blocks_per_request": "blocks/req",
    "cache.frame_stalls": "count",
    "events.count": "count",
    "device.retries": "count",
    "device.recovered_frac": "frac",
    "trace.decode.mb_per_s": "MB/s",
    "exec.result_cache.hit_frac": "frac",
    "ops.cold_p50_s": "s",
    "ops.warm_p50_s": "s",
    "ops.warm_p95_s": "s",
    "serve.submit_s": "s",
    "serve.queue_wait_s": "s",
    "serve.result_fetch_s": "s",
    "trace.overhead_frac": "frac",
    "trace.unattributed_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """name -> unit of every per-layer metric (``--trace 1``)."""
    from perfbench.layers import layer_names

    units = {}
    for layer in layer_names():
        if layer == "events.residual":
            units["events.residual_s"] = "s"
            continue
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(_EXTRA_LAYER_UNITS)
    return units


# -- environment ---------------------------------------------------------------


def pin_environment(workdir: Path) -> None:
    """Drop user ``REPRO_*`` settings; keep every cache inside ``workdir``.

    Also limits glibc to one malloc arena: otherwise each server thread
    may get its own arena, and which threads do decides peak RSS.
    """
    try:
        ctypes.CDLL(None).mallopt(ctypes.c_int(_M_ARENA_MAX), ctypes.c_int(1))
    except (OSError, AttributeError):  # not glibc: nothing to pin
        pass
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "results")
    os.environ["REPRO_TRACE_CACHE"] = "off"
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)


def fingerprint() -> dict:
    """Host and code identity printed with every result."""
    import numpy

    from repro.exec.keys import code_version_tag

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == ROOT:
            commit = top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "code_version": code_version_tag()[:16],
    }


# -- measuring -----------------------------------------------------------------


def fastest_warm(passes) -> dict[str, float]:
    """The fastest time of each kind of warm operation over the run.

    A warm operation's kind is its label; every kind recurs several times
    in every pass.  Each vCPU of a shared host runs at a fast or a slow
    speed, switching within a second, and the share of slow time drifts
    over minutes.  A warm operation takes a few milliseconds, so some of
    a kind's hundreds of samples meet a fast CPU in any run, and their
    minimum does not move with the share of slow time.  Operations that
    take a second or more cannot escape it; for them the mean over the
    whole run, which weighs every second alike, varies least.
    """
    best: dict[str, float] = {}
    for p in passes:
        for op in p.ops:
            if not op.cold:
                best[op.label] = min(best.get(op.label, op.latency_s), op.latency_s)
    return best


def _p(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    """Operations attempted and failed, with cross-pass digest identity."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def add(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            errors = list(op.errors)
            if op.digest is not None:
                first = self.digests.setdefault(op.label, op.digest)
                if op.digest != first:
                    errors.append(f"digest {op.digest[:16]} != {first[:16]}")
            if errors:
                self.failures.append(f"{op.label}: {'; '.join(errors)}")

    def fail(self, label: str, error: str) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: {error}")


def _run_passes(wl, tally: Tally, seconds: float, log, between=None) -> list:
    """Measured passes until ``seconds`` of body time (at least one).

    ``between`` is called after every pass, outside the body time.
    """
    passes = []
    spent = 0.0
    while not passes or spent < seconds:
        # Start every pass from a collected heap: the simulator leaves
        # reference cycles, and when the collector happens to run would
        # otherwise leak into run_s and peak_rss_mb.
        gc.collect()
        try:
            result = wl.run_pass()
            wl.finish_pass(result)
        except Exception as exc:  # a failed pass is a failed operation
            tally.fail(f"pass {len(passes) + 1}", f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            break
        tally.add(result.ops)
        result.simulated = []  # keep memory flat: the passes are identical
        passes.append(result)
        spent += result.run_s
        log(
            f"pass {len(passes)}: run_s={result.run_s:.4f} "
            f"events={result.events} ops={len(result.ops)}"
        )
        if between is not None:
            between()
    return passes


def _exact_layer_metrics(results) -> dict[str, float]:
    """Layer metrics from exact simulated counts (identical on any host)."""
    hits = inflight = misses = reads = ra_hits = pf_blocks = stalls = 0
    events = retries = recovered = unrecovered = 0
    for r in results:
        c, f = r.cache, r.faults
        hits += c.block_hits
        inflight += c.block_inflight_hits
        misses += c.block_misses
        reads += c.read_requests
        ra_hits += c.readahead_hits
        pf_blocks += c.prefetch_blocks
        stalls += c.frame_stalls
        events += r.events_run
        retries += f.retries
        recovered += f.recovered
        unrecovered += f.failed_reads + f.failed_writes
    blocks = hits + inflight + misses
    return {
        "cache.block_hit_frac": (hits + inflight) / blocks if blocks else 0.0,
        "cache.prefetch_useful_frac": ra_hits / pf_blocks if pf_blocks else 0.0,
        "cache.blocks_per_request": blocks / reads if reads else 0.0,
        "cache.frame_stalls": stalls,
        "events.count": events,
        "device.retries": retries,
        "device.recovered_frac": (
            recovered / (recovered + unrecovered) if recovered + unrecovered else 0.0
        ),
    }


def measure(
    name: str, seed: int, seconds: float, trace: bool, size, workdir: Path, log
) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    from perfbench.layers import LayerClock
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[name](seed, size, workdir)
    tally = Tally()
    setup_s: list[float] = []

    def set_up() -> None:
        spent = 0.0
        while spent < SETUP_GAP_S:
            gc.collect()
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
            spent += setup_s[-1]

    set_up()
    passes = _run_passes(
        wl, tally, seconds / 2 if trace else seconds, log, None if trace else set_up
    )
    log(f"setup_s: {len(setup_s)} set-ups, median {statistics.median(setup_s):.4f} s, "
        f"max {max(setup_s):.4f} s")
    # Peak RSS of set-up and the measured passes, not of the checks below.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = totals = setup_totals = None
    if trace and passes:
        clock = LayerClock()
        gc.collect()
        with clock.installed():
            wl.setup()
            setup_totals = clock.totals()
            gc.collect()
            clock.reset()
            try:
                traced = wl.run_pass()
            except Exception as exc:
                tally.fail("traced pass", f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            totals = clock.totals()
        if traced is not None:
            wl.finish_pass(traced)
            tally.add(traced.ops)
            log(f"traced pass: run_s={traced.run_s:.4f} events={traced.events}")

    reference = []
    if name == "serve_mixed" and passes:
        digests, reference, errors = wl.reference()
        for label, errs in errors.items():
            digest = digests[label]
            first = tally.digests.get(label)
            if first is not None and first != digest:
                errs = errs + [f"served digest {first[:16]} != in-process {digest[:16]}"]
            if errs:
                tally.failures.append(f"{label} (in-process): {'; '.join(errs)}")

    ops = [op for p in passes for op in p.ops]
    cold = [op.latency_s for op in ops if op.cold]
    warm = [op.latency_s for op in ops if not op.cold]
    out = {
        "passes": len(passes),
        "attempted": max(1, tally.attempted),
        "failed": min(len(tally.failures), tally.attempted) if tally.attempted else 1,
        "failures": tally.failures,
        "samples": {"passes": len(passes), "cold": len(cold), "warm": len(warm)},
    }
    if not passes:
        return out
    for kind, samples in (("cold", cold), ("warm", warm)):
        log(f"{kind} ops: {len(samples)}, p50 {_p(samples, 50):.6g} s, "
            f"p95 {_p(samples, 95):.6g} s")
    run_s = statistics.mean(p.run_s for p in passes)
    best = fastest_warm(passes)
    out["e2e"] = {
        "run_s": run_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "sim_events_per_s": statistics.mean(p.events for p in passes) / run_s,
        "cold_mean_s": statistics.mean(cold),
        "warm_best_s": statistics.mean(
            best[op.label] for op in passes[0].ops if not op.cold
        ),
    }
    out["percentiles"] = {
        "ops.cold_p50_s": _p(cold, 50),
        "ops.warm_p50_s": _p(warm, 50),
        "ops.warm_p95_s": _p(warm, 95),
    }
    if traced is not None:
        out["layers"] = _layer_metrics(
            wl, traced, totals, setup_totals, passes, reference
        )
        out["layers"].update(out["percentiles"])
        out["traced_run_s"] = traced.run_s
        out["point_spans"] = totals.spans
        out["layer_check"] = _layer_check(totals, traced.run_s, wl.unattributed_max)
        if out["layer_check"]:
            tally.failures.append(out["layer_check"])
            out["failed"] = min(len(tally.failures), out["attempted"])
    return out


def _layer_metrics(wl, traced, totals, setup_totals, passes, reference):
    metrics: dict[str, float] = {}
    for layer, self_s in totals.self_s.items():
        if layer == "events.residual":
            metrics["events.residual_s"] = self_s
            continue
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.calls"] = totals.calls[layer]
    # Workload generation happens in set-up: report the traced set-up's.
    metrics["workloads.generate.self_s"] = setup_totals.self_s["workloads.generate"]
    metrics["workloads.generate.calls"] = setup_totals.calls["workloads.generate"]
    simulated = reference if wl.name == "serve_mixed" else traced.simulated
    metrics.update(_exact_layer_metrics(simulated))
    # Every decode reads serve_mixed's one trace file.
    decoded = totals.calls["trace.decode"] * getattr(wl, "trace_file_bytes", 0)
    decode_s = totals.self_s["trace.decode"]
    metrics["trace.decode.mb_per_s"] = decoded / 2**20 / decode_s if decode_s else 0.0
    gets = totals.calls["exec.result_cache.get"]
    hits = totals.returned["exec.result_cache.get"]
    metrics["exec.result_cache.hit_frac"] = hits / gets if gets else 0.0
    for key in ("submit_s", "queue_wait_s", "result_fetch_s"):
        samples = [v for p in passes for v in p.serve_timings.get(key, ())]
        metrics[f"serve.{key}"] = _p(samples, 50)
    untraced_s = statistics.mean(p.run_s for p in passes)
    metrics["trace.overhead_frac"] = traced.run_s / untraced_s - 1
    metrics["trace.unattributed_s"] = traced.run_s - totals.covered_s
    return metrics


def _layer_check(totals, wall: float, max_share: float) -> str:
    """'' if the wrapped layers cover the traced wall as they should.

    The self times plus ``trace.unattributed_s`` sum to the traced wall
    by construction, so that sum is not what is checked.  Instead the
    outermost wrapped spans must not add up to more than the wall (5%
    slack for clock granularity), which would mean nested time was
    counted twice, and the time no wrapped layer covers must stay below
    the workload's ``unattributed_max`` share of the wall.
    """
    unattributed = wall - totals.covered_s
    if unattributed < -0.05 * wall or unattributed > max_share * wall:
        return (
            f"layer accounting: wrapped layers cover {totals.covered_s:.4f} s of "
            f"the traced wall {wall:.4f} s; unattributed {unattributed:.4f} s is "
            f"outside [-5%, {max_share:.0%}] of it"
        )
    return ""


# -- reporting -------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(out: dict, trace: bool, log) -> dict:
    """Print the metric table; return the final JSON object."""
    values, units = (
        (out.get("layers"), per_layer_units()) if trace else (out.get("e2e"), END_TO_END)
    )
    metrics = (
        {k: {"value": values[k], "unit": u} for k, u in units.items()} if values else {}
    )
    s = out["samples"]
    log(f"samples: {s['passes']} passes, {s['cold']} cold ops, {s['warm']} warm ops")
    for key, m in metrics.items():
        log(f"  {key:<34} {_fmt(m['value']):>14} {m['unit']}")
    failed_frac = out["failed"] / out["attempted"]
    log(f"  {'failed_frac':<34} {_fmt(failed_frac):>14} frac "
        f"({out['failed']} of {out['attempted']} operations)")
    if trace and "layers" in out:
        wall = out["traced_run_s"]
        log(f"layer split of the traced run ({wall:.4f} s, overhead "
            f"{out['layers']['trace.overhead_frac']:+.1%}):")
        rows = [(k[: -len(".self_s")], v) for k, v in out["layers"].items()
                if k.endswith(".self_s") and not k.startswith("workloads.")]
        rows.append(("events.residual", out["layers"]["events.residual_s"]))
        rows.append(("(unattributed)", out["layers"]["trace.unattributed_s"]))
        for layer, v in sorted(rows, key=lambda r: -r[1]):
            calls = out["layers"].get(f"{layer}.calls", "")
            log(f"  {layer:<26} {v:10.4f} s {v / wall:7.1%} {calls:>12}")
        spans = out["point_spans"]
        if spans:
            longest = max(b - a for a, b in spans)
            log(f"  points: {len(spans)} spans, longest {longest:.4f} s")
        log(f"  set-up: workloads.generate "
            f"{out['layers']['workloads.generate.self_s']:.4f} s in "
            f"{out['layers']['workloads.generate.calls']} calls")
    for failure in out["failures"][:20]:
        log(f"FAILED {failure}")
    return {
        "correct": not out["failures"] and bool(metrics),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process (peak RSS stays per workload)."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}}
        if proc.returncode or not summary[name]["correct"]:
            status = 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summary.values()),
        "attempted": sum(s["attempted"] for s in summary.values()),
        "failed": sum(s["failed"] for s in summary.values()),
        "metrics": {f"{n}.{k}": m for n, s in summary.items()
                    for k, m in s["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    pin_environment(workdir)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    def log(line: str) -> None:
        print(line, flush=True)

    try:
        from perfbench import workloads

        size = workloads.FULL if args.size == "full" else workloads.TINY
        host = fingerprint()
        log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} size={args.size}")
        log("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      size, workdir, log)
        result = report(out, bool(args.trace), log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still owns a directory there
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
