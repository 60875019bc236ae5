"""The benchmark's own tests: tiny runs through the output checks, and the
tracer's promise to leave every class exactly as it found it.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import layers, run, workloads  # noqa: E402


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--size", "tiny",
         "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_workload_passes_its_output_checks(workload):
    result = _bench("--workload", workload, "--seed", "7")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name


def test_traced_run_reports_every_layer_metric():
    result = _bench("--workload", "serve_mixed", "--trace", "1")
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.per_layer_units())
    values = {k: m["value"] for k, m in result["metrics"].items()}
    # serve_mixed reaches every layer: each wrapped entry point was called.
    for layer in layers.layer_names():
        if layer != "events.residual":
            assert values[f"{layer}.calls"] > 0, layer
    assert values["device.retries"] > 0
    # Every warm job, and only those, is answered by a cache lookup hit.
    warm = workloads.TINY.serve_warm_per_cold
    assert values["exec.result_cache.hit_frac"] == pytest.approx(warm / (warm + 1))


def test_layer_check_fails_on_uncovered_or_double_counted_time():
    def totals(covered_s):
        return layers.LayerTotals(
            self_s={}, calls={}, returned={}, covered_s=covered_s, spans=[]
        )

    assert run._layer_check(totals(9.99), 10.0, 0.01) == ""
    assert run._layer_check(totals(10.4), 10.0, 0.01) == ""
    assert "layer accounting" in run._layer_check(totals(9.5), 10.0, 0.01)
    assert "layer accounting" in run._layer_check(totals(0.0), 10.0, 0.15)
    assert "layer accounting" in run._layer_check(totals(11.0), 10.0, 0.15)


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_traced_run_restores_the_original_class_attributes():
    from repro.exec.runner import SweepPointSpec, SweepRunner, AppWorkloadSpec
    from repro.sim.config import SimConfig

    before = layers.original_attributes()
    clock = layers.LayerClock()
    point = SweepPointSpec(
        workload=AppWorkloadSpec(app="upw", scale=0.01, seed=3),
        config=SimConfig(),
    )
    with pytest.raises(RuntimeError):
        with clock.installed():
            during = layers.original_attributes()
            assert all(during[k] is not before[k] for k in before)
            SweepRunner(jobs=1).run([point])
            raise RuntimeError("leave the block by an exception")
    after = layers.original_attributes()
    assert all(after[k] is before[k] for k in before)
    totals = clock.totals()
    assert totals.calls["cache.read"] + totals.calls["cache.write"] > 0
    # Untraced code runs the originals: nothing more is counted.
    SweepRunner(jobs=1).run([point])
    assert clock.totals().calls == totals.calls


def test_conservation_checks_catch_a_miscounted_hit():
    from repro.exec.runner import AppWorkloadSpec, SweepPointSpec, SweepRunner
    from repro.sim.config import SimConfig

    from perfbench.workloads import conservation_errors

    point = SweepPointSpec(
        workload=AppWorkloadSpec(app="upw", scale=0.01, seed=3),
        config=SimConfig(),
    )
    (pr,) = SweepRunner(jobs=1).run([point])
    traces = point.workload.materialize()
    assert conservation_errors(pr.result, traces, point.config) == []
    cache = dataclasses.replace(pr.result.cache, block_hits=pr.result.cache.block_hits + 1)
    broken = dataclasses.replace(pr.result, cache=cache)
    assert any("demand blocks" in e for e in conservation_errors(broken, traces, point.config))
