"""Tests of the benchmark itself, on tiny runs of each workload.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import Tracer, conv_variant  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# The end-to-end figures each workload prints in its table, by name and unit.
FIGURES = {
    "search": {"search_steps_per_s": "1/s"},
    "retrain": {"retrain_samples_per_s": "1/s", "eval_samples_per_s": "1/s", "retrain_accuracy": "fraction"},
    "costmodel": {
        "projections_per_s": "1/s",
        "expected_cost_per_s": "1/s",
        "cost_gradient_per_s": "1/s",
        "oracle_archs_per_s": "1/s",
    },
}
COMMON = {
    "setup_wall_s": "s",
    "reference_speed": "ratio",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "error_rate": "ratio",
}


def tiny(workload: str, trace: bool = False) -> dict:
    return wl.run(workload, seed=5, seconds=0.0, trace=trace, scale=wl.TINY)


def test_benchmark_json_matches_the_code():
    e2e = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    assert e2e == wl.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == wl.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    out = tiny(workload)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: u for k, (u, _) in wl.END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = "\n".join(wl.report_lines(out))
    for name, unit in {**FIGURES[workload], **COMMON}.items():
        assert any(line.split()[0] == name and line.split()[-1] == unit for line in table.splitlines()), name
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_tiny_run_reports_every_layer(workload):
    out = tiny(workload, trace=True)
    metrics = out["result"]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == wl.PER_LAYER
    json.dumps(out["result"], allow_nan=False)
    # Set-up builds timed between phase-I steps run inside run_search; the
    # few microseconds around each build outside its spans count as
    # run_search self time but not as timed wall, hence the small margin.
    assert 0.9 < metrics["trace.accounted_share"]["value"] <= 1.0 + 1e-3
    if workload == "costmodel":
        assert metrics["cost.expected_cost.calls"]["value"] > 0
        assert metrics["autodiff.conv2d.depthwise.calls"]["value"] == 0
        assert metrics["projection.expected_cost_per_iter"]["value"] >= 1
    else:
        assert metrics["autodiff.conv2d.depthwise.calls"]["value"] > 0
        assert metrics["autodiff.backward_s"]["value"] > 0
        assert metrics["autodiff.tape_entries"]["value"] > 0


def _corrupt(monkeypatch, module, name, change):
    original = getattr(module, name)

    def corrupted(*args, **kwargs):
        return change(original(*args, **kwargs))

    monkeypatch.setattr(module, name, corrupted)


def _assert_counted(out):
    result = out["result"]
    assert result["failed"] >= 1 and not result["correct"]
    assert out["figures"]["error_rate"][0] == result["failed"] / result["attempted"] > 0
    assert out["failures"]


def test_perturbed_projection_phi_is_counted(monkeypatch):
    _corrupt(monkeypatch, wl.projection, "project", lambda r: dataclasses.replace(r, phi=r.phi * (1 + 1e-6)))
    _assert_counted(tiny("costmodel"))


def test_changed_feasible_anchor_is_counted(monkeypatch):
    def nudge(r):
        if r.iterations == 0:
            key = next(iter(r.theta_p))
            r.theta_p[key] = np.nextafter(r.theta_p[key], np.inf)
        return r

    _corrupt(monkeypatch, wl.projection, "project", nudge)
    _assert_counted(tiny("costmodel"))


def test_wrong_oracle_cost_is_counted(monkeypatch):
    _corrupt(monkeypatch, wl.cost, "exact_cost", lambda c: c + np.array([1.0, 0.0]))
    out = tiny("costmodel")
    _assert_counted(out)
    assert out["result"]["failed"] == len(wl.exhaustive.MicroSpace(wl.MICRO_PLAN))


def test_search_feasibility_disagreement_is_counted(monkeypatch):
    _corrupt(monkeypatch, wl.search, "run_search", lambda r: dataclasses.replace(r, feasible=not r.feasible))
    _assert_counted(tiny("search"))


def test_retrain_accuracy_out_of_range_is_counted(monkeypatch):
    _corrupt(monkeypatch, wl.search, "retrain_eval", lambda r: dataclasses.replace(r, accuracy=1.5))
    _assert_counted(tiny("retrain"))


def test_tracer_wraps_every_binding_and_restores_it():
    import rcnas.autodiff
    import rcnas.network
    import rcnas.ops

    original = rcnas.autodiff.conv2d
    with Tracer():
        assert rcnas.ops.conv2d is rcnas.network.conv2d is rcnas.autodiff.conv2d
        assert rcnas.ops.conv2d is not original
    assert rcnas.ops.conv2d is rcnas.network.conv2d is rcnas.autodiff.conv2d is original


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.set_phase("run")
    outer = tracer._open("outer")
    inner = tracer._open("inner")
    tracer._close(inner)
    tracer._close(outer)
    a = tracer.arrays()
    assert a["self"][outer] == pytest.approx(a["duration"][outer] - a["duration"][inner])
    summary = tracer.summary("run")
    assert summary["outer"]["self_s"] + summary["inner"]["self_s"] == pytest.approx(summary["outer"]["s"])


@pytest.mark.parametrize(
    "x_shape, w_shape, groups, variant",
    [
        ((2, 8, 4, 4), (8, 1, 3, 3), 8, "depthwise"),
        ((2, 8, 4, 4), (8, 8, 1, 1), 1, "pointwise"),
        ((2, 8, 4, 4), (8, 4, 1, 1), 2, "grouped"),
        ((2, 3, 4, 4), (8, 3, 3, 3), 1, "dense"),
    ],
)
def test_conv_variant(x_shape, w_shape, groups, variant):
    assert conv_variant(x_shape, w_shape, groups) == variant


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
