"""Smoke test of the benchmark: every workload path, traced and untraced, on
a tiny configuration, plus the span arithmetic. Runs in a few seconds:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import Tracer, aggregate, self_times  # noqa: E402

TINY = {
    "model": {"d_model": 8, "n_heads": 2, "n_enc_layers": 1,
              "n_dec_layers": 1, "patch_size": 4, "volume_side": 8,
              "vocab_size": 48, "l_max": 12},
    "n_records": 8, "side": 8, "batch_size": 4, "eval_every": 2,
    "loss_window": (1, 3), "trace_steps": 2,
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],    # overlaps a: union of a and b is [1, 6]
        ["c", 8.0, 12.0, 0],   # clipped to the parent's end
        ["a.child", 2.0, 3.0, 1],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_aggregate_counts_only_spans_inside_units():
    spans = [
        ["bench.step", 0.0, 1.0, -1],
        ["model.x", 0.1, 0.5, 0],
        ["model.y", 0.2, 0.3, 1],
        ["bench.step", 2.0, 3.0, -1],
        ["model.x", 2.0, 2.2, 3],
        ["model.x", 5.0, 6.0, -1],  # outside any unit
    ]
    n_units, unit_self, calls = aggregate(spans)
    assert n_units == 2
    assert unit_self["model.x"] == pytest.approx((300.0 + 200.0) / 2)
    assert unit_self["model.y"] == pytest.approx(100.0 / 2)
    assert calls["model.x"] == pytest.approx([400.0, 200.0, 1000.0])


def test_missing_target_is_reported_absent():
    tracer = Tracer({"model.gone": "alignfuse.model:AlignFuseModel.gone",
                     "model.classify": "alignfuse.model:AlignFuseModel.classify"})
    from alignfuse.model import AlignFuseModel

    original = AlignFuseModel.classify
    with tracer.installed():
        assert AlignFuseModel.classify is not original
    assert AlignFuseModel.classify is original
    assert tracer.absent == ["model.gone"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_paths(name, tmp_path):
    plain = workloads.run(name, 3, 0.0, False, tmp_path / "a", TINY)
    assert plain.correct, plain.ops.failures
    assert set(plain.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for value, _ in plain.metrics.values():
        assert math.isfinite(value) and value > 0

    traced = [workloads.run(name, 3, 0.0, True, tmp_path / d, TINY)
              for d in ("b", "c")]
    for r in traced:
        assert r.correct, r.ops.failures
        assert set(r.metrics) == {m["name"] for m in SPEC["per_layer"]}
        assert r.details["absent_layers"] == []
    for count in ("tensor.graph_nodes_per_step", "checkpoint.bytes",
                  "data.real_token_frac"):
        assert traced[0].metrics[count] == traced[1].metrics[count]
    assert traced[0].metrics["checkpoint.bytes"][0] > 0
    if name.startswith("train"):
        assert traced[0].metrics["tensor.graph_nodes_per_step"][0] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_desk",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
