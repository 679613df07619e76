"""Checks of the benchmark itself, kept apart from the program's suite.

Run from the repository root (about a minute; it makes two traced runs):

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

# Counts the traced run takes from the work itself; the same seed must give
# the same values, or per-layer comparisons between two runs mean nothing.
EXACT = ("model.tape_ops_per_step", "rollout.blocks", "data.rows",
         "data.samples", "metrics.plot_rollouts")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def traced(seed):
    proc = run_bench("--workload", "forecast", "--seed", str(seed),
                     "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_exact_counts_repeat_for_a_seed():
    first, second = traced(5), traced(5)
    assert first["correct"] and second["correct"]
    names = [n for n in first["metrics"] if n in EXACT or n.endswith(".calls")]
    assert set(EXACT) <= set(names)
    for name in names:
        assert first["metrics"][name] == second["metrics"][name], name
        assert first["metrics"][name]["value"] > 0, name
    for name, m in first["metrics"].items():
        if m["unit"] in ("ms", "s"):
            assert m["value"] > 0, name


def test_missing_function_is_reported(monkeypatch):
    import tracing
    from prbforecast import metrics

    monkeypatch.delattr(metrics, "emit_plot_svg")
    with tracing.Tracer().installed() as tracer:
        assert tracer.missing == ["prbforecast.metrics.emit_plot_svg"]
        assert "emit_plot_svg" not in vars(metrics)


def test_timing_without_spans_is_nan_not_zero():
    import tracing

    layers = tracing.layer_metrics([], {})
    for name in ("synth.generate_s", "data.load_csv_s", "model.forward_block_ms_p50",
                 "training.adam_ms", "rollout.model_share", "model.tape_ops_per_step"):
        assert math.isnan(layers[name]["value"]), name


def test_metric_map_covers_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    moves = json.loads((BENCH / "metric_map.json").read_text())["moves"]
    assert list(moves) == [m["name"] for m in spec["per_layer"]]
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for name, targets in moves.items():
        for metric, workload, _ in targets:
            assert metric in e2e and workload in workloads, name


def test_refuses_to_run_without_the_program():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "train", "--seed", "1",
                         "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
