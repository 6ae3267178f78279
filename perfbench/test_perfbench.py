"""Tests of the benchmark itself, on a tiny corpus and tiny model dims.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import layer_trace as lt  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def current_targets():
    """Every patchable attribute and the object it holds now."""
    return {(o.__name__, a): o.__dict__[a]
            for owner, attr in lt.TARGETS for o, a in lt.patch_sites(owner, attr)}


def tiny_run(workload, trace, seed=3):
    return bench.run_workload(workload, seed, 0.2, trace, scale=bench.TINY)


def test_benchmark_json_names_the_harness_workloads_and_units():
    assert sorted(WORKLOADS) == sorted(bench.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == bench.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == bench.PER_LAYER
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == bench.UNITS[m["name"]]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_has_every_metric_and_no_failure(workload, trace):
    report = tiny_run(workload, trace)
    line = bench.result_line(report)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert report["metrics"]["failed_frac"] == 0.0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    for name, value in report["metrics"].items():
        assert name in bench.UNITS and math.isfinite(value)


def test_end_to_end_metrics_are_never_zero():
    for workload in WORKLOADS:
        line = bench.result_line(tiny_run(workload, False))
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_restores_every_wrapped_function():
    before = current_targets()
    assert len(before) > len(lt.TARGETS)  # names imported into other modules too
    for workload in WORKLOADS:
        tiny_run(workload, True)
        assert current_targets() == before


def test_wrappers_are_restored_when_the_block_raises():
    before = current_targets()
    with pytest.raises(RuntimeError):
        with lt.installed(lt.Tracer()):
            assert current_targets() != before
            raise RuntimeError("boom")
    assert current_targets() == before


@pytest.mark.parametrize("workload", ["train_art", "serve_art"])
def test_count_metrics_repeat_exactly(workload):
    counts = ["nd.tape_nodes_per_case", "encoders.gru_steps_per_case",
              "encoders.docs_per_call", "model.article_slots_per_case",
              "model.article_slot_repeat_frac"]
    first, second = (tiny_run(workload, True)["metrics"] for _ in range(2))
    assert [first[c] for c in counts] == [second[c] for c in counts]
    assert first["model.article_slots_per_case"] == bench.TINY.dims["k"]


def test_self_times_cover_the_traced_jobs():
    metrics = tiny_run("train_art", True)["metrics"]
    assert 0.9 <= metrics["trace.coverage_frac"] <= 1.0


def test_speed_probe_takes_out_its_own_time_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        begin = probe.mark()
        while perf_counter() - begin[0] < 0.5:
            pass
        end = probe.mark()
    assert len(probe.samples) >= 3
    assert 0 < probe.net(begin, end) < end[0] - begin[0]
    assert probe.factor(begin, end) > 0
    assert signal.getsignal(signal.SIGALRM) is handler


def test_output_check_rejects_a_broken_distribution():
    prep = bench.set_up(bench.WORKLOADS["serve_art"], 3, bench.TINY)
    case = prep.served[0]
    trace = bench.cm.forward(case, prep.model, bank=prep.bank)
    assert bench.output_problems(trace, prep.config, prep.data.article_db) == []
    trace.o = trace.o * 1.01
    trace.topk = trace.topk[:-1] + trace.topk[:1]
    assert len(bench.output_problems(trace, prep.config, prep.data.article_db)) == 2
    trace.alpha = np.full_like(trace.alpha, math.nan)
    assert len(bench.output_problems(trace, prep.config, prep.data.article_db)) == 3


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_fact",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
