"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import golden
import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _run(tmp_path, name, trace, golden_path=None):
    return run.run_benchmark(
        name, SEED, 0.2, trace, sizes=workloads.TINY, golden_path=golden_path, out_dir=tmp_path
    )


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted(tmp_path, name):
    record, result = _run(tmp_path, name, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert record["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert record["tail_percentile"] == workloads.WORKLOADS[name].tail_percentile
    assert record["ops"] >= 1
    assert record["tail_samples_beyond"] >= 0
    assert set(record["env"]) >= {
        "git_revision", "git_dirty", "python", "nproc", "cpu_model", "calibration_s", "seed"
    }
    assert record["env"]["calibration_s"] > 0


def _traced_in_subprocess(tmp_path, name, hash_seed):
    """Exact counts of a traced tiny run in a fresh interpreter."""
    code = (
        "import json, pathlib, run, spans, workloads\n"
        f"_, r = run.run_benchmark({name!r}, {SEED}, 0.2, True, sizes=workloads.TINY,"
        f" golden_path=None, out_dir=pathlib.Path({str(tmp_path)!r}))\n"
        "print(json.dumps({c: r['metrics'][c]['value'] for c, _ in spans.COUNTS}))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=run.BENCH, env=env,
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_metrics_and_exact_counts(tmp_path, name):
    _, first = _run(tmp_path, name, trace=True)
    assert first["correct"]
    assert _units(first["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # Counts must not depend on the process: another interpreter with another
    # string-hash seed has to reproduce them exactly.
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    second = _traced_in_subprocess(tmp_path, name, hash_seed)
    for count, _ in spans.COUNTS:
        assert first["metrics"][count]["value"] == second[count], count
    m = first["metrics"]
    layers = sum(m[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
    assert layers == pytest.approx(m["trace.wall_s"]["value"], rel=1e-6)
    assert m["simplex.calls"]["value"] >= 1


def test_corrupted_answer_is_counted(tmp_path, monkeypatch):
    honest = workloads.SolveDense.op

    def corrupted(self, k):
        out = honest(self, k)
        return out._replace(wb=out.wb * (1 + 1e-6)) if k == 1 else out

    monkeypatch.setattr(workloads.SolveDense, "op", corrupted)
    record, result = _run(tmp_path, "solve-dense", trace=False)
    assert record["error_rate"]["value"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1
    assert not result["correct"] and result["failed"] >= 1


def test_golden_record_is_enforced(tmp_path):
    record = golden.make_golden(SEED, workloads.TINY, tmp_path / "golden-work")
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(record))
    checked, result = _run(tmp_path, "diagram-matrix", trace=False, golden_path=path)
    assert checked["golden_checked"] and result["failed"] == 0

    answers = record["workloads"]["diagram-matrix"]
    answers[3] = math.nextafter(float.fromhex(answers[3]), math.inf).hex()
    path.write_text(json.dumps(record))
    _, result = _run(tmp_path, "diagram-matrix", trace=False, golden_path=path)
    assert result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
