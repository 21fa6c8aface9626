"""Tests of the benchmark itself: metric names and units, output checks.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
Each workload runs with ``--seconds 0``, so each timed loop stops at the
workload's ``min_ops``; the whole file takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def _bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    code, result = _bench(workload, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # set-up cold starts + timed ops + the warm repeat of op 0 + two reference runs
    w = run.WORKLOADS[workload]
    assert result["attempted"] == w.setups + w.min_ops + 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    code, result = _bench("noise-sweep", trace=1)
    assert code == 0 and result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    # One truth table per op: eight channel calls, each a parsed new model.
    assert metrics["gates.truth_table.calls"] == 1
    assert metrics["noise.channel.calls"] == 8
    assert metrics["noise.parse_config_file.s"] > 0
    assert metrics["noise.kraus_cache.misses"] > 0
    assert 0 < metrics["noise.kraus_cache.hit_ratio"] < 1
    assert metrics["certify.correlation.calls"] == 0
    assert 0 < metrics["noise.channel.s"] < metrics["tracing.op_s"]


def test_wrong_headline_value_fails_the_run(monkeypatch, capsys):
    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.delenv(run.PACKAGE_THREAD_VAR, raising=False)
    monkeypatch.setitem(run.REFERENCE, "truth_table_fidelity", (0.9, 5e-5))
    code = run.main(["--workload", "noise-sweep", "--seed", "7", "--seconds", "0", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    failures = [line for line in lines if line.startswith("FAILED")]
    assert code == 1
    # The exact-mode reference run, and the op given the device values.
    assert result["correct"] is False and result["failed"] == 2
    assert any("truth_table_fidelity" in line for line in failures)
    assert any("for the device values" in line for line in failures)


def test_check_reference_accepts_the_seed_values():
    assert run.check_reference(
        {"fidelity": 0.8291283143984639},
        {"fidelity_raw": 0.72727020175006, "fidelity_ml": 0.7272702017500599},
    ) == []


def test_sweep_check_flags_a_fidelity_that_disagrees_with_its_populations():
    pops = [[0.0] * 8 for _ in range(8)]
    for j, i in enumerate(run.IDEAL_OUTPUT):
        pops[i][j] = 0.9
        pops[(i + 4) % 8][j] = 0.1
    table = {"noise": "custom", "populations": pops, "fidelity": 0.9}
    assert run._check_sweep(table, None) == []
    assert run._check_sweep(table | {"fidelity": 0.8}, None) == [
        "fidelity does not match the populations"
    ]


def _sweep_result(tmp_path, name, config, fidelity):
    op_dir = tmp_path / name
    op_dir.mkdir()
    (op_dir / "noise.cfg").write_text(config)
    (op_dir / "truth_table.json").write_text(json.dumps({"fidelity": fidelity}))
    argv = ["truth-table", "--config", str(op_dir / "noise.cfg"), "--output", str(op_dir)]
    return run.OpResult(argv, 0, "", 0.0, 1.0, [])


def test_model_check_flags_a_model_that_does_not_reach_the_result(tmp_path):
    other = run.DEVICE_CONFIG.replace("t1_a_us = 0.550000", "t1_a_us = 0.600000")
    good = [
        _sweep_result(tmp_path, "device", run.DEVICE_CONFIG, 0.82913),
        _sweep_result(tmp_path, "other", other, 0.8301),
        _sweep_result(tmp_path, "other-again", other, 0.8301),
    ]
    run.check_models(good)
    assert [r.problems for r in good] == [[], [], []]
    # A channel reused across models: the device op repeats the other op's value.
    reused = [
        _sweep_result(tmp_path, "first", other, 0.8301),
        _sweep_result(tmp_path, "second", run.DEVICE_CONFIG, 0.8301),
    ]
    run.check_models(reused)
    assert reused[0].problems == []
    assert len(reused[1].problems) == 2


def test_certify_check_flags_an_estimate_far_from_the_exact_fidelity():
    payload = {
        "mode": "monte-carlo", "samples": run.CERTIFY_SAMPLES, "shots": run.SHOTS,
        "strings": [{"draws": run.CERTIFY_SAMPLES, "mean_value": 0.5}],
        "estimate": 0.74, "stderr": 0.001,
    }
    assert run._check_certify(payload, 0.72727) == [
        "estimate 0.740000 is more than 6 stderr from the exact fidelity 0.727270"
    ]
    assert run._check_certify(payload | {"estimate": 0.728}, 0.72727) == []
