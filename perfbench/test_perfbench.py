"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import hostclock
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_main(capsys, *argv):
    assert run.main(["--seconds", "0", *argv]) == 0
    out = capsys.readouterr().out
    return out, json.loads(out.splitlines()[-1])


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric_with_a_unit(capsys, workload):
    out, result = run_main(capsys, "--workload", workload, "--seed", "3")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS[workload](3).cycle
    for name, unit, _ in run.END_TO_END + [("failed_frac", "frac", "lower")]:
        assert any(line.split()[:1] == [name] and unit in line.split() for line in out.splitlines())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_prints_every_per_layer_metric(capsys):
    out, result = run_main(capsys, "--workload", "genericity", "--trace", "1")
    assert result["correct"] and result["attempted"] == 2 * len(workloads.GENERICITY_INSTANCES)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in run.PER_LAYER}
    for name, _, _ in run.PER_LAYER:
        assert any(line.split()[:1] == [name] for line in out.splitlines())
    # three LPs per trial on most instances, five on abs
    assert result["metrics"]["simplex.kernel.per_op"]["value"] >= 3
    assert "absent" not in out


def test_wrong_or_raising_ops_count_as_failed(capsys, monkeypatch):
    prepare = workloads.Genericity.prepare

    def faulty(self, k):
        label, key, fn, args = prepare(self, k)
        if k == 2:
            return label, key, lambda *a: dataclasses.replace(fn(*a), outcome="degenerate"), args
        if k == 4:
            def internal_error(*a):
                raise self.lib.errors.InternalError("forced by the test")
            return label, key, internal_error, args
        return label, key, fn, args

    monkeypatch.setattr(workloads.Genericity, "prepare", faulty)
    out, result = run_main(capsys, "--workload", "genericity")
    assert result["attempted"] == 9 and result["failed"] == 2 and not result["correct"]
    assert "failed_frac" in out and "InternalError" in out


def test_reference_csv_mismatch_makes_the_run_incorrect(capsys, monkeypatch, tmp_path):
    ref = json.loads(workloads.REFERENCE.read_text())
    ref["csv_sha256"]["box3"] = "0" * 64
    (tmp_path / "ref.json").write_text(json.dumps(ref))
    monkeypatch.setattr(workloads, "REFERENCE", tmp_path / "ref.json")
    out, result = run_main(capsys, "--workload", "genericity")
    assert result["failed"] == 0 and not result["correct"]
    assert "box3: CSV differs from the reference" in out


def test_same_seed_feeds_the_same_inputs(capsys):
    digests = []
    for seed in ("5", "5", "6"):
        out, _ = run_main(capsys, "--workload", "prox", "--seed", seed)
        digests.append(next(line for line in out.splitlines() if line.startswith("inputs_sha256")))
    assert digests[0] == digests[1] != digests[2]


def test_traced_run_reports_a_missing_function_as_absent(capsys, monkeypatch):
    targets = [
        (span, home, "_deleted_by_a_later_change" if attr == "_optimal_face_is_point" else attr, obs)
        for span, home, attr, obs in tracing.TARGETS
    ]
    monkeypatch.setattr(tracing, "TARGETS", targets)
    out, result = run_main(capsys, "--workload", "genericity", "--trace", "1")
    assert result["correct"]
    assert result["metrics"]["experiments.uniqueness.calls"]["value"] == 0
    assert result["metrics"]["functions.certify.calls"]["value"] > 0
    assert "absent: nondegen.experiments._deleted_by_a_later_change" in out


def test_host_clock_scales_segments_by_the_calibrated_speed(monkeypatch):
    ref = hostclock.REFERENCE_S
    # a host at half speed, with one calibration slowed fivefold by an interrupt
    samples = iter([2 * ref, 2 * ref, 10 * ref, 2 * ref, 2 * ref])
    monkeypatch.setattr(hostclock, "calibrate", lambda repeats=1: next(samples))
    clock = hostclock.HostClock()
    for _ in range(4):
        clock.close()
    assert clock.factors() == [0.5] * 4
    assert clock.speed == 0.5


@pytest.mark.parametrize(
    "bad", [["--bits", "65"], ["--bits", "7"], ["--radius", "0"], ["--radius", "-1/2"], ["--radius", "x"]]
)
def test_bad_sampler_settings_are_usage_errors(bad):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(["--workload", "genericity", *bad])
    assert exc.value.code == 2


def test_run_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "genericity", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _fake_run(directory: Path, name: str, backend: str, value: float) -> None:
    stamp = {"workload": "prox", "trace": 0, "seed": 1, "backend": backend, "python": "3.11", "nproc": 2}
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(f"stamp {json.dumps(stamp)}\n{json.dumps(result)}\n")


def test_compare_refuses_runs_on_different_backends(tmp_path):
    _fake_run(tmp_path / "a", "r.txt", "fractions.Fraction", 1.0)
    _fake_run(tmp_path / "b", "r.txt", "gmpy2.mpq", 1.0)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    _fake_run(tmp_path / "c", "r.txt", "fractions.Fraction", 1.0)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 0
