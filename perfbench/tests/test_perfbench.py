"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/tests -q

They use the short mode of each workload, so the whole file takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import worker
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_short(workload, tmp_path, seconds=0.5):
    ops = workloads.generate(workload, 5, tmp_path, short=True)
    job = {"ops": ops, "seconds": seconds, "trace": False, "workdir": str(tmp_path)}
    return ops, run.run_child(job, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_prints_every_end_to_end_metric(workload):
    out = run.run(workload, seed=1, seconds=0.5, trace=False, short=True)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert out["info"]["fail_ratio"] == 0.0
    for metric in SPEC["end_to_end"]:
        got = out["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    info = out["info"]
    assert info["src_loc"] > 0 and len(info["src_sha256"]) == 64
    assert info["nproc"] >= 1 and info["blas_threads"] == str(info["nproc"])
    assert info["numpy"] and info["python"]


def test_traced_run_prints_every_per_layer_metric():
    out = run.run("dump-evolve", seed=1, seconds=0.5, trace=True, short=True)
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        got = out["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0, metric["name"]


def test_gated_workloads_are_benchmark_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert set(workloads.REFERENCE_KERNEL) == set(workloads.WORKLOADS)
    assert set(workloads.REFERENCE_KERNEL.values()) <= set(reference.KERNELS)


def test_tail_is_p80_with_ten_samples_beyond_it_or_the_median():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples, 0.5) == (80.0, 80.0, 20)
    assert run.tail(samples[:50], 0.5) == (40.0, 80.0, 10)
    assert run.tail(samples[:49], 0.5) == (0.5, 50.0, 24)


def test_times_are_calibrated_by_the_readings_around_each_op():
    nominal = 1e-3
    # Two passes of two ops; a reading after every op; the machine runs the
    # kernel at half its nominal speed during the second pass.
    result = {
        "refs": [nominal, nominal, nominal, 2 * nominal, 2 * nominal],
        "records": [[0, 0, 0, 1.0, 2.0, "", False, 0, 0],
                    [0, 1, 0, 3.0, 6.0, "", False, 0, 1],
                    [1, 0, 0, 2.0, 4.0, "", False, 0, 2],
                    [1, 1, 0, 6.0, 12.0, "", False, 0, 3]],
        "peak_rss_kb": 1024,
    }
    wall, cpu, cal_wall, cal_cpu = run.calibrated(result, nominal)
    assert wall == {0: [1.0, 2.0], 1: [3.0, 6.0]}
    assert cal_wall == {0: [1.0, 2.0 / 1.5], 1: [3.0, 3.0]}
    assert cal_cpu == {0: [2.0, 4.0 / 1.5], 1: [6.0, 6.0]}
    metrics, info = run.end_to_end(result, [0.25], nominal)
    assert metrics["cal_ops_per_s"][0] == pytest.approx(2 / (7 / 6 + 3.0))
    assert metrics["cal_op_gmean_s"][0] == pytest.approx((7 / 6 * 3.0) ** 0.5)
    assert metrics["cal_op_tail_s"][0] == pytest.approx((7 / 6 + 3.0) / 2)
    assert info["ops_per_s"] == pytest.approx(2 / (1.5 + 4.5))


def test_every_op_lies_between_two_readings(tmp_path):
    ops = workloads.generate("dump-evolve", 5, tmp_path, short=True)
    job = {"ops": ops, "seconds": 0.5, "trace": False, "workdir": str(tmp_path)}
    result = run.run_child(job, timeout=300, kernel="python")
    refs = result["refs"]
    assert refs and min(refs) > 0
    assert all(0 <= r[8] < len(refs) - 1 for r in result["records"])


@pytest.mark.parametrize("kernel", sorted(reference.KERNELS))
def test_reference_process_answers_and_ends_at_end_of_input(kernel):
    proc = subprocess.Popen([sys.executable, str(BENCH / "reference.py"), kernel],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        proc.stdin.write("\n")
        proc.stdin.flush()
        assert float(proc.stdout.readline()) > 0
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def test_corrupted_report_counts_as_failure(tmp_path):
    ops, result = _run_short("verify-grid", tmp_path)
    assert run.count_failures(ops, result, tmp_path)[0] == 0
    repeats = sum(1 for r in result["records"] if r[1] == 0)
    (tmp_path / "out-0.txt").write_text('{"tool_version": "0.1.0", "records": [', "utf-8")
    failed, sample = run.count_failures(ops, result, tmp_path)
    assert failed == repeats and "does not parse" in sample[0]


def test_record_forced_to_fail_counts_as_failure(tmp_path):
    ops, result = _run_short("verify-dense", tmp_path)
    path = tmp_path / "out-1.txt"
    report = json.loads(path.read_text("utf-8"))
    report["records"][3]["status"] = "fail"
    path.write_text(json.dumps(report), "utf-8")
    failed, sample = run.count_failures(ops, result, tmp_path)
    assert failed == sum(1 for r in result["records"] if r[1] == 1)
    assert "status fail" in sample[0]


def test_flagged_kernel_reported_as_pass_counts_as_failure(tmp_path):
    ops, result = _run_short("verify-dense", tmp_path)
    path = tmp_path / "out-0.txt"
    report = json.loads(path.read_text("utf-8"))
    for record in report["records"]:
        if record["check_id"] == "commutator_double_sum_vs_closed_form":
            record["status"] = "pass"
    path.write_text(json.dumps(report), "utf-8")
    assert run.count_failures(ops, result, tmp_path)[0] > 0


def test_nonzero_exit_and_changed_bytes_count_as_failures(tmp_path):
    ops, result = _run_short("verify-grid", tmp_path, seconds=2.0)
    records = result["records"]
    assert records[-1][0] >= 1  # the pass repeated, so bytes were compared
    repeat = next(r for r in records if r[0] == 1)
    repeat[5] = "0" * 32
    records[0][2] = 1
    assert run.count_failures(ops, result, tmp_path)[0] == 2


def test_wrong_dump_and_evolve_outputs_count_as_failures(tmp_path):
    ops, result = _run_short("dump-evolve", tmp_path)
    assert run.count_failures(ops, result, tmp_path)[0] == 0
    broken = set()
    for index, op in enumerate(ops):
        path = tmp_path / f"out-{index}.txt"
        data = json.loads(path.read_text("utf-8"))
        if op["kind"] == "dump" and op["object"] == "exp-iphi":
            data["matrix"][-1][0] = [1.0, 0.0]  # corner without exp(i d theta0)
        elif op["kind"] == "dump" and op["object"] == "phase-states":
            data["states"] = data["states"][::-1]
        elif op["kind"] == "dump" and op["object"] == "commutators":
            data["double_sum"] = data["closed_form"]  # the flagged gap "fixed"
        elif op["kind"] == "evolve" and op["mode"] == "shift":
            data["global_phase"] = 0.0
        else:
            continue
        path.write_text(json.dumps(data), "utf-8")
        broken.add(index)
    assert len(broken) == 4
    expected = sum(1 for r in result["records"] if r[1] in broken)
    assert run.count_failures(ops, result, tmp_path)[0] == expected


def test_two_traced_runs_give_identical_call_counts():
    counts = []
    for seed in (2, 3):
        out = run.run("verify-grid", seed=seed, seconds=0.5, trace=True, short=True)
        counts.append({k: m["value"] for k, m in out["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]


def test_seed_counts_at_dim_512(tmp_path):
    fdphase = worker.bootstrap(REPO)
    ops = workloads.generate("verify-dense", 0, tmp_path)
    argv = next(o["argv"] for o in ops if o["dim"] == 512)
    tracer = Tracer()
    tracer.install()
    try:
        assert fdphase.cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    ids = tracer.name_id.tolist()
    assert ids.count(tracer.names.index("numerics.tag_deviation")) == 65
    assert ids.count(tracer.names.index("numerics.spectral_synthesize")) == 9
    assert ids.count(tracer.names.index("numerics.certify")) == 27


def test_generation_is_seeded(tmp_path):
    first = workloads.generate("dump-evolve", 7, tmp_path)
    state = workloads.read_state(tmp_path)
    assert workloads.generate("dump-evolve", 7, tmp_path) == first
    assert workloads.read_state(tmp_path).tolist() == state.tolist()
    workloads.generate("dump-evolve", 8, tmp_path)
    assert workloads.read_state(tmp_path).tolist() != state.tolist()
    grid = workloads.generate("verify-grid", 7, tmp_path)
    assert grid == workloads.generate("verify-grid", 7, tmp_path)
    assert grid != workloads.generate("verify-grid", 8, tmp_path)
    assert len({(o["dim"], o["theta0"], o["eta"]) for o in grid}) == 512


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
