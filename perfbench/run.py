"""fdphase benchmark: one workload per run, closed loop through `fdphase.cli.main`.

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 35 --trace 0

Run from the root of a source tree: `fdphase` is imported from its ``src/``.
The run

1. generates the workload's pass from ``--seed`` (inputs are written to a
   scratch directory under ``perfbench/.work/``);
2. times set-up: several fresh child processes each import `fdphase`, and
   the median spawn-to-imported time is ``setup_s``;
3. runs the pass in a fresh child process with one caller, in whole passes,
   until the operations have been busy for ``--seconds``, with readings of
   a reference process between operations (``reference.py``);
4. checks every output (see ``checks.py``) and that repeated operations
   rendered identical bytes;
5. prints each metric with its unit, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, their timings
calibrated by the reference readings (see ``calibrated``); with ``--trace 1``
the child runs one untraced pass and then traced passes, and the metrics are
per-layer numbers per operation derived from spans (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference
import workloads
from tracer import LAYERS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 9
TAIL_PERCENTILE = 80.0
TAIL_MIN_BEYOND = 10
SUITES = ("suite_pb_core", "suite_gdo", "suite_evolution", "suite_cross_module")


def child_env(threads: int = 0) -> dict:
    """Environment of a child: BLAS threads pinned, by default to the usable core count."""
    threads = str(threads or len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def _child(args: list, stdout=None, pass_fds=()) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), *args],
        stdout=stdout, env=child_env(), text=True, pass_fds=pass_fds,
    )


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _stop_reference(proc: subprocess.Popen) -> None:
    """Close the reference process's input, so that it ends, and wait for it."""
    proc.stdin.close()
    try:
        proc.wait(timeout=10)
    finally:
        _stop(proc)
        proc.stdout.close()


def measure_setup(probes: int = SETUP_PROBES) -> list:
    """Spawn-to-`import fdphase`-done time of fresh child processes."""
    times = []
    for _ in range(probes):
        started = time.perf_counter()
        proc = _child(["probe"], stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
        finally:
            _stop(proc)
            proc.stdout.close()
        if line.strip() != "ready":
            raise RuntimeError(f"child did not import fdphase (exit {proc.returncode})")
    return times


def run_child(job: dict, timeout: float, kernel: str = "") -> dict:
    """Run one job in a fresh child and return its result.

    With a reference ``kernel`` a reference process runs beside it, and the
    child takes readings from it through two pipes.
    """
    workdir = Path(job["workdir"])
    job_file = workdir / "job.json"
    ref = None
    if kernel:
        ref = subprocess.Popen([sys.executable, str(HERE / "reference.py"), kernel],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               env=child_env(threads=1), text=True)
        job = {**job, "ref_fds": [ref.stdin.fileno(), ref.stdout.fileno()]}
    job_file.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = _child(["run", str(job_file)], pass_fds=tuple(job.get("ref_fds", ())))
        try:
            status = proc.wait(timeout=timeout)
        finally:
            _stop(proc)
    finally:
        if ref is not None:
            _stop_reference(ref)
    if status != 0:
        raise RuntimeError(f"benchmark child exited with status {status}")
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def count_failures(ops: list, result: dict, workdir: Path) -> tuple:
    """Failed operation count and a sample of the problems found.

    An operation fails when it exits non-zero, when its pass position's
    output fails its check, or when it renders other bytes than the first
    time the same operation ran.
    """
    expected = checks.load_expected()
    state = workloads.read_state(workdir) if any(o["kind"] == "evolve" for o in ops) else None
    problems = {}
    first_digest = {}
    for index, op in enumerate(ops):
        path = workdir / f"out-{index}.txt"
        if path.exists():
            found = checks.check_output(op, path.read_text(encoding="utf-8"), expected, state)
            if found:
                problems[index] = found
    failed, sample = 0, []
    for _pass, index, status, _wall, _cpu, digest, _traced, _size, _ref in result["records"]:
        reasons = list(problems.get(index, []))
        if status != 0:
            reasons.append(f"exit status {status}")
        if first_digest.setdefault(index, digest) != digest:
            reasons.append("repeated operation rendered different bytes")
        if reasons:
            failed += 1
            if len(sample) < 5:
                sample.append(f"op {index} ({' '.join(ops[index]['argv'][:2])}): {reasons[0]}")
    return failed, sample


def tail(samples: list, fallback: float) -> tuple:
    """(seconds, percentile, samples beyond) of the tail of ``samples``.

    The tail is the TAIL_PERCENTILE-th percentile (nearest rank) when at
    least TAIL_MIN_BEYOND samples lie beyond it, and ``fallback``, the
    median, otherwise.
    The level is fixed rather than the highest the sample count allows: in a
    pass of mixed op sizes a higher level moves into the slowest op's samples
    once a run holds enough passes, so the tail would jump whenever the
    program got fast enough to fit more passes into a run.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(n * TAIL_PERCENTILE / 100.0)
    if n - rank >= TAIL_MIN_BEYOND:
        return ordered[rank - 1], TAIL_PERCENTILE, n - rank
    return fallback, 50.0, n // 2


def calibrated(result: dict, nominal_s: float) -> tuple:
    """Per-operation wall and CPU times, raw and calibrated, in pass order.

    Each operation lies between two readings of the reference kernel. Its
    calibrated time is its time times the kernel's ``nominal_s`` over the
    mean of those two readings: the time it would have taken had the machine
    run the kernel at its nominal speed. Returns ({index: [wall]},
    {index: [cpu]}, {index: [calibrated wall]}, {index: [calibrated cpu]}).
    """
    refs = result["refs"]
    wall, cpu, cal_wall, cal_cpu = {}, {}, {}, {}
    for _, index, _, w, c, *_, ref in result["records"]:
        scale = nominal_s / ((refs[ref] + refs[ref + 1]) / 2.0)
        wall.setdefault(index, []).append(w)
        cpu.setdefault(index, []).append(c)
        cal_wall.setdefault(index, []).append(w * scale)
        cal_cpu.setdefault(index, []).append(c * scale)
    return wall, cpu, cal_wall, cal_cpu


def _pass_median(times: dict) -> float:
    """Sum over the operations of the pass of each one's median time."""
    return sum(statistics.median(t) for t in times.values())


def _op_median(times: dict) -> float:
    """Median over the operations of the pass of each one's median time."""
    return statistics.median(statistics.median(t) for t in times.values())


def _op_gmean(times: dict) -> float:
    """Geometric mean over the operations of the pass of each one's median time."""
    return statistics.geometric_mean(statistics.median(t) for t in times.values())


def end_to_end(result: dict, setup: list, nominal_s: float) -> tuple:
    """End-to-end metrics over every timed operation of the run.

    Timings are calibrated (see ``calibrated``). Throughput and CPU time per
    op are taken over a median pass: each operation's median over the
    passes, summed, so every operation of the pass weighs the same. The
    typical op time is the geometric mean of those per-operation medians.
    The ``info`` line adds the median op time, the uncalibrated figures, the
    readings, and each operation's first-pass (cold) and best time, in pass
    order.
    """
    wall, cpu, cal_wall, cal_cpu = calibrated(result, nominal_s)
    samples = [w for times in cal_wall.values() for w in times]
    tail_s, pct, beyond = tail(samples, _op_median(cal_wall))
    ops = len(cal_wall)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cal_ops_per_s": (ops / _pass_median(cal_wall), "1/s"),
        "cal_op_gmean_s": (_op_gmean(cal_wall), "s"),
        "cal_op_tail_s": (tail_s, "s"),
        "cal_cpu_s_per_op": (_pass_median(cal_cpu) / ops, "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    raw = [w for times in wall.values() for w in times]
    refs = result["refs"]
    info = {"samples": len(samples), "pass_ops": ops,
            "op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
            "cal_op_p50_s": statistics.median(samples),
            "ops_per_s": ops / _pass_median(wall), "op_gmean_s": _op_gmean(wall),
            "op_p50_s": statistics.median(raw), "op_tail_s": tail(raw, _op_median(wall))[0],
            "cpu_s_per_op": _pass_median(cpu) / ops,
            "ref_readings": len(refs), "ref_median_s": statistics.median(refs),
            "ref_min_s": min(refs), "ref_max_s": max(refs),
            "cold_op_s": [times[0] for times in wall.values()],
            "best_op_s": [min(times) for times in wall.values()],
            "setup_samples_s": setup}
    return metrics, info


def per_layer(result: dict, spans_file: Path) -> tuple:
    """Per-operation layer metrics of the traced passes."""
    with np.load(spans_file) as spans:
        names = [str(n) for n in spans["names"]]
        stats = summarize(names, {k: spans[k] for k in spans.files if k != "names"})
    traced = [r for r in result["records"] if r[6]]
    untraced = [r for r in result["records"] if not r[6]]
    ops = len(traced)

    def calls(name):
        return stats[name]["calls"] / ops

    def seconds(name, kind="self_s"):
        return stats[name][kind] / ops

    def layer_self(layer):
        return sum(v["self_s"] for k, v in stats.items() if k.startswith(layer + ".")) / ops

    metrics = {
        "numerics.self_s": (layer_self("numerics"), "s"),
        "numerics.tag_deviation.calls": (calls("numerics.tag_deviation"), "count"),
        "numerics.tag_deviation.self_s": (seconds("numerics.tag_deviation"), "s"),
        "numerics.tag_deviation.incl_s": (seconds("numerics.tag_deviation", "incl_s"), "s"),
        "numerics.certify.calls": (calls("numerics.certify"), "count"),
        "numerics.recert_ratio": (
            stats["numerics.tag_deviation"]["calls"] / stats["numerics.certify"]["calls"],
            "ratio"),
        "numerics.spectral_synthesize.calls": (calls("numerics.spectral_synthesize"), "count"),
        "numerics.spectral_synthesize.self_s": (seconds("numerics.spectral_synthesize"), "s"),
        "numerics.mat_power.self_s": (seconds("numerics.mat_power"), "s"),
        "numerics.max_abs.calls": (calls("numerics.max_abs"), "count"),
        "pegg_barnett.self_s": (layer_self("pegg_barnett"), "s"),
        "pegg_barnett.build_phase_frame.calls": (calls("pegg_barnett.build_phase_frame"), "count"),
        "pegg_barnett.commutator_double_sum.self_s": (
            seconds("pegg_barnett.commutator_double_sum"), "s"),
        "deformed.self_s": (layer_self("deformed"), "s"),
        "deformed.build_generalized_frame.calls": (
            calls("deformed.build_generalized_frame"), "count"),
        "deformed.build_generalized_frame.self_s": (
            seconds("deformed.build_generalized_frame"), "s"),
        "evolution.self_s": (layer_self("evolution"), "s"),
        **{f"suites.{s}.incl_s": (seconds(f"suites.{s}", "incl_s"), "s") for s in SUITES},
        "report.self_s": (layer_self("report"), "s"),
        "report.to_json.self_s": (seconds("report.to_json"), "s"),
        "report.format_float.calls": (calls("report.format_float"), "count"),
        "report.bytes_out": (sum(r[7] for r in traced) / ops, "bytes"),
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.build_parser.self_s": (seconds("cli.build_parser"), "s"),
        "cli.load_state.calls": (calls("cli.load_state"), "count"),
        "trace.overhead_ratio": (
            (sum(r[3] for r in traced) / ops) / (sum(r[3] for r in untraced) / len(untraced)),
            "ratio"),
    }
    info = {"traced_ops": ops, "untraced_ops": len(untraced),
            "layers": {layer: layer_self(layer) for layer in LAYERS}}
    return metrics, info


def provenance(result: dict) -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    loc = 0
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + data)
        loc += data.count(b"\n")
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or commit
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_loc": loc,
            "nproc": len(os.sched_getaffinity(0)), **result["env"]}


def run(workload: str, seed: int, seconds: float, trace: bool, short: bool = False) -> dict:
    """One benchmark run: the result object plus an ``info`` dict of provenance."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        ops = workloads.generate(workload, seed, workdir, short)
        setup = [] if trace else measure_setup()
        job = {"ops": ops, "seconds": seconds, "trace": trace, "workdir": str(workdir)}
        kernel = "" if trace else workloads.REFERENCE_KERNEL[workload]
        result = run_child(job, timeout=seconds * 4 + 120, kernel=kernel)
        failed, sample = count_failures(ops, result, workdir)
        if trace:
            # The spans of the latest traced run of each workload are kept.
            spans_file = WORK / f"spans-{workload}.npz"
            (workdir / "spans.npz").replace(spans_file)
            metrics, info = per_layer(result, spans_file)
        else:
            metrics, info = end_to_end(result, setup, reference.NOMINAL_S[kernel])
            info["ref_kernel"] = kernel
        attempted = len(result["records"])
        info.update(workload=workload, seed=seed, short=short, failures=sample,
                    fail_ratio=failed / attempted, **provenance(result))
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "info": info}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fdphase" / "__init__.py").is_file():
        print(f"error: no fdphase source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = out.pop("info")
    print("info " + json.dumps(info, sort_keys=True))
    print(f"{args.workload} fail_ratio = {info['fail_ratio']:.6g} ratio "
          f"({out['failed']} of {out['attempted']} ops)")
    for name, m in out["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
