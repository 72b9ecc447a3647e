"""Child process of one benchmark run.

Usage: ``python3 perfbench/worker.py ROOT probe`` imports `fdphase` from
``ROOT/src``, prints ``ready`` and exits (the set-up probe);
``python3 perfbench/worker.py ROOT run JOB.json`` imports it the same way and
then runs the job's pass of CLI invocations in a closed loop through
``fdphase.cli.main(argv)``.

For each operation the worker records the exit status, its wall and CPU
time and a digest of the bytes it rendered; the output of each operation in
the first pass is written to the job's directory so the parent can check
it. ``result.json`` also carries the process's peak RSS, BLAS threads
included. In a traced run the first pass runs untraced (the base of the
tracing overhead) and the following passes run under :class:`Tracer`.

When the job names the pipe of a reference process (``reference.py``),
the worker takes a reading from it before the first operation, at the end
of every pass, and after any operation that ends at least REF_EVERY_S of
operation time after the previous reading, so every operation lies
between two readings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

REF_EVERY_S = 0.3


def bootstrap(root: Path):
    """Import `fdphase` from the measured tree's own ``src/`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fdphase
    import fdphase.cli

    location = Path(fdphase.__file__).resolve()
    if src not in location.parents:
        raise SystemExit(f"fdphase was imported from {location}, not from {src}")
    return fdphase


def _blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _call(main, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a stopped run
            print(f"{type(exc).__name__}: {exc}", file=err)
            status = -1
        t1, c1 = time.perf_counter(), time.process_time()
    return status, t1 - t0, c1 - c0, out.getvalue(), err.getvalue()


def _gauge(fds):
    """A function that takes one reading from the reference process, or None."""
    if fds is None:
        return None
    requests, answers = os.fdopen(fds[0], "w"), os.fdopen(fds[1], "r")

    def read() -> float:
        requests.write("\n")
        requests.flush()
        return float(answers.readline())

    return read


def run_job(job: dict, fdphase) -> dict:
    workdir = Path(job["workdir"])
    ops = job["ops"]
    tracer = None
    # [pass, index, status, wall_s, cpu_s, digest, traced, bytes, reading];
    # reading is the index in ``refs`` of the last reading before the op.
    records = []
    gauge = _gauge(job.get("ref_fds"))
    refs = [gauge()] if gauge else []
    since_ref = 0.0
    busy = {False: 0.0, True: 0.0}
    for pass_no in itertools.count():
        traced = tracer is not None
        for index, op in enumerate(ops):
            if traced:
                tracer.current_op = len(records)
            # Looked up per call: the tracer rebinds fdphase.cli.main.
            status, wall, cpu, text, err = _call(fdphase.cli.main, op["argv"])
            data = text.encode("utf-8")
            if pass_no == 0:
                (workdir / f"out-{index}.txt").write_bytes(data)
            if status != 0:
                sys.stderr.write(f"op {index} exited {status}: {err[-2000:]}")
            digest = hashlib.blake2b(data, digest_size=16).hexdigest()
            records.append([pass_no, index, status, wall, cpu, digest, traced, len(data),
                            len(refs) - 1])
            busy[traced] += wall
            since_ref += wall
            if gauge and (since_ref >= REF_EVERY_S or index == len(ops) - 1):
                refs.append(gauge())
                since_ref = 0.0
            # Drop this op's output before the next op runs: a one-shot CLI
            # run never holds it, and holding it made peak RSS drift.
            del text, err, data
        if job["trace"] and tracer is None:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            continue
        if busy[traced] >= job["seconds"]:
            break
    if tracer is not None:
        tracer.uninstall()
        tracer.save(workdir / "spans.npz")
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"records": records, "refs": refs, "peak_rss_kb": peak_rss_kb,
            "env": environment()}


def main(argv: list) -> int:
    root = Path(argv[0])
    fdphase = bootstrap(root)
    if argv[1] == "probe":
        print("ready", flush=True)
        return 0
    job = json.loads(Path(argv[2]).read_text(encoding="utf-8"))
    result = run_job(job, fdphase)
    (Path(job["workdir"]) / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
