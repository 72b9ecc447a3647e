"""Reference kernels: gauge the machine's speed between timed operations.

Usage: ``python3 perfbench/reference.py KERNEL`` reads one line per request
on stdin and answers each with the median time, in seconds, of a number of
runs of the named kernel. It ends at end of input. The kernels are

- ``blas``: a product of two 192x192 complex matrices on one BLAS thread,
  32 runs, like the dense numerics of ``verify-dense``;
- ``python``: ``repr`` of 3000 floats joined into one string, 8 runs, like
  the per-call work of ``verify-grid``;
- ``mixed``: the ``python`` kernel then the ``blas`` product, 8 runs, like
  ``dump-evolve``, whose JSON rendering runs beside dense products.

The kernel runs in its own process and never imports `fdphase`, so no
change to the program can change what the kernel computes or the state of
the process it runs in. The benchmark asks for a reading between
operations and divides each operation's time by the readings around it
(see ``run.calibrated``); the other tenants of a shared machine slow the
kernel and the program alike.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

# About the median time of one run of each kernel on the reference machine
# (see README.md). It only scales the calibrated figures; comparisons
# between two trees do not depend on it.
NOMINAL_S = {"blas": 1.43e-3, "python": 3.2e-3, "mixed": 4.6e-3}


def _blas():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    return (lambda: a @ a), 32


def _python():
    values = [i * 1.2345678901234e-3 for i in range(3000)]
    return (lambda: ",".join([repr(v) for v in values])), 8


def _mixed():
    (blas, _), (python, runs) = _blas(), _python()
    return (lambda: (python(), blas())), runs


KERNELS = {"blas": _blas, "python": _python, "mixed": _mixed}


def reading(kernel, runs: int) -> float:
    """Median time of ``runs`` runs of ``kernel``."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv: list) -> int:
    kernel, runs = KERNELS[argv[0]]()
    reading(kernel, runs)  # warm-up
    for _ in sys.stdin:
        print(repr(reading(kernel, runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
