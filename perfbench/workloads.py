"""The benchmark's workloads: fixed lists of `fdphase` CLI invocations.

A workload is one *pass*, an ordered list of operations; a run repeats the
pass in a closed loop (one caller, each call waits for the previous one).
The workload seed fixes the order of the verify-grid pass, the ``--seed``
of every verify manifest and the state that ``evolve`` reads, so the same seed
always gives the same inputs. The program only ever sees the generated argv.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("verify-dense", "verify-grid", "dump-evolve")
# The reference kernel (``reference.py``) that calibrates each workload's
# timings: the one most like the work in the workload's trace. A dense
# product for the d=512 numerics, pure Python for verify-grid's per-call
# overhead, and both for dump-evolve's rendering beside dense products.
REFERENCE_KERNEL = {"verify-dense": "blas", "verify-grid": "python", "dump-evolve": "mixed"}

GRID_DIMS, GRID_DIMS_SHORT = tuple(range(1, 33)), tuple(range(1, 5))
GRID_THETA0 = (0.0, 0.3, math.pi / 2, 2.9)
GRID_ETA = (0.25, 0.5, 1.0, 1.5)

# (dim, theta0, eta): an even power-of-two dimension with integer-or-half-odd
# eta, and an odd dimension with generic eta.
DENSE_MANIFESTS = ((512, 2.9, 1.5), (511, 0.3, 0.25))
DENSE_MANIFESTS_SHORT = ((32, 2.9, 1.5), (31, 0.3, 0.25))

DUMP_OBJECTS = ("phase-states", "phi", "exp-iphi", "qN", "A", "commutators")
DUMP_DIM, DUMP_DIM_SHORT = 256, 24
DUMP_THETA0 = 2.9
EVOLVE_DIM, EVOLVE_DIM_SHORT = 512, 32
EVOLVE_SHIFT_ETA = 0.5
# One short record-list render next to the bulk matrix renders, so that every
# layer (the suites too) runs in this workload.
DUMP_VERIFY_MANIFEST = (32, 2.9, 0.5)

STATE_FILE = "state.json"


def manifest_key(dim: int, theta0: float, eta: float) -> str:
    """Key of a verify manifest in the expected-checks table."""
    return f"{dim}|{theta0!r}|{eta!r}"


def _verify(dim: int, theta0: float, eta: float, seed: int) -> dict:
    argv = ["verify", "--suite", "all", "--dim", str(dim), "--theta0", repr(theta0),
            "--eta", repr(eta), "--seed", str(seed)]
    return {"kind": "verify", "argv": argv, "dim": dim, "theta0": theta0, "eta": eta}


def _seeds(rng: np.random.Generator, count: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amp / np.linalg.norm(amp)


def generate(workload: str, seed: int, workdir: Path, short: bool = False) -> list:
    """Build the pass of ``workload`` for ``seed``, writing input files to ``workdir``.

    Each operation is a dict with the CLI ``argv`` plus the parameters its
    output check needs. ``short`` keeps every code path at a few-second cost.
    """
    rng = np.random.default_rng(seed)
    if workload == "verify-dense":
        manifests = DENSE_MANIFESTS_SHORT if short else DENSE_MANIFESTS
        seeds = _seeds(rng, len(manifests))
        # A fixed order: peak RSS is about 4 MB higher when d=511 runs first.
        return [_verify(*m, s) for m, s in zip(manifests, seeds)]
    if workload == "verify-grid":
        dims = GRID_DIMS_SHORT if short else GRID_DIMS
        grid = [(d, t, e) for d in dims for t in GRID_THETA0 for e in GRID_ETA]
        order = rng.permutation(len(grid))
        seeds = _seeds(rng, len(grid))
        return [_verify(*grid[i], seeds[k]) for k, i in enumerate(order)]
    if workload == "dump-evolve":
        dim = DUMP_DIM_SHORT if short else DUMP_DIM
        state_dim = EVOLVE_DIM_SHORT if short else EVOLVE_DIM
        amp = random_state(rng, state_dim)
        state_path = workdir / STATE_FILE
        state_path.write_text(
            json.dumps({"dim": state_dim,
                        "amp": [[float(z.real), float(z.imag)] for z in amp]}),
            encoding="utf-8",
        )
        space = ["--dim", str(dim), "--theta0", repr(DUMP_THETA0)]
        ops = [
            {"kind": "dump", "argv": ["dump", name, *space], "object": name,
             "dim": dim, "theta0": DUMP_THETA0, "eta": 0.5}
            for name in DUMP_OBJECTS
        ]
        evolve = ["evolve", str(state_path)]
        ops.append({"kind": "evolve", "mode": "shift", "dim": state_dim,
                    "argv": [*evolve, "--mode", "shift", "--eta", repr(EVOLVE_SHIFT_ETA),
                             "--steps", str(state_dim)]})
        ops.append({"kind": "evolve", "mode": "hamiltonian", "dim": state_dim,
                    "argv": [*evolve, "--mode", "hamiltonian", "--steps", "1"]})
        ops.append(_verify(*DUMP_VERIFY_MANIFEST, _seeds(rng, 1)[0]))
        return ops  # a fixed order: the order of large renders moves peak RSS
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def read_state(workdir: Path) -> np.ndarray:
    data = json.loads((workdir / STATE_FILE).read_text(encoding="utf-8"))
    return np.array([complex(re, im) for re, im in data["amp"]])
