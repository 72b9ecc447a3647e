"""Correctness checks on what each benchmark operation rendered.

Verify reports are checked against the expected-checks table made from the
seed code: every expected check id must be present with its expected status
(``pass``, or ``flagged`` for the double-sum commutator kernel). Dumps and
evolved states are checked against operators this module builds itself
with numpy, within a tolerance, never byte for byte, so a faster route that
rounds differently still passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import manifest_key

EXPECTED_FILE = Path(__file__).resolve().parent / "expected_checks.json"

# Dumps are round-trip exact decimal text, so the only error is the
# program's own rounding: about 1e-13 at d=256 against these bounds.
TOL_PER_DIM = 1e-10
# Smallest max |double_sum - closed_form| taken as "the gap is still there";
# the gap is pi at d=2 and O(1) at every dimension the workloads use.
DOUBLE_SUM_GAP = 1e-3


def load_expected(path: Path = EXPECTED_FILE) -> dict:
    """Map each manifest key to its list of (check_id, status) pairs."""
    data = json.loads(path.read_text(encoding="utf-8"))
    lists = data["check_lists"]
    return {key: [tuple(c) for c in lists[i]] for key, i in data["manifests"].items()}


def _complex_matrix(rows) -> np.ndarray:
    pairs = np.asarray(rows, dtype=np.float64)
    return pairs[..., 0] + 1j * pairs[..., 1]


def phase_frame(dim: int, theta0: float) -> np.ndarray:
    """Phase states as columns: diag(exp(i n theta0)) times the unitary DFT."""
    dft = np.fft.ifft(np.eye(dim), axis=0) * math.sqrt(dim)
    return np.exp(1j * theta0 * np.arange(dim))[:, None] * dft


def phase_angles(dim: int, theta0: float) -> np.ndarray:
    return theta0 + 2.0 * math.pi * np.arange(dim) / dim


def cyclic_shift(dim: int, corner: complex, weights=None) -> np.ndarray:
    """Down-shift |n> -> w_n |n-1> with w_0 * corner on the wrap-around |s><0|."""
    w = np.ones(dim) if weights is None else np.asarray(weights, dtype=np.float64)
    shift = np.zeros((dim, dim), dtype=np.complex128)
    shift[np.arange(dim - 1), np.arange(1, dim)] = w[1:]
    shift[dim - 1, 0] = w[0] * corner
    return shift


def _in_phase_basis(frame: np.ndarray, eigvals: np.ndarray) -> np.ndarray:
    return (frame * eigvals) @ frame.conj().T


def _deviation(name: str, got: np.ndarray, want: np.ndarray, dim: int) -> list:
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    tol = TOL_PER_DIM * dim * max(1.0, float(np.max(np.abs(want))))
    dev = float(np.max(np.abs(got - want)))
    return [] if dev <= tol else [f"{name}: deviation {dev:.3e} > {tol:.3e}"]


def check_verify(data: dict, op: dict, expected: dict) -> list:
    manifest = data.get("manifest", {})
    want = (op["dim"], op["theta0"], op["eta"])
    got = (manifest.get("dim"), manifest.get("theta0"), manifest.get("eta"))
    if got != want:
        return [f"manifest {got} != {want}"]
    key = manifest_key(*want)
    if key not in expected:
        return [f"no expected checks for manifest {key}"]
    statuses = {r["check_id"]: r["status"] for r in data["records"]}
    problems = [
        f"{check_id}: status {statuses.get(check_id, 'missing')}, expected {status}"
        for check_id, status in expected[key]
        if statuses.get(check_id) != status
    ]
    problems += [f"{cid}: fail" for cid, status in statuses.items() if status == "fail"]
    return problems


def check_dump(data: dict, op: dict) -> list:
    dim, theta0, eta = op["dim"], op["theta0"], op["eta"]
    name = op["object"]
    if data.get("kind") != name or data.get("dim") != dim:
        return [f"dump header {data.get('kind')!r}/{data.get('dim')!r} != {name!r}/{dim}"]
    frame = phase_frame(dim, theta0)
    thetas = phase_angles(dim, theta0)
    corner = np.exp(1j * dim * theta0)
    if name == "phase-states":
        states = _complex_matrix(data["states"]).T  # states are listed as columns
        return _deviation("phase-states", states, frame, dim)
    if name == "phi":
        return _deviation("phi", _complex_matrix(data["matrix"]),
                          _in_phase_basis(frame, thetas), dim)
    if name == "exp-iphi":
        return _deviation("exp-iphi", _complex_matrix(data["matrix"]),
                          cyclic_shift(dim, corner), dim)
    if name == "qN":
        q_minus_n = np.exp(-2j * math.pi * np.arange(dim) / dim)
        return _deviation("qN", _complex_matrix(data["matrix"]), np.diag(q_minus_n), dim)
    if name == "A":
        weights = np.arange(dim) + eta
        offset = _in_phase_basis(frame, np.exp(-1j * eta * thetas))  # exp(-i eta Phi)
        lowering = offset @ cyclic_shift(dim, corner, np.sqrt(weights)) @ offset.conj().T
        problems = _deviation("A profile", np.asarray(data["profile"]), weights, dim)
        return problems + _deviation("A", _complex_matrix(data["matrix"]), lowering, dim)
    if name == "commutators":
        phi = _in_phase_basis(frame, thetas)
        levels = np.arange(dim)
        direct = phi * levels[None, :] - levels[:, None] * phi  # [Phi, N]
        delta = levels[None, :] - levels[:, None]  # n - n' at [n', n]
        off = delta != 0
        kernel = np.zeros((dim, dim), dtype=np.complex128)
        kernel[off] = -delta[off] / (np.exp(2j * math.pi * delta[off] / dim) - 1.0)
        kernel *= 2.0 * math.pi / dim
        closed = _complex_matrix(data["closed_form"])
        double = _complex_matrix(data["double_sum"])
        problems = _deviation("direct", _complex_matrix(data["direct"]), direct, dim)
        problems += _deviation("closed_form", closed, direct, dim)
        problems += _deviation("double_sum", double, kernel, dim)
        gap = float(np.max(np.abs(double - closed)))
        reported = data["max_abs_deviation_double_sum_vs_closed"]
        if gap <= DOUBLE_SUM_GAP or not math.isclose(reported, gap, rel_tol=1e-9):
            problems.append(f"double-sum gap {reported!r} (recomputed {gap:.3e})")
        return problems
    return [f"no check for dump object {name!r}"]


def check_evolve(data: dict, op: dict, state: np.ndarray) -> list:
    dim = op["dim"]
    if data.get("dim") != dim:
        return [f"evolve dim {data.get('dim')!r} != {dim}"]
    amp = _complex_matrix(data["amp"])
    problems = []
    norm = float(np.linalg.norm(amp))
    if abs(norm - 1.0) > TOL_PER_DIM * dim:
        problems.append(f"norm {norm!r} != 1")
    phase = data.get("global_phase")
    if phase is None or abs(phase - math.pi) > TOL_PER_DIM * dim:
        problems.append(f"global_phase {phase!r} != pi")
    # One full cycle multiplies every amplitude by exp(i pi) = -1 on both routes.
    return problems + _deviation("amplitudes", amp, -state, dim)


def check_output(op: dict, text: str, expected: dict, state) -> list:
    """Problems found in one operation's rendered output; empty when correct."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        return [f"output does not parse: {exc}"]
    try:
        if op["kind"] == "verify":
            return check_verify(data, op, expected)
        if op["kind"] == "dump":
            return check_dump(data, op)
        return check_evolve(data, op, state)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
