"""Acceptance sweep: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and then
asserts, so a red criterion still reports its measured deviation.
"""

import numpy as np
import pytest

from fdphase.cli import main
from fdphase.deformed import (
    build_generalized_frame,
    build_ladder_operators,
    cycle_operator_power,
    deformation_linear,
    offset_phase_coefficients,
    offset_phase_frame,
    recover_phase_operator,
)
from fdphase.evolution import eta_sector_map, time_evolution
from fdphase.numerics import TolerancePolicy, mat_power
from fdphase.pegg_barnett import (
    SpaceConfig,
    _toeplitz,
    build_phase_frame,
    commutator_closed_form,
    commutator_direct,
    commutator_double_sum,
    hermitian_phase_operator,
    number_shift_operator,
    unitary_phase_from_spectrum,
    unitary_phase_operator,
)
from fdphase.report import RunManifest, STATUS_FLAGGED
from fdphase.suites import run_suites, suite_evolution

THETA_GRID = (0.0, 0.3, np.pi / 2, 2.9)
ETA_GRID = (0.25, 0.5, 1.0, 1.5)


def report_line(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {verdict} [{detail}]")


def test_criterion_1_frame_duality():
    worst = 0.0
    ok = True
    for dim in range(1, 33):
        tol = 1e-11 * dim
        for theta0 in THETA_GRID:
            config = SpaceConfig.from_dim(dim, theta0)
            frame = build_phase_frame(config)
            v = frame.basis.entries
            eye = np.eye(dim)
            deviations = [
                np.max(np.abs(v.conj().T @ v - eye)),
                np.max(np.abs(v @ v.conj().T - eye)),
            ]
            spectral = unitary_phase_from_spectrum(frame)
            explicit = unitary_phase_operator(config)
            deviations.append(np.max(np.abs(spectral.entries - explicit.entries)))
            for n in range(1, dim):
                deviations.append(
                    np.max(np.abs(spectral.entries[:, n] - eye[:, n - 1]))
                )
            corner = np.exp(1j * dim * theta0)
            deviations.append(
                np.max(np.abs(spectral.entries[:, 0] - corner * eye[:, dim - 1]))
            )
            dev = max(float(d) for d in deviations)
            worst = max(worst, dev)
            ok = ok and dev <= tol
    report_line(1, "frame duality", ok, f"max deviation {worst:.3e}")
    assert ok


def test_criterion_2_cyclicity():
    worst = 0.0
    ok = True
    for dim in range(1, 33):
        tol = 1e-11 * dim
        for theta0 in THETA_GRID:
            config = SpaceConfig.from_dim(dim, theta0)
            eye = np.eye(dim)
            phase_cycle = mat_power(unitary_phase_operator(config), dim)
            dev = float(
                np.max(np.abs(phase_cycle.entries - np.exp(1j * dim * theta0) * eye))
            )
            shift_cycle = mat_power(number_shift_operator(config), dim)
            dev = max(dev, float(np.max(np.abs(shift_cycle.entries - eye))))
            worst = max(worst, dev)
            ok = ok and dev <= tol
    report_line(2, "cyclicity", ok, f"max deviation {worst:.3e}")
    assert ok


def test_criterion_3_commutator():
    worst = 0.0
    ok = True
    for dim in range(2, 33):
        tol = 1e-11 * dim
        for theta0 in THETA_GRID:
            config = SpaceConfig.from_dim(dim, theta0)
            phi, _ = hermitian_phase_operator(build_phase_frame(config))
            direct = _toeplitz(commutator_direct(phi))
            closed = _toeplitz(commutator_closed_form(config))
            dev = float(np.max(np.abs(direct - closed)))
            worst = max(worst, dev)
            ok = ok and dev <= tol

    # The double-sum kernel at dim 2, theta0 0 sits exactly pi away from the
    # closed form on both off-diagonal entries and must surface as flagged.
    config = SpaceConfig.from_dim(2, 0.0)
    gap = np.abs(
        _toeplitz(commutator_double_sum(config)) - _toeplitz(commutator_closed_form(config))
    )
    ok = ok and abs(gap[0, 1] - np.pi) <= 1e-12 and abs(gap[1, 0] - np.pi) <= 1e-12
    manifest = RunManifest(dim=2, suites=("pb-core",))
    flagged = [
        record
        for record in run_suites(manifest).records
        if record.status == STATUS_FLAGGED
    ]
    ok = ok and len(flagged) == 1
    ok = ok and flagged[0].check_id == "commutator_double_sum_vs_closed_form"
    ok = ok and abs(flagged[0].max_deviation - np.pi) <= 1e-12
    report_line(
        3,
        "commutator",
        ok,
        f"max direct-vs-closed {worst:.3e}; flagged gap {gap[0, 1]:.12f}",
    )
    assert ok


def test_criterion_4_deformed_recovery():
    worst = 0.0
    ok = True
    for dim in range(1, 33):
        tol = 1e-11 * dim
        for theta0 in (0.0, 2.9):
            config = SpaceConfig.from_dim(dim, theta0)
            expected = unitary_phase_operator(config)
            base = build_phase_frame(config)
            for eta in ETA_GRID:
                frame = build_generalized_frame(base, eta)
                profile = deformation_linear(config, eta)
                ladder = build_ladder_operators(frame, profile)
                recovered = recover_phase_operator(ladder.a, profile, frame)
                dev = float(np.max(np.abs(recovered.entries - expected.entries)))
                worst = max(worst, dev)
                ok = ok and dev <= tol
    report_line(4, "deformed-algebra recovery", ok, f"max deviation {worst:.3e}")
    assert ok


def test_criterion_5_cycle_phase_identity():
    worst = 0.0
    ok = True
    for dim in range(1, 33):
        tol = 1e-11 * dim
        eye = np.eye(dim)
        base = build_phase_frame(SpaceConfig.from_dim(dim, 0.0))
        for eta in ETA_GRID:
            cycle = cycle_operator_power(build_generalized_frame(base, eta), dim)
            dev = float(
                np.max(np.abs(cycle.entries - np.exp(-2j * np.pi * eta) * eye))
            )
            worst = max(worst, dev)
            ok = ok and dev <= tol

            to_plus = float(np.max(np.abs(cycle.entries - eye)))
            to_minus = float(np.max(np.abs(cycle.entries + eye)))
            if eta == 1.0:
                ok = ok and to_plus <= tol and to_minus > 0.5
            elif eta in (0.5, 1.5):
                ok = ok and to_minus <= tol and to_plus > 0.5
            else:  # eta = 0.25 is neither integer nor half-odd
                ok = ok and to_plus > 0.5 and to_minus > 0.5
    report_line(5, "cycle-phase identity", ok, f"max deviation {worst:.3e}")
    assert ok


def test_criterion_6_parity_reproduction():
    worst = 0.0
    ok = True
    for dim in range(2, 17):
        config = SpaceConfig.from_dim(dim)
        diag = np.diag(time_evolution(config, 1.0, 2.0 * np.pi).entries)
        # Even dimensions return -1 on every level; odd ones keep the top level
        # at +1, so no global factor exists.
        expected = -np.ones(dim) if dim % 2 == 0 else np.concatenate([-np.ones(dim - 1), [1.0]])
        dev = float(np.max(np.abs(diag - expected)))
        records = suite_evolution(config, 1.0, 0, TolerancePolicy.for_dim(dim), {})
        (parity,) = [record for record in records if record.check_id == "cycle_parity"]
        worst = max(worst, dev, parity.max_deviation)
        ok = ok and dev <= 1e-9 and parity.status == "pass"
    report_line(6, "parity reproduction", ok, f"max deviation {worst:.3e}")
    assert ok


def test_criterion_7_sector_equivalence():
    worst = 0.0
    ok = True
    for dim in range(1, 17):
        config = SpaceConfig.from_dim(dim)
        u = time_evolution(config, 1.0, 2.0 * np.pi)
        levels = np.arange(dim)
        expected = np.exp(-2j * np.pi * (levels + eta_sector_map(config)))
        dev = float(np.max(np.abs(np.diag(u.entries) - expected)))
        worst = max(worst, dev)
        ok = ok and dev <= 1e-9
    report_line(7, "sector equivalence", ok, f"max deviation {worst:.3e}")
    assert ok


def test_criterion_8_continuous_shift():
    worst = 0.0
    ok = True
    for dim in range(1, 17):
        tol = 1e-11 * dim
        for theta0 in (0.0, 0.7):
            config = SpaceConfig.from_dim(dim, theta0)
            base = build_phase_frame(config)
            for eta in (0.25, 0.5, 1.0):
                frame = build_generalized_frame(base, eta)
                coeff = np.exp(
                    1j * np.outer(np.arange(dim) + eta, config.thetas())
                ) / np.sqrt(dim)
                phases = offset_phase_frame(frame, offset_phase_coefficients(frame))
                rebuilt = phases.basis.entries @ coeff.conj().T
                dev = float(np.max(np.abs(rebuilt - frame.basis.entries)))
                worst = max(worst, dev)
                ok = ok and dev <= tol
    report_line(8, "continuous shift", ok, f"max deviation {worst:.3e}")
    assert ok


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_criterion_9_determinism(tmp_path, fmt):
    args = [
        "verify",
        "--dim",
        "3",
        "--theta0",
        "0.3",
        "--eta",
        "0.5",
        "--seed",
        "42",
        "--format",
        fmt,
    ]
    first = tmp_path / f"first.{fmt}"
    second = tmp_path / f"second.{fmt}"
    code_a = main([*args, "--out", str(first)])
    code_b = main([*args, "--out", str(second)])
    ok = code_a == 0 and code_b == 0 and first.read_bytes() == second.read_bytes()
    report_line(9, f"determinism ({fmt})", ok, f"{first.stat().st_size} bytes")
    assert ok
