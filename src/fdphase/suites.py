"""Verification suites behind the command-line ``verify`` run.

Each suite turns the operator identities of one subsystem into check
records at the manifest's dimension and parameters. Record order is fixed
so that reports with equal manifests are byte-identical. This is the one
module that makes check records: the builder modules (``pegg_barnett``,
``deformed``, ``evolution``) return operators and closed forms only, and
every comparison, deviation and verdict between them is made here.

:func:`run_suites` hands every suite the one tolerance policy of the
manifest's dimension and one ``shared`` dict, so that a construction two
suites use (the phase frame, an offset frame, the explicit exp(iPhi), the
cycle power of q^-(N+eta), U(2*pi/omega)) is built once per run. The dict
lives only for that call. A shared object only ever replaces
a second build of the same route, never the other side of a check.

Every record's tolerance is a field of that policy (``tol_elem`` times
omega for the energies), and each sign law of the cyclic evolution is
compared level by level with its exact sign.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from .deformed import (
    DeformationProfile,
    build_generalized_frame,
    build_ladder_operators,
    cycle_operator_power,
    deformation_linear,
    generalized_number_shift,
    modified_number_shift,
    offset_phase_frame,
    profile_from_json,
    recover_phase_operator,
)
from .evolution import (
    cycle_phase_per_level,
    eta_sector_map,
    oscillator_spectrum,
    period_evolution,
    time_evolution,
)
from .numerics import (
    TolerancePolicy,
    _binary_power,
    cyclic_shift,
    mat_power,
    max_abs,
)
from .pegg_barnett import (
    SpaceConfig,
    build_phase_frame,
    commutator,
    commutator_closed_form,
    commutator_double_sum,
    hermitian_phase_operator,
    number_operator,
    number_shift_operator,
    unitary_phase_from_spectrum,
    unitary_phase_operator,
)
from .report import CheckRecord, RunManifest, VerificationReport

__all__ = [
    "SUITE_NAMES",
    "resolve_profile",
    "run_suites",
    "suite_pb_core",
    "suite_gdo",
    "suite_evolution",
    "suite_cross_module",
]

SUITE_NAMES = ("pb-core", "gdo", "evolution", "cross-module")


def resolve_profile(source: str, config: SpaceConfig, eta: float) -> DeformationProfile:
    """Turn a manifest profile entry ("linear" or a file path) into a table."""
    if source == "linear":
        return deformation_linear(config, eta)
    return profile_from_json(Path(source).read_text(encoding="utf-8"), config.dim)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amp / np.linalg.norm(amp)


def _once(shared: dict, key, build: Callable, *args):
    """``build(*args)``, made on the first request for ``key`` in this run."""
    if key not in shared:
        shared[key] = build(*args)
    return shared[key]


def _generalized_frame(shared: dict, config: SpaceConfig, eta: float):
    base = _once(shared, "phase_frame", build_phase_frame, config)
    return _once(shared, ("generalized_frame", float(eta)), build_generalized_frame, base, eta)


def _period_evolution(shared: dict, config: SpaceConfig, omega: float):
    return _once(shared, "period_evolution", period_evolution, config, omega)


def suite_pb_core(config: SpaceConfig, policy: TolerancePolicy, shared: dict) -> list:
    dim = config.dim
    frame = _once(shared, "phase_frame", build_phase_frame, config)
    v = frame.basis.entries
    eye = np.eye(dim)
    records = []

    records.append(
        CheckRecord.measured(
            "phase_frame_orthonormal",
            "<theta_m|theta_k> = delta_mk",
            frame.basis.deviations["unitary"],
            policy.tol_op,
        )
    )
    records.append(
        CheckRecord.measured(
            "phase_frame_complete",
            "sum_m |theta_m><theta_m| = 1",
            max_abs(v @ v.conj().T - eye),
            policy.tol_op,
        )
    )
    # The frame's exponentials exp(i n theta_m) against diag(exp(i n theta_0))
    # times the unitary DFT, which np.fft builds from the identity.
    expected = np.fft.ifft(eye, axis=0, norm="ortho")
    expected *= np.exp(1j * config.theta0 * np.arange(dim))[:, None]
    records.append(
        CheckRecord.measured(
            "phase_state_components",
            "<n|theta_m> = exp(i n theta_m)/sqrt(s+1)",
            max_abs(v - expected),
            policy.tol_elem,
        )
    )

    phi = hermitian_phase_operator(frame)
    records.append(
        CheckRecord.measured(
            "phase_operator_hermitian",
            "Phi = sum_m theta_m |theta_m><theta_m|",
            phi.deviations["hermitian"],
            policy.tol_op,
        )
    )

    realization = _once(shared, "exp_iphi", unitary_phase_operator, config)
    spectral = unitary_phase_from_spectrum(frame)
    corner = np.exp(1j * dim * config.theta0)

    # Shift action measured on the spectral route, every column at once:
    # column n of the explicit shift is the wanted image of |n>.
    records.append(
        CheckRecord.measured(
            "unitary_phase_shift_action",
            "exp(iPhi)|n> = |n-1> and exp(iPhi)|0> = exp(i(s+1)theta_0)|s>",
            max_abs(spectral.entries - cyclic_shift(dim, corner)),
            policy.tol_elem,
        )
    )
    records.append(
        CheckRecord.measured(
            "unitary_phase_realization",
            "exp(iPhi) = sum_n |n-1><n| + exp(i(s+1)theta_0)|s><0|",
            max_abs(realization.entries - spectral.entries),
            policy.tol_op,
        )
    )
    # The explicit shift raised by repeated multiplication against the
    # closed-form corner phase.
    records.append(
        CheckRecord.measured(
            "unitary_phase_cyclic",
            "exp(iPhi)^(s+1) = exp(i(s+1)theta_0) 1",
            max_abs(mat_power(realization, dim).entries - corner * eye),
            policy.tol_op,
        )
    )

    down = number_shift_operator(config)
    shifted = down.apply(v)
    records.append(
        CheckRecord.measured(
            "number_shift_action",
            "q^-N |theta_m> = |theta_m-1> and q^-N |theta_0> = |theta_s>",
            max_abs(shifted - np.roll(v, 1, axis=1)),
            policy.tol_elem,
        )
    )
    realization_sum = v @ cyclic_shift(dim, 1.0) @ v.conj().T
    records.append(
        CheckRecord.measured(
            "number_shift_realization",
            "q^-N = sum_m |theta_m-1><theta_m| + |theta_s><theta_0|",
            max_abs(realization_sum - down.entries),
            policy.tol_op,
        )
    )
    # The explicit diagonal q^-N raised by repeated multiplication against
    # the identity.
    records.append(
        CheckRecord.measured(
            "number_shift_cyclic",
            "(q^-N)^(s+1) = 1",
            max_abs(mat_power(down, dim).entries - eye),
            policy.tol_op,
        )
    )

    # The explicit shift: the spectral route, built from v, would test only v's orthonormality.
    in_phase_basis = v.conj().T @ realization.apply(v)
    duality_dev = max(
        max_abs(in_phase_basis - np.diag(np.diag(in_phase_basis))),
        max_abs(np.diag(in_phase_basis) - np.exp(1j * config.thetas())),
    )
    records.append(
        CheckRecord.measured(
            "unitary_phase_diagonal_in_phase_frame",
            "exp(iPhi)|theta_m> = exp(i theta_m)|theta_m>",
            duality_dev,
            policy.tol_op,
        )
    )
    # q^-N, whose diagonal is root_power(-n), against the powers of the
    # scalar q^-1 = conj(q) taken by cumulative multiplication.
    inverse_q = np.full(dim, np.conj(config.q))
    inverse_q[0] = 1.0
    records.append(
        CheckRecord.measured(
            "number_shift_diagonal_in_number_basis",
            "q^-N |n> = q^-n |n>",
            max_abs(down.entries - np.diag(np.cumprod(inverse_q))),
            policy.tol_op,
        )
    )

    closed = commutator_closed_form(config)
    direct = commutator(phi, number_operator(config))
    records.append(
        CheckRecord.measured(
            "commutator_direct_vs_closed_form",
            "[Phi;N] equals its closed form from the phase-state expansion",
            max_abs(direct.entries - closed.entries),
            policy.tol_op,
        )
    )
    records.append(
        CheckRecord.flagged(
            "commutator_double_sum_vs_closed_form",
            "[Phi;N] double-sum kernel differs by a unit-modulus factor per element",
            max_abs(commutator_double_sum(config).entries - closed.entries),
            policy.tol_op,
        )
    )
    return records


def suite_gdo(
    config: SpaceConfig,
    eta: float,
    profile: DeformationProfile,
    policy: TolerancePolicy,
    shared: dict,
) -> list:
    dim = config.dim
    frame = _generalized_frame(shared, config, eta)
    phases = offset_phase_frame(frame)
    v = frame.basis.entries
    eye = np.eye(dim)
    records = []

    records.append(
        CheckRecord.measured(
            "generalized_number_frame_orthonormal",
            "<n+eta|k+eta> = delta_nk",
            frame.basis.deviations["unitary"],
            policy.tol_op,
        )
    )
    records.append(
        CheckRecord.measured(
            "generalized_phase_frame_orthonormal",
            "offset-window <theta_m|theta_k> = delta_mk",
            phases.basis.deviations["unitary"],
            policy.tol_op,
        )
    )

    coeff = np.exp(
        1j * np.outer(np.arange(dim) + frame.eta, config.thetas())
    ) / np.sqrt(dim)
    rebuilt = phases.basis.entries @ coeff.conj().T
    records.append(
        CheckRecord.measured(
            "continuous_shift_roundtrip",
            "exp(-i eta Phi)|n> = |n+eta>",
            max_abs(rebuilt - v),
            policy.tol_elem,
        )
    )

    ladder = build_ladder_operators(frame, profile)
    records.append(
        CheckRecord.measured(
            "ladder_number_product",
            "Adag A |n+eta> = F_n |n+eta>",
            max_abs(
                v.conj().T @ ladder.a_dag.apply(ladder.a.entries) @ v - np.diag(profile.values)
            ),
            policy.tol_op,
        )
    )
    records.append(
        CheckRecord.measured(
            "ladder_reversed_product",
            "A Adag carries the cyclically shifted weights",
            max_abs(
                v.conj().T @ ladder.a.apply(ladder.a_dag.entries) @ v
                - np.diag(np.roll(profile.values, -1))
            ),
            policy.tol_op,
        )
    )

    phase_op = _once(shared, "exp_iphi", unitary_phase_operator, config)
    if np.all(profile.values > 0.0):
        recovered = recover_phase_operator(ladder.a, profile, frame)
        records.append(
            CheckRecord.measured(
                "phase_operator_recovery",
                "A F(q^(N+eta))^(-1/2) = exp(iPhi)",
                max_abs(recovered.entries - phase_op.entries),
                policy.tol_op,
            )
        )
        records.append(
            CheckRecord.measured(
                "recovered_phase_unitary",
                "A F(q^(N+eta))^(-1/2) is unitary",
                recovered.deviations["unitary"],
                policy.tol_op,
            )
        )

    qshift = generalized_number_shift(frame)
    records.append(
        CheckRecord.measured(
            "modified_shift_realization",
            "q^-(N+eta) = sum_m |theta_m-1><theta_m| + exp(-i 2 pi eta)|theta_s><theta_0|",
            max_abs(modified_number_shift(frame, phases).entries - qshift.entries),
            policy.tol_op,
        )
    )

    # The matched shift laws: q^-(N+eta) shifts the offset-window phase states
    # down with wrap-around factor exp(-2 pi i eta), exp(iPhi) shifts the
    # offset number states down with exp(i(s+1)theta_0), and the two corner
    # phases show the window/offset symmetry.
    p = phases.basis.entries
    corner_eta = np.exp(-2j * np.pi * frame.eta)
    corner_theta = np.exp(1j * dim * config.theta0)
    shifted_phase = qshift.apply(p)
    shifted_number = phase_op.apply(v)
    corner_theta_measured = complex(v[:, dim - 1].conj() @ phase_op.entries @ v[:, 0])
    corner_eta_measured = complex(p[:, dim - 1].conj() @ qshift.entries @ p[:, 0])
    for check_id, anchor, deviation in (
        (
            "modified_shift_action",
            "q^-(N+eta)|theta_m> = |theta_m-1>",
            max_abs(shifted_phase[:, 1:] - p[:, :-1]),
        ),
        (
            "modified_shift_wraparound",
            "q^-(N+eta)|theta_0> = exp(-i 2 pi eta)|theta_s>",
            max_abs(shifted_phase[:, 0] - corner_eta * p[:, dim - 1]),
        ),
        (
            "unitary_phase_on_generalized_states",
            "exp(iPhi)|n+eta> = |n+eta-1>",
            max_abs(shifted_number[:, 1:] - v[:, :-1]),
        ),
        (
            "unitary_phase_generalized_wraparound",
            "exp(iPhi)|eta> = exp(i(s+1)theta_0)|s+eta>",
            max_abs(shifted_number[:, 0] - corner_theta * v[:, dim - 1]),
        ),
        (
            "corner_phase_phase_operator",
            "wrap-around phase of exp(iPhi) is exp(i(s+1)theta_0)",
            abs(corner_theta_measured - corner_theta),
        ),
        (
            "corner_phase_number_shift",
            "wrap-around phase of q^-(N+eta) is exp(-i 2 pi eta)",
            abs(corner_eta_measured - corner_eta),
        ),
    ):
        records.append(CheckRecord.measured(check_id, anchor, deviation, policy.tol_elem))

    # Both cycle records take the eigenvalues q^-(n+eta) raised by repeated
    # multiplication over the certified offset frame against the closed form.
    cycle = _once(shared, ("cycle", frame.eta), cycle_operator_power, frame, dim)
    records.append(
        CheckRecord.measured(
            "cycle_identity",
            "(q^-(N+eta))^(s+1) = exp(-i 2 pi eta) 1",
            max_abs(cycle.entries - np.exp(-2j * np.pi * frame.eta) * eye),
            policy.tol_op,
        )
    )
    # Integer eta keeps the sign and half-odd eta flips it; any other eta,
    # however close to one of these, emits no record.
    eta = frame.eta
    sign = 1.0 if eta == round(eta) else -1.0 if 2.0 * eta == round(2.0 * eta) else None
    if sign is not None:
        records.append(
            CheckRecord.measured(
                "cycle_sign_dichotomy",
                "integer eta keeps the sign after one cycle; half-odd eta flips it",
                max_abs(cycle.entries - sign * eye),
                policy.tol_op,
            )
        )
    return records


def suite_evolution(
    config: SpaceConfig,
    omega: float,
    seed: int,
    policy: TolerancePolicy,
    shared: dict,
) -> list:
    dim = config.dim
    energies = oscillator_spectrum(config, omega)
    records = []

    diffs = np.diff(energies)
    records.append(
        CheckRecord.measured(
            "spectrum_monotone",
            "E_n = omega(n + 1/2 + (s+1)/2 delta_ns) increases with n",
            max(0.0, float(-diffs.min())) if diffs.size else 0.0,
            policy.tol_elem * omega,
        )
    )
    records.append(
        CheckRecord.measured(
            "spectrum_top_level_shift",
            "E_s sits (s+1)/2 quanta above the equally spaced ladder",
            abs(energies[-1] - (config.s + 0.5) * omega - dim / 2.0 * omega),
            policy.tol_elem * omega,
        )
    )

    u = _period_evolution(shared, config, omega)
    records.append(
        CheckRecord.measured(
            "evolution_unitary",
            "U(t) = exp(-i H t) is unitary",
            u.deviations["unitary"],
            policy.tol_op,
        )
    )
    t1, t2 = 0.37 / float(omega), 1.91 / float(omega)
    records.append(
        CheckRecord.measured(
            "evolution_group_law",
            "U(t1) U(t2) = U(t1+t2)",
            max_abs(
                time_evolution(config, omega, t1).apply(time_evolution(config, omega, t2).entries)
                - time_evolution(config, omega, t1 + t2).entries
            ),
            policy.tol_op,
        )
    )
    diag = np.diag(u.entries)
    factors = cycle_phase_per_level(config)
    records.append(
        CheckRecord.measured(
            "cycle_phase_factors",
            "U(2 pi/omega) diagonal is exp(-i 2 pi (n + 1/2 + (s+1)/2 delta_ns))",
            max_abs(diag - factors),
            policy.tol_elem,
        )
    )

    # One period flips every level below the top; the top level picks up
    # (-1)^s, so every state flips exactly when s+1 is even (d=1: +1).
    signs = np.append(-np.ones(dim - 1), (-1.0) ** config.s)
    records.append(
        CheckRecord.measured(
            "cycle_parity",
            "one period flips the sign of every state iff s+1 is even",
            max_abs(diag - signs),
            policy.tol_elem,
        )
    )

    # The shift route's eigenvalues q^-(n+eta_n) at the sector map's eta, raised
    # to the power s+1 as cycle_operator_power raises them, and the uniform
    # eta = 1/2 prediction below the top, which survives as the space grows.
    levels = np.arange(dim)
    _, sector = _binary_power(levels, config.root_power(-(levels + eta_sector_map(config))), dim)
    uniform = np.exp(-2j * np.pi * (levels[:-1] + 0.5))
    records.append(
        CheckRecord.measured(
            "sector_equivalence",
            "eta = 1/2 for n<s and eta = 1/2 + (s+1)/2 for n=s",
            max_abs(diag - sector),
            policy.tol_elem,
        )
    )
    records.append(
        CheckRecord.measured(
            "uniform_half_eta_below_top",
            "exp(-i 2 pi (n + 1/2)) matches every level below the top",
            max_abs(diag[:-1] - uniform),
            policy.tol_elem,
        )
    )

    rng = np.random.default_rng(seed)
    psi = _random_state(rng, dim)
    records.append(
        CheckRecord.measured(
            "random_superposition_cycle",
            "one period multiplies each amplitude by its level factor",
            max_abs(u.apply(psi) - factors * psi),
            policy.tol_elem,
        )
    )
    return records


def suite_cross_module(
    config: SpaceConfig,
    omega: float,
    seed: int,
    policy: TolerancePolicy,
    shared: dict,
) -> list:
    """The shift route at eta = 1/2 against the Hamiltonian route.

    The shift route raises the eigenvalues q^-(n+1/2) by repeated
    multiplication and synthesizes the power over the certified offset
    frame; the Hamiltonian route is U(2*pi/omega) built from the energies.
    """
    dim = config.dim
    frame = _generalized_frame(shared, config, 0.5)
    cycle = _once(shared, ("cycle", 0.5), cycle_operator_power, frame, dim)
    u = _period_evolution(shared, config, omega)
    records = []

    if dim % 2 == 0:
        records.append(
            CheckRecord.measured(
                "cross_cycle_even_dims",
                "(q^-(N+1/2))^(s+1) = U(2 pi/omega) when s+1 is even",
                max_abs(cycle.entries - u.entries),
                policy.tol_op,
            )
        )
    below_dev = max_abs(cycle.entries[:, : dim - 1] - u.entries[:, : dim - 1])
    records.append(
        CheckRecord.measured(
            "cross_shift_evolution_below_top",
            "both one-cycle routes agree on every level below the top",
            below_dev,
            policy.tol_op,
        )
    )
    if dim % 2 == 0:
        rng = np.random.default_rng(seed)
        psi = _random_state(rng, dim)
        records.append(
            CheckRecord.measured(
                "cross_random_state_even",
                "both one-cycle routes act identically on a random state",
                max_abs(cycle.apply(psi) - u.apply(psi)),
                policy.tol_op,
            )
        )
    return records


def run_suites(manifest: RunManifest) -> VerificationReport:
    """Run the manifest's suites in canonical order and assemble the report.

    One tolerance policy, that of the manifest's dimension, serves every suite.
    """
    unknown = [name for name in manifest.suites if name not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite names: {unknown}; expected {SUITE_NAMES}")
    if not manifest.suites:
        raise ValueError("at least one suite is required for a verify run")
    config = SpaceConfig.from_dim(manifest.dim, manifest.theta0)
    policy = TolerancePolicy.for_dim(config.dim)
    selected = [name for name in SUITE_NAMES if name in manifest.suites]

    records, shared = [], {}
    if "pb-core" in selected:
        records.extend(suite_pb_core(config, policy, shared))
    if "gdo" in selected:
        table = resolve_profile(manifest.profile, config, manifest.eta)
        records.extend(suite_gdo(config, manifest.eta, table, policy, shared))
    if "evolution" in selected:
        records.extend(
            suite_evolution(config, manifest.omega, manifest.seed, policy, shared)
        )
    if "cross-module" in selected:
        records.extend(
            suite_cross_module(config, manifest.omega, manifest.seed, policy, shared)
        )
    return VerificationReport(manifest=manifest, records=tuple(records))
