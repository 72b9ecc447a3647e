"""Verification suites behind the command-line ``verify`` run.

Each suite turns the operator identities of one subsystem into check
records at the manifest's dimension and parameters. Record order is fixed
so that reports with equal manifests are byte-identical. This is the one
module that makes check records: the builder modules (``pegg_barnett``,
``deformed``, ``evolution``) return operators and closed forms only, and
every comparison, deviation and verdict between them is made here.

A suite body is a table of rows ``(check_id, paper_anchor, route,
reference, tolerance)``, yielded one at a time. One loop, :func:`_suite`
with :func:`_record`, turns each row into its record as soon as it is
yielded: the deviation is ``max |route - reference|`` over every entry, and
the verdict is ``pass`` when it is within the tolerance and ``fail``
otherwise, except for the one id in ``FLAGGED_CHECK``, which is always
``flagged``. A deviation already measured at certification is the row
``(deviation, 0.0)``. Each ``suite_*`` is still a plain function that does
all its work when called and returns its list of records.

A row over operators compares both sides applied to the probe block P of
:func:`.numerics.probes`, so an operator held as its factors acts through
them and no row forms its d x d entries; the wrap-around and corner rows
read single states, one matvec each. ``phase_state_components`` reads
the phase frame, which acts by FFT, against its closed form at exact
turns applied through the four-step tables, so that no FFT sits on both
sides. Phi and the three commutator routes are
their 2s+1 Toeplitz values, compared value by value, and the rows over
monomials (the cyclic powers and the diagonals) read their ``(rows,
values)`` column by column; both take the maximum over every entry, bit
for bit, without forming one.

:func:`run_suites` hands every suite the one tolerance policy of the
manifest's dimension and one ``shared`` dict, so that a construction two
suites use (the phase frame, an offset frame, the explicit exp(iPhi), q^-N,
the cycle power of q^-(N+eta), U(2*pi/omega)) is built once per run. The
dict lives only for that call. A shared object only ever replaces a second
build of the same route, never the other side of a check.

Every row's tolerance is a field of that policy (``tol_elem`` times omega
for the energies), and each sign law of the cyclic evolution is compared
level by level with its exact sign.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path
from typing import Callable

import numpy as np

from .deformed import (
    DeformationProfile,
    build_generalized_frame,
    build_lowering_operator,
    cycle_operator_power,
    deformation_linear,
    generalized_number_shift,
    modified_number_shift,
    offset_phase_coefficients,
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
    _exact_turns,
    _monomial,
    cyclic_shift,
    mat_power,
    max_abs,
    probes,
)
from .pegg_barnett import (
    SpaceConfig,
    build_phase_frame,
    commutator_closed_form,
    commutator_direct,
    commutator_double_sum,
    hermitian_phase_operator,
    number_shift_operator,
    unitary_phase_from_spectrum,
    unitary_phase_operator,
)
from .report import (
    STATUS_FAIL,
    STATUS_FLAGGED,
    STATUS_PASS,
    CheckRecord,
    RunManifest,
    VerificationReport,
)

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

# The one record reported "flagged": a documented deviation, never a failure.
FLAGGED_CHECK = "commutator_double_sum_vs_closed_form"


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


def _diagonal_gap(m, diagonal) -> np.ndarray:
    """Column by column, max |M - diag(diagonal)| for a monomial M, from its ``(rows, values)``.

    Column j of M is values[j] |rows[j]>: where rows[j] = j it differs from
    the diagonal in one entry, |values[j] - diagonal[j]|, elsewhere in two,
    values[j] and -diagonal[j]. Every other entry is a zero on both sides,
    so the maximum over the columns is that over every entry, bit for bit.
    A scalar ``diagonal`` stands for that scalar times the identity.
    """
    rows, values = _monomial(m)
    return np.where(rows == np.arange(rows.size), np.abs(values - diagonal),
                    np.maximum(np.abs(values), np.abs(diagonal)))


def _diagonal(m) -> np.ndarray:
    """The diagonal of a monomial operator, read off its ``(rows, values)``."""
    rows, values = _monomial(m)
    return np.where(rows == np.arange(rows.size), values, 0.0)


def _record(check_id, paper_anchor, route, reference, tolerance) -> CheckRecord:
    """The record of one row: max |route - reference| judged against the tolerance.

    A certified deviation is the row ``(deviation, 0.0)``. The one id in
    ``FLAGGED_CHECK`` is reported ``flagged`` whatever its deviation.
    """
    deviation = max_abs(np.subtract(route, reference))
    if check_id == FLAGGED_CHECK:
        status = STATUS_FLAGGED
    else:
        status = STATUS_PASS if deviation <= tolerance else STATUS_FAIL
    return CheckRecord(check_id, paper_anchor, deviation, tolerance, status)


def _suite(rows: Callable) -> Callable:
    """The suite that returns the records of the rows ``rows`` yields.

    Each row becomes its record as soon as it is yielded, and nothing keeps
    a row afterwards, so only one row's routes are alive at a time.
    """

    @functools.wraps(rows)
    def suite(*args) -> list:
        return list(itertools.starmap(_record, rows(*args)))

    return suite


@_suite
def suite_pb_core(config: SpaceConfig, policy: TolerancePolicy, shared: dict):
    dim = config.dim
    frame = _once(shared, "phase_frame", build_phase_frame, config)
    basis = frame.basis
    block = probes(dim)

    yield ("phase_frame_orthonormal", "<theta_m|theta_k> = delta_mk",
           basis.deviation, 0.0, policy.tol_op)
    yield ("phase_frame_complete", "sum_m |theta_m><theta_m| = 1",
           basis.apply(basis.adjoint().apply(block)), block, policy.tol_op)
    # The frame acts by FFT; the exact-turn route applies the closed form
    # exp(i n theta_m)/sqrt(s+1) through the four-step tables, with no FFT.
    yield ("phase_state_components", "<n|theta_m> = exp(i n theta_m)/sqrt(s+1)",
           basis.apply(block), _exact_turns(basis, block), policy.tol_elem)

    phi, hermitian = hermitian_phase_operator(frame)
    yield ("phase_operator_hermitian", "Phi = sum_m theta_m |theta_m><theta_m|",
           hermitian, 0.0, policy.tol_op)

    realization = _once(shared, "exp_iphi", unitary_phase_operator, config)
    spectral = unitary_phase_from_spectrum(frame)
    corner = np.exp(1j * dim * config.theta0)

    # Shift action measured on the spectral route, every probe column at
    # once: column n of the explicit shift is the wanted image of |n>.
    yield ("unitary_phase_shift_action",
           "exp(iPhi)|n> = |n-1> and exp(iPhi)|0> = exp(i(s+1)theta_0)|s>",
           spectral.apply(block), cyclic_shift(dim, corner).apply(block), policy.tol_elem)
    yield ("unitary_phase_realization", "exp(iPhi) = sum_n |n-1><n| + exp(i(s+1)theta_0)|s><0|",
           realization.apply(block), spectral.apply(block), policy.tol_op)
    # The explicit shift raised by repeated multiplication against the
    # closed-form corner phase.
    yield ("unitary_phase_cyclic", "exp(iPhi)^(s+1) = exp(i(s+1)theta_0) 1",
           _diagonal_gap(mat_power(realization, dim), corner), 0.0, policy.tol_op)

    down = _once(shared, "number_shift", number_shift_operator, config)
    yield ("number_shift_action", "q^-N |theta_m> = |theta_m-1> and q^-N |theta_0> = |theta_s>",
           down.apply(basis.apply(block)), basis.apply(np.roll(block, -1, axis=0)),
           policy.tol_elem)
    yield ("number_shift_realization", "q^-N = sum_m |theta_m-1><theta_m| + |theta_s><theta_0|",
           basis.apply(cyclic_shift(dim, 1.0).apply(basis.adjoint().apply(block))),
           down.apply(block), policy.tol_op)
    # The explicit diagonal q^-N raised by repeated multiplication against
    # the identity.
    yield ("number_shift_cyclic", "(q^-N)^(s+1) = 1",
           _diagonal_gap(mat_power(down, dim), 1.0), 0.0, policy.tol_op)

    # The explicit shift: the spectral route, built from v, would test only v's orthonormality.
    yield ("unitary_phase_diagonal_in_phase_frame", "exp(iPhi)|theta_m> = exp(i theta_m)|theta_m>",
           basis.adjoint().apply(realization.apply(basis.apply(block))),
           np.exp(1j * config.thetas())[:, None] * block,
           policy.tol_op)
    # q^-N, whose diagonal is root_power(-n), against the powers of the
    # scalar q^-1 = conj(q) taken by cumulative multiplication.
    inverse_q = np.full(dim, np.conj(config.q))
    inverse_q[0] = 1.0
    yield ("number_shift_diagonal_in_number_basis", "q^-N |n> = q^-n |n>",
           _diagonal_gap(down, np.cumprod(inverse_q)), 0.0, policy.tol_op)

    closed = commutator_closed_form(config)
    yield ("commutator_direct_vs_closed_form",
           "[Phi;N] equals its closed form from the phase-state expansion",
           commutator_direct(phi), closed, policy.tol_op)
    yield (FLAGGED_CHECK, "[Phi;N] double-sum kernel differs by a unit-modulus factor per element",
           commutator_double_sum(config), closed, policy.tol_op)


@_suite
def suite_gdo(
    config: SpaceConfig,
    eta: float,
    profile: DeformationProfile,
    policy: TolerancePolicy,
    shared: dict,
):
    dim = config.dim
    frame = _generalized_frame(shared, config, eta)
    coeff = offset_phase_coefficients(frame)
    phases = offset_phase_frame(frame, coeff)
    v, p = frame.basis, phases.basis
    block = probes(dim)

    yield ("generalized_number_frame_orthonormal", "<n+eta|k+eta> = delta_nk",
           frame.basis.deviation, 0.0, policy.tol_op)
    yield ("generalized_phase_frame_orthonormal", "offset-window <theta_m|theta_k> = delta_mk",
           phases.basis.deviation, 0.0, policy.tol_op)

    yield ("continuous_shift_roundtrip", "exp(-i eta Phi)|n> = |n+eta>",
           p.apply(coeff.adjoint().apply(block)), v.apply(block), policy.tol_elem)

    a = build_lowering_operator(frame, profile)
    yield ("ladder_number_product", "Adag A |n+eta> = F_n |n+eta>",
           v.adjoint().apply(a.adjoint().apply(a.apply(v.apply(block)))),
           profile.values[:, None] * block,
           policy.tol_op)
    yield ("ladder_reversed_product", "A Adag carries the cyclically shifted weights",
           v.adjoint().apply(a.apply(a.adjoint().apply(v.apply(block)))),
           np.roll(profile.values, -1)[:, None] * block,
           policy.tol_op)

    phase_op = _once(shared, "exp_iphi", unitary_phase_operator, config)
    if np.all(profile.values > 0.0):
        recovered = recover_phase_operator(a, profile, frame)
        yield ("phase_operator_recovery", "A F(q^(N+eta))^(-1/2) = exp(iPhi)",
               recovered.apply(block), phase_op.apply(block), policy.tol_op)
        yield ("recovered_phase_unitary", "A F(q^(N+eta))^(-1/2) is unitary",
               recovered.deviation, 0.0, policy.tol_op)

    qshift = generalized_number_shift(frame)
    yield ("modified_shift_realization",
           "q^-(N+eta) = sum_m |theta_m-1><theta_m| + exp(-i 2 pi eta)|theta_s><theta_0|",
           modified_number_shift(frame, phases).apply(block), qshift.apply(block), policy.tol_op)

    # The matched shift laws: q^-(N+eta) shifts the offset-window phase states
    # down with wrap-around factor exp(-2 pi i eta), exp(iPhi) shifts the
    # offset number states down with exp(i(s+1)theta_0), and the two corner
    # phases show the window/offset symmetry. The shift laws take the probe
    # block's rows 1..s as coordinates over the states 1..s (``upper``) and
    # over the states 0..s-1 (``lower``); the wrap-around rows read the
    # states 0 and s, one matvec each.
    corner_eta = np.exp(-2j * np.pi * frame.eta)
    corner_theta = np.exp(1j * dim * config.theta0)
    upper, lower = block.copy(), np.zeros_like(block)
    upper[0] = 0.0
    lower[:-1] = block[1:]
    ends = np.zeros((dim, 2))
    ends[0, 0] = ends[dim - 1, 1] = 1.0
    p_0, p_s = p.apply(ends).T
    v_0, v_s = v.apply(ends).T
    q_p_0, shift_v_0 = qshift.apply(p_0), phase_op.apply(v_0)
    yield ("modified_shift_action", "q^-(N+eta)|theta_m> = |theta_m-1>",
           qshift.apply(p.apply(upper)), p.apply(lower), policy.tol_elem)
    yield ("modified_shift_wraparound", "q^-(N+eta)|theta_0> = exp(-i 2 pi eta)|theta_s>",
           q_p_0, corner_eta * p_s, policy.tol_elem)
    yield ("unitary_phase_on_generalized_states", "exp(iPhi)|n+eta> = |n+eta-1>",
           phase_op.apply(v.apply(upper)), v.apply(lower), policy.tol_elem)
    yield ("unitary_phase_generalized_wraparound", "exp(iPhi)|eta> = exp(i(s+1)theta_0)|s+eta>",
           shift_v_0, corner_theta * v_s, policy.tol_elem)
    yield ("corner_phase_phase_operator", "wrap-around phase of exp(iPhi) is exp(i(s+1)theta_0)",
           np.vdot(v_s, shift_v_0), corner_theta, policy.tol_elem)
    yield ("corner_phase_number_shift", "wrap-around phase of q^-(N+eta) is exp(-i 2 pi eta)",
           np.vdot(p_s, q_p_0), corner_eta, policy.tol_elem)

    # Both cycle records take the eigenvalues q^-(n+eta) raised by repeated
    # multiplication over the certified offset frame against the closed form.
    cycle = _once(shared, ("cycle", frame.eta), cycle_operator_power, frame, dim)
    yield ("cycle_identity", "(q^-(N+eta))^(s+1) = exp(-i 2 pi eta) 1",
           cycle.apply(block), corner_eta * block, policy.tol_op)
    # Integer eta keeps the sign and half-odd eta flips it; any other eta,
    # however close to one of these, emits no record.
    eta = frame.eta
    sign = 1.0 if eta == round(eta) else -1.0 if 2.0 * eta == round(2.0 * eta) else None
    if sign is not None:
        yield ("cycle_sign_dichotomy",
               "integer eta keeps the sign after one cycle; half-odd eta flips it",
               cycle.apply(block), sign * block, policy.tol_op)


@_suite
def suite_evolution(
    config: SpaceConfig,
    omega: float,
    seed: int,
    policy: TolerancePolicy,
    shared: dict,
):
    dim = config.dim
    energies = oscillator_spectrum(config, omega)

    yield ("spectrum_monotone", "E_n = omega(n + 1/2 + (s+1)/2 delta_ns) increases with n",
           np.minimum(np.diff(energies), 0.0), 0.0, policy.tol_elem * omega)
    yield ("spectrum_top_level_shift", "E_s sits (s+1)/2 quanta above the equally spaced ladder",
           energies[-1] - (config.s + 0.5) * omega, dim / 2.0 * omega, policy.tol_elem * omega)

    u = _once(shared, "period_evolution", period_evolution, config, omega)
    yield ("evolution_unitary", "U(t) = exp(-i H t) is unitary",
           u.deviation, 0.0, policy.tol_op)
    t1, t2 = 0.37 / float(omega), 1.91 / float(omega)
    block = probes(dim)
    yield ("evolution_group_law", "U(t1) U(t2) = U(t1+t2)",
           time_evolution(config, omega, t1).apply(time_evolution(config, omega, t2).apply(block)),
           time_evolution(config, omega, t1 + t2).apply(block),
           policy.tol_op)
    diag = _diagonal(u)
    factors = cycle_phase_per_level(config)
    yield ("cycle_phase_factors",
           "U(2 pi/omega) diagonal is exp(-i 2 pi (n + 1/2 + (s+1)/2 delta_ns))",
           diag, factors, policy.tol_elem)

    # One period flips every level below the top; the top level picks up
    # (-1)^s, so every state flips exactly when s+1 is even (d=1: +1).
    yield ("cycle_parity", "one period flips the sign of every state iff s+1 is even",
           diag, np.append(-np.ones(dim - 1), (-1.0) ** config.s), policy.tol_elem)

    # The shift route's eigenvalues q^-(n+eta_n) at the sector map's eta, raised
    # to the power s+1 as cycle_operator_power raises them, and the uniform
    # eta = 1/2 prediction below the top, which survives as the space grows.
    levels = np.arange(dim)
    _, sector = _binary_power(levels, config.root_power(-(levels + eta_sector_map(config))), dim)
    yield ("sector_equivalence", "eta = 1/2 for n<s and eta = 1/2 + (s+1)/2 for n=s",
           diag, sector, policy.tol_elem)
    yield ("uniform_half_eta_below_top", "exp(-i 2 pi (n + 1/2)) matches every level below the top",
           diag[:-1], np.exp(-2j * np.pi * (levels[:-1] + 0.5)), policy.tol_elem)

    psi = _random_state(np.random.default_rng(seed), dim)
    yield ("random_superposition_cycle", "one period multiplies each amplitude by its level factor",
           u.apply(psi), factors * psi, policy.tol_elem)


@_suite
def suite_cross_module(
    config: SpaceConfig,
    omega: float,
    seed: int,
    policy: TolerancePolicy,
    shared: dict,
):
    """The shift route at eta = 1/2 against the Hamiltonian route.

    The shift route raises the eigenvalues q^-(n+1/2) by repeated
    multiplication and synthesizes the power over the certified offset
    frame; the Hamiltonian route is U(2*pi/omega) built from the energies.
    The last row is the contrast with the standard shift q^-N, whose cycle
    is the identity: below the top it is minus the evolution's cycle.
    """
    dim = config.dim
    frame = _generalized_frame(shared, config, 0.5)
    cycle = _once(shared, ("cycle", 0.5), cycle_operator_power, frame, dim)
    u = _once(shared, "period_evolution", period_evolution, config, omega)
    block = probes(dim)
    # The probe block with row s zeroed reads the columns below the top.
    below_top = block.copy()
    below_top[dim - 1] = 0.0

    if dim % 2 == 0:
        yield ("cross_cycle_even_dims", "(q^-(N+1/2))^(s+1) = U(2 pi/omega) when s+1 is even",
               cycle.apply(block), u.apply(block), policy.tol_op)
    yield ("cross_shift_evolution_below_top",
           "both one-cycle routes agree on every level below the top",
           cycle.apply(below_top), u.apply(below_top), policy.tol_op)
    if dim % 2 == 0:
        psi = _random_state(np.random.default_rng(seed), dim)
        yield ("cross_random_state_even", "both one-cycle routes act identically on a random state",
               cycle.apply(psi), u.apply(psi), policy.tol_op)
    standard = _once(shared, "number_shift", number_shift_operator, config)
    yield ("standard_shift_cycle_sign_below_top",
           "(q^-N)^(s+1) = -U(2 pi/omega) on every level below the top",
           _diagonal(mat_power(standard, dim))[:-1],
           -_diagonal(u)[:-1],
           policy.tol_elem)


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
        records.extend(suite_evolution(config, manifest.omega, manifest.seed, policy, shared))
    if "cross-module" in selected:
        records.extend(suite_cross_module(config, manifest.omega, manifest.seed, policy, shared))
    return VerificationReport(manifest=manifest, records=tuple(records))
