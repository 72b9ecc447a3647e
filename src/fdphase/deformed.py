"""Generally deformed oscillator ladder algebra at q a root of unity.

The deformation is a table of non-negative level weights F_0..F_s. Ladder
operators act cyclically on the offset number states |n+eta>, which are
produced from the usual ones by the continuous phase shift exp(-i eta Phi);
the offset-window phase states are then rebuilt from them by the usual
Fourier sum with exponents n+eta. That constructive order breaks the mutual
definition of the two families and pins concrete coordinates for both.
:func:`build_generalized_frame` builds the offset number states over a
certified phase frame, and :func:`offset_phase_frame` builds the offset
phase states from them, only where they are read. Every builder below takes
the frame it uses as a required argument and reads the space and eta from
it; operators act through :meth:`.numerics.OperatorMatrix.apply`.

Dividing the square-rooted weight back out of the lowering operator
recovers the undeformed unitary phase operator for every admissible eta and
weight table, while the offset number-power operator q^-(N+eta) picks up
the per-cycle factor exp(-2*pi*i*eta): integer eta leaves states unchanged
after a full cycle, half-odd eta flips their sign.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DimensionMismatch,
    OperatorMatrix,
    TolerancePolicy,
    _binary_power,
    certify,
    cyclic_shift,
    frame_deviation,
    max_abs,
    spectral_synthesize,
)
from .pegg_barnett import PhaseFrame, SpaceConfig
from .report import CheckRecord

__all__ = [
    "ProfileError",
    "DeformationProfile",
    "deformation_linear",
    "profile_from_json",
    "GeneralizedFrame",
    "build_generalized_frame",
    "offset_phase_frame",
    "LadderOperators",
    "build_ladder_operators",
    "recover_phase_operator",
    "generalized_number_shift",
    "modified_number_shift",
    "cycle_operator_power",
    "eta_class",
    "duality_check",
]

PROFILE_VARIANTS = ("linear", "user")


class ProfileError(ValueError):
    """Deformation weight table violates positivity or the cyclic condition."""


@dataclass(frozen=True, eq=False)
class DeformationProfile:
    """Level weights F_0..F_s; all non-negative with F_0 > 0 (cyclic)."""

    values: np.ndarray
    variant: str = "user"

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ProfileError("profile must be a non-empty 1-d table of weights")
        if not np.all(np.isfinite(arr)):
            raise ProfileError("profile weights must be finite")
        if np.any(arr < 0.0):
            raise ProfileError("profile weights must be non-negative")
        if arr[0] <= 0.0:
            raise ProfileError(
                "bottom-level weight must be positive for a cyclic representation"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.variant not in PROFILE_VARIANTS:
            raise ProfileError(f"variant must be one of {PROFILE_VARIANTS}")

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def deformation_linear(config: SpaceConfig, eta: float) -> DeformationProfile:
    """Default weight table F_n = n + eta; needs eta > 0 so F_0 > 0."""
    eta = float(eta)
    values = np.arange(config.dim, dtype=np.float64) + eta
    if values.min() <= 0.0:
        raise ProfileError(
            f"linear profile requires min(n + eta) > 0, got eta = {eta}"
        )
    return DeformationProfile(values=values, variant="linear")


def profile_from_json(text: str, dim: int) -> DeformationProfile:
    """Parse a JSON array of dim non-negative reals into a profile."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ProfileError("profile must be a JSON array of real numbers")
    for item in data:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ProfileError("profile must be a JSON array of real numbers")
    if len(data) != dim:
        raise ProfileError(
            f"profile length {len(data)} does not match dimension {dim}"
        )
    return DeformationProfile(values=np.asarray(data, dtype=np.float64), variant="user")


@dataclass(frozen=True, eq=False)
class GeneralizedFrame:
    """The offset number states |n+eta>.

    Columns of ``number_matrix`` are the |n+eta> in standard coordinates,
    and ``number_deviation`` is their orthonormality deviation
    max |V^dag V - 1|, measured when :func:`build_generalized_frame`
    certified them.
    """

    config: SpaceConfig
    eta: float
    number_matrix: np.ndarray
    number_deviation: float

    def __post_init__(self) -> None:
        arr = np.array(self.number_matrix, dtype=np.complex128, copy=True)
        if arr.shape != (self.config.dim, self.config.dim):
            raise DimensionMismatch(
                f"number_matrix must be {self.config.dim} x {self.config.dim}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "number_matrix", arr)
        object.__setattr__(self, "eta", float(self.eta))

    def synthesize(self, eigvals: np.ndarray) -> OperatorMatrix:
        """sum_n eigvals[n] |n+eta><n+eta| over the certified number states."""
        return spectral_synthesize(self.number_matrix, eigvals, self.number_deviation)


def build_generalized_frame(base: PhaseFrame, eta: float) -> GeneralizedFrame:
    """Construct |n+eta> = exp(-i eta Phi)|n>, certified orthonormal once.

    ``exp(-i eta Phi)`` is synthesized over the phase frame ``base``, whose
    space the offset frame shares.
    """
    eta = float(eta)
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    config = base.config
    shift = spectral_synthesize(base.matrix, np.exp(-1j * eta * config.thetas()), base.deviation)
    number_matrix = np.array(shift.entries)  # column n is exp(-i eta Phi)|n>
    return GeneralizedFrame(
        config=config,
        eta=eta,
        number_matrix=number_matrix,
        number_deviation=frame_deviation(number_matrix),
    )


def offset_phase_frame(frame: GeneralizedFrame) -> PhaseFrame:
    """The offset-window phase states, certified orthonormal once.

    Column m is sum_n exp(i(n+eta)theta_m)/sqrt(s+1) |n+eta>, the Fourier sum
    over the offset number states of ``frame`` with exponents n+eta.
    """
    config = frame.config
    dim = config.dim
    coeff = np.exp(1j * np.outer(np.arange(dim) + frame.eta, config.thetas())) / math.sqrt(dim)
    matrix = frame.number_matrix @ coeff
    return PhaseFrame(config=config, matrix=matrix, deviation=frame_deviation(matrix))


@dataclass(frozen=True, eq=False)
class LadderOperators:
    """The lowering operator and its adjoint, the raising operator."""

    a: OperatorMatrix
    a_dag: OperatorMatrix


def build_ladder_operators(
    frame: GeneralizedFrame, profile: DeformationProfile
) -> LadderOperators:
    """Ladder operators over the offset number states.

    In frame coordinates the lowering operator carries sqrt(F_n) on
    |n+eta-1><n+eta| for n = 1..s and sqrt(F_0) exp(i(s+1)theta_0) on the
    wrap-around |s+eta><eta|; the raising operator is its exact adjoint, so
    the wrap-around of the raising operator reuses the bottom-level weight.
    """
    config = frame.config
    if profile.dim != config.dim:
        raise DimensionMismatch(
            f"profile length {profile.dim} does not match dimension {config.dim}"
        )
    dim = config.dim
    corner = np.exp(1j * dim * config.theta0)
    v = frame.number_matrix
    a = OperatorMatrix(v @ cyclic_shift(dim, corner, np.sqrt(profile.values)) @ v.conj().T)
    return LadderOperators(a=a, a_dag=OperatorMatrix(a.entries.conj().T))


def recover_phase_operator(
    a: OperatorMatrix, profile: DeformationProfile, frame: GeneralizedFrame
) -> OperatorMatrix:
    """Divide sqrt(F) out of the lowering operator: A F(q^(N+eta))^(-1/2).

    Requires every weight strictly positive; the result is unitary-certified
    and reproduces the undeformed unitary phase operator regardless of eta
    and of the weight table.
    """
    if a.dim != frame.config.dim or profile.dim != frame.config.dim:
        raise DimensionMismatch("operator, profile, and frame dimensions must agree")
    if not np.all(profile.values > 0.0):
        raise ProfileError(
            "inverse square root refused: profile has a zero weight"
        )
    inv_sqrt = frame.synthesize((profile.values ** -0.5).astype(np.complex128))
    return certify(OperatorMatrix(a.apply(inv_sqrt.entries)), "unitary")


def _number_shift_eigenvalues(frame: GeneralizedFrame) -> np.ndarray:
    """q^-(n+eta) for n = 0..s, the eigenvalues of q^-(N+eta) on |n+eta>."""
    return frame.config.root_power(-(np.arange(frame.config.dim) + frame.eta))


def generalized_number_shift(frame: GeneralizedFrame) -> OperatorMatrix:
    """q^-(N+eta): eigenvalue q^-(n+eta) on |n+eta>, unitary-certified."""
    return certify(frame.synthesize(_number_shift_eigenvalues(frame)), "unitary")


def modified_number_shift(frame: GeneralizedFrame, phases: PhaseFrame) -> OperatorMatrix:
    """Phase-state realization of q^-(N+eta).

    sum_{m=1..s} |theta_{m-1}><theta_m| plus exp(-2*pi*i*eta) on
    |theta_s><theta_0|, taken over the offset-window phase states
    ``phases`` from :func:`offset_phase_frame` of ``frame``. At eta = 0 this
    reduces to the undeformed realization of q^-N.
    """
    pattern = cyclic_shift(frame.config.dim, np.exp(-2j * np.pi * frame.eta))
    p = phases.matrix
    return certify(OperatorMatrix(p @ pattern @ p.conj().T), "unitary")


def cycle_operator_power(frame: GeneralizedFrame, k: int) -> OperatorMatrix:
    """(q^-(N+eta))^k for any k >= 0, synthesized over the offset number states.

    The eigenvalues q^-(n+eta) are raised by repeated multiplication, in the
    binary order :func:`.numerics.mat_power` uses, and one spectral synthesis
    over the certified frame assembles the power; no dense product is taken.
    At k = s+1 the result is exp(-2*pi*i*eta) times the identity.
    """
    dim = frame.config.dim
    _, powered = _binary_power(np.arange(dim), _number_shift_eigenvalues(frame), k)
    return frame.synthesize(powered)


def eta_class(eta: float) -> str:
    """Classify eta as "integer", "half-odd", or "generic" within 1e-9."""
    tol = 1e-9
    eta = float(eta)
    if abs(eta - round(eta)) <= tol:
        return "integer"
    if abs(eta - (round(eta - 0.5) + 0.5)) <= tol:
        return "half-odd"
    return "generic"


def duality_check(
    frame: GeneralizedFrame,
    phases: PhaseFrame,
    qshift: OperatorMatrix,
    phase_op: OperatorMatrix,
) -> list[CheckRecord]:
    """Report fragment for the matched shift laws of exp(iPhi) and q^-(N+eta).

    Checks the down-shift action of q^-(N+eta) on the offset-window phase
    states (wrap-around factor exp(-2*pi*i*eta)), the down-shift action of
    exp(iPhi) on the offset number states (wrap-around factor
    exp(i(s+1)theta_0)), and the two wrap-around phases themselves, which
    exhibit the window/offset symmetry. ``phases`` is
    :func:`offset_phase_frame` of ``frame``, ``qshift`` is q^-(N+eta) from
    :func:`generalized_number_shift` over ``frame`` and ``phase_op`` is the
    explicit exp(iPhi) from :func:`.pegg_barnett.unitary_phase_operator`.
    """
    config = frame.config
    dim = config.dim
    p = phases.matrix
    v = frame.number_matrix
    corner_eta = np.exp(-2j * np.pi * frame.eta)
    corner_theta = np.exp(1j * dim * config.theta0)

    shifted_phase = qshift.apply(p)
    action_dev = max_abs(shifted_phase[:, 1:] - p[:, :-1])
    wrap_dev = max_abs(shifted_phase[:, 0] - corner_eta * p[:, dim - 1])

    shifted_number = phase_op.apply(v)
    phase_action_dev = max_abs(shifted_number[:, 1:] - v[:, :-1])
    phase_wrap_dev = max_abs(shifted_number[:, 0] - corner_theta * v[:, dim - 1])

    corner_theta_measured = complex(
        v[:, dim - 1].conj() @ phase_op.entries @ v[:, 0]
    )
    corner_eta_measured = complex(p[:, dim - 1].conj() @ qshift.entries @ p[:, 0])

    tol = TolerancePolicy.for_dim(dim).tol_elem
    return [
        CheckRecord.measured(
            "modified_shift_action",
            "q^-(N+eta)|theta_m> = |theta_m-1>",
            action_dev,
            tol,
        ),
        CheckRecord.measured(
            "modified_shift_wraparound",
            "q^-(N+eta)|theta_0> = exp(-i 2 pi eta)|theta_s>",
            wrap_dev,
            tol,
        ),
        CheckRecord.measured(
            "unitary_phase_on_generalized_states",
            "exp(iPhi)|n+eta> = |n+eta-1>",
            phase_action_dev,
            tol,
        ),
        CheckRecord.measured(
            "unitary_phase_generalized_wraparound",
            "exp(iPhi)|eta> = exp(i(s+1)theta_0)|s+eta>",
            phase_wrap_dev,
            tol,
        ),
        CheckRecord.measured(
            "corner_phase_phase_operator",
            "wrap-around phase of exp(iPhi) is exp(i(s+1)theta_0)",
            abs(corner_theta_measured - corner_theta),
            tol,
        ),
        CheckRecord.measured(
            "corner_phase_number_shift",
            "wrap-around phase of q^-(N+eta) is exp(-i 2 pi eta)",
            abs(corner_eta_measured - corner_eta),
            tol,
        ),
    ]
