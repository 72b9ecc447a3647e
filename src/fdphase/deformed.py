"""Generally deformed oscillator ladder algebra at q a root of unity.

The deformation is a table of non-negative level weights F_0..F_s. Ladder
operators act cyclically on the offset number states |n+eta>, which are
produced from the usual ones by the continuous phase shift exp(-i eta Phi);
the offset-window phase states are then rebuilt from them by the usual
Fourier sum with exponents n+eta. That constructive order breaks the mutual
definition of the two families and pins concrete coordinates for both.

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
    StateVector,
    TolerancePolicy,
    adjoint,
    certified,
    cyclic_shift,
    frame_deviation,
    mat_power,
    max_abs,
    spectral_synthesize,
)
from .pegg_barnett import PhaseFrame, SpaceConfig, build_phase_frame, unitary_phase_operator
from .report import CheckRecord

__all__ = [
    "ProfileError",
    "DeformationProfile",
    "deformation_linear",
    "profile_from_json",
    "GeneralizedFrame",
    "build_generalized_frame",
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
    """Offset number states |n+eta> and the matching phase states.

    Columns of ``number_matrix`` are the |n+eta> in standard coordinates;
    columns of ``phase_matrix`` are the offset-window phase states. The two
    deviations are the orthonormality deviations max |V^dag V - 1| measured
    when :func:`build_generalized_frame` certified the families; they are
    None for a frame that was never certified.
    """

    config: SpaceConfig
    eta: float
    number_matrix: np.ndarray
    phase_matrix: np.ndarray
    number_deviation: float | None = None
    phase_deviation: float | None = None

    def __post_init__(self) -> None:
        for name in ("number_matrix", "phase_matrix"):
            arr = np.array(getattr(self, name), dtype=np.complex128, copy=True)
            if arr.shape != (self.config.dim, self.config.dim):
                raise DimensionMismatch(
                    f"{name} must be {self.config.dim} x {self.config.dim}"
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "eta", float(self.eta))

    def number_state(self, n: int) -> StateVector:
        return StateVector(self.number_matrix[:, n])

    def phase_state(self, m: int) -> StateVector:
        return StateVector(self.phase_matrix[:, m])

    def to_frame(self, op: OperatorMatrix) -> np.ndarray:
        """Matrix of ``op`` in the offset number basis."""
        v = self.number_matrix
        return v.conj().T @ op.entries @ v

    def operator_from_frame(self, coeffs: np.ndarray) -> OperatorMatrix:
        """Operator whose offset-number-basis matrix is ``coeffs``."""
        v = self.number_matrix
        return OperatorMatrix(v @ np.asarray(coeffs, dtype=np.complex128) @ v.conj().T)

    def synthesize(self, eigvals: np.ndarray) -> OperatorMatrix:
        """sum_n eigvals[n] |n+eta><n+eta| over the certified number states."""
        return spectral_synthesize(
            self.number_matrix, eigvals, deviation=self.number_deviation
        )


def build_generalized_frame(
    config: SpaceConfig,
    eta: float,
    policy: TolerancePolicy | None = None,
    base: PhaseFrame | None = None,
) -> GeneralizedFrame:
    """Construct |n+eta> = exp(-i eta Phi)|n> and the offset phase states.

    ``exp(-i eta Phi)`` is synthesized over the phase frame ``base``, which
    is built here when not given. Both families are certified orthonormal,
    once each, before the frame is returned.
    """
    eta = float(eta)
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    dim = config.dim
    policy = policy or TolerancePolicy.for_dim(dim)
    if base is None:
        base = build_phase_frame(config, policy)
    elif base.config.dim != dim or base.config.theta0 != config.theta0:
        raise DimensionMismatch("base phase frame was built for a different space")
    thetas = config.thetas()
    shift = spectral_synthesize(
        base.matrix, np.exp(-1j * eta * thetas), policy, base.deviation
    )
    number_matrix = np.array(shift.entries)  # column n is exp(-i eta Phi)|n>
    coeff = np.exp(1j * np.outer(np.arange(dim) + eta, thetas)) / math.sqrt(dim)
    phase_matrix = number_matrix @ coeff
    return GeneralizedFrame(
        config=config,
        eta=eta,
        number_matrix=number_matrix,
        phase_matrix=phase_matrix,
        number_deviation=frame_deviation(number_matrix, policy),
        phase_deviation=frame_deviation(phase_matrix, policy),
    )


@dataclass(frozen=True, eq=False)
class LadderOperators:
    """Lowering/raising pair and the offset number-power operator."""

    a: OperatorMatrix
    a_dag: OperatorMatrix
    q_number: OperatorMatrix


def _frame_for(
    config: SpaceConfig, eta: float, frame: GeneralizedFrame | None
) -> GeneralizedFrame:
    if frame is None:
        return build_generalized_frame(config, eta)
    if frame.config is not config and (
        frame.config.dim != config.dim or frame.config.theta0 != config.theta0
    ):
        raise DimensionMismatch("frame was built for a different space")
    if frame.eta != float(eta):
        raise ValueError(
            f"frame was built for eta = {frame.eta}, not eta = {float(eta)}"
        )
    return frame


def build_ladder_operators(
    config: SpaceConfig,
    eta: float,
    profile: DeformationProfile,
    frame: GeneralizedFrame | None = None,
) -> LadderOperators:
    """Ladder operators over the offset number states.

    In frame coordinates the lowering operator carries sqrt(F_n) on
    |n+eta-1><n+eta| for n = 1..s and sqrt(F_0) exp(i(s+1)theta_0) on the
    wrap-around |s+eta><eta|; the raising operator is its exact adjoint, so
    the wrap-around of the raising operator reuses the bottom-level weight.
    q_number carries eigenvalue q^(n+eta) on |n+eta>.
    """
    if profile.dim != config.dim:
        raise DimensionMismatch(
            f"profile length {profile.dim} does not match dimension {config.dim}"
        )
    frame = _frame_for(config, eta, frame)
    dim = config.dim
    corner = np.exp(1j * dim * config.theta0)
    a = frame.operator_from_frame(cyclic_shift(dim, corner, np.sqrt(profile.values)))
    q_number = certified(
        frame.synthesize(config.root_power(np.arange(dim) + frame.eta)), "unitary"
    )
    return LadderOperators(a=a, a_dag=adjoint(a), q_number=q_number)


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
    return certified(OperatorMatrix(a.entries @ inv_sqrt.entries), "unitary")


def generalized_number_shift(frame: GeneralizedFrame, sign: str = "-") -> OperatorMatrix:
    """q^{sign (N+eta)}: eigenvalue q^{sign (n+eta)} on |n+eta>."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    exponents = np.arange(frame.config.dim) + frame.eta
    if sign == "-":
        exponents = -exponents
    return certified(frame.synthesize(frame.config.root_power(exponents)), "unitary")


def modified_number_shift(
    config: SpaceConfig, eta: float, frame: GeneralizedFrame | None = None
) -> OperatorMatrix:
    """Phase-state realization of q^-(N+eta).

    sum_{m=1..s} |theta_{m-1}><theta_m| plus exp(-2*pi*i*eta) on
    |theta_s><theta_0|, taken over the offset-window phase states. At
    eta = 0 this reduces to the undeformed realization of q^-N.
    """
    frame = _frame_for(config, eta, frame)
    pattern = cyclic_shift(config.dim, np.exp(-2j * np.pi * frame.eta))
    p = frame.phase_matrix
    return certified(OperatorMatrix(p @ pattern @ p.conj().T), "unitary")


def cycle_operator_power(
    config: SpaceConfig, eta: float, k: int, frame: GeneralizedFrame | None = None
) -> OperatorMatrix:
    """(q^-(N+eta))^k by explicit repeated multiplication.

    At k = s+1 the result is exp(-2*pi*i*eta) times the identity. The
    offset frame is built only when ``frame`` is not given.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"power must be a positive integer, got {k!r}")
    frame = _frame_for(config, eta, frame)
    return mat_power(generalized_number_shift(frame, "-"), int(k))


def eta_class(eta: float, tol: float = 1e-9) -> str:
    """Classify eta as "integer", "half-odd", or "generic" within tol."""
    eta = float(eta)
    if abs(eta - round(eta)) <= tol:
        return "integer"
    if abs(eta - (round(eta - 0.5) + 0.5)) <= tol:
        return "half-odd"
    return "generic"


def duality_check(
    config: SpaceConfig,
    eta: float,
    policy: TolerancePolicy | None = None,
    frame: GeneralizedFrame | None = None,
    qshift: OperatorMatrix | None = None,
    phase_op: OperatorMatrix | None = None,
) -> list[CheckRecord]:
    """Report fragment for the matched shift laws of exp(iPhi) and q^-(N+eta).

    Checks the down-shift action of q^-(N+eta) on the offset-window phase
    states (wrap-around factor exp(-2*pi*i*eta)), the down-shift action of
    exp(iPhi) on the offset number states (wrap-around factor
    exp(i(s+1)theta_0)), and the two wrap-around phases themselves, which
    exhibit the window/offset symmetry. ``qshift`` (q^-(N+eta) synthesized
    over ``frame``) and ``phase_op`` (the explicit exp(iPhi)) are built here
    when not given.
    """
    frame = _frame_for(config, eta, frame)
    policy = policy or TolerancePolicy.for_dim(config.dim)
    dim = config.dim
    if qshift is None:
        qshift = generalized_number_shift(frame, "-")
    if phase_op is None:
        phase_op = unitary_phase_operator(config)
    p = frame.phase_matrix
    v = frame.number_matrix
    corner_eta = np.exp(-2j * np.pi * frame.eta)
    corner_theta = np.exp(1j * dim * config.theta0)

    shifted_phase = qshift.entries @ p
    action_dev = max_abs(shifted_phase[:, 1:] - p[:, :-1])
    wrap_dev = max_abs(shifted_phase[:, 0] - corner_eta * p[:, dim - 1])

    shifted_number = phase_op.entries @ v
    phase_action_dev = max_abs(shifted_number[:, 1:] - v[:, :-1])
    phase_wrap_dev = max_abs(shifted_number[:, 0] - corner_theta * v[:, dim - 1])

    corner_theta_measured = complex(
        v[:, dim - 1].conj() @ phase_op.entries @ v[:, 0]
    )
    corner_eta_measured = complex(p[:, dim - 1].conj() @ qshift.entries @ p[:, 0])

    tol = policy.tol_elem
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
