"""Generally deformed oscillator ladder algebra at q a root of unity.

The deformation is a table of non-negative level weights F_0..F_s. Ladder
operators act cyclically on the offset number states |n+eta>, which are
produced from the usual ones by the continuous phase shift exp(-i eta Phi);
the offset-window phase states are then rebuilt from them by the usual
Fourier sum with exponents n+eta. That constructive order breaks the mutual
definition of the two families and pins concrete coordinates for both.
Both families are :class:`.pegg_barnett.Frame` objects, bases certified
unitary, with offset eta: :func:`build_generalized_frame` builds the offset
number states over a certified phase frame, and :func:`offset_phase_frame`
builds the offset phase states from them, only where they are read. Every
builder below takes the frame it uses as a required argument and reads the
space and eta from it; operators act through
:meth:`.numerics.OperatorMatrix.apply`.

Dividing the square-rooted weight back out of the lowering operator
recovers the undeformed unitary phase operator for every admissible eta and
weight table, while the offset number-power operator q^-(N+eta) picks up
the per-cycle factor exp(-2*pi*i*eta): integer eta leaves states unchanged
after a full cycle, half-odd eta flips their sign.

This module builds the frames, operators and powers only; the checks that
compare them live in :mod:`.suites`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DimensionMismatch,
    OperatorMatrix,
    _binary_power,
    _refuse_phase_rounding,
    certify,
    cyclic_shift,
    spectral_synthesize,
)
from .pegg_barnett import Frame, SpaceConfig

__all__ = [
    "ProfileError",
    "DeformationProfile",
    "deformation_linear",
    "profile_from_json",
    "build_generalized_frame",
    "offset_phase_coefficients",
    "offset_phase_frame",
    "build_lowering_operator",
    "recover_phase_operator",
    "generalized_number_shift",
    "modified_number_shift",
    "cycle_operator_power",
]

class ProfileError(ValueError):
    """Deformation weight table violates positivity or the cyclic condition."""


@dataclass(frozen=True, eq=False)
class DeformationProfile:
    """Level weights F_0..F_s; all non-negative with F_0 > 0 (cyclic)."""

    values: np.ndarray

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
    return DeformationProfile(values=values)


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
    try:
        return DeformationProfile(values=np.asarray(data, dtype=np.float64))
    except OverflowError:  # a JSON integer beyond the float range
        raise ProfileError("profile weights must be finite") from None


def build_generalized_frame(base: Frame, eta: float) -> Frame:
    """The offset number states |n+eta> = exp(-i eta Phi)|n>, certified once.

    ``exp(-i eta Phi)`` is synthesized over the phase frame ``base``, whose
    space the offset frame shares; its column n is |n+eta>. Its phases
    eta theta_m, and the phases 2 pi (n+eta)/d of q^-(N+eta) over it, round
    by at most eps (|eta theta0| + 2 pi |eta|) and 2 pi eps (|eta| + 1):
    within the bound of the offset phase coefficients (see
    :meth:`.numerics.OperatorMatrix.fourier`) up to 2 pi eps < 1.4e-15. An
    eta for which that bound exceeds ``tol_op`` (at least 1e-11), or is not
    finite, is refused by name before the frame is formed: an imprecise
    frame is still unitary, so its certification would pass.
    """
    eta = float(eta)
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    config = base.config
    _refuse_phase_rounding(config.dim, config.theta0, eta)
    shift = spectral_synthesize(base.basis, np.exp(-1j * eta * config.thetas()))
    return Frame(config=config, eta=eta, basis=shift)


def offset_phase_coefficients(frame: Frame) -> OperatorMatrix:
    """exp(i(n+eta)theta_m)/sqrt(s+1) at (n, m): |theta_m> over the states of ``frame``.

    Held as the unitary DFT between the diagonals exp(i(n+eta)theta_0) and
    exp(2 pi i eta m/(s+1)), so that it acts by FFT, and certified unitary
    on its closed form at exact turns. An eta or theta0 whose phases round
    past the dimension's ``tol_op`` is refused by name when it is built.
    """
    coeff = OperatorMatrix.fourier(frame.config.dim, frame.config.theta0, frame.eta)
    return certify(coeff)


def offset_phase_frame(frame: Frame, coeff: OperatorMatrix) -> Frame:
    """The offset-window phase states, certified orthonormal once.

    Column m is sum_n coeff[n, m] |n+eta>, the Fourier sum over the offset
    number states of ``frame`` with ``coeff = offset_phase_coefficients(frame)``.
    """
    basis = OperatorMatrix.product(frame.basis, coeff)
    return Frame(config=frame.config, eta=frame.eta, basis=basis)


def build_lowering_operator(frame: Frame, profile: DeformationProfile) -> OperatorMatrix:
    """The lowering operator A over the offset number states.

    In frame coordinates A carries sqrt(F_n) on |n+eta-1><n+eta| for
    n = 1..s and sqrt(F_0) exp(i(s+1)theta_0) on the wrap-around
    |s+eta><eta|. The raising operator is its exact adjoint ``A.adjoint()``,
    so its wrap-around reuses the bottom-level weight.
    """
    config = frame.config
    if profile.dim != config.dim:
        raise DimensionMismatch(
            f"profile length {profile.dim} does not match dimension {config.dim}"
        )
    corner = np.exp(1j * config.dim * config.theta0)
    shift = cyclic_shift(config.dim, corner, np.sqrt(profile.values))
    return OperatorMatrix.product(frame.basis, shift, frame.basis.adjoint())


def recover_phase_operator(
    a: OperatorMatrix, profile: DeformationProfile, frame: Frame
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
    inv_sqrt = spectral_synthesize(frame.basis, (profile.values ** -0.5).astype(np.complex128))
    return certify(OperatorMatrix.product(a, inv_sqrt))


def _number_shift_eigenvalues(frame: Frame) -> np.ndarray:
    """q^-(n+eta) for n = 0..s, the eigenvalues of q^-(N+eta) on |n+eta>."""
    return frame.config.root_power(-(np.arange(frame.config.dim) + frame.eta))


def generalized_number_shift(frame: Frame) -> OperatorMatrix:
    """q^-(N+eta): eigenvalue q^-(n+eta) on |n+eta>, unitary-certified."""
    return certify(spectral_synthesize(frame.basis, _number_shift_eigenvalues(frame)))


def modified_number_shift(frame: Frame, phases: Frame) -> OperatorMatrix:
    """Phase-state realization of q^-(N+eta).

    sum_{m=1..s} |theta_{m-1}><theta_m| plus exp(-2*pi*i*eta) on
    |theta_s><theta_0|, taken over the offset-window phase states
    ``phases`` from :func:`offset_phase_frame` of ``frame``. At eta = 0 this
    reduces to the undeformed realization of q^-N.
    """
    pattern = cyclic_shift(frame.config.dim, np.exp(-2j * np.pi * frame.eta))
    p = phases.basis
    return certify(OperatorMatrix.product(p, pattern, p.adjoint()))


def cycle_operator_power(frame: Frame, k: int) -> OperatorMatrix:
    """(q^-(N+eta))^k for any k >= 0, synthesized over the offset number states.

    The eigenvalues q^-(n+eta) are raised by repeated multiplication, in the
    binary order :func:`.numerics.mat_power` uses, and one spectral synthesis
    over the certified frame assembles the power; no dense product is taken.
    At k = s+1 the result is exp(-2*pi*i*eta) times the identity.
    """
    dim = frame.config.dim
    _, powered = _binary_power(np.arange(dim), _number_shift_eigenvalues(frame), k)
    return spectral_synthesize(frame.basis, powered)
