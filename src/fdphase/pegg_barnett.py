"""Pegg-Barnett phase bases and shift operators on a finite space.

The phase states are discrete-Fourier superpositions of the number states
over a 2*pi window anchored at theta_0. The hermitian phase operator is
their real-weighted projector sum, the unitary phase operator steps number
states down cyclically, and the number-power operator q^-N steps phase
states down cyclically; the window origin shows up only in the wrap-around
entry exp(i(s+1)theta_0) of the unitary phase operator. The phase frame is
built and certified orthonormal once, by :func:`build_phase_frame`; the
spectral builders take that frame and read the space from it.

The phase/number commutator is exposed through three routes: the direct
matrix product, a closed form derived from the phase-state expansion, and a
commonly quoted double-sum kernel. The first two agree to rounding for
every window; the kernel form differs from them by a unit-modulus factor
per element and is kept for flagged comparison, not as ground truth.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import (
    TWO_PI,
    DimensionMismatch,
    OperatorMatrix,
    certify,
    cyclic_shift,
    frame_deviation,
    spectral_synthesize,
)

__all__ = [
    "SpaceConfig",
    "PhaseFrame",
    "build_phase_frame",
    "number_operator",
    "hermitian_phase_operator",
    "unitary_phase_operator",
    "unitary_phase_from_spectrum",
    "number_shift_operator",
    "commutator",
    "commutator_closed_form",
    "commutator_double_sum",
]


@dataclass(frozen=True, eq=False)
class SpaceConfig:
    """Finite Hilbert space of dimension s+1 with phase window origin theta0.

    The deformation parameter q = exp(2*pi*i/(s+1)) is the primitive root
    of unity inherent to the space, and the admissible phase angles are
    theta_m = theta0 + 2*pi*m/(s+1) for m = 0..s. The corner phase
    exp(i(s+1)theta_0) needs (s+1)*theta0 finite, so larger |theta0| are
    refused.
    """

    s: int
    theta0: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.s, bool) or not isinstance(self.s, (int, np.integer)):
            raise ValueError(f"top level index s must be an integer, got {self.s!r}")
        if self.s < 0:
            raise ValueError(f"top level index s must be non-negative, got {self.s}")
        object.__setattr__(self, "s", int(self.s))
        theta0 = float(self.theta0)
        if not math.isfinite(theta0):
            raise ValueError("theta0 must be finite")
        if not math.isfinite((self.s + 1) * theta0):
            raise ValueError(
                f"theta0 = {theta0!r} is out of range: (s+1)*theta0 must be finite, "
                f"so |theta0| must stay below {sys.float_info.max / (self.s + 1):.3e} "
                f"at dimension {self.s + 1}"
            )
        object.__setattr__(self, "theta0", theta0)

    @classmethod
    def from_dim(cls, dim: int, theta0: float = 0.0) -> "SpaceConfig":
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        return cls(s=int(dim) - 1, theta0=theta0)

    @property
    def dim(self) -> int:
        return self.s + 1

    @property
    def q(self) -> complex:
        """Primitive (s+1)-th root of unity exp(2*pi*i/(s+1))."""
        return complex(np.exp(2j * np.pi / self.dim))

    def root_power(self, exponent):
        """q**exponent on the principal branch exp(2*pi*i*exponent/(s+1))."""
        return np.exp(2j * np.pi * np.asarray(exponent, dtype=float) / self.dim)

    def thetas(self) -> np.ndarray:
        """All phase angles theta_m = theta0 + 2*pi*m/(s+1), m = 0..s."""
        return self.theta0 + TWO_PI * np.arange(self.dim) / self.dim


@dataclass(frozen=True, eq=False)
class PhaseFrame:
    """The orthonormal phase states as columns of a dim x dim matrix.

    ``deviation`` is the orthonormality deviation max |V^dag V - 1| measured
    when :func:`build_phase_frame` certified the frame.
    """

    config: SpaceConfig
    matrix: np.ndarray
    deviation: float

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=np.complex128, copy=True)
        if arr.shape != (self.config.dim, self.config.dim):
            raise DimensionMismatch(
                f"frame matrix must be {self.config.dim} x {self.config.dim}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


def build_phase_frame(config: SpaceConfig) -> PhaseFrame:
    """Build the phase states, certifying the frame orthonormal once."""
    dim = config.dim
    matrix = np.exp(1j * np.outer(np.arange(dim), config.thetas())) / math.sqrt(dim)
    return PhaseFrame(config=config, matrix=matrix, deviation=frame_deviation(matrix))


def number_operator(config: SpaceConfig) -> OperatorMatrix:
    """diag(0, 1, ..., s)."""
    return OperatorMatrix(np.diag(np.arange(config.dim, dtype=np.complex128)))


def hermitian_phase_operator(frame: PhaseFrame) -> OperatorMatrix:
    """Phase operator sum_m theta_m |theta_m><theta_m|, hermitian-certified."""
    thetas = frame.config.thetas().astype(np.complex128)
    return certify(spectral_synthesize(frame.matrix, thetas, frame.deviation), "hermitian")


def unitary_phase_operator(config: SpaceConfig) -> OperatorMatrix:
    """The explicit cyclic down-shift on number states.

    Ones on |n-1><n| for n = 1..s plus the wrap-around entry
    exp(i(s+1)theta_0) on |s><0|; unitary-certified.
    """
    corner = np.exp(1j * config.dim * config.theta0)
    return certify(OperatorMatrix(cyclic_shift(config.dim, corner)), "unitary")


def unitary_phase_from_spectrum(frame: PhaseFrame) -> OperatorMatrix:
    """sum_m exp(i theta_m)|theta_m><theta_m|, the spectral route to exp(iPhi)."""
    eigvals = np.exp(1j * frame.config.thetas())
    return certify(spectral_synthesize(frame.matrix, eigvals, frame.deviation), "unitary")


def number_shift_operator(config: SpaceConfig) -> OperatorMatrix:
    """q^-N = diag(q^-n), the phase-state down-shift; unitary-certified."""
    op = OperatorMatrix(np.diag(config.root_power(-np.arange(config.dim))))
    return certify(op, "unitary")


def commutator(ml: OperatorMatrix, mr: OperatorMatrix) -> OperatorMatrix:
    """Ml Mr - Mr Ml."""
    return OperatorMatrix(ml.apply(mr.entries) - mr.apply(ml.entries))


def commutator_closed_form(config: SpaceConfig) -> OperatorMatrix:
    """Closed form of [Phi, N] derived from the phase-state expansion.

    Element (n, n') for n != n' is
    (2*pi/(s+1)) (n'-n) exp(i(n-n')theta_0) / (exp(2*pi*i(n-n')/(s+1)) - 1)
    with zero diagonal. This agrees with the direct commutator for every
    window origin and dimension.
    """
    dim = config.dim
    levels = np.arange(dim)
    delta = levels[:, None] - levels[None, :]  # n - n'
    entries = np.zeros((dim, dim), dtype=np.complex128)
    off = delta != 0
    denom = np.exp(2j * np.pi * delta[off] / dim) - 1.0
    entries[off] = (
        (TWO_PI / dim)
        * (-delta[off])
        * np.exp(1j * delta[off] * config.theta0)
        / denom
    )
    return OperatorMatrix(entries)


def commutator_double_sum(config: SpaceConfig) -> OperatorMatrix:
    """The commonly quoted double-sum kernel for [Phi, N], taken verbatim.

    Sums (2*pi/(s+1)) (n'-n)|n'><n| / (exp(2*pi*i(n-n')/(s+1)) - 1) over all
    pairs n != n' in 0..s; the single-level space has no such pair and gives
    the zero matrix. The result carries no window dependence and differs
    from :func:`commutator_closed_form` by a unit-modulus factor per
    element, so it is reported as a flagged deviation rather than asserted.
    """
    dim = config.dim
    levels = np.arange(dim)
    n_prime, n = levels[:, None], levels[None, :]  # entry (n', n)
    off = n_prime != n
    # Bit for bit the verbatim double loop: the exponent's imaginary part is
    # the real (2*pi*k)/dim, the value the scalar 2j*pi*k/dim takes (a
    # complex/real array division multiplies by a reciprocal and rounds
    # differently), and the terms are added onto zeros as the loop did.
    k = (n - n_prime)[off]
    entries = np.zeros((dim, dim), dtype=np.complex128)
    entries[off] += (n_prime - n)[off] / (np.exp(1j * ((2 * np.pi * k) / dim)) - 1.0)
    return OperatorMatrix(entries * (TWO_PI / dim))
