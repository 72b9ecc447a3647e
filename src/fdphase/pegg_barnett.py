"""Pegg-Barnett phase bases and shift operators on a finite space.

The phase states are discrete-Fourier superpositions of the number states
over a 2*pi window anchored at theta_0. The hermitian phase operator is
their real-weighted projector sum, the unitary phase operator steps number
states down cyclically, and the number-power operator q^-N steps phase
states down cyclically; the window origin shows up only in the wrap-around
entry exp(i(s+1)theta_0) of the unitary phase operator. A :class:`Frame`
is an orthonormal basis held as an operator certified "unitary"; the phase
frame is built and certified once, by :func:`build_phase_frame`, and the
spectral builders take it and read the space from it.

The hermitian phase operator over the phase frame is Toeplitz: its entry
(n, n') is exp(i(n-n')theta_0) c[(n-n') mod (s+1)], with c the inverse DFT
of the angles theta_m, so one length-(s+1) FFT gives all 2s+1 of its
values and its d x d entries are never formed. The phase/number commutator
is exposed through three routes, each as its 2s+1 Toeplitz values: the
direct route from the values of Phi (N is diagonal, so entry (n, n') is
(n'-n) Phi_{nn'}), a closed form derived from the phase-state expansion,
and a commonly quoted double-sum kernel. The first two agree to rounding
for every window; the kernel form differs from them by a unit-modulus
factor per element and is kept for flagged comparison, not as ground truth.
:func:`_toeplitz` gathers a d x d matrix from its values.
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
    max_abs,
    spectral_synthesize,
    within_tol_op,
)

__all__ = [
    "SpaceConfig",
    "Frame",
    "build_phase_frame",
    "hermitian_phase_operator",
    "unitary_phase_operator",
    "unitary_phase_from_spectrum",
    "number_shift_operator",
    "commutator_direct",
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
class Frame:
    """An orthonormal basis of the space: the columns of a unitary operator.

    ``basis`` is certified "unitary" on construction, so the frame's
    orthonormality deviation is ``basis.deviations["unitary"]``. ``eta`` is
    0 for the phase states and the offset for the offset number and phase states.
    """

    config: SpaceConfig
    eta: float
    basis: OperatorMatrix

    def __post_init__(self) -> None:
        if self.basis.dim != self.config.dim:
            raise DimensionMismatch(
                f"basis of dimension {self.basis.dim} for a space of dimension {self.config.dim}"
            )
        object.__setattr__(self, "basis", certify(self.basis, "unitary"))


def build_phase_frame(config: SpaceConfig) -> Frame:
    """Build the phase states, certifying the frame orthonormal once.

    Column m is |theta_m>, with exp(i n theta_m)/sqrt(s+1) on |n>: the
    unitary DFT between the diagonal exp(i n theta_0) and the identity, held
    as those factors so that it acts by FFT.
    """
    basis = OperatorMatrix.fourier(config.dim, config.theta0, 0.0)
    return Frame(config=config, eta=0.0, basis=basis)


def _offsets(dim: int) -> np.ndarray:
    """n - n' for the 2s+1 Toeplitz values, value j being the entry at n - n' = j - s."""
    return np.arange(1 - dim, dim)


def hermitian_phase_operator(frame: Frame) -> tuple[np.ndarray, float]:
    """Phase operator sum_m theta_m |theta_m><theta_m| over the phase frame, as Toeplitz values.

    ``frame`` is the certified phase frame, whose construction refuses the
    window origins whose phases round past ``tol_op``. Returns the read-only
    2s+1 values of Phi and its hermiticity deviation.
    Value j is the entry at n - n' = k = j - s, exp(i k theta_0) c[k mod
    (s+1)] with c the inverse DFT of the angles theta_m, one FFT in all.
    The deviation max_k |t_-k - conj t_k| is the maximum of |Phi - Phi^dag|
    over every entry, bit for bit; it is measured once and refused above
    the dimension's ``tol_op`` as :func:`.numerics.certify` refuses.
    """
    config = frame.config
    offsets = _offsets(config.dim)
    symbol = np.fft.ifft(config.thetas())
    values = np.exp(1j * offsets * config.theta0) * symbol[offsets % config.dim]
    deviation = within_tol_op("hermitian", max_abs(values - values[::-1].conj()), config.dim)
    values.setflags(write=False)
    return values, deviation


def unitary_phase_operator(config: SpaceConfig) -> OperatorMatrix:
    """The explicit cyclic down-shift on number states.

    Ones on |n-1><n| for n = 1..s plus the wrap-around entry
    exp(i(s+1)theta_0) on |s><0|; unitary-certified.
    """
    corner = np.exp(1j * config.dim * config.theta0)
    return certify(cyclic_shift(config.dim, corner), "unitary")


def unitary_phase_from_spectrum(frame: Frame) -> OperatorMatrix:
    """sum_m exp(i theta_m)|theta_m><theta_m|, the spectral route to exp(iPhi)."""
    eigvals = np.exp(1j * frame.config.thetas())
    return certify(spectral_synthesize(frame.basis, eigvals), "unitary")


def number_shift_operator(config: SpaceConfig) -> OperatorMatrix:
    """q^-N = diag(q^-n), the phase-state down-shift; unitary-certified."""
    levels = np.arange(config.dim)
    return certify(OperatorMatrix.monomial(levels, config.root_power(-levels)), "unitary")


def commutator_direct(phi: np.ndarray) -> np.ndarray:
    """[Phi, N] from the Toeplitz values of Phi, as Toeplitz values.

    N is diagonal, so entry (n, n') is (n' - n) Phi_{nn'}: value j is
    -k times Phi's value j, at n - n' = k = j - s.
    """
    return -_offsets((phi.size + 1) // 2) * phi


def _toeplitz(values: np.ndarray) -> np.ndarray:
    """The d x d matrix whose entry (row, col) is ``values[row - col + d - 1]``."""
    levels = np.arange((values.size + 1) // 2)
    return values[levels[:, None] - levels[None, :] + levels.size - 1]


def commutator_closed_form(config: SpaceConfig) -> np.ndarray:
    """Closed form of [Phi, N] derived from the phase-state expansion, as Toeplitz values.

    Element (n, n') for n != n' is
    (2*pi/(s+1)) (n'-n) exp(i(n-n')theta_0) / (exp(2*pi*i(n-n')/(s+1)) - 1)
    with zero diagonal. This agrees with the direct commutator for every
    window origin and dimension. Value k is the element at n - n' = k - s,
    so that :func:`_toeplitz` gathers the d x d matrix.

    The denominator is taken at the turns j = n - n' reduced mod s+1 into
    [-(s+1)/2, (s+1)/2] in integers, as 2i sin(pi j/(s+1)) exp(i pi j/(s+1)).
    Evaluated as written, exp(2*pi*i(n-n')/(s+1)) - 1 is small near
    n - n' = +-s and magnifies the rounding of its argument: about 1e-9 at
    s+1 = 4096, against 7e-13 with the reduced turns.
    """
    dim = config.dim
    delta = _offsets(dim)  # n - n'
    values = np.zeros(delta.size, dtype=np.complex128)
    off = delta != 0
    half_turns = np.pi * ((delta[off] + dim // 2) % dim - dim // 2) / dim
    denom = 2j * np.sin(half_turns) * np.exp(1j * half_turns)
    values[off] = (
        (TWO_PI / dim)
        * (-delta[off])
        * np.exp(1j * delta[off] * config.theta0)
        / denom
    )
    return values


def commutator_double_sum(config: SpaceConfig) -> np.ndarray:
    """The commonly quoted double-sum kernel for [Phi, N], taken verbatim, as Toeplitz values.

    Sums (2*pi/(s+1)) (n'-n)|n'><n| / (exp(2*pi*i(n-n')/(s+1)) - 1) over all
    pairs n != n' in 0..s; the single-level space has no such pair and gives
    zero. Value k is the element at n' - n = k - s. The result carries no
    window dependence and differs from :func:`commutator_closed_form` by a
    unit-modulus factor per element, so it is reported as a flagged
    deviation rather than asserted.
    """
    dim = config.dim
    delta = np.arange(1 - dim, dim)  # n' - n
    off = delta != 0
    # Bit for bit the verbatim double loop: the exponent's imaginary part is
    # the real (2*pi*k)/dim, the value the scalar 2j*pi*k/dim takes (a
    # complex/real array division multiplies by a reciprocal and rounds
    # differently), and the terms are added onto zeros as the loop did.
    k = -delta[off]  # n - n'
    values = np.zeros(delta.size, dtype=np.complex128)
    values[off] += delta[off] / (np.exp(1j * ((2 * np.pi * k) / dim)) - 1.0)
    return values * (TWO_PI / dim)
