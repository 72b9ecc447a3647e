"""Cyclic time evolution of the oscillator truncated to s+1 levels.

The truncated oscillator keeps the equally spaced lower levels but shifts
the top level up by (s+1)/2 quanta. Over one period T = 2*pi/omega each
level below the top picks up the factor -1 while the top level picks up
(-1)^s, so one cycle flips the sign of every state exactly when the
dimension is even; odd dimensions return mixed per-level phases and no
global factor. Each level's one-cycle factor coincides with the factor
exp(-2*pi*i(n+eta)) of the deformed shift route once eta is read off the
sector map (1/2 below the top, 1/2 + (s+1)/2 at the top). The checks on one
period take U(2*pi/omega), built once by :func:`time_evolution`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    TWO_PI,
    OperatorMatrix,
    TolerancePolicy,
    certified,
    max_abs,
)
from .pegg_barnett import SpaceConfig
from .report import CheckRecord

__all__ = [
    "OscillatorSpectrum",
    "oscillator_spectrum",
    "hamiltonian",
    "time_evolution",
    "cycle_phase_per_level",
    "CycleClassification",
    "CycleOutcome",
    "classify_cycle",
    "eta_sector_map",
    "compare_shift_vs_evolution",
]


@dataclass(frozen=True, eq=False)
class OscillatorSpectrum:
    """Energies E_n = omega(n + 1/2 + (s+1)/2 delta_ns); strictly increasing."""

    config: SpaceConfig
    omega: float
    energies: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.energies, dtype=np.float64, copy=True)
        if arr.shape != (self.config.dim,):
            raise ValueError("one energy per level is required")
        if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
            raise ValueError("energies must be strictly increasing")
        top_shift = arr[-1] - (self.config.s + 0.5) * self.omega
        slack = 1e-12 * max(1.0, abs(arr[-1]))  # rounding slack on an exact identity
        if abs(top_shift - self.config.dim / 2.0 * self.omega) > slack:
            raise ValueError("top level must sit (s+1)/2 quanta above the ladder")
        arr.setflags(write=False)
        object.__setattr__(self, "energies", arr)
        object.__setattr__(self, "omega", float(self.omega))


def oscillator_spectrum(config: SpaceConfig, omega: float = 1.0) -> OscillatorSpectrum:
    omega = float(omega)
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be a positive real, got {omega!r}")
    levels = np.arange(config.dim, dtype=np.float64)
    energies = omega * (levels + 0.5)
    energies[-1] += omega * config.dim / 2.0  # at dim 1 the only level is the top
    return OscillatorSpectrum(config=config, omega=omega, energies=energies)


def hamiltonian(config: SpaceConfig, omega: float = 1.0) -> OperatorMatrix:
    spectrum = oscillator_spectrum(config, omega)
    return OperatorMatrix(
        np.diag(spectrum.energies.astype(np.complex128)),
        tags={"hermitian", "diagonal"},
    )


def time_evolution(config: SpaceConfig, omega: float = 1.0, t: float = 0.0) -> OperatorMatrix:
    """U(t) = diag(exp(-i E_n t)), unitary-certified."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    spectrum = oscillator_spectrum(config, omega)
    op = OperatorMatrix(np.diag(np.exp(-1j * spectrum.energies * t)))
    return certified(certified(op, "diagonal"), "unitary")


def cycle_phase_per_level(config: SpaceConfig) -> np.ndarray:
    """Closed-form one-period factors exp(-2*pi*i(n + 1/2 + (s+1)/2 delta_ns))."""
    exponents = np.arange(config.dim, dtype=np.float64) + 0.5
    exponents[-1] += config.dim / 2.0
    return np.exp(-2j * np.pi * exponents)


class CycleClassification(enum.Enum):
    GLOBAL_SIGN_FLIP = "GlobalSignFlip"
    IDENTITY = "Identity"
    MIXED_PHASES = "MixedPhases"


@dataclass(frozen=True)
class CycleOutcome:
    """How one full period acts: global factor, or mixed per-level phases."""

    classification: CycleClassification
    per_level_phase: tuple
    global_phase: float | None


def classify_cycle(config: SpaceConfig, u: OperatorMatrix) -> CycleOutcome:
    """Classify U(2*pi/omega) by testing its columns up to one shared phase.

    ``u`` is U(2*pi/omega) from :func:`time_evolution`. Column n keeps |n> up
    to a phase when the overlap <n|U|n> = u[n, n] carries the column's whole
    norm; all columns are tested at once.
    """
    tol = TolerancePolicy.for_dim(config.dim).tol_op
    diag = np.diag(u.entries)
    per_level = tuple(complex(z) for z in diag)
    if np.any(np.abs(diag) < np.linalg.norm(u.entries, axis=0) * (1.0 - tol)):
        return CycleOutcome(CycleClassification.MIXED_PHASES, per_level, None)
    phases = np.angle(diag) % TWO_PI
    factors = np.exp(1j * phases)
    if max_abs(factors - factors[0]) > tol:
        return CycleOutcome(CycleClassification.MIXED_PHASES, per_level, None)

    global_phase = float(phases[0])
    if abs(factors[0] + 1.0) <= tol:
        kind = CycleClassification.GLOBAL_SIGN_FLIP
    elif abs(factors[0] - 1.0) <= tol:
        kind = CycleClassification.IDENTITY
    else:
        kind = CycleClassification.MIXED_PHASES
    return CycleOutcome(kind, per_level, global_phase)


def eta_sector_map(config: SpaceConfig) -> np.ndarray:
    """Per-level offset reproducing the one-cycle factors: 1/2 below the top,
    1/2 + (s+1)/2 at the top."""
    etas = np.full(config.dim, 0.5)
    etas[-1] += config.dim / 2.0
    return etas


def compare_shift_vs_evolution(config: SpaceConfig, u: OperatorMatrix) -> list[CheckRecord]:
    """Report fragment matching exp(-2*pi*i(n+eta_n)) to the U(T) diagonal.

    The second record checks the uniform eta = 1/2 prediction on every
    level below the top, the part that survives as the space grows. ``u``
    is U(T) from :func:`time_evolution`; the per-entry tolerance is pinned
    at 1e-9 for this comparison.
    """
    diag_u = np.diag(u.entries)
    levels = np.arange(config.dim)
    sector = np.exp(-2j * np.pi * (levels + eta_sector_map(config)))
    sector_dev = max_abs(diag_u - sector)
    uniform = np.exp(-2j * np.pi * (levels[:-1] + 0.5)) if config.dim > 1 else np.zeros(0)
    uniform_dev = max_abs(diag_u[:-1] - uniform)
    tol = 1e-9
    return [
        CheckRecord.measured(
            "sector_equivalence",
            "eta = 1/2 for n<s and eta = 1/2 + (s+1)/2 for n=s",
            sector_dev,
            tol,
        ),
        CheckRecord.measured(
            "uniform_half_eta_below_top",
            "exp(-i 2 pi (n + 1/2)) matches every level below the top",
            uniform_dev,
            tol,
        ),
    ]
