"""Cyclic time evolution of the oscillator truncated to s+1 levels.

The truncated oscillator keeps the equally spaced lower levels but shifts
the top level up by (s+1)/2 quanta. Over one period T = 2*pi/omega each
level below the top picks up the factor -1 while the top level picks up
(-1)^s, so one cycle flips the sign of every state exactly when the
dimension is even; odd dimensions return mixed per-level phases and no
global factor. Each level's one-cycle factor coincides with the factor
exp(-2*pi*i(n+eta)) of the deformed shift route once eta is read off the
sector map (1/2 below the top, 1/2 + (s+1)/2 at the top).

This module builds the energies, H, U(t) and those closed forms only; the
checks that compare them live in :mod:`.suites`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .numerics import TWO_PI, OperatorMatrix, certify
from .pegg_barnett import SpaceConfig

__all__ = [
    "oscillator_spectrum",
    "hamiltonian",
    "time_evolution",
    "period_evolution",
    "cycle_phase_per_level",
    "eta_sector_map",
]


def oscillator_spectrum(config: SpaceConfig, omega: float) -> np.ndarray:
    """The read-only energies E_n = omega(n + 1/2 + (s+1)/2 delta_ns).

    An omega whose period 2*pi/omega or whose top energy is not finite is
    refused with a message naming the limit. Every accepted omega is a
    normal float, so the energies strictly increase.
    """
    omega = float(omega)
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be a positive real, got {omega!r}")
    if not math.isfinite(TWO_PI / omega):
        raise ValueError(
            f"omega = {omega!r} is out of range: the period 2*pi/omega must be "
            f"finite, so omega must be at least {TWO_PI / sys.float_info.max!r}"
        )
    # The top, largest, energy rounded in the order of the array below.
    if not math.isfinite(omega * (config.s + 0.5) + omega * config.dim / 2.0):
        raise ValueError(
            f"omega = {omega!r} is out of range: the top energy omega*(s+1/2) + "
            f"omega*(s+1)/2 must be finite, so omega must stay below "
            f"{sys.float_info.max / (config.s + 0.5 + config.dim / 2.0):.3e} "
            f"at dimension {config.dim}"
        )
    levels = np.arange(config.dim, dtype=np.float64)
    energies = omega * (levels + 0.5)
    energies[-1] += omega * config.dim / 2.0  # at dim 1 the only level is the top
    energies.setflags(write=False)
    return energies


def hamiltonian(config: SpaceConfig, omega: float) -> OperatorMatrix:
    """H = diag(E_n), held as a diagonal monomial."""
    return OperatorMatrix.monomial(np.arange(config.dim), oscillator_spectrum(config, omega))


def time_evolution(config: SpaceConfig, omega: float, t: float) -> OperatorMatrix:
    """U(t) = diag(exp(-i E_n t)) as a diagonal monomial, unitary-certified.

    omega is checked before t.
    """
    energies = oscillator_spectrum(config, omega)
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    levels = np.arange(config.dim)
    return certify(OperatorMatrix.monomial(levels, np.exp(-1j * energies * t)), "unitary")


def period_evolution(config: SpaceConfig, omega: float) -> OperatorMatrix:
    """U(T) over one period T = 2*pi/omega; omega is refused before T is taken."""
    oscillator_spectrum(config, omega)
    return time_evolution(config, omega, TWO_PI / float(omega))


def cycle_phase_per_level(config: SpaceConfig) -> np.ndarray:
    """Closed-form one-period factors exp(-2*pi*i(n + 1/2 + (s+1)/2 delta_ns))."""
    exponents = np.arange(config.dim, dtype=np.float64) + 0.5
    exponents[-1] += config.dim / 2.0
    return np.exp(-2j * np.pi * exponents)


def eta_sector_map(config: SpaceConfig) -> np.ndarray:
    """Per-level offset reproducing the one-cycle factors: 1/2 below the top,
    1/2 + (s+1)/2 at the top."""
    etas = np.full(config.dim, 0.5)
    etas[-1] += config.dim / 2.0
    return etas
