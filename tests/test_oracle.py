"""Independent oracle: scipy's matrix exponential, not spectral synthesis.

Every exponential in the package is synthesized from a known eigenframe.
Here the operators are written down from their definitions in plain numpy
and exponentiated by ``scipy.linalg.expm`` (Pade approximation with
scaling and squaring), a route that shares no frame and no synthesis with
the package. Skipped when scipy is not installed.
"""

import numpy as np
import pytest

linalg = pytest.importorskip("scipy.linalg")

from fdphase.deformed import build_generalized_frame  # noqa: E402
from fdphase.evolution import time_evolution  # noqa: E402
from fdphase.numerics import TolerancePolicy  # noqa: E402
from fdphase.pegg_barnett import SpaceConfig, build_phase_frame  # noqa: E402

DIMS = (1, 2, 3, 4, 5, 8, 11, 16)


def _phase_operator(dim: int, theta0: float) -> np.ndarray:
    """Phi = sum_m theta_m |theta_m><theta_m| from the phase-state definition."""
    thetas = theta0 + 2.0 * np.pi * np.arange(dim) / dim
    states = np.exp(1j * np.outer(np.arange(dim), thetas)) / np.sqrt(dim)
    return (states * thetas) @ states.conj().T


def _hamiltonian(dim: int, omega: float) -> np.ndarray:
    """H = omega(n + 1/2 + (s+1)/2 delta_ns) on the number states."""
    energies = omega * (np.arange(dim) + 0.5)
    energies[-1] += omega * dim / 2.0
    return np.diag(energies)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize(
    "theta0, eta", [(0.0, 0.5), (0.3, 0.25), (np.pi / 2, 1.0), (2.9, 1.5), (1.1, 0.7)]
)
def test_offset_number_states_equal_expm_of_phase_operator(dim, theta0, eta):
    base = build_phase_frame(SpaceConfig.from_dim(dim, theta0))
    frame = build_generalized_frame(base, eta)
    oracle = linalg.expm(-1j * eta * _phase_operator(dim, theta0))
    deviation = np.max(np.abs(frame.basis.entries - oracle))
    assert deviation <= TolerancePolicy.for_dim(dim).tol_op


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("omega", [1.0, 2.5])
@pytest.mark.parametrize("t_omega", [0.37, 2.0 * np.pi, 5.3])
def test_time_evolution_equals_expm_of_hamiltonian(dim, omega, t_omega):
    t = t_omega / omega
    u = time_evolution(SpaceConfig.from_dim(dim), omega, t)
    oracle = linalg.expm(-1j * t * _hamiltonian(dim, omega))
    deviation = np.max(np.abs(u.entries - oracle))
    assert deviation <= TolerancePolicy.for_dim(dim).tol_op
