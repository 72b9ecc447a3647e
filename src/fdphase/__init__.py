"""Phase operators and cyclic evolution in finite-dimensional Hilbert spaces.

Numerically constructs the phase-state bases, the dual pair of cyclic shift
operators, the deformed-oscillator ladder algebra at q a root of unity, and
the truncated-oscillator time evolution, and verifies the operator
identities tying them together to explicit tolerances.

The package namespace carries the names of the README's library example;
everything else is imported from its module (``fdphase.numerics``,
``fdphase.pegg_barnett``, ``fdphase.deformed``, ``fdphase.evolution``,
``fdphase.suites``, ``fdphase.report``, ``fdphase.cli``).
"""

from .deformed import (
    build_generalized_frame,
    build_lowering_operator,
    deformation_linear,
    recover_phase_operator,
)
from .pegg_barnett import SpaceConfig, build_phase_frame, unitary_phase_operator
from .report import TOOL_VERSION

__version__ = TOOL_VERSION

__all__ = [
    "__version__",
    "TOOL_VERSION",
    "SpaceConfig",
    "build_phase_frame",
    "build_generalized_frame",
    "build_lowering_operator",
    "deformation_linear",
    "recover_phase_operator",
    "unitary_phase_operator",
]
