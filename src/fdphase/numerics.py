"""Small dense complex linear algebra with certified structural tags.

Vectors and operators are immutable wrappers around numpy arrays. Structural
facts (hermitian / unitary / diagonal) travel as tags that are attached only
after a numerical certification against a :class:`TolerancePolicy`, never
assumed. Each tag is measured once: :func:`certify` attaches the tag it has
just measured without measuring it again. Every operator exponential used
elsewhere in this package is assembled from a known eigenbasis, passed in as
the frame matrix with its certified orthonormality deviation, through
:func:`spectral_synthesize`, so no general matrix exponential or eigensolver
lives here. Every tolerance is the dimension's :meth:`TolerancePolicy.for_dim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "TWO_PI",
    "VALID_TAGS",
    "DimensionMismatch",
    "NonOrthonormalFrame",
    "TolerancePolicy",
    "StateVector",
    "OperatorMatrix",
    "PhaseComparison",
    "Certification",
    "basis_state",
    "identity",
    "mat_apply",
    "mat_mul",
    "mat_power",
    "adjoint",
    "cyclic_shift",
    "equal_up_to_global_phase",
    "frame_deviation",
    "spectral_synthesize",
    "certify",
    "certified",
    "hermitian_deviation",
    "unitary_deviation",
    "diagonal_deviation",
    "tag_deviation",
    "max_abs",
]

TWO_PI = 2.0 * np.pi

VALID_TAGS = frozenset({"hermitian", "unitary", "diagonal"})


class DimensionMismatch(ValueError):
    """Operands live in Hilbert spaces of different dimension."""


class NonOrthonormalFrame(ValueError):
    """An eigenvector frame failed its orthonormality certification."""

    def __init__(self, max_deviation: float, tolerance: float) -> None:
        super().__init__(
            "frame is not orthonormal: max deviation %.3e exceeds tolerance %.3e"
            % (max_deviation, tolerance)
        )
        self.max_deviation = max_deviation
        self.tolerance = tolerance


@dataclass(frozen=True)
class TolerancePolicy:
    """Comparison thresholds, scaled linearly with the dimension.

    ``tol_elem`` bounds per-element and per-state deviations, ``tol_norm``
    bounds norm drift, and ``tol_op`` bounds operator-level identities and
    tag certifications.
    """

    tol_elem: float
    tol_norm: float
    tol_op: float

    def __post_init__(self) -> None:
        for name in ("tol_elem", "tol_norm", "tol_op"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")

    @classmethod
    def for_dim(cls, dim: int) -> "TolerancePolicy":
        """Default thresholds for a space of the given dimension."""
        return cls(tol_elem=1e-12 * dim, tol_norm=1e-12 * dim, tol_op=1e-11 * dim)


def max_abs(values: np.ndarray) -> float:
    """Largest entry modulus; zero for empty input."""
    if values.size == 0:
        return 0.0
    return float(np.max(np.abs(values)))


def hermitian_deviation(entries: np.ndarray) -> float:
    return max_abs(entries - entries.conj().T)


def unitary_deviation(entries: np.ndarray) -> float:
    dim = entries.shape[0]
    return max_abs(entries.conj().T @ entries - np.eye(dim))


def diagonal_deviation(entries: np.ndarray) -> float:
    off = entries - np.diag(np.diag(entries))
    return max_abs(off)


_TAG_DEVIATIONS = {
    "hermitian": hermitian_deviation,
    "unitary": unitary_deviation,
    "diagonal": diagonal_deviation,
}


def tag_deviation(entries: np.ndarray, tag: str) -> float:
    """Measured deviation of the matrix from the structure named by ``tag``."""
    try:
        measure = _TAG_DEVIATIONS[tag]
    except KeyError:
        raise ValueError(f"unknown tag {tag!r}; expected one of {sorted(VALID_TAGS)}")
    return measure(entries)


@dataclass(frozen=True, eq=False)
class StateVector:
    """A ket in number-basis coordinates (finite amplitudes, any norm)."""

    amp: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amp, dtype=np.complex128, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("state amplitudes must form a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("state amplitudes must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "amp", arr)

    @property
    def dim(self) -> int:
        return self.amp.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def is_normalized(self, tol_norm: float) -> bool:
        return abs(self.norm - 1.0) <= tol_norm

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amp / n)

    def inner(self, other: "StateVector") -> complex:
        """Inner product <self|other>, conjugate-linear in ``self``."""
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"state dimensions differ: {self.dim} vs {other.dim}"
            )
        return complex(np.vdot(self.amp, other.amp))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A dense square operator whose tags name certified structure.

    Tags may only name structure the entries actually have: each tag handed
    to the constructor is measured against the dimension-scaled default
    ``tol_op`` and the constructor refuses uncertified tags. :func:`certify`
    attaches the tag it has just measured without this second measurement.
    ``deviations`` maps each tag to the deviation measured when it was
    certified, as frames keep theirs.
    """

    entries: np.ndarray
    tags: frozenset = frozenset()
    deviations: Mapping = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("operator entries must form a non-empty square matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

        tags = frozenset(self.tags)
        unknown = tags - VALID_TAGS
        if unknown:
            raise ValueError(f"unknown tags: {sorted(unknown)}")
        tol = TolerancePolicy.for_dim(arr.shape[0]).tol_op
        deviations = {}
        for tag in sorted(tags):
            deviations[tag] = tag_deviation(arr, tag)
            if deviations[tag] > tol:
                raise ValueError(
                    f"tag {tag!r} is not certified: deviation {deviations[tag]:.3e} "
                    f"exceeds {tol:.3e}"
                )
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "deviations", MappingProxyType(deviations))

    def _with_certified_tag(self, tag: str, deviation: float) -> "OperatorMatrix":
        """The same entries with ``tag`` added; the caller has measured it."""
        tagged = object.__new__(OperatorMatrix)
        object.__setattr__(tagged, "entries", self.entries)
        object.__setattr__(tagged, "tags", self.tags | {tag})
        object.__setattr__(
            tagged, "deviations", MappingProxyType({**self.deviations, tag: deviation})
        )
        return tagged

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def basis_state(dim: int, n: int) -> StateVector:
    """The standard basis ket |n> in a space of the given dimension."""
    if not 0 <= n < dim:
        raise ValueError(f"basis index {n} out of range for dimension {dim}")
    amp = np.zeros(dim, dtype=np.complex128)
    amp[n] = 1.0
    return StateVector(amp)


def identity(dim: int) -> OperatorMatrix:
    return OperatorMatrix(np.eye(dim), tags=VALID_TAGS)


def mat_apply(m: OperatorMatrix, v: StateVector) -> StateVector:
    if m.dim != v.dim:
        raise DimensionMismatch(
            f"operator dimension {m.dim} does not match state dimension {v.dim}"
        )
    return StateVector(m.entries @ v.amp)


def mat_mul(ml: OperatorMatrix, mr: OperatorMatrix) -> OperatorMatrix:
    """Matrix product. Only diagonal-times-diagonal keeps its tag."""
    if ml.dim != mr.dim:
        raise DimensionMismatch(
            f"operator dimensions differ: {ml.dim} vs {mr.dim}"
        )
    tags = frozenset()
    if "diagonal" in ml.tags and "diagonal" in mr.tags:
        tags = frozenset({"diagonal"})
    return OperatorMatrix(ml.entries @ mr.entries, tags=tags)


def mat_power(m: OperatorMatrix, k: int) -> OperatorMatrix:
    """Non-negative integer matrix power by repeated multiplication."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError(f"power must be a non-negative integer, got {k!r}")
    tags = frozenset({"diagonal"}) if "diagonal" in m.tags else frozenset()
    return OperatorMatrix(np.linalg.matrix_power(m.entries, int(k)), tags=tags)


def cyclic_shift(dim: int, corner: complex, weights: np.ndarray | None = None) -> np.ndarray:
    """Cyclic down-shift matrix: |n-1><n| for n = 1..dim-1 and |dim-1><0|.

    The entry on |n-1><n| is ``weights[n]`` and the wrap-around entry is
    ``corner * weights[0]``; without weights they are 1 and ``corner``.
    """
    entries = np.zeros((dim, dim), dtype=np.complex128)
    levels = np.arange(1, dim)
    if weights is None:
        entries[levels - 1, levels] = 1.0
        entries[dim - 1, 0] = corner
    else:
        entries[levels - 1, levels] = weights[1:]
        entries[dim - 1, 0] = weights[0] * corner
    return entries


def adjoint(m: OperatorMatrix) -> OperatorMatrix:
    """Conjugate transpose; a hermitian tag survives unchanged."""
    tags = frozenset({"hermitian"}) if "hermitian" in m.tags else frozenset()
    return OperatorMatrix(m.entries.conj().T, tags=tags)


@dataclass(frozen=True)
class PhaseComparison:
    """Outcome of a global-phase comparison; ``phase`` is set only on match."""

    equal: bool
    phase: float | None = None


def equal_up_to_global_phase(
    u: StateVector, v: StateVector, tol: float
) -> PhaseComparison:
    """Decide whether two nonzero states differ only by a global phase.

    The states compare equal when the overlap modulus |<u|v>| reaches
    ``|u| |v| (1 - tol)``. On a match the reported phase is arg<u|v>
    reduced into [0, 2*pi), so (u, exp(i a) u) reports a mod 2*pi.
    """
    if u.dim != v.dim:
        raise DimensionMismatch(
            f"state dimensions differ: {u.dim} vs {v.dim}"
        )
    nu, nv = u.norm, v.norm
    if nu == 0.0 or nv == 0.0:
        raise ValueError("global-phase comparison requires nonzero vectors")
    overlap = u.inner(v)
    if abs(overlap) < nu * nv * (1.0 - tol):
        return PhaseComparison(equal=False, phase=None)
    return PhaseComparison(equal=True, phase=float(np.angle(overlap)) % TWO_PI)


@dataclass(frozen=True)
class Certification:
    """Result of measuring one structural tag on one operator."""

    tag: str
    passed: bool
    max_deviation: float
    matrix: OperatorMatrix


def certify(m: OperatorMatrix, tag: str) -> Certification:
    """Measure the deviation from ``tag`` structure and attach it on success.

    Returns the measured deviation together with either the tagged matrix
    (deviation within the dimension's ``tol_op``) or the input unchanged.
    The tag is measured once, here; the tags ``m`` already carries were
    certified when ``m`` was built and are not measured again either.
    """
    if tag not in VALID_TAGS:
        raise ValueError(f"unknown tag {tag!r}; expected one of {sorted(VALID_TAGS)}")
    deviation = tag_deviation(m.entries, tag)
    if deviation <= TolerancePolicy.for_dim(m.dim).tol_op:
        return Certification(tag, True, deviation, m._with_certified_tag(tag, deviation))
    return Certification(tag, False, deviation, m)


def certified(m: OperatorMatrix, tag: str) -> OperatorMatrix:
    """Like :func:`certify` but raises when certification fails."""
    cert = certify(m, tag)
    if not cert.passed:
        raise ArithmeticError(
            f"{tag} certification failed with deviation {cert.max_deviation:.3e}"
        )
    return cert.matrix


def frame_deviation(frame: np.ndarray) -> float:
    """Orthonormality deviation max |V^dag V - 1| of the columns of ``frame``.

    Raises :class:`NonOrthonormalFrame` when it exceeds the ``tol_op`` of the
    frame's dimension.
    """
    deviation = max_abs(frame.conj().T @ frame - np.eye(frame.shape[1]))
    tol = TolerancePolicy.for_dim(frame.shape[0]).tol_op
    if deviation > tol:
        raise NonOrthonormalFrame(deviation, tol)
    return deviation


def spectral_synthesize(
    frame: np.ndarray, eigvals: Iterable[complex], deviation: float
) -> OperatorMatrix:
    """Assemble sum_k lambda_k |v_k><v_k| from a complete orthonormal frame.

    Column k of the square ``frame`` matrix is the eigenvector v_k, and
    ``deviation`` is its orthonormality deviation from :func:`frame_deviation`,
    measured when the frame was certified; the frame is not multiplied out
    again here. A deviation above ``tol_op`` is refused with
    :class:`NonOrthonormalFrame`.
    """
    frame = np.asarray(frame, dtype=np.complex128)
    vals = np.asarray(eigvals, dtype=np.complex128)
    if frame.ndim != 2 or frame.shape[0] != frame.shape[1] or frame.size == 0:
        raise ValueError("frame must be complete: a non-empty square matrix")
    dim = frame.shape[0]
    if vals.shape != (dim,):
        raise ValueError("frame must be complete: one eigenvalue per dimension")
    tol = TolerancePolicy.for_dim(dim).tol_op
    if deviation > tol:
        raise NonOrthonormalFrame(deviation, tol)
    return OperatorMatrix((frame * vals) @ frame.conj().T)
