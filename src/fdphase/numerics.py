"""Small dense complex linear algebra with certified hermiticity and unitarity.

An operator is an immutable :class:`OperatorMatrix`, and a state is a plain
read-only 1-d complex array in number-basis coordinates. An operator acts
in one way only, through :meth:`OperatorMatrix.apply`, on a state or on the
columns of a d x k block such as a frame. An operator counts as hermitian
or unitary only once :func:`certify` has measured it: the deviation is
measured once, against the dimension's ``tol_op``, and either recorded in
the operator's ``deviations`` or refused with an error. Any other structure
(a diagonal, a monomial) is read from the entries where it is used, never
carried as a flag. A frame, a complete orthonormal basis stored as the
columns of a square matrix, is an operator certified "unitary", since for a
square matrix V orthonormality is exactly V^dag V = 1. Every operator
exponential used elsewhere in this package is assembled from such a frame
through :func:`spectral_synthesize`, so no general matrix exponential or
eigensolver lives here. Every tolerance is the dimension's
:meth:`TolerancePolicy.for_dim`.

Monomial operators, with exactly one nonzero entry per row and per column
(the diagonals and the weighted cyclic shifts), are recognised from their
entries: :func:`mat_power` composes them index by index in O(d log k), and
their unitarity deviation is read off the column norms without a d^3
product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "TWO_PI",
    "DimensionMismatch",
    "TolerancePolicy",
    "OperatorMatrix",
    "mat_power",
    "cyclic_shift",
    "equal_up_to_global_phase",
    "spectral_synthesize",
    "certify",
    "hermitian_deviation",
    "unitary_deviation",
    "tag_deviation",
    "max_abs",
]

TWO_PI = 2.0 * np.pi


class DimensionMismatch(ValueError):
    """Operands live in Hilbert spaces of different dimension."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Comparison thresholds, scaled linearly with the dimension.

    ``tol_elem`` bounds per-element and per-state deviations and norm
    drift, and ``tol_op`` bounds operator-level identities and the
    certifications of :func:`certify`.
    """

    tol_elem: float
    tol_op: float

    def __post_init__(self) -> None:
        for name in ("tol_elem", "tol_op"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")

    @classmethod
    def for_dim(cls, dim: int) -> "TolerancePolicy":
        """Default thresholds for a space of the given dimension."""
        return cls(tol_elem=1e-12 * dim, tol_op=1e-11 * dim)


def max_abs(values: np.ndarray) -> float:
    """Largest entry modulus; zero for empty input."""
    if values.size == 0:
        return 0.0
    return float(np.max(np.abs(values)))


def hermitian_deviation(entries: np.ndarray) -> float:
    return max_abs(entries - entries.conj().T)


def _gram_deviation(columns: np.ndarray) -> float:
    """max |V^dag V - 1| over the columns of ``columns``, one dense product."""
    return max_abs(columns.conj().T @ columns - np.eye(columns.shape[1]))


def _monomial(entries: np.ndarray):
    """``(rows, values)`` with column j equal to values[j] |rows[j]>, or None.

    None unless the matrix has exactly one nonzero entry per row and per
    column, read from the entries themselves.
    """
    nonzero = entries != 0
    if not (np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1)):
        return None
    rows = np.argmax(nonzero, axis=0)
    return rows, entries[rows, np.arange(entries.shape[1])]


def _compose(left: tuple, right: tuple) -> tuple:
    """The product left @ right of two monomials in ``(rows, values)`` form."""
    left_rows, left_values = left
    right_rows, right_values = right
    return left_rows[right_rows], left_values[right_rows] * right_values


def _binary_power(rows: np.ndarray, values: np.ndarray, k: int) -> tuple:
    """The k-th power of the monomial sum_j values[j] |rows[j]><j|.

    Squares and multiplies in the order of ``numpy.linalg.matrix_power``:
    the bits of k from the lowest up, each set bit multiplying its square
    into the result from the right. A diagonal has ``rows = arange(d)``, so
    its eigenvalues are raised by repeated multiplication. k = 0 gives the
    identity. A power whose values overflow is refused with ArithmeticError.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"power must be a non-negative integer, got {k!r}")
    power = k = int(k)
    result = square = None
    with np.errstate(over="ignore", invalid="ignore"):
        while k > 0:
            square = (rows, values) if square is None else _compose(square, square)
            k, bit = divmod(k, 2)
            if bit:
                result = square if result is None else _compose(result, square)
    if result is None:
        return np.arange(rows.size), np.ones(rows.size, dtype=np.complex128)
    if not np.all(np.isfinite(result[1])):
        raise ArithmeticError(
            f"the power {power} overflows: its values are not finite in double precision"
        )
    return result


def unitary_deviation(entries: np.ndarray) -> float:
    """max |M^dag M - 1|.

    For a monomial M the off-diagonal entries of M^dag M are exact zeros, so
    the deviation is max_j ||v_j|^2 - 1| over its nonzero values v_j; any
    other matrix takes the dense product.
    """
    monomial = _monomial(entries)
    if monomial is None:
        return _gram_deviation(entries)
    values = monomial[1]
    return max_abs(values.real**2 + values.imag**2 - 1.0)


_TAG_DEVIATIONS = {
    "hermitian": hermitian_deviation,
    "unitary": unitary_deviation,
}


def tag_deviation(entries: np.ndarray, tag: str) -> float:
    """Measured deviation of the matrix from the structure named by ``tag``."""
    try:
        measure = _TAG_DEVIATIONS[tag]
    except KeyError:
        raise ValueError(f"unknown tag {tag!r}; expected one of {sorted(_TAG_DEVIATIONS)}")
    return measure(entries)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A dense square operator with finite entries, held read-only.

    ``deviations`` maps each structure :func:`certify` has confirmed on these
    entries ("hermitian", "unitary") to the deviation it measured, as frames
    keep theirs. It is read-only, empty at construction, and not a
    constructor argument.
    """

    entries: np.ndarray
    deviations: Mapping = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("operator entries must form a non-empty square matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "deviations", MappingProxyType({}))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator acting on a d-vector, or on each column of a d x k block.

        Returns ``entries @ x``; any other shape is refused with
        :class:`DimensionMismatch`.
        """
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise DimensionMismatch(
                f"operator dimension {self.dim} does not act on an operand of shape {x.shape}"
            )
        return self.entries @ x


def mat_power(m: OperatorMatrix, k: int) -> OperatorMatrix:
    """Non-negative integer power of a monomial operator by repeated multiplication.

    The operator must have exactly one nonzero entry per row and per column
    (a diagonal or a weighted cyclic shift); its powers are composed index
    by index in O(d log k). Any other operator is refused: raise it through
    the eigenvalues of its frame instead, as
    :func:`.deformed.cycle_operator_power` does for q^-(N+eta).
    """
    monomial = _monomial(m.entries)
    if monomial is None:
        raise ValueError(
            "mat_power takes a monomial operator (one nonzero entry per row "
            "and column); raise a dense operator through the eigenvalues of "
            "its frame, as cycle_operator_power does"
        )
    rows, values = _binary_power(*monomial, k)
    entries = np.zeros((m.dim, m.dim), dtype=np.complex128)
    entries[rows, np.arange(m.dim)] = values
    return OperatorMatrix(entries)


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


def equal_up_to_global_phase(u: np.ndarray, v: np.ndarray, tol: float) -> float | None:
    """arg<u|v> in [0, 2*pi) when two nonzero states differ only by a global phase, else None.

    The states compare equal when the overlap modulus |<u|v>| reaches
    ``|u| |v| (1 - tol)``; so (u, exp(i a) u) gives a mod 2*pi.
    """
    if u.shape != v.shape:
        raise DimensionMismatch(f"state shapes differ: {u.shape} vs {v.shape}")
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("global-phase comparison requires nonzero vectors")
    overlap = complex(np.vdot(u, v))
    if abs(overlap) < nu * nv * (1.0 - tol):
        return None
    return float(np.angle(overlap)) % TWO_PI


def certify(m: OperatorMatrix, tag: str) -> OperatorMatrix:
    """``m`` certified "hermitian" or "unitary", with the deviation recorded.

    The deviation is measured once, by :func:`tag_deviation`. Unless it is
    within the dimension's ``tol_op`` (a NaN deviation never is),
    certification fails with :class:`ArithmeticError`; otherwise the result
    shares ``m``'s read-only entries, without a copy, and adds
    ``deviations[tag]`` to the deviations ``m`` already records.
    """
    deviation = tag_deviation(m.entries, tag)
    tol = TolerancePolicy.for_dim(m.dim).tol_op
    if not deviation <= tol:
        raise ArithmeticError(
            f"{tag} certification failed with deviation {deviation:.3e} (tolerance {tol:.3e})"
        )
    result = object.__new__(OperatorMatrix)
    object.__setattr__(result, "entries", m.entries)
    object.__setattr__(result, "deviations", MappingProxyType({**m.deviations, tag: deviation}))
    return result


def spectral_synthesize(frame: OperatorMatrix, eigvals: Iterable[complex]) -> OperatorMatrix:
    """Assemble sum_k lambda_k |v_k><v_k| over the columns v_k of ``frame``.

    The frame must already be certified "unitary" by :func:`certify`, which
    for a square matrix is orthonormality of its columns; it is not
    multiplied out again here. An uncertified frame is refused with a
    ``ValueError``.
    """
    if "unitary" not in frame.deviations:
        raise ValueError("spectral synthesis needs a frame certified unitary")
    vals = np.asarray(eigvals, dtype=np.complex128)
    if vals.shape != (frame.dim,):
        raise ValueError("frame must be complete: one eigenvalue per dimension")
    v = frame.entries
    return OperatorMatrix((v * vals) @ v.conj().T)
