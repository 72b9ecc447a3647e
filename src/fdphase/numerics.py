"""Small complex linear algebra with certified hermiticity and unitarity.

An operator is an immutable :class:`OperatorMatrix`, and a state is a
plain read-only 1-d complex array in number-basis coordinates. An operator
is held as its factors: a monomial ``(rows, values)``, a shifted DFT
diag(left) F diag(right) (the phase-basis frames), the adjoint of an
operator, or a product of operators such as V M V^dag over a frame V.
Every kind acts in one way only, at every dimension, through
:meth:`OperatorMatrix.apply`, on a state or on the columns of a d x k block:
through its factors, a shifted DFT by one FFT per column in O(d log d); an
adjoint ``m.adjoint()`` acts through the same routine in the other
direction. Its d x d ``entries`` are formed only when something reads
them, which no action does. An operator counts as unitary only once
:func:`certify` has measured it: the deviation is measured once, against
the dimension's ``tol_op``, and either recorded on the operator as its
``deviation`` or refused with an error. A
shifted DFT is certified, and its entries formed, on its closed form at
exact turns, C = diag(a) T diag(b)/sqrt(d) with T[n, m] read from one table
exp(2 pi i j/d) at j = n m mod d: the entries are gathered from the table,
and the certification applies C through the four-step factorisation of T,
with no FFT and no d x d array, each stage one ``np.matmul`` over a stack of
small items (the d2 table in gathered chunks of 16 rows) that OpenBLAS runs
on the calling thread at every d. A product's entries are its own action on
the identity, so forming them calls no BLAS product, and their bits do not
depend on the BLAS release or its number of threads. A frame, a complete
orthonormal basis stored as the columns of a square matrix, is a certified
operator, since for a square matrix V orthonormality is exactly V^dag V = 1.
Every operator exponential used elsewhere in this package is assembled from
such a frame through :func:`spectral_synthesize`, so no general matrix
exponential or eigensolver lives here. Every tolerance is the dimension's
:meth:`TolerancePolicy.for_dim`.

Whole-operator identities are read on the probe block P of :func:`probes`
(Freivalds-style verification): max |(X - Y) P| costs d^2 per probe, not d^3.
Three caches hold read-only arrays. The last probe block built is kept, so a
command builds its dimension's block once, and so is the last turn table.
The third is per operator: one that acts by FFT (a shifted DFT or a
product) takes its images M P and M^dag P once and keeps them, with a
reference to P, so that they die with the operator; an adjoint reads its
base's.

Monomial operators, with exactly one nonzero entry per row and per column
(the diagonals and the weighted cyclic shifts), are held as their ``(rows,
values)``: :func:`mat_power` composes them index by index in O(d log k),
and their unitarity deviation is read off the column norms without a d^3
product.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterable

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
    "within_tol_op",
    "tag_deviation",
    "max_abs",
    "probes",
]

TWO_PI = 2.0 * np.pi

PROBE_EXACT_DIM = 64
PROBE_COUNT = 8
PROBE_SEED = 1977


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


@functools.lru_cache(maxsize=1)
def probes(dim: int) -> np.ndarray:
    """The read-only probe block P of dimension d: the identity up to ``PROBE_EXACT_DIM``.

    Above it, e_0 and e_s (the wrap-around corners) and ``PROBE_COUNT`` unit
    complex Gaussian columns from ``PROBE_SEED``; a wrong entry E[j, l] reads
    |E[j, l]| max_c |P[l, c]|, and that max is >= 0.6/sqrt(d) at every d tested.
    The last block built is kept, and returned again while d is unchanged.
    """
    if dim <= PROBE_EXACT_DIM:
        block = np.eye(dim)
    else:
        rng = np.random.default_rng(PROBE_SEED)
        shape = (dim, PROBE_COUNT)
        gaussian = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        block = np.zeros((dim, 2 + PROBE_COUNT), dtype=np.complex128)
        block[0, 0] = block[dim - 1, 1] = 1.0
        block[:, 2:] = gaussian / np.linalg.norm(gaussian, axis=0)
    block.setflags(write=False)
    return block


@functools.lru_cache(maxsize=1)
def _turns(dim: int) -> np.ndarray:
    """The read-only table exp(2 pi i j/d) for j = 0..d-1, each j taken mod d into [-d/2, d/2).

    The exact-turn route reads exp(2 pi i n m/d) as entry (n m) mod d, an
    integer, so no turn n m/d is rounded. The last table built is kept, and
    returned again while d is unchanged.
    """
    levels = np.arange(dim)
    table = np.exp(1j * (TWO_PI * ((levels + dim // 2) % dim - dim // 2) / dim))
    table.setflags(write=False)
    return table


def _shifted_dft_diagonals(dim: int, theta0: float, eta: float) -> tuple:
    """exp(i(n+eta)theta0) and exp(2 pi i eta m/d), the two diagonals of the shifted DFT."""
    levels = np.arange(dim)
    return np.exp(1j * ((levels + eta) * theta0)), np.exp(1j * eta * (TWO_PI * levels / dim))


def _refuse_phase_rounding(dim: int, theta0: float, eta: float) -> None:
    """Refuse, by name, a shifted DFT whose phases round past ``tol_op`` (see ``fourier``)."""
    rounding = sys.float_info.epsilon * (
        abs((dim - 1 + eta) * theta0) + abs(eta * theta0) + TWO_PI * abs(eta))
    tol = TolerancePolicy.for_dim(dim).tol_op
    if not rounding <= tol:
        raise ValueError(
            f"theta0 = {theta0!r} and eta = {eta!r} are out of range: the phases "
            f"(n+eta)*theta_m round by up to eps*(|(s+eta)*theta0| + |eta*theta0| + "
            f"2*pi*|eta|) = {rounding:.3e}, which must stay within tol_op = {tol:.3e} "
            f"at dimension {dim}"
        )


_MONOMIAL, _FOURIER, _ADJOINT, _PRODUCT = "monomial", "fourier", "adjoint", "product"


class OperatorMatrix:
    """A square operator with finite entries, held as its factors.

    :meth:`monomial` holds sum_j values[j] |rows[j]><j|, :meth:`fourier` the
    shifted DFT exp(i(n+eta)theta_m)/sqrt(d) as diag(left) F diag(right),
    :meth:`adjoint` the adjoint of an operator, and :meth:`product` a
    product of operators, each as its parts; there is no other constructor.
    Every kind acts through its parts (see :meth:`apply`); the ``entries``
    are formed only on first read, for a dump or a test, and kept. To form
    them, a monomial fills zeros, a shifted DFT gathers its exact-turn
    closed form from the turn table, with no d^2 exponentials, an adjoint is
    ``base.entries.conj().T``, and a product is its own action on the
    identity, M I taken through its factors as :meth:`apply` takes any
    block, in O(d^2 log d) for the FFT factors and no d^3 product.

    ``deviation`` is the unitarity deviation max |M^dag M - 1| that
    :func:`certify` measured and recorded on this operator, ``None`` until
    it is certified; nothing else sets it.
    """

    __slots__ = ("dim", "deviation", "_kind", "_parts", "_entries", "_images", "__weakref__")

    @classmethod
    def _held(cls, kind: str, parts: tuple, dim: int):
        op = object.__new__(cls)
        for name, value in (("dim", dim), ("_kind", kind), ("_parts", parts),
                            ("_entries", None), ("_images", {}), ("deviation", None)):
            object.__setattr__(op, name, value)
        return op

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def monomial(cls, rows, values) -> "OperatorMatrix":
        """sum_j values[j] |rows[j]><j|, for a permutation ``rows`` and finite ``values``."""
        rows = np.asarray(rows, dtype=np.intp)
        values = np.array(values, dtype=np.complex128, copy=True)
        dim = values.size
        if dim == 0 or values.shape != (dim,) or rows.shape != (dim,):
            raise ValueError("a monomial takes one row index and one value per column")
        levels = np.arange(dim)
        if not (np.sort(rows) == levels).all():
            raise ValueError("monomial rows must be a permutation of the levels")
        if not np.isfinite(values).all():
            raise ValueError("operator entries must be finite")
        values.setflags(write=False)
        return cls._held(_MONOMIAL, (rows, values, bool((rows == levels).all())), dim)

    @classmethod
    def fourier(cls, dim: int, theta0: float, eta: float) -> "OperatorMatrix":
        """exp(i(n+eta)theta_m)/sqrt(d) at (n, m), with theta_m = theta0 + 2 pi m/d.

        Held as diag(left) F diag(right), with F the unitary inverse DFT,
        F[n, m] = exp(2 pi i n m/d)/sqrt(d), left[n] = exp(i(n+eta)theta0) and
        right[m] = exp(2 pi i eta m/d), so that it acts by one FFT per column.
        Its entries, gathered from the turn table, and its certification,
        through :func:`_exact_turns`, read its closed form at exact turns
        instead, which rounds no turn n m/d; what rounds is the phases of
        the diagonals, by at most eps (|(d-1+eta) theta0| + |eta theta0| +
        2 pi |eta|). Parameters for which that bound exceeds the dimension's
        ``tol_op``, or is not finite, are refused.
        """
        if dim < 1:
            raise ValueError("a shifted DFT takes a positive dimension")
        theta0, eta = float(theta0), float(eta)
        _refuse_phase_rounding(dim, theta0, eta)
        left, right = _shifted_dft_diagonals(dim, theta0, eta)
        left.setflags(write=False)
        right.setflags(write=False)
        return cls._held(_FOURIER, (left, right, theta0, eta), dim)

    @classmethod
    def product(cls, *factors: "OperatorMatrix") -> "OperatorMatrix":
        """The product of the factors from left to right, held as the factors."""
        if not factors or any(factor.dim != factors[0].dim for factor in factors):
            raise DimensionMismatch("a product takes one or more factors of one dimension")
        return cls._held(_PRODUCT, factors, factors[0].dim)

    def adjoint(self) -> "OperatorMatrix":
        """The adjoint, held as this operator; it carries no certification."""
        return self._held(_ADJOINT, (self,), self.dim)

    @property
    def entries(self) -> np.ndarray:
        """The read-only d x d matrix, formed on first read and refused unless finite."""
        if self._entries is None:
            entries = self._form()
            if not np.all(np.isfinite(entries)):
                raise ValueError("operator entries must be finite")
            entries.setflags(write=False)
            object.__setattr__(self, "_entries", entries)
        return self._entries

    def _form(self) -> np.ndarray:
        """The d x d entries, formed from the parts; only ``entries`` calls this.

        A product acts on the identity through its factors, the route every
        action takes, so no factor's entries are formed and no BLAS product
        is called.
        """
        if self._kind == _MONOMIAL:
            rows, values, _ = self._parts
            entries = np.zeros((self.dim, self.dim), dtype=np.complex128)
            entries[rows, np.arange(self.dim)] = values
            return entries
        if self._kind == _FOURIER:
            a, b = _shifted_dft_diagonals(self.dim, *self._parts[2:])
            levels = np.arange(self.dim)
            entries = _turns(self.dim)[np.outer(levels, levels) % self.dim]
            entries *= a[:, None]
            entries *= b / math.sqrt(self.dim)
            return entries
        if self._kind == _ADJOINT:
            return self._parts[0].entries.conj().T
        return self._act_on(np.eye(self.dim, dtype=np.complex128), False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator acting on a d-vector, or on each column of a d x k block.

        An operator acts through its parts, on every block at every d,
        without forming its entries: a monomial in O(dk), a shifted DFT as
        ``left * ifft(right * x)``, an adjoint as its base's adjoint action
        (``conj(right) * fft(conj(left) * x)`` for a shifted DFT, the
        factors' adjoints in reverse order for a product) and a product
        factor by factor. Any other shape is refused with
        :class:`DimensionMismatch`.

        The image of the probe block P, recognised by identity, is taken once
        by an operator that acts by FFT: the same read-only array is returned
        for every later action on P, by this operator or through any of its
        adjoints. Any other block, a writable copy of P among them, is acted
        on afresh.
        """
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise DimensionMismatch(
                f"operator dimension {self.dim} does not act on an operand of shape {x.shape}"
            )
        return self._act(x, False)

    def _act(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        """M x, or M^dag x with ``adjoint``; the image of the probe block P is taken once.

        A monomial acts on P in O(dk) and an adjoint through its base, and
        neither keeps an image. Any other operator keeps its two images of P
        read-only, with P itself: the first read-only block it meets fetches
        P from :func:`probes`, and no later action calls :func:`probes` again.
        """
        if self._kind in (_MONOMIAL, _ADJOINT) or x.ndim != 2 or x.flags.writeable:
            return self._act_on(x, adjoint)
        images = self._images
        if not images:
            images["block"] = probes(self.dim)
        if x is not images["block"]:
            return self._act_on(x, adjoint)
        if adjoint not in images:
            image = self._act_on(x, adjoint)
            image.setflags(write=False)
            images[adjoint] = image
        return images[adjoint]

    def _act_on(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        """M x, or M^dag x with ``adjoint``, through the parts."""
        kind, parts = self._kind, self._parts
        if kind == _MONOMIAL:
            rows, values, diagonal = parts
            values = values if x.ndim == 1 else values[:, None]
            if adjoint:
                return values.conj() * (x if diagonal else x[rows])
            scaled = values * x
            if diagonal:
                return scaled
            out = np.empty_like(scaled)
            out[rows] = scaled
            return out
        if kind == _FOURIER:
            left, right = (part if x.ndim == 1 else part[:, None] for part in parts[:2])
            # The fresh transform is scaled in place, the operands in their order.
            if adjoint:
                y = np.fft.fft(left.conj() * x, axis=0, norm="ortho")
                return np.multiply(right.conj(), y, out=y)
            y = np.fft.ifft(right * x, axis=0, norm="ortho")
            return np.multiply(left, y, out=y)
        if kind == _ADJOINT:
            return parts[0]._act(x, not adjoint)
        for factor in parts if adjoint else reversed(parts):
            x = factor._act(x, adjoint)
        return x


def _monomial(m: OperatorMatrix):
    """A monomial's ``(rows, values)``, column j being values[j] |rows[j]>; else None."""
    return m._parts[:2] if m._kind == _MONOMIAL else None


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


# Rows of one gathered chunk of the four-step route's d2 table. OpenBLAS
# 0.3.31 (SkylakeX kernels) runs a zgemm of at most 16 rows and fewer than 32
# columns on the calling thread at any inner length, so the probe block's 10
# columns never wake its thread pool, whose woken worker would spin for the
# rest of the command.
_CHUNK_ROWS = 16


def _turn_sum(y: np.ndarray) -> np.ndarray:
    """sum_m exp(2 pi i n m/d) y[m] for each column of a d x k block, by the four-step route.

    With d = d1 d2, d1 the largest factor <= sqrt(d), m = d2 m1 + m2 and
    n = n1 + d1 n2, the sum is a d1 x d1 table over m1, the twiddles
    exp(2 pi i n1 m2/d), then a d2 x d2 table over m2 (Gentleman & Sande,
    AFIPS 1966; Bailey, J. Supercomputing 4, 23 (1990)). Every table entry is
    the turn table read at an integer (product) mod d, and no FFT is called.

    Each stage is one ``np.matmul`` over a stack of small items, which numpy
    takes one zgemm at a time. The d1 stage multiplies the d1 x d1 table into
    d2 items of d1 x k: at most 64 x 64 by 64 x 10 up to d=4096. The d2 table
    is gathered in chunks of ``_CHUNK_ROWS`` rows, and each chunk multiplies
    the d1 items of d2 x k. The last chunk starts at d2 - 16, over rows of the
    chunk before it, so no item is a single row, which numpy hands to gemv.
    Nothing d x d is formed: O(d (d1 + d2) k) time, O(dk) memory plus one
    chunk. A prime d has d1 = 1, and then O(d^2 k) time. With 10 columns
    every item runs on the calling thread, at every d up to 4096.
    """
    dim, width = y.shape
    turns = _turns(dim)
    d1 = math.isqrt(dim)
    while dim % d1:
        d1 -= 1
    d2 = dim // d1
    n1, m2 = np.arange(d1), np.arange(d2)
    z = np.matmul(turns[np.outer(n1, d2 * n1) % dim], y.reshape(d1, d2, width).transpose(1, 0, 2))
    z *= turns[np.outer(m2, n1) % dim][:, :, None]
    z = z.transpose(1, 0, 2)  # the d1 items of d2 x k
    out = np.empty((d2, d1, width), dtype=np.complex128)
    rows = min(d2, _CHUNK_ROWS)
    index = np.outer(m2[:rows], d1 * m2) % dim  # (d1 n2 m2) mod d for the first chunk's rows
    step = (rows * d1 * m2) % dim  # the move of each index from one chunk to the next
    table = np.empty((rows, d2), dtype=np.complex128)
    for start in range(0, d2, rows):
        if start + rows > d2:  # the last chunk ends at d2
            index -= ((start + rows - d2) * d1 * m2) % dim
            index += dim * (index < 0)
            start = d2 - rows
        np.matmul(np.take(turns, index, out=table), z,
                  out=out[start:start + rows].transpose(1, 0, 2))
        if start + rows < d2:
            index += step
            index -= dim * (index >= dim)
    return out.reshape(dim, width)


def _exact_turns(m: OperatorMatrix, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """C x, or C^dag x with ``adjoint``, for a shifted DFT m and a d x k block x.

    C = diag(a) T diag(b)/sqrt(d), with T[n, m] = exp(2 pi i (n m mod d)/d)
    applied by :func:`_turn_sum` and a, b the diagonals rebuilt from m's own
    (theta0, eta, d), never read from the ``left`` and ``right`` its FFT
    route holds. T is symmetric, so C^dag x = conj(b T(a conj(x)))/sqrt(d).
    This is the route that is independent of ``np.fft``.
    """
    a, b = _shifted_dft_diagonals(m.dim, *m._parts[2:])
    b = b / math.sqrt(m.dim)
    if adjoint:
        return (b[:, None] * _turn_sum(a[:, None] * x.conj())).conj()
    return a[:, None] * _turn_sum(b[:, None] * x)


def tag_deviation(m: OperatorMatrix) -> float:
    """max |M^dag M - 1|, the unitarity deviation that :func:`certify` records.

    The name is kept because the benchmark's per-layer metrics and its
    recertification ratio read the ``numerics.tag_deviation`` and
    ``numerics.certify`` spans by name. For a monomial M
    the off-diagonal entries of M^dag M are exact zeros, so the deviation is
    max_j ||v_j|^2 - 1| over its nonzero values v_j. Any other operator is
    read on the probe block P, as max |M^dag (M P) - P|. A shifted DFT is
    read so on its exact-turn closed form C, acting through the four-step
    route of :func:`_exact_turns`, which calls no FFT and forms no d x d
    array, not on the FFT route that it acts by elsewhere. The rounding of
    C's phases is bounded, and refused above ``tol_op``, when it is built.
    """
    monomial = _monomial(m)
    if monomial is not None:
        values = monomial[1]
        return max_abs(values.real**2 + values.imag**2 - 1.0)
    block = probes(m.dim)
    if m._kind == _FOURIER:
        return max_abs(_exact_turns(m, _exact_turns(m, block), adjoint=True) - block)
    return max_abs(m.adjoint().apply(m.apply(block)) - block)


def mat_power(m: OperatorMatrix, k: int) -> OperatorMatrix:
    """Non-negative integer power of a monomial operator by repeated multiplication.

    The operator must be held as a monomial (a diagonal or a weighted
    cyclic shift); its powers are composed index by index in O(d log k),
    and the power is a monomial. Any other operator
    is refused: raise it through the eigenvalues of its frame instead, as
    :func:`.deformed.cycle_operator_power` does for q^-(N+eta).
    """
    monomial = _monomial(m)
    if monomial is None:
        raise ValueError(
            "mat_power takes a monomial operator (one nonzero entry per row "
            "and column); raise any other operator through the eigenvalues of "
            "its frame, as cycle_operator_power does"
        )
    return OperatorMatrix.monomial(*_binary_power(*monomial, k))


def cyclic_shift(dim: int, corner: complex, weights: np.ndarray | None = None) -> OperatorMatrix:
    """The cyclic down-shift monomial: |n-1><n| for n = 1..dim-1 and |dim-1><0|.

    The value on |n-1><n| is ``weights[n]`` and the wrap-around value is
    ``weights[0] * corner``; without weights they are 1 and ``corner``.
    """
    if weights is None:
        values = np.ones(dim, dtype=np.complex128)
        values[0] = corner
    else:
        values = np.asarray(weights, dtype=np.complex128).copy()
        values[0] = weights[0] * corner
    return OperatorMatrix.monomial(np.arange(-1, dim - 1) % dim, values)


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


def within_tol_op(label: str, deviation: float, dim: int) -> float:
    """``deviation`` of the ``label`` structure, refused unless within the dimension's ``tol_op``.

    A deviation above it, or NaN, fails certification with :class:`ArithmeticError`.
    """
    tol = TolerancePolicy.for_dim(dim).tol_op
    if not deviation <= tol:
        raise ArithmeticError(
            f"{label} certification failed with deviation {deviation:.3e} (tolerance {tol:.3e})"
        )
    return deviation


def certify(m: OperatorMatrix) -> OperatorMatrix:
    """``m`` itself, certified unitary: its deviation is recorded on it as ``deviation``.

    The deviation is measured once, by :func:`tag_deviation`, and refused by
    :func:`within_tol_op`, which leaves ``m`` uncertified.
    """
    object.__setattr__(m, "deviation", within_tol_op("unitary", tag_deviation(m), m.dim))
    return m


def spectral_synthesize(frame: OperatorMatrix, eigvals: Iterable[complex]) -> OperatorMatrix:
    """sum_k lambda_k |v_k><v_k| over the columns v_k of ``frame``, held as V diag(lambda) V^dag.

    The frame must already be certified unitary by :func:`certify`, which
    for a square matrix is orthonormality of its columns; it is not
    multiplied out here. An uncertified frame is refused with a
    ``ValueError``.
    """
    if frame.deviation is None:
        raise ValueError("spectral synthesis needs a frame certified unitary")
    vals = np.asarray(eigvals, dtype=np.complex128)
    if vals.shape != (frame.dim,):
        raise ValueError("frame must be complete: one eigenvalue per dimension")
    diagonal = OperatorMatrix.monomial(np.arange(frame.dim), vals)
    return OperatorMatrix.product(frame, diagonal, frame.adjoint())
