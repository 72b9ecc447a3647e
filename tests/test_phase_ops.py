"""Phase bases, shift operators, and the three commutator routes."""

import math
import re

import numpy as np
import pytest

from fdphase.numerics import (
    TWO_PI,
    DimensionMismatch,
    OperatorMatrix,
    TolerancePolicy,
    mat_power,
    tag_deviation,
)
from fdphase.pegg_barnett import (
    Frame,
    SpaceConfig,
    _toeplitz,
    build_phase_frame,
    commutator_closed_form,
    commutator_direct,
    commutator_double_sum,
    hermitian_phase_operator,
    number_shift_operator,
    unitary_phase_from_spectrum,
    unitary_phase_operator,
)

THETA_GRID = (0.0, 0.3, np.pi / 2, 2.9)


def _number_operator(config):
    """N = diag(0, 1, ..., s), held as a diagonal monomial."""
    levels = np.arange(config.dim)
    return OperatorMatrix.monomial(levels, levels)


def _phi_entries(config):
    """Phi's d x d entries, gathered from its Toeplitz values."""
    values, _ = hermitian_phase_operator(build_phase_frame(config))
    return _toeplitz(values)


def _dense_direct_commutator(config):
    """[Phi, N] by dense products, Phi = V diag(theta) V^dag over the closed-form V."""
    dim = config.dim
    v = np.exp(1j * np.outer(np.arange(dim), config.thetas())) / math.sqrt(dim)
    phi = (v * config.thetas()) @ v.conj().T
    number = np.diag(np.arange(dim, dtype=float))
    return phi @ number - number @ phi


class TestSpaceConfig:
    def test_basic_fields(self):
        config = SpaceConfig.from_dim(4, 0.7)
        assert config.s == 3
        assert config.dim == 4
        assert config.q == pytest.approx(np.exp(2j * np.pi / 4))
        assert np.allclose(config.thetas(), 0.7 + 2 * np.pi * np.arange(4) / 4)

    def test_root_of_unity(self):
        for dim in range(1, 12):
            config = SpaceConfig.from_dim(dim)
            assert abs(abs(config.q) - 1.0) < 1e-14
            assert abs(config.q**dim - 1.0) < 1e-12

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_invalid_dim(self, bad):
        with pytest.raises(ValueError):
            SpaceConfig.from_dim(bad)

    def test_invalid_theta0(self):
        with pytest.raises(ValueError):
            SpaceConfig(s=1, theta0=float("nan"))

    @pytest.mark.parametrize("dim, theta0", [(8, 1e308), (2, -1e308), (10**6, 1e303)])
    def test_theta0_with_an_infinite_corner_exponent_is_refused(self, dim, theta0):
        limit = re.escape("%.3e" % (np.finfo(float).max / dim))
        with pytest.raises(ValueError, match=r"\(s\+1\)\*theta0 must be finite.*" + limit):
            SpaceConfig.from_dim(dim, theta0)

    def test_theta0_at_the_limit_is_accepted(self):
        assert SpaceConfig.from_dim(1, 1e308).theta0 == 1e308
        assert SpaceConfig.from_dim(8, 2e307).theta0 == 2e307


class TestPhaseFrame:
    def test_dim_1_is_the_scalar_one(self):
        frame = build_phase_frame(SpaceConfig.from_dim(1, 0.0))
        assert np.allclose(frame.basis.entries, [[1.0]])

    def test_dim_2_states(self):
        frame = build_phase_frame(SpaceConfig.from_dim(2, 0.0))
        assert np.allclose(frame.basis.entries[:, 0], np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert np.allclose(frame.basis.entries[:, 1], np.array([1.0, -1.0]) / np.sqrt(2.0))

    def test_gram_matrix_is_identity(self):
        # Oracle: the Gram matrix of pairwise inner products.
        frame = build_phase_frame(SpaceConfig.from_dim(4, 0.7))
        states = [frame.basis.entries[:, m] for m in range(4)]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.max(np.abs(gram - np.eye(4))) <= 4e-11

    @pytest.mark.parametrize("dim", [*range(1, 17), 24, 33, 48, 64])
    @pytest.mark.parametrize("theta0", THETA_GRID)
    def test_completeness(self, dim, theta0):
        frame = build_phase_frame(SpaceConfig.from_dim(dim, theta0))
        v = frame.basis.entries
        total = sum(np.outer(v[:, m], v[:, m].conj()) for m in range(dim))
        assert np.max(np.abs(total - np.eye(dim))) <= 1e-11 * dim


class TestFrame:
    def test_basis_is_certified_unitary_on_construction(self):
        config = SpaceConfig.from_dim(2)
        # [[0, 1j], [1, 0]]
        basis = OperatorMatrix.monomial([1, 0], [1.0, 1j])
        frame = Frame(config=config, eta=1.0, basis=basis)
        assert dict(frame.basis.deviations) == {"unitary": 0.0}

    def test_phase_frame_has_no_offset_and_records_its_deviation(self):
        frame = build_phase_frame(SpaceConfig.from_dim(6, 0.3))
        assert frame.eta == 0.0
        # max |V^dag V - 1| on the probe block, the identity at d = 6, read
        # through the exact-turn route; the dense reading over the formed
        # entries rounds differently, within a few eps per product of length d.
        (tag, deviation), = frame.basis.deviations.items()
        assert tag == "unitary"
        assert deviation == tag_deviation(frame.basis, "unitary")
        entries = frame.basis.entries
        dense = np.max(np.abs(entries.conj().T @ entries - np.eye(6)))
        assert abs(deviation - dense) <= 4 * 6 * np.finfo(float).eps

    def test_non_unitary_basis_refused(self):
        # diag(1, 2) times the phase states at dim 2: skewed columns.
        skewed = OperatorMatrix.product(OperatorMatrix.monomial([0, 1], [1.0, 2.0]),
                                        OperatorMatrix.fourier(2, 0.0, 0.0))
        with pytest.raises(ArithmeticError, match="unitary certification failed"):
            Frame(config=SpaceConfig.from_dim(2), eta=0.0, basis=skewed)

    def test_basis_of_another_dimension_refused(self):
        identity = OperatorMatrix.monomial([0, 1], [1.0, 1.0])
        with pytest.raises(DimensionMismatch, match="dimension 3"):
            Frame(config=SpaceConfig.from_dim(3), eta=0.0, basis=identity)

    def test_is_frozen(self):
        frame = build_phase_frame(SpaceConfig.from_dim(2))
        with pytest.raises(AttributeError):
            frame.eta = 0.5


class TestNumberOperator:
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_diagonal_levels(self, dim):
        op = _number_operator(SpaceConfig.from_dim(dim))
        assert np.allclose(op.entries, np.diag(np.arange(dim)))
        assert dict(op.deviations) == {}


class TestHermitianPhaseOperator:
    def test_dim_1_is_theta0(self):
        assert np.allclose(_phi_entries(SpaceConfig(s=0, theta0=0.4)), [[0.4]])

    def test_dim_2_matrix(self):
        entries = _phi_entries(SpaceConfig.from_dim(2, 0.0))
        assert np.allclose(entries, np.pi / 2 * np.array([[1, -1], [-1, 1]]))

    @pytest.mark.parametrize("dim", [2, 3, 5, 9])
    @pytest.mark.parametrize("theta0", THETA_GRID)
    def test_diagonal_entries_closed_form(self, dim, theta0):
        # <n|Phi|n> = theta0 + pi s/(s+1), independent of n.
        entries = _phi_entries(SpaceConfig.from_dim(dim, theta0))
        expected = theta0 + np.pi * (dim - 1) / dim
        assert np.allclose(np.diag(entries), expected)

    def test_hermitian_certified(self):
        values, deviation = hermitian_phase_operator(build_phase_frame(SpaceConfig.from_dim(3, 0.3)))
        assert values.shape == (5,)
        assert not values.flags.writeable
        assert 0.0 <= deviation <= TolerancePolicy.for_dim(3).tol_op


class TestUnitaryPhaseOperator:
    def test_dim_1(self):
        assert np.allclose(
            unitary_phase_operator(SpaceConfig.from_dim(1, 0.0)).entries, [[1.0]]
        )

    def test_dim_2_theta0_zero(self):
        op = unitary_phase_operator(SpaceConfig.from_dim(2, 0.0))
        assert np.allclose(op.entries, [[0, 1], [1, 0]])

    def test_corner_phase(self):
        op = unitary_phase_operator(SpaceConfig.from_dim(2, np.pi / 2))
        assert op.entries[1, 0] == pytest.approx(-1.0)
        assert op.entries[0, 1] == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", range(1, 13))
    @pytest.mark.parametrize("theta0", THETA_GRID)
    def test_spectral_route_agrees(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        explicit = unitary_phase_operator(config)
        spectral = unitary_phase_from_spectrum(build_phase_frame(config))
        assert np.max(np.abs(explicit.entries - spectral.entries)) <= 1e-11 * dim

    def test_spectrum_route_dim_1(self):
        op = unitary_phase_from_spectrum(build_phase_frame(SpaceConfig(s=0, theta0=1.1)))
        assert np.allclose(op.entries, [[np.exp(1.1j)]])

    @pytest.mark.parametrize("dim", range(1, 10))
    @pytest.mark.parametrize("theta0", THETA_GRID)
    def test_shift_action_on_number_states(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        op = unitary_phase_from_spectrum(build_phase_frame(config))
        kets = np.eye(dim, dtype=np.complex128)
        for n in range(1, dim):
            out = op.apply(kets[:, n])
            assert np.max(np.abs(out - kets[:, n - 1])) <= 1e-12 * dim
        wrapped = op.apply(kets[:, 0])
        expected = np.exp(1j * dim * theta0) * kets[:, dim - 1]
        assert np.max(np.abs(wrapped - expected)) <= 1e-12 * dim

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_cyclic_power(self, dim):
        theta0 = 0.3
        config = SpaceConfig.from_dim(dim, theta0)
        powered = mat_power(unitary_phase_operator(config), dim)
        expected = np.exp(1j * dim * theta0) * np.eye(dim)
        assert np.max(np.abs(powered.entries - expected)) <= 1e-11 * dim


class TestNumberShiftOperator:
    def test_dim_2_is_diag_1_minus_1(self):
        op = number_shift_operator(SpaceConfig.from_dim(2))
        assert np.allclose(op.entries, np.diag([1.0, -1.0]))
        assert set(op.deviations) == {"unitary"}

    def test_shifts_phase_state_down_at_dim_2(self):
        op = number_shift_operator(SpaceConfig.from_dim(2, 0.0))
        theta1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert np.allclose(op.apply(theta1), np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_wraparound_has_no_extra_phase(self):
        config = SpaceConfig.from_dim(3, 0.0)
        frame = build_phase_frame(config)
        op = number_shift_operator(config)
        out = op.apply(frame.basis.entries[:, 0])
        assert np.max(np.abs(out - frame.basis.entries[:, 2])) <= 3e-12

    @pytest.mark.parametrize("dim", range(1, 10))
    @pytest.mark.parametrize("theta0", THETA_GRID)
    def test_realization_over_phase_states(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        frame = build_phase_frame(config)
        realization = sum(
            np.outer(frame.basis.entries[:, (m - 1) % dim], frame.basis.entries[:, m].conj())
            for m in range(dim)
        )
        op = number_shift_operator(config)
        assert np.max(np.abs(realization - op.entries)) <= 1e-11 * dim

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_cyclic_power_is_identity(self, dim):
        op = number_shift_operator(SpaceConfig.from_dim(dim, 1.2))
        assert np.max(np.abs(mat_power(op, dim).entries - np.eye(dim))) <= 1e-11 * dim


class TestWeylDuality:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("theta0", (0.0, 2.9))
    def test_phase_operator_diagonal_in_phase_frame(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        frame = build_phase_frame(config)
        v = frame.basis.entries
        changed = v.conj().T @ unitary_phase_operator(config).entries @ v
        off_diagonal = changed - np.diag(np.diag(changed))
        assert np.max(np.abs(off_diagonal)) <= 1e-11 * dim
        assert np.max(
            np.abs(np.diag(changed) - np.exp(1j * config.thetas()))
        ) <= 1e-11 * dim

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
    def test_number_shift_diagonal_in_number_basis(self, dim):
        op = number_shift_operator(SpaceConfig.from_dim(dim, 0.4))
        off_diagonal = op.entries - np.diag(np.diag(op.entries))
        assert np.max(np.abs(off_diagonal)) == 0.0


class TestCommutator:
    def test_self_commutator_vanishes(self):
        # A multiple of the identity, only the n - n' = 0 value, commutes with N.
        assert np.array_equal(commutator_direct(np.array([0.0, 2.5, 0.0])), [0.0, 0.0, 0.0])

    def test_phi_with_number_at_dim_2(self):
        # Oracle: direct product of the literal 2x2 matrices.
        phi = np.pi / 2 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        num = np.diag([0.0, 1.0])
        hand = phi @ num - num @ phi
        assert np.allclose(hand, [[0, -np.pi / 2], [np.pi / 2, 0]])

        values, _ = hermitian_phase_operator(build_phase_frame(SpaceConfig.from_dim(2, 0.0)))
        got = commutator_direct(values)
        assert got.shape == (3,)
        assert np.allclose(_toeplitz(got), hand, atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 65])
    @pytest.mark.parametrize("theta0", THETA_GRID)
    def test_values_are_the_dense_products(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        values, _ = hermitian_phase_operator(build_phase_frame(config))
        got = _toeplitz(commutator_direct(values))
        assert np.max(np.abs(got - _dense_direct_commutator(config))) <= 1e-11 * dim


class TestCommutatorClosedForm:
    def test_dim_1_vanishes(self):
        assert np.array_equal(commutator_closed_form(SpaceConfig.from_dim(1)), [0.0])

    def test_dim_2_matches_direct(self):
        got = commutator_closed_form(SpaceConfig.from_dim(2, 0.0))
        assert got.shape == (3,)
        assert np.allclose(_toeplitz(got), [[0, -np.pi / 2], [np.pi / 2, 0]], atol=1e-14)

    def test_dim_2_window_dependence(self):
        config = SpaceConfig.from_dim(2, np.pi / 3)
        got = _toeplitz(commutator_closed_form(config))
        expected_01 = -(np.pi / 2) * np.exp(-1j * np.pi / 3)
        assert got[0, 1] == pytest.approx(expected_01)
        assert np.max(np.abs(_dense_direct_commutator(config) - got)) <= 2e-11

    @pytest.mark.parametrize("dim", range(2, 17))
    @pytest.mark.parametrize("theta0", THETA_GRID)
    def test_agrees_with_direct_commutator(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        closed = _toeplitz(commutator_closed_form(config))
        assert np.max(np.abs(_dense_direct_commutator(config) - closed)) <= 1e-11 * dim


class TestCommutatorDoubleSum:
    def test_dim_1_empty_sum(self):
        assert np.array_equal(commutator_double_sum(SpaceConfig.from_dim(1)), [0.0])

    def test_dim_2_value(self):
        # Two-term hand evaluation: the (n, n') = (0, 1) term contributes
        # pi * 1/(exp(-i pi) - 1) = -pi/2 at entry (1, 0), and (1, 0)
        # contributes +pi/2 at entry (0, 1).
        got = _toeplitz(commutator_double_sum(SpaceConfig.from_dim(2, 0.0)))
        assert np.allclose(got, [[0, np.pi / 2], [-np.pi / 2, 0]], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_antihermitian(self, dim):
        got = _toeplitz(commutator_double_sum(SpaceConfig.from_dim(dim, 0.0)))
        assert np.max(np.abs(got + got.conj().T)) <= 1e-11 * dim

    def test_sign_flip_against_closed_form_at_dim_2(self):
        config = SpaceConfig.from_dim(2, 0.0)
        double = _toeplitz(commutator_double_sum(config))
        closed = _toeplitz(commutator_closed_form(config))
        deviation = np.abs(double - closed)
        assert deviation[0, 1] == pytest.approx(np.pi, abs=1e-12)
        assert deviation[1, 0] == pytest.approx(np.pi, abs=1e-12)

    def test_no_window_dependence(self):
        a = commutator_double_sum(SpaceConfig.from_dim(4, 0.0))
        b = commutator_double_sum(SpaceConfig.from_dim(4, 2.9))
        assert np.allclose(a, b)

    @staticmethod
    def _verbatim_double_loop(dim):
        # The kernel as it is quoted, one (n, n') term at a time.
        entries = np.zeros((dim, dim), dtype=np.complex128)
        for n in range(dim):
            for n_prime in range(dim):
                if n_prime == n:
                    continue
                weight = (n_prime - n) / (np.exp(2j * np.pi * (n - n_prime) / dim) - 1.0)
                entries[n_prime, n] += weight
        return entries * (TWO_PI / dim)

    @pytest.mark.parametrize("dim", [*range(1, 41), 511])
    def test_bit_identical_to_verbatim_double_loop(self, dim):
        got = _toeplitz(commutator_double_sum(SpaceConfig.from_dim(dim, 0.3)))
        # Byte comparison: equal values and equal signs of zero.
        assert got.tobytes() == self._verbatim_double_loop(dim).tobytes()


def _elementwise_closed_form(config):
    """The closed form evaluated entry by entry over the d x d grid of n - n'.

    exp(2 pi i (n-n')/d) - 1 is exp(i pi j/d) 2i sin(pi j/d), with j = n - n'
    reduced mod d into [-d/2, d/2].
    """
    dim = config.dim
    levels = np.arange(dim)
    delta = levels[:, None] - levels[None, :]  # n - n'
    entries = np.zeros((dim, dim), dtype=np.complex128)
    off = delta != 0
    turns = delta[off] % dim
    turns[turns >= dim - dim // 2] -= dim
    denom = 2j * np.sin(np.pi * turns / dim) * np.exp(1j * (np.pi * turns / dim))
    entries[off] = (
        (TWO_PI / dim)
        * (-delta[off])
        * np.exp(1j * delta[off] * config.theta0)
        / denom
    )
    return entries


def _elementwise_double_sum(config):
    """The double-sum kernel evaluated entry by entry over the d x d grid."""
    dim = config.dim
    levels = np.arange(dim)
    n_prime, n = levels[:, None], levels[None, :]  # entry (n', n)
    off = n_prime != n
    k = (n - n_prime)[off]
    entries = np.zeros((dim, dim), dtype=np.complex128)
    entries[off] += (n_prime - n)[off] / (np.exp(1j * ((2 * np.pi * k) / dim)) - 1.0)
    return entries * (TWO_PI / dim)


class TestToeplitzForms:
    """Both kernels depend on n - n' alone and are their 2s+1 values, gathered here."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 64, 257, 512])
    @pytest.mark.parametrize("theta0", [0.0, -0.0, 0.3, 2.9, 1e6])
    def test_bit_identical_to_the_elementwise_forms(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        # Byte comparison: equal values and equal signs of zero.
        closed = _toeplitz(commutator_closed_form(config))
        assert closed.tobytes() == _elementwise_closed_form(config).tobytes()
        double = _toeplitz(commutator_double_sum(config))
        assert double.tobytes() == _elementwise_double_sum(config).tobytes()
