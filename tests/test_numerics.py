"""Substrate tests: containers, certification, comparisons, spectral synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdphase.numerics import (
    DimensionMismatch,
    NonOrthonormalFrame,
    OperatorMatrix,
    StateVector,
    TolerancePolicy,
    adjoint,
    basis_state,
    certify,
    equal_up_to_global_phase,
    frame_deviation,
    mat_apply,
    mat_mul,
    mat_power,
    spectral_synthesize,
    unitary_deviation,
)
from fdphase.pegg_barnett import SpaceConfig, build_phase_frame, hermitian_phase_operator

X = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestTolerancePolicy:
    def test_defaults_scale_with_dim(self):
        policy = TolerancePolicy.for_dim(4)
        assert policy.tol_elem == pytest.approx(4e-12)
        assert policy.tol_norm == pytest.approx(4e-12)
        assert policy.tol_op == pytest.approx(4e-11)

    @pytest.mark.parametrize("bad", [0.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            TolerancePolicy(tol_elem=bad, tol_norm=1e-12, tol_op=1e-11)


class TestStateVector:
    def test_norm_and_normalize(self):
        v = StateVector(np.array([3.0, 4.0j]))
        assert v.norm == pytest.approx(5.0)
        assert v.normalized().norm == pytest.approx(1.0)
        assert not v.is_normalized(1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, 0.0]))

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros(0))
        with pytest.raises(ValueError):
            StateVector(np.zeros((2, 2)))

    def test_zero_normalize_rejected(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros(3)).normalized()

    def test_amplitudes_are_frozen(self):
        v = basis_state(2, 0)
        with pytest.raises(ValueError):
            v.amp[0] = 2.0


class TestOperatorMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.zeros((2, 3)))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("keyword", ["tags", "deviations"])
    def test_takes_only_entries(self, keyword):
        with pytest.raises(TypeError):
            OperatorMatrix(np.eye(2), **{keyword: {"unitary": 0.0}})


class TestMatApply:
    def test_identity(self):
        v = mat_apply(OperatorMatrix(np.eye(2)), StateVector(np.array([1.0, 0.0])))
        assert np.allclose(v.amp, [1.0, 0.0])

    def test_permutation(self):
        v = mat_apply(OperatorMatrix(X), StateVector(np.array([1.0, 0.0])))
        assert np.allclose(v.amp, [0.0, 1.0])

    def test_phase_operator_on_ground_state(self):
        # Oracle: Phi at dim 2, theta0 0 is pi |theta_1><theta_1| with
        # theta_1 = (1, -1)/sqrt(2), assembled here by hand.
        theta1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        phi_oracle = np.pi * np.outer(theta1, theta1.conj())
        expected = phi_oracle @ np.array([1.0, 0.0])
        assert np.allclose(expected, [np.pi / 2, -np.pi / 2])

        phi = hermitian_phase_operator(build_phase_frame(SpaceConfig.from_dim(2, 0.0)))
        v = mat_apply(phi, StateVector(np.array([1.0, 0.0])))
        assert np.allclose(v.amp, expected, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_apply(OperatorMatrix(np.eye(2)), basis_state(3, 0))


class TestMatMul:
    def test_identity_absorbs(self):
        m = OperatorMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(mat_mul(OperatorMatrix(np.eye(2)), m).entries, m.entries)

    def test_involution(self):
        assert np.allclose(mat_mul(OperatorMatrix(X), OperatorMatrix(X)).entries, np.eye(2))

    def test_number_shift_squared_at_dim_2(self):
        # q = -1 at dim 2, so q^-N = diag(1, -1) squares to the identity.
        qm = OperatorMatrix(np.diag([1.0, -1.0]))
        assert np.allclose(mat_mul(qm, qm).entries, np.eye(2))

    def test_product_records_no_deviation(self):
        u = certify(OperatorMatrix(np.diag([1.0, -1.0])), "unitary")
        assert dict(mat_mul(u, u).deviations) == {}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(OperatorMatrix(np.eye(2)), OperatorMatrix(np.eye(3)))


class TestAdjoint:
    def test_hermitian_fixed_point(self):
        m = certify(OperatorMatrix(np.array([[1.0, 1j], [-1j, 2.0]])), "hermitian")
        out = adjoint(m)
        assert np.allclose(out.entries, m.entries)
        assert dict(out.deviations) == {}

    def test_conjugates_unit_modulus_diagonal(self):
        w = np.exp(-2j * np.pi / 3)
        out = adjoint(OperatorMatrix(np.diag([1.0 + 0j, w])))
        assert np.allclose(out.entries, np.diag([1.0, w.conjugate()]))

    def test_unitary_phase_at_dim_2_is_self_adjoint(self):
        from fdphase.pegg_barnett import unitary_phase_operator

        u = unitary_phase_operator(SpaceConfig.from_dim(2, 0.0))
        assert np.allclose(adjoint(u).entries, u.entries)


class TestMatPower:
    def test_zero_power_is_identity(self):
        assert np.allclose(mat_power(OperatorMatrix(X), 0).entries, np.eye(2))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            mat_power(OperatorMatrix(np.eye(2)), -1)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 31, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_monomial_power_matches_dense_oracle(self, dim, seed):
        entries = _random_monomial(np.random.default_rng(seed), dim)
        for k in (0, 1, 2, 3, dim, 2 * dim + 1):
            oracle = np.linalg.matrix_power(entries, k)
            got = mat_power(OperatorMatrix(entries), k).entries
            assert np.max(np.abs(got - oracle)) <= 1e-13 * max(1.0, np.max(np.abs(oracle)))

    def test_diagonal_power_is_the_diagonal_of_powers(self):
        values = np.array([1.0, 1j, -1.0])
        powered = mat_power(OperatorMatrix(np.diag(values)), 5)
        assert np.array_equal(powered.entries, np.diag(values**5))
        assert dict(powered.deviations) == {}

    def test_dense_operator_refused(self):
        dense = hermitian_phase_operator(build_phase_frame(SpaceConfig.from_dim(4, 0.3)))
        with pytest.raises(ValueError, match="frame"):
            mat_power(dense, 4)


def _random_monomial(rng, dim):
    """A random permutation matrix with random complex weights."""
    entries = np.zeros((dim, dim), dtype=np.complex128)
    values = rng.uniform(0.5, 1.5, dim) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, dim))
    entries[rng.permutation(dim), np.arange(dim)] = values
    return entries


class TestUnitaryDeviation:
    @pytest.mark.parametrize("dim", [1, 2, 5, 64])
    def test_monomial_matches_dense_formula(self, dim):
        rng = np.random.default_rng(dim)
        for scale in (1e-14, 1e-9, 0.3):
            entries = _random_monomial(rng, dim)
            entries /= np.abs(entries).sum(axis=0)  # unit columns
            entries *= 1.0 + scale * rng.standard_normal(dim)
            dense = np.max(np.abs(entries.conj().T @ entries - np.eye(dim)))
            assert abs(unitary_deviation(entries) - dense) <= 1e-15

    def test_dense_matrix_keeps_the_product(self):
        entries = np.array([[1.0, 1e-7], [0.0, 1.0]])
        assert unitary_deviation(entries) == pytest.approx(1e-7)


class TestEqualUpToGlobalPhase:
    def test_identical(self):
        u = StateVector(np.array([0.6, 0.8j]))
        result = equal_up_to_global_phase(u, u, 1e-12)
        assert result.equal
        assert abs(np.exp(1j * result.phase) - 1.0) < 1e-12

    def test_sign_flip(self):
        u = StateVector(np.array([0.6, 0.8j]))
        v = StateVector(-u.amp)
        result = equal_up_to_global_phase(u, v, 1e-12)
        assert result.equal
        assert result.phase == pytest.approx(np.pi)

    def test_orthogonal(self):
        result = equal_up_to_global_phase(basis_state(2, 0), basis_state(2, 1), 1e-12)
        assert not result.equal
        assert result.phase is None

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            equal_up_to_global_phase(StateVector(np.zeros(2) + 0j), basis_state(2, 0), 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            equal_up_to_global_phase(basis_state(2, 0), basis_state(3, 0), 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_reported_phase_matches_applied_phase(self, alpha, seed):
        rng = np.random.default_rng(seed)
        amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = StateVector(amp).normalized()
        v = StateVector(np.exp(1j * alpha) * u.amp)
        result = equal_up_to_global_phase(u, v, 1e-9)
        assert result.equal
        assert abs(np.exp(1j * result.phase) - np.exp(1j * alpha)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_symmetric_and_reflexive(self, seed):
        rng = np.random.default_rng(seed)
        u = StateVector(rng.standard_normal(3) + 1j * rng.standard_normal(3)).normalized()
        v = StateVector(rng.standard_normal(3) + 1j * rng.standard_normal(3)).normalized()
        assert equal_up_to_global_phase(u, u, 1e-12).equal
        forward = equal_up_to_global_phase(u, v, 1e-6)
        backward = equal_up_to_global_phase(v, u, 1e-6)
        assert forward.equal == backward.equal


def _columns(*states):
    """Frame matrix whose columns are the given states."""
    return np.column_stack([state.amp for state in states])


def _synthesize(frame, eigvals):
    """Spectral synthesis over a raw frame matrix, certified here."""
    return spectral_synthesize(frame, eigvals, frame_deviation(frame))


class TestSpectralSynthesize:
    def test_number_operator_from_standard_basis(self):
        op = _synthesize(_columns(basis_state(2, 0), basis_state(2, 1)), [0.0, 1.0])
        assert np.allclose(op.entries, np.diag([0.0, 1.0]))

    def test_phase_operator_by_hand(self):
        # Oracle: outer-product sum over the two phase states at theta0 = 0.
        theta0 = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        theta1 = StateVector(np.array([1.0, -1.0]) / np.sqrt(2.0))
        hand = 0.0 * np.outer(theta0.amp, theta0.amp.conj()) + np.pi * np.outer(
            theta1.amp, theta1.amp.conj()
        )
        assert np.allclose(hand, np.pi / 2 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
        op = _synthesize(_columns(theta0, theta1), [0.0, np.pi])
        assert np.allclose(op.entries, hand)

    def test_unitary_phase_by_hand(self):
        theta0 = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        theta1 = StateVector(np.array([1.0, -1.0]) / np.sqrt(2.0))
        op = _synthesize(_columns(theta0, theta1), [np.exp(0j), np.exp(1j * np.pi)])
        assert np.allclose(op.entries, X, atol=1e-15)

    def test_eigenvalues_reproduced_over_same_frame(self):
        config = SpaceConfig.from_dim(5, 0.4)
        frame = build_phase_frame(config)
        values = np.exp(1j * config.thetas())
        op = spectral_synthesize(frame.matrix, values, frame.deviation)
        states = [StateVector(frame.matrix[:, m]) for m in range(5)]
        recovered = np.array([state.inner(mat_apply(op, state)) for state in states])
        assert np.max(np.abs(recovered - values)) <= TolerancePolicy.for_dim(5).tol_elem

    def test_non_orthonormal_frame_rejected_with_diagnostic(self):
        skewed = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        with pytest.raises(NonOrthonormalFrame) as info:
            _synthesize(_columns(basis_state(2, 0), skewed), [1.0, 2.0])
        assert info.value.max_deviation == pytest.approx(1 / np.sqrt(2.0))

    def test_deviation_above_tolerance_refused(self):
        with pytest.raises(NonOrthonormalFrame) as info:
            spectral_synthesize(np.eye(2), [1.0, 2.0], 1.0)
        assert info.value.max_deviation == 1.0
        assert info.value.tolerance == TolerancePolicy.for_dim(2).tol_op

    def test_incomplete_frame_rejected(self):
        with pytest.raises(ValueError, match="complete"):
            _synthesize(_columns(basis_state(2, 0)), [1.0])


class TestCertify:
    def test_unitary_diagonal_signs(self):
        op = certify(OperatorMatrix(np.diag([1.0, -1.0])), "unitary")
        assert isinstance(op, OperatorMatrix)
        assert dict(op.deviations) == {"unitary": 0.0}

    def test_rank_deficient_not_unitary(self):
        with pytest.raises(ArithmeticError, match="unitary certification failed"):
            certify(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])), "unitary")

    def test_phase_operator_hermitian(self):
        phi = hermitian_phase_operator(build_phase_frame(SpaceConfig.from_dim(3, 0.3)))
        again = certify(phi, "hermitian")
        assert again.deviations["hermitian"] == phi.deviations["hermitian"]

    @pytest.mark.parametrize("tag", ["normal", "diagonal"])
    def test_unknown_tag(self, tag):
        with pytest.raises(ValueError, match="unknown tag"):
            certify(OperatorMatrix(np.eye(2)), tag)
