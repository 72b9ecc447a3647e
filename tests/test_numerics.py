"""Substrate tests: containers, certification, comparisons, spectral synthesis."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdphase import numerics
from fdphase.numerics import (
    DimensionMismatch,
    OperatorMatrix,
    TolerancePolicy,
    certify,
    equal_up_to_global_phase,
    mat_power,
    spectral_synthesize,
    unitary_deviation,
)
from fdphase.pegg_barnett import SpaceConfig, build_phase_frame, hermitian_phase_operator

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def basis(dim, n):
    """The standard basis ket |n> as a complex array."""
    return np.eye(dim, dtype=np.complex128)[:, n]


class TestTolerancePolicy:
    def test_defaults_scale_with_dim(self):
        policy = TolerancePolicy.for_dim(4)
        assert policy.tol_elem == pytest.approx(4e-12)
        assert policy.tol_op == pytest.approx(4e-11)

    def test_has_one_element_and_one_operator_tolerance(self):
        assert [f.name for f in dataclasses.fields(TolerancePolicy)] == ["tol_elem", "tol_op"]

    @pytest.mark.parametrize("bad", [0.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            TolerancePolicy(tol_elem=bad, tol_op=1e-11)
        with pytest.raises(ValueError):
            TolerancePolicy(tol_elem=1e-12, tol_op=bad)


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


class TestApplyToState:
    def test_identity(self):
        assert np.allclose(OperatorMatrix(np.eye(2)).apply(basis(2, 0)), [1.0, 0.0])

    def test_permutation(self):
        assert np.allclose(OperatorMatrix(X).apply(basis(2, 0)), [0.0, 1.0])

    def test_phase_operator_on_ground_state(self):
        # Oracle: Phi at dim 2, theta0 0 is pi |theta_1><theta_1| with
        # theta_1 = (1, -1)/sqrt(2), assembled here by hand.
        theta1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        phi_oracle = np.pi * np.outer(theta1, theta1.conj())
        expected = phi_oracle @ np.array([1.0, 0.0])
        assert np.allclose(expected, [np.pi / 2, -np.pi / 2])

        phi = hermitian_phase_operator(build_phase_frame(SpaceConfig.from_dim(2, 0.0)))
        assert np.allclose(phi.apply(np.array([1.0, 0.0])), expected, atol=1e-14)

    def test_is_the_entries_product(self):
        rng = np.random.default_rng(3)
        m = OperatorMatrix(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.array_equal(m.apply(psi), m.entries @ psi)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            OperatorMatrix(np.eye(2)).apply(basis(3, 0))


class TestApplyToBlock:
    def test_identity_absorbs(self):
        m = OperatorMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(OperatorMatrix(np.eye(2)).apply(m.entries), m.entries)

    def test_involution(self):
        assert np.allclose(OperatorMatrix(X).apply(X), np.eye(2))

    def test_number_shift_squared_at_dim_2(self):
        # q = -1 at dim 2, so q^-N = diag(1, -1) squares to the identity.
        qm = OperatorMatrix(np.diag([1.0, -1.0]))
        assert np.allclose(qm.apply(qm.entries), np.eye(2))

    def test_product_is_a_plain_array(self):
        # A product is not an operator, so it carries no certification.
        u = certify(OperatorMatrix(np.diag([1.0, -1.0])), "unitary")
        product = u.apply(u.entries)
        assert type(product) is np.ndarray
        assert np.array_equal(product, u.entries @ u.entries)

    def test_rectangular_block_acts_column_by_column(self):
        m = OperatorMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        block = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        out = m.apply(block)
        assert out.shape == (2, 3)
        for k in range(3):
            assert np.array_equal(out[:, k], m.apply(block[:, k]))

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2), (2, 2, 2), ()])
    def test_dimension_mismatch(self, shape):
        with pytest.raises(DimensionMismatch):
            OperatorMatrix(np.eye(2)).apply(np.ones(shape))


class TestConjugateTranspose:
    def test_unitary_phase_at_dim_2_is_self_adjoint(self):
        from fdphase.pegg_barnett import unitary_phase_operator

        u = unitary_phase_operator(SpaceConfig.from_dim(2, 0.0))
        assert np.allclose(u.entries.conj().T, u.entries)


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

    @pytest.mark.parametrize("k", [1100, 10**23])
    def test_overflowing_power_refused_by_name(self, k):
        # 2**1100 overflows, and inf * 0 in the complex products is invalid;
        # neither may surface as a numpy warning.
        entries = np.diag([2.0, 0.5j, -1.0]).astype(np.complex128)
        with pytest.raises(ArithmeticError, match=rf"^the power {k} overflows"):
            mat_power(OperatorMatrix(entries), k)

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
        u = np.array([0.6, 0.8j])
        phase = equal_up_to_global_phase(u, u, 1e-12)
        assert abs(np.exp(1j * phase) - 1.0) < 1e-12

    def test_sign_flip(self):
        u = np.array([0.6, 0.8j])
        assert equal_up_to_global_phase(u, -u, 1e-12) == pytest.approx(np.pi)

    def test_orthogonal(self):
        assert equal_up_to_global_phase(basis(2, 0), basis(2, 1), 1e-12) is None

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            equal_up_to_global_phase(np.zeros(2) + 0j, basis(2, 0), 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            equal_up_to_global_phase(basis(2, 0), basis(3, 0), 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_reported_phase_matches_applied_phase(self, alpha, seed):
        rng = np.random.default_rng(seed)
        amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = amp / np.linalg.norm(amp)
        phase = equal_up_to_global_phase(u, np.exp(1j * alpha) * u, 1e-9)
        assert phase is not None
        assert abs(np.exp(1j * phase) - np.exp(1j * alpha)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_symmetric_and_reflexive(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        assert equal_up_to_global_phase(u, u, 1e-12) is not None
        forward = equal_up_to_global_phase(u, v, 1e-6)
        backward = equal_up_to_global_phase(v, u, 1e-6)
        assert (forward is None) == (backward is None)


def _columns(*states):
    """Frame matrix whose columns are the given states."""
    return np.column_stack(states)


def _synthesize(frame, eigvals):
    """Spectral synthesis over a raw frame matrix, certified here."""
    return spectral_synthesize(certify(OperatorMatrix(frame), "unitary"), eigvals)


class TestSpectralSynthesize:
    def test_number_operator_from_standard_basis(self):
        op = _synthesize(_columns(basis(2, 0), basis(2, 1)), [0.0, 1.0])
        assert np.allclose(op.entries, np.diag([0.0, 1.0]))

    def test_phase_operator_by_hand(self):
        # Oracle: outer-product sum over the two phase states at theta0 = 0.
        theta0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        theta1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        hand = 0.0 * np.outer(theta0, theta0.conj()) + np.pi * np.outer(theta1, theta1.conj())
        assert np.allclose(hand, np.pi / 2 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
        op = _synthesize(_columns(theta0, theta1), [0.0, np.pi])
        assert np.allclose(op.entries, hand)

    def test_unitary_phase_by_hand(self):
        theta0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        theta1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        op = _synthesize(_columns(theta0, theta1), [np.exp(0j), np.exp(1j * np.pi)])
        assert np.allclose(op.entries, X, atol=1e-15)

    def test_eigenvalues_reproduced_over_same_frame(self):
        config = SpaceConfig.from_dim(5, 0.4)
        frame = build_phase_frame(config)
        values = np.exp(1j * config.thetas())
        op = spectral_synthesize(frame.basis, values)
        states = frame.basis.entries
        recovered = np.einsum("nm,nm->m", states.conj(), op.apply(states))
        assert np.max(np.abs(recovered - values)) <= TolerancePolicy.for_dim(5).tol_elem

    def test_non_orthonormal_frame_rejected_with_diagnostic(self):
        skewed = np.array([1.0, 1.0]) / np.sqrt(2.0)
        message = r"deviation 7\.071e-01 \(tolerance 2\.000e-11\)"
        with pytest.raises(ArithmeticError, match=message):
            _synthesize(_columns(basis(2, 0), skewed), [1.0, 2.0])

    def test_takes_the_frame_and_the_eigenvalues_only(self):
        parameters = inspect.signature(spectral_synthesize).parameters
        assert list(parameters) == ["frame", "eigvals"]

    @pytest.mark.parametrize("tags", [(), ("hermitian",)], ids=["uncertified", "hermitian"])
    def test_frame_without_unitary_certification_refused(self, tags):
        frame = OperatorMatrix(np.eye(2))
        for tag in tags:
            frame = certify(frame, tag)
        with pytest.raises(ValueError, match="certified unitary"):
            spectral_synthesize(frame, [1.0, 2.0])

    def test_incomplete_frame_rejected(self):
        with pytest.raises(ValueError, match="square"):
            _synthesize(_columns(basis(2, 0)), [1.0])
        with pytest.raises(ValueError, match="complete"):
            _synthesize(np.eye(2), [1.0])


class TestCertify:
    def test_nan_deviation_refused(self, monkeypatch):
        # A NaN deviation compares False against any tolerance, both ways.
        monkeypatch.setitem(numerics._TAG_DEVIATIONS, "unitary", lambda entries: float("nan"))
        with pytest.raises(ArithmeticError, match="deviation nan"):
            certify(OperatorMatrix(np.eye(2)), "unitary")

    def test_failure_names_the_tolerance(self):
        message = r"deviation 3\.000e\+00 \(tolerance 2\.000e-11\)"
        with pytest.raises(ArithmeticError, match=message):
            certify(OperatorMatrix(np.diag([1.0, 2.0])), "unitary")

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
