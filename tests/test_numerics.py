"""Substrate tests: containers, certification, comparisons, spectral synthesis."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdphase import numerics, suites
from fdphase.cli import main
from fdphase.numerics import (
    DimensionMismatch,
    OperatorMatrix,
    TolerancePolicy,
    certify,
    equal_up_to_global_phase,
    mat_power,
    spectral_synthesize,
    tag_deviation,
)
from fdphase.pegg_barnett import (
    SpaceConfig,
    _toeplitz,
    build_phase_frame,
    hermitian_phase_operator,
)
from fdphase.report import RunManifest

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def basis(dim, n):
    """The standard basis ket |n> as a complex array."""
    return np.eye(dim, dtype=np.complex128)[:, n]


def diagonal(values):
    """diag(values) as a held diagonal monomial."""
    return OperatorMatrix.monomial(np.arange(len(values)), values)


def swap():
    """The 2 x 2 permutation X as a held monomial."""
    return OperatorMatrix.monomial([1, 0], [1.0, 1.0])


def general(dim, seed):
    """A held operator with no structure: neither monomial, hermitian nor unitary."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, dim) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, dim))
    return OperatorMatrix.product(
        OperatorMatrix.fourier(dim, 0.3, 0.2), diagonal(weights),
        OperatorMatrix.fourier(dim, 1.1, 0.7).adjoint())


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
    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            OperatorMatrix.monomial([0, 1], [np.inf, 0.0])

    @pytest.mark.parametrize("keyword", ["tags", "deviations", "deviation"])
    def test_takes_only_its_parts(self, keyword):
        with pytest.raises(TypeError):
            OperatorMatrix.monomial([0, 1], [1.0, 1.0], **{keyword: {"unitary": 0.0}})

    def test_has_no_dense_constructor(self):
        with pytest.raises(TypeError):
            OperatorMatrix(np.eye(2))


class TestApplyToState:
    def test_identity(self):
        assert np.allclose(diagonal([1.0, 1.0]).apply(basis(2, 0)), [1.0, 0.0])

    def test_permutation(self):
        assert np.allclose(swap().apply(basis(2, 0)), [0.0, 1.0])

    def test_phase_operator_on_ground_state(self):
        # Oracle: Phi at dim 2, theta0 0 is pi |theta_1><theta_1| with
        # theta_1 = (1, -1)/sqrt(2), assembled here by hand.
        theta1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        phi_oracle = np.pi * np.outer(theta1, theta1.conj())
        expected = phi_oracle @ np.array([1.0, 0.0])
        assert np.allclose(expected, [np.pi / 2, -np.pi / 2])

        config = SpaceConfig.from_dim(2, 0.0)
        phi = spectral_synthesize(build_phase_frame(config).basis, config.thetas())
        assert np.allclose(phi.apply(np.array([1.0, 0.0])), expected, atol=1e-14)

    def test_is_the_entries_product(self):
        rng = np.random.default_rng(3)
        m = general(5, 3)
        psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.max(np.abs(m.apply(psi) - m.entries @ psi)) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            diagonal([1.0, 1.0]).apply(basis(3, 0))


class TestApplyToBlock:
    def test_identity_absorbs(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(diagonal([1.0, 1.0]).apply(m), m)

    def test_involution(self):
        assert np.allclose(swap().apply(X), np.eye(2))

    def test_number_shift_squared_at_dim_2(self):
        # q = -1 at dim 2, so q^-N = diag(1, -1) squares to the identity.
        qm = diagonal([1.0, -1.0])
        assert np.allclose(qm.apply(qm.entries), np.eye(2))

    def test_product_is_a_plain_array(self):
        # A product is not an operator, so it carries no certification.
        u = certify(diagonal([1.0, -1.0]))
        product = u.apply(u.entries)
        assert type(product) is np.ndarray
        assert np.array_equal(product, u.entries @ u.entries)

    def test_rectangular_block_acts_column_by_column(self):
        m = general(2, 5)
        block = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        out = m.apply(block)
        assert out.shape == (2, 3)
        for k in range(3):
            assert np.max(np.abs(out[:, k] - m.apply(block[:, k]))) <= 1e-15

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2), (2, 2, 2), ()])
    def test_dimension_mismatch(self, shape):
        with pytest.raises(DimensionMismatch):
            diagonal([1.0, 1.0]).apply(np.ones(shape))


class TestConjugateTranspose:
    def test_unitary_phase_at_dim_2_is_self_adjoint(self):
        from fdphase.pegg_barnett import unitary_phase_operator

        u = unitary_phase_operator(SpaceConfig.from_dim(2, 0.0))
        assert np.allclose(u.entries.conj().T, u.entries)


class TestMatPower:
    def test_zero_power_is_identity(self):
        assert np.allclose(mat_power(swap(), 0).entries, np.eye(2))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            mat_power(diagonal([1.0, 1.0]), -1)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 31, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_monomial_power_matches_dense_oracle(self, dim, seed):
        op, entries = _random_monomial(np.random.default_rng(seed), dim)
        for k in (0, 1, 2, 3, dim, 2 * dim + 1):
            oracle = np.linalg.matrix_power(entries, k)
            got = mat_power(op, k).entries
            assert np.max(np.abs(got - oracle)) <= 1e-13 * max(1.0, np.max(np.abs(oracle)))

    def test_diagonal_power_is_the_diagonal_of_powers(self):
        values = np.array([1.0, 1j, -1.0])
        powered = mat_power(diagonal(values), 5)
        assert np.array_equal(powered.entries, np.diag(values**5))
        assert powered.deviation is None

    @pytest.mark.parametrize("k", [1100, 10**23])
    def test_overflowing_power_refused_by_name(self, k):
        # 2**1100 overflows, and inf * 0 in the complex products is invalid;
        # neither may surface as a numpy warning.
        with pytest.raises(ArithmeticError, match=rf"^the power {k} overflows"):
            mat_power(diagonal([2.0, 0.5j, -1.0]), k)

    def test_dense_operator_refused(self):
        with pytest.raises(ValueError, match="frame"):
            mat_power(general(4, 0), 4)


def _random_monomial(rng, dim, scale=None):
    """A random weighted permutation, held, and its entries as a plain array.

    With ``scale`` the weights have unit modulus times 1 + scale * N(0, 1).
    """
    values = rng.uniform(0.5, 1.5, dim) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, dim))
    if scale is not None:
        values = values / np.abs(values) * (1.0 + scale * rng.standard_normal(dim))
    rows = rng.permutation(dim)
    entries = np.zeros((dim, dim), dtype=np.complex128)
    entries[rows, np.arange(dim)] = values
    return OperatorMatrix.monomial(rows, values), entries


class TestUnitaryDeviation:
    @pytest.mark.parametrize("dim", [1, 2, 5, 64])
    def test_monomial_matches_dense_formula(self, dim):
        rng = np.random.default_rng(dim)
        for scale in (1e-14, 1e-9, 0.3):
            op, entries = _random_monomial(rng, dim, scale)
            dense = np.max(np.abs(entries.conj().T @ entries - np.eye(dim)))
            assert abs(tag_deviation(op) - dense) <= 1e-15

    def test_other_operators_keep_the_product(self):
        # A shifted DFT times diag(1, 1 + 1e-7): not a monomial, so read as
        # max |M^dag M - 1| on the probe block, here the identity.
        dft = OperatorMatrix.fourier(2, 0.0, 0.0)
        op = OperatorMatrix.product(dft, diagonal([1.0, 1.0 + 1e-7]))
        entries = op.entries
        dense = np.max(np.abs(entries.conj().T @ entries - np.eye(2)))
        assert tag_deviation(op) == pytest.approx(dense, rel=1e-6)
        assert dense == pytest.approx(2e-7, rel=1e-6)


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


def _synthesize(frame, eigvals):
    """Spectral synthesis over a frame operator, certified here."""
    return spectral_synthesize(certify(frame), eigvals)


# The phase states at dim 2 and theta0 = 0: columns (1, 1)/sqrt(2) and (1, -1)/sqrt(2).
def _phase_states_2():
    return OperatorMatrix.fourier(2, 0.0, 0.0)


class TestSpectralSynthesize:
    def test_number_operator_from_standard_basis(self):
        op = _synthesize(diagonal([1.0, 1.0]), [0.0, 1.0])
        assert np.allclose(op.entries, np.diag([0.0, 1.0]))

    def test_phase_operator_by_hand(self):
        # Oracle: outer-product sum over the two phase states at theta0 = 0.
        theta0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        theta1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        hand = 0.0 * np.outer(theta0, theta0.conj()) + np.pi * np.outer(theta1, theta1.conj())
        assert np.allclose(hand, np.pi / 2 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(_phase_states_2().entries, np.column_stack([theta0, theta1]))
        op = _synthesize(_phase_states_2(), [0.0, np.pi])
        assert np.allclose(op.entries, hand)

    def test_unitary_phase_by_hand(self):
        op = _synthesize(_phase_states_2(), [np.exp(0j), np.exp(1j * np.pi)])
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
        # diag(1, 2) times the phase states: columns (1, 2)/sqrt(2) and
        # (1, -2)/sqrt(2), whose Gram matrix is [[5/2, -3/2], [-3/2, 5/2]].
        skewed = OperatorMatrix.product(diagonal([1.0, 2.0]), _phase_states_2())
        message = r"deviation 1\.500e\+00 \(tolerance 2\.000e-11\)"
        with pytest.raises(ArithmeticError, match=message):
            _synthesize(skewed, [1.0, 2.0])

    def test_takes_the_frame_and_the_eigenvalues_only(self):
        parameters = inspect.signature(spectral_synthesize).parameters
        assert list(parameters) == ["frame", "eigvals"]

    def test_frame_without_unitary_certification_refused(self):
        with pytest.raises(ValueError, match="certified unitary"):
            spectral_synthesize(diagonal([1.0, 1.0]), [1.0, 2.0])

    def test_frame_whose_certification_failed_stays_refused(self):
        skewed = OperatorMatrix.product(diagonal([1.0, 2.0]), _phase_states_2())
        with pytest.raises(ArithmeticError, match="unitary certification failed"):
            certify(skewed)
        assert skewed.deviation is None
        with pytest.raises(ValueError, match="certified unitary"):
            spectral_synthesize(skewed, [1.0, 2.0])

    def test_incomplete_frame_rejected(self):
        with pytest.raises(ValueError, match="complete"):
            _synthesize(diagonal([1.0, 1.0]), [1.0])


class TestCertify:
    @pytest.mark.parametrize("fn", [certify, tag_deviation])
    def test_takes_the_operator_only(self, fn):
        assert list(inspect.signature(fn).parameters) == ["m"]

    def test_nan_deviation_refused(self, monkeypatch):
        # A NaN deviation compares False against any tolerance, both ways.
        monkeypatch.setattr(numerics, "tag_deviation", lambda m: float("nan"))
        with pytest.raises(ArithmeticError, match="deviation nan"):
            certify(diagonal([1.0, 1.0]))

    def test_failure_names_the_tolerance(self):
        message = r"deviation 3\.000e\+00 \(tolerance 2\.000e-11\)"
        with pytest.raises(ArithmeticError, match=message):
            certify(diagonal([1.0, 2.0]))

    def test_unitary_diagonal_signs(self):
        op = certify(diagonal([1.0, -1.0]))
        assert isinstance(op, OperatorMatrix)
        assert op.deviation == 0.0

    def test_rank_deficient_not_unitary(self):
        # [[0, 1], [0, 0]]: column 0 is zero.
        with pytest.raises(ArithmeticError, match="unitary certification failed"):
            certify(OperatorMatrix.monomial([1, 0], [0.0, 1.0]))

    def test_phase_operator_hermitian(self):
        # Phi is certified hermitian on its Toeplitz values, refused as certify refuses.
        phi, deviation = hermitian_phase_operator(build_phase_frame(SpaceConfig.from_dim(3, 0.3)))
        entries = _toeplitz(phi)
        assert deviation == np.max(np.abs(entries - entries.conj().T))
        message = r"^hermitian certification failed with deviation 1\.000e\+00 \(tolerance 3\.000e-11\)$"
        with pytest.raises(ArithmeticError, match=message):
            numerics.within_tol_op("hermitian", 1.0, 3)


class TestProbes:
    @pytest.mark.parametrize("dim", [1, 2, 31, 64])
    def test_identity_up_to_the_exact_dimension(self, dim):
        assert numerics.PROBE_EXACT_DIM == 64
        block = numerics.probes(dim)
        assert block.shape == (dim, dim)
        assert np.array_equal(block, np.eye(dim))

    @pytest.mark.parametrize("dim", [65, 128, 512, 1024])
    def test_basis_corners_and_unit_gaussians_above_it(self, dim):
        block = numerics.probes(dim)
        assert block.shape == (dim, 10) == (dim, 2 + numerics.PROBE_COUNT)
        assert np.array_equal(block[:, 0], basis(dim, 0))
        assert np.array_equal(block[:, 1], basis(dim, dim - 1))
        assert np.all(block[:, 2:] != 0)
        assert np.max(np.abs(np.linalg.norm(block, axis=0) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("dim", [3, 65, 512])
    def test_read_only_and_fixed_by_the_dimension(self, dim):
        block = numerics.probes(dim)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 2.0
        assert numerics.probes(dim).tobytes() == block.tobytes()

    def test_one_build_per_command_kept_while_the_dimension_holds(self, tmp_path, capsys):
        def misses(dim):
            argv = ["verify", "--dim", str(dim), "--theta0", "2.9", "--eta", "1.5",
                    "--out", str(tmp_path / "report.json")]
            before = numerics.probes.cache_info()
            assert main(argv) == 0
            after = numerics.probes.cache_info()
            assert after.hits > before.hits
            return after.misses - before.misses

        numerics.probes.cache_clear()
        block = numerics.probes(128)
        assert numerics.probes(128) is block
        numerics.probes.cache_clear()
        assert [misses(dim) for dim in (128, 128, 64, 128, 128)] == [1, 0, 1, 1, 0]
        assert numerics.probes(128) is not block
        assert numerics.probes(128).tobytes() == block.tobytes()

    @pytest.mark.parametrize("dim", [65, 128, 511, 512, 1024, 4096])
    def test_every_row_meets_a_large_probe_entry(self, dim):
        # A single wrong entry E[j, l] shows as |E[j, l]| max_c |P[l, c]|.
        block = numerics.probes(dim)
        assert np.min(np.max(np.abs(block), axis=1)) >= 0.5 / np.sqrt(dim)

    @pytest.mark.parametrize("where", ["corner (s, 0)", "corner (0, s)", "interior"])
    def test_a_planted_entry_error_fails_its_record(self, monkeypatch, where):
        dim = 128
        row, col = {"corner (s, 0)": (dim - 1, 0), "corner (0, s)": (0, dim - 1),
                    "interior": (37, 90)}[where]
        manifest = RunManifest(dim=dim, theta0=2.9, suites=("pb-core",))
        check_id = "commutator_direct_vs_closed_form"

        def status():
            (record,) = [r for r in suites.run_suites(manifest).records if r.check_id == check_id]
            return record.status

        assert status() == "pass"
        closed_form = suites.commutator_closed_form

        def planted(config):
            # Entry (row, col) is the value at n - n' = row - col.
            values = closed_form(config).copy()
            values[row - col + dim - 1] += 1e-3
            return values

        # The record's reference is the closed form's Toeplitz values.
        monkeypatch.setattr(suites, "commutator_closed_form", planted)
        assert status() == "fail"
