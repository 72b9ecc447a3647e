"""Deformed ladder algebra: profiles, frames, recovery, cycle phases."""

import dataclasses

import numpy as np
import pytest

from fdphase.deformed import (
    DeformationProfile,
    ProfileError,
    build_generalized_frame,
    build_ladder_operators,
    cycle_operator_power,
    deformation_linear,
    duality_check,
    eta_class,
    generalized_number_shift,
    modified_number_shift,
    offset_phase_frame,
    profile_from_json,
    recover_phase_operator,
)
from fdphase.numerics import DimensionMismatch, TolerancePolicy, equal_up_to_global_phase
from fdphase.pegg_barnett import (
    PhaseFrame,
    SpaceConfig,
    build_phase_frame,
    number_shift_operator,
    unitary_phase_operator,
)
from fdphase.report import STATUS_PASS


def _offset_frame(config, eta):
    """The offset frame |n+eta> over a freshly built phase frame."""
    return build_generalized_frame(build_phase_frame(config), eta)


def _in_frame(frame, matrix):
    """Coordinates V^dag M V of the matrix M in the offset number basis V."""
    v = frame.number_matrix
    return v.conj().T @ matrix @ v


class TestDeformationProfile:
    def test_linear_values(self):
        profile = deformation_linear(SpaceConfig.from_dim(3), 0.5)
        assert np.allclose(profile.values, [0.5, 1.5, 2.5])
        assert profile.variant == "linear"

    def test_linear_integer_offset(self):
        profile = deformation_linear(SpaceConfig.from_dim(2), 1.0)
        assert np.allclose(profile.values, [1.0, 2.0])

    @pytest.mark.parametrize("eta", [0.0, -0.5, -3.0])
    def test_linear_rejects_non_positive_bottom(self, eta):
        with pytest.raises(ProfileError):
            deformation_linear(SpaceConfig.from_dim(3), eta)

    def test_rejects_negative_weight(self):
        with pytest.raises(ProfileError):
            DeformationProfile(np.array([1.0, -0.1]))

    def test_rejects_zero_bottom_weight(self):
        with pytest.raises(ProfileError):
            DeformationProfile(np.array([0.0, 1.0]))

    def test_zero_above_bottom_is_allowed(self):
        profile = DeformationProfile(np.array([1.0, 0.0]))
        assert profile.dim == 2


class TestProfileFromJson:
    def test_accepts_matching_array(self):
        profile = profile_from_json("[0.5, 1.25, 7]", 3)
        assert np.allclose(profile.values, [0.5, 1.25, 7.0])
        assert profile.variant == "user"

    def test_rejects_wrong_length(self):
        with pytest.raises(ProfileError):
            profile_from_json("[1.0, 2.0]", 3)

    def test_rejects_non_array(self):
        with pytest.raises(ProfileError):
            profile_from_json('{"values": [1.0]}', 1)

    def test_rejects_non_real_entries(self):
        with pytest.raises(ProfileError):
            profile_from_json('[1.0, "x"]', 2)

    def test_rejects_bad_json(self):
        with pytest.raises(ProfileError):
            profile_from_json("[1.0,", 1)

    def test_rejects_negative(self):
        with pytest.raises(ProfileError):
            profile_from_json("[1.0, -2.0]", 2)


class TestGeneralizedFrame:
    def test_eta_zero_reduces_to_standard_bases(self):
        config = SpaceConfig.from_dim(4, 0.7)
        base = build_phase_frame(config)
        frame = build_generalized_frame(base, 0.0)
        assert np.max(np.abs(frame.number_matrix - np.eye(4))) <= 4e-12
        assert np.max(np.abs(offset_phase_frame(frame).matrix - base.matrix)) <= 4e-12

    def test_integer_eta_phase_states_match_base_frame(self):
        # The net factor on each phase state is one: the coefficient factor
        # exp(i eta theta_m) cancels against the eigenvalue of
        # exp(-i eta Phi) on that state.
        config = SpaceConfig.from_dim(2, 0.0)
        base = build_phase_frame(config)
        phases = offset_phase_frame(build_generalized_frame(base, 1.0))
        for m in range(2):
            phase = equal_up_to_global_phase(base.matrix[:, m], phases.matrix[:, m], 1e-12)
            assert phase is not None
            assert abs(np.exp(1j * phase) - 1.0) < 1e-12

    def test_half_eta_number_states_orthogonal(self):
        frame = _offset_frame(SpaceConfig.from_dim(2, 0.0), 0.5)
        overlap = np.vdot(frame.number_matrix[:, 0], frame.number_matrix[:, 1])
        assert abs(overlap) <= 2e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("eta", [0.25, 0.5, 1.0, 1.5])
    def test_roundtrip_through_phase_states(self, dim, eta):
        # Rebuild |n+eta> from the inverse Fourier sum over the offset
        # phase states and compare with the direct construction.
        config = SpaceConfig.from_dim(dim, 0.4)
        frame = _offset_frame(config, eta)
        coeff = np.exp(
            1j * np.outer(np.arange(dim) + eta, config.thetas())
        ) / np.sqrt(dim)
        rebuilt = offset_phase_frame(frame).matrix @ coeff.conj().T
        assert np.max(np.abs(rebuilt - frame.number_matrix)) <= 1e-11 * dim

    def test_carries_no_phase_family(self):
        frame = _offset_frame(SpaceConfig.from_dim(2), 0.5)
        names = [f.name for f in dataclasses.fields(frame)]
        assert names == ["config", "eta", "number_matrix", "number_deviation"]

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_offset_phase_frame_is_a_certified_phase_frame(self, dim):
        config = SpaceConfig.from_dim(dim, 0.4)
        phases = offset_phase_frame(_offset_frame(config, 0.25))
        assert isinstance(phases, PhaseFrame)
        assert phases.config is config
        gram = phases.matrix.conj().T @ phases.matrix
        assert phases.deviation == np.max(np.abs(gram - np.eye(dim)))
        assert phases.deviation <= TolerancePolicy.for_dim(dim).tol_op

    def test_rejects_non_finite_eta(self):
        with pytest.raises(ValueError):
            _offset_frame(SpaceConfig.from_dim(2), float("nan"))


class TestLadderOperators:
    def test_dim_1_single_level_cycle(self):
        config = SpaceConfig(s=0, theta0=0.9)
        profile = DeformationProfile(np.array([0.5]))
        ladder = build_ladder_operators(_offset_frame(config, 0.5), profile)
        assert ladder.a.entries[0, 0] == pytest.approx(
            np.sqrt(0.5) * np.exp(0.9j)
        )

    def test_dim_2_frame_coordinates(self):
        config = SpaceConfig.from_dim(2, 0.0)
        frame = _offset_frame(config, 0.5)
        profile = deformation_linear(config, 0.5)
        ladder = build_ladder_operators(frame, profile)
        in_frame = _in_frame(frame, ladder.a.entries)
        assert np.allclose(
            in_frame, [[0.0, np.sqrt(1.5)], [np.sqrt(0.5), 0.0]], atol=1e-14
        )

    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    @pytest.mark.parametrize("eta", [0.25, 0.5, 1.5])
    def test_ladder_products(self, dim, eta):
        # Oracle: explicit matrix products checked against the weight table.
        config = SpaceConfig.from_dim(dim, 0.3)
        frame = _offset_frame(config, eta)
        profile = deformation_linear(config, eta)
        ladder = build_ladder_operators(frame, profile)
        lowering_then_raising = _in_frame(frame, ladder.a_dag.apply(ladder.a.entries))
        assert np.max(np.abs(lowering_then_raising - np.diag(profile.values))) <= 1e-11 * dim
        raising_then_lowering = _in_frame(frame, ladder.a.apply(ladder.a_dag.entries))
        assert (
            np.max(np.abs(raising_then_lowering - np.diag(np.roll(profile.values, -1))))
            <= 1e-11 * dim
        )

    def test_raising_is_the_exact_adjoint(self):
        config = SpaceConfig.from_dim(4, 0.3)
        frame = _offset_frame(config, 0.25)
        ladder = build_ladder_operators(frame, deformation_linear(config, 0.25))
        assert np.array_equal(ladder.a_dag.entries, ladder.a.entries.conj().T)
        assert dict(ladder.a_dag.deviations) == {}

    def test_profile_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_ladder_operators(
                _offset_frame(SpaceConfig.from_dim(3), 0.5), DeformationProfile(np.array([1.0]))
            )


class TestRecoverPhaseOperator:
    def test_dim_2_recovers_swap(self):
        config = SpaceConfig.from_dim(2, 0.0)
        frame = _offset_frame(config, 0.5)
        profile = deformation_linear(config, 0.5)
        ladder = build_ladder_operators(frame, profile)
        recovered = recover_phase_operator(ladder.a, profile, frame)
        assert np.allclose(recovered.entries, [[0, 1], [1, 0]], atol=1e-14)

    def test_dim_3_matches_explicit_realization(self):
        config = SpaceConfig.from_dim(3, 0.4)
        frame = _offset_frame(config, 0.5)
        profile = deformation_linear(config, 0.5)
        ladder = build_ladder_operators(frame, profile)
        recovered = recover_phase_operator(ladder.a, profile, frame)
        expected = unitary_phase_operator(config)
        assert np.max(np.abs(recovered.entries - expected.entries)) <= 3e-11

    def test_dim_1_gives_window_phase(self):
        config = SpaceConfig(s=0, theta0=0.7)
        frame = _offset_frame(config, 0.5)
        profile = DeformationProfile(np.array([0.5]))
        ladder = build_ladder_operators(frame, profile)
        recovered = recover_phase_operator(ladder.a, profile, frame)
        assert recovered.entries[0, 0] == pytest.approx(np.exp(0.7j))

    def test_independent_of_weight_table(self):
        config = SpaceConfig.from_dim(3, 1.1)
        frame = _offset_frame(config, 0.25)
        expected = unitary_phase_operator(config)
        for values in ([0.7, 2.2, 1.3], [5.0, 0.1, 9.0]):
            profile = DeformationProfile(np.array(values))
            ladder = build_ladder_operators(frame, profile)
            recovered = recover_phase_operator(ladder.a, profile, frame)
            assert np.max(np.abs(recovered.entries - expected.entries)) <= 3e-11

    def test_zero_weight_refused(self):
        config = SpaceConfig.from_dim(2, 0.0)
        frame = _offset_frame(config, 0.5)
        profile = DeformationProfile(np.array([1.0, 0.0]))
        ladder = build_ladder_operators(frame, profile)
        with pytest.raises(ProfileError):
            recover_phase_operator(ladder.a, profile, frame)


class TestModifiedNumberShift:
    def test_number_shift_eigenvalues(self):
        config = SpaceConfig.from_dim(3, 0.0)
        frame = _offset_frame(config, 0.5)
        in_frame = _in_frame(frame, generalized_number_shift(frame).entries)
        expected = np.diag(config.root_power(-(np.arange(3) + 0.5)))
        assert np.max(np.abs(in_frame - expected)) <= 3e-11

    def test_eta_zero_reduces_to_undeformed_shift(self):
        config = SpaceConfig.from_dim(4, 0.6)
        frame = _offset_frame(config, 0.0)
        op = modified_number_shift(frame, offset_phase_frame(frame))
        assert np.max(
            np.abs(op.entries - number_shift_operator(config).entries)
        ) <= 4e-11

    def test_dim_2_half_eta_in_frame_coordinates(self):
        config = SpaceConfig.from_dim(2, 0.0)
        frame = _offset_frame(config, 0.5)
        op = modified_number_shift(frame, offset_phase_frame(frame))
        in_frame = _in_frame(frame, op.entries)
        expected = np.exp(-1j * np.pi / 2) * np.diag([1.0, -1.0])
        assert np.allclose(in_frame, expected, atol=1e-14)

    def test_dim_2_half_eta_standard_coordinates(self):
        # Hand value: the two projector terms evaluate to [[0,-1],[1,0]].
        frame = _offset_frame(SpaceConfig.from_dim(2, 0.0), 0.5)
        op = modified_number_shift(frame, offset_phase_frame(frame))
        assert np.allclose(op.entries, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 1.0, 1.5])
    def test_matches_spectral_form(self, dim, eta):
        config = SpaceConfig.from_dim(dim, 0.2)
        frame = _offset_frame(config, eta)
        realization = modified_number_shift(frame, offset_phase_frame(frame))
        spectral = generalized_number_shift(frame)
        assert np.max(np.abs(realization.entries - spectral.entries)) <= 1e-11 * dim

    def test_wraparound_action(self):
        config = SpaceConfig.from_dim(3, 0.0)
        frame = _offset_frame(config, 0.25)
        phases = offset_phase_frame(frame)
        out = modified_number_shift(frame, phases).apply(phases.matrix[:, 0])
        expected = np.exp(-2j * np.pi * 0.25) * phases.matrix[:, 2]
        assert np.max(np.abs(out - expected)) <= 3e-12


class TestCycleOperatorPower:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 32])
    @pytest.mark.parametrize("eta", [-1.0, 0.0, 0.25, 0.5, 1.0, 1.5])
    def test_full_cycle_phase(self, dim, eta):
        config = SpaceConfig.from_dim(dim, 0.3)
        cycle = cycle_operator_power(_offset_frame(config, eta), dim)
        expected = np.exp(-2j * np.pi * eta) * np.eye(dim)
        assert np.max(np.abs(cycle.entries - expected)) <= 1e-11 * dim

    def test_integer_eta_keeps_sign(self):
        cycle = cycle_operator_power(_offset_frame(SpaceConfig.from_dim(4), 1.0), 4)
        assert np.max(np.abs(cycle.entries - np.eye(4))) <= 4e-11

    def test_half_odd_eta_flips_sign(self):
        cycle = cycle_operator_power(_offset_frame(SpaceConfig.from_dim(4), 0.5), 4)
        assert np.max(np.abs(cycle.entries + np.eye(4))) <= 4e-11

    def test_partial_cycle_quarter_eta(self):
        cycle = cycle_operator_power(_offset_frame(SpaceConfig.from_dim(3), 0.25), 3)
        expected = np.exp(-1j * np.pi / 2) * np.eye(3)
        assert np.max(np.abs(cycle.entries - expected)) <= 3e-11

    @pytest.mark.parametrize("dim", [1, 2, 7, 16, 33, 64])
    @pytest.mark.parametrize("eta", [0.25, 1.5])
    def test_matches_dense_power_of_the_shift(self, dim, eta):
        frame = _offset_frame(SpaceConfig.from_dim(dim, 2.9), eta)
        qshift = generalized_number_shift(frame).entries
        tol = TolerancePolicy.for_dim(dim).tol_op
        for k in (1, 2, 3, dim, 2 * dim + 1):
            dense = np.linalg.matrix_power(qshift, k)
            assert np.max(np.abs(cycle_operator_power(frame, k).entries - dense)) <= tol

    def test_zero_power_is_the_identity(self):
        cycle = cycle_operator_power(_offset_frame(SpaceConfig.from_dim(5, 0.3), 0.25), 0)
        assert np.max(np.abs(cycle.entries - np.eye(5))) <= 5e-12

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_power_validation(self, bad):
        with pytest.raises(ValueError):
            cycle_operator_power(_offset_frame(SpaceConfig.from_dim(2), 0.5), bad)


class TestEtaClass:
    @pytest.mark.parametrize(
        "eta,expected",
        [
            (0.0, "integer"),
            (1.0, "integer"),
            (-2.0, "integer"),
            (1.0 + 5e-10, "integer"),
            (0.5, "half-odd"),
            (1.5, "half-odd"),
            (-0.5, "half-odd"),
            (0.25, "generic"),
            (0.3, "generic"),
        ],
    )
    def test_classification(self, eta, expected):
        assert eta_class(eta) == expected


class TestDualityCheck:
    @staticmethod
    def _records(config, eta):
        frame = _offset_frame(config, eta)
        return duality_check(
            frame,
            offset_phase_frame(frame),
            generalized_number_shift(frame),
            unitary_phase_operator(config),
        )

    def test_trivial_window_and_offset(self):
        records = self._records(SpaceConfig.from_dim(3, 0.0), 0.0)
        assert all(record.status == STATUS_PASS for record in records)

    def test_generic_run_passes(self):
        records = self._records(SpaceConfig.from_dim(5, 1.1), 0.3)
        assert len(records) == 6
        assert all(record.status == STATUS_PASS for record in records)
        assert max(record.max_deviation for record in records) <= 5e-11

    def test_corner_phases_both_minus_one(self):
        config = SpaceConfig.from_dim(2, np.pi / 2)
        frame = _offset_frame(config, 0.5)
        phase_op = unitary_phase_operator(config)
        corner_theta = complex(
            frame.number_matrix[:, 1].conj()
            @ phase_op.entries
            @ frame.number_matrix[:, 0]
        )
        qshift = generalized_number_shift(frame)
        phases = offset_phase_frame(frame).matrix
        corner_eta = complex(phases[:, 1].conj() @ qshift.entries @ phases[:, 0])
        assert corner_theta == pytest.approx(-1.0, abs=1e-12)
        assert corner_eta == pytest.approx(-1.0, abs=1e-12)
