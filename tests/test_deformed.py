"""Deformed ladder algebra: profiles, frames, recovery, cycle phases."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from fdphase.deformed import (
    DeformationProfile,
    ProfileError,
    build_generalized_frame,
    build_lowering_operator,
    cycle_operator_power,
    deformation_linear,
    generalized_number_shift,
    modified_number_shift,
    offset_phase_coefficients,
    offset_phase_frame,
    profile_from_json,
    recover_phase_operator,
)
from fdphase.numerics import (
    DimensionMismatch,
    OperatorMatrix,
    TolerancePolicy,
    equal_up_to_global_phase,
)
from fdphase.pegg_barnett import (
    Frame,
    SpaceConfig,
    build_phase_frame,
    number_shift_operator,
    unitary_phase_operator,
)
from fdphase.report import STATUS_PASS
from fdphase.suites import suite_gdo


def _offset_frame(config, eta):
    """The offset frame |n+eta> over a freshly built phase frame."""
    return build_generalized_frame(build_phase_frame(config), eta)


def _offset_phases(frame):
    """The offset phase states over the offset number states ``frame``."""
    return offset_phase_frame(frame, offset_phase_coefficients(frame))


def _in_frame(frame, matrix):
    """Coordinates V^dag M V of the matrix M in the offset number basis V."""
    v = frame.basis.entries
    return v.conj().T @ matrix @ v


class TestDeformationProfile:
    def test_linear_values(self):
        profile = deformation_linear(SpaceConfig.from_dim(3), 0.5)
        assert np.allclose(profile.values, [0.5, 1.5, 2.5])

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
        assert np.max(np.abs(frame.basis.entries - np.eye(4))) <= 4e-12
        phases = _offset_phases(frame).basis.entries
        assert np.max(np.abs(phases - base.basis.entries)) <= 4e-12

    def test_integer_eta_phase_states_match_base_frame(self):
        # The net factor on each phase state is one: the coefficient factor
        # exp(i eta theta_m) cancels against the eigenvalue of
        # exp(-i eta Phi) on that state.
        config = SpaceConfig.from_dim(2, 0.0)
        base = build_phase_frame(config)
        phases = _offset_phases(build_generalized_frame(base, 1.0))
        for m in range(2):
            phase = equal_up_to_global_phase(
                base.basis.entries[:, m], phases.basis.entries[:, m], 1e-12
            )
            assert phase is not None
            assert abs(np.exp(1j * phase) - 1.0) < 1e-12

    def test_half_eta_number_states_orthogonal(self):
        frame = _offset_frame(SpaceConfig.from_dim(2, 0.0), 0.5)
        overlap = np.vdot(frame.basis.entries[:, 0], frame.basis.entries[:, 1])
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
        rebuilt = _offset_phases(frame).basis.entries @ coeff.conj().T
        assert np.max(np.abs(rebuilt - frame.basis.entries)) <= 1e-11 * dim

    def test_carries_no_phase_family(self):
        frame = _offset_frame(SpaceConfig.from_dim(2), 0.5)
        names = [f.name for f in dataclasses.fields(frame)]
        assert names == ["config", "eta", "basis"]
        assert frame.eta == 0.5

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_offset_phase_frame_is_a_certified_frame(self, dim):
        config = SpaceConfig.from_dim(dim, 0.4)
        phases = _offset_phases(_offset_frame(config, 0.25))
        assert isinstance(phases, Frame)
        assert phases.config is config
        assert phases.eta == 0.25
        # The certified deviation is read through the frame's factors; the
        # dense Gram reading over the formed entries rounds differently,
        # within a few eps per product of length d.
        gram = phases.basis.entries.conj().T @ phases.basis.entries
        deviation = phases.basis.deviation
        dense = np.max(np.abs(gram - np.eye(dim)))
        assert abs(deviation - dense) <= 4 * dim * np.finfo(float).eps
        assert deviation <= TolerancePolicy.for_dim(dim).tol_op

    def test_offset_number_states_are_the_synthesized_shift_certified(self):
        # The frame's basis is exp(-i eta Phi) itself, certified unitary, with
        # no other orthonormality measurement beside it. Its entries are its
        # action on the identity, which rounds otherwise than the dense
        # product: they differ by 1.1 eps here, within 4 eps d.
        config = SpaceConfig.from_dim(5, 0.4)
        base = build_phase_frame(config)
        frame = build_generalized_frame(base, 0.25)
        v = base.basis.entries
        shift = (v * np.exp(-0.25j * config.thetas())) @ v.conj().T
        assert np.max(np.abs(frame.basis.entries - shift)) <= 4 * 5 * np.finfo(float).eps
        assert type(frame.basis.deviation) is float

    def test_rejects_non_finite_eta(self):
        with pytest.raises(ValueError):
            _offset_frame(SpaceConfig.from_dim(2), float("nan"))

    @pytest.mark.parametrize(
        "dim, theta0, eta",
        [(3, 6.0, 1e308), (1, 6.0, 2.9961552247705263e307), (4, 0.0, -1e308), (2, -1e3, 1e306)],
    )
    def test_refuses_an_eta_whose_phases_overflow(self, dim, theta0, eta):
        # (n+eta)*theta_m or 2*pi*eta is not finite, so the rounding bound is
        # infinite: refused by name, before numpy can warn about an overflow.
        with pytest.raises(ValueError, match=r"round by up to .* = inf, which must stay within tol_op"):
            _offset_frame(SpaceConfig.from_dim(dim, theta0), eta)

    @pytest.mark.parametrize("dim, theta0", [(1, 0.0), (3, 6.0), (7, 0.0), (8, -2.9)])
    def test_accepts_every_eta_up_to_the_rounding_limit(self, dim, theta0):
        # The largest eta whose phases round within tol_op builds a certified
        # frame, and the next float is refused as the offset coefficients are.
        config = SpaceConfig.from_dim(dim, theta0)
        tol = TolerancePolicy.for_dim(dim).tol_op

        def rounding(eta):
            return np.finfo(float).eps * (
                abs((dim - 1 + eta) * theta0) + abs(eta * theta0) + 2 * np.pi * abs(eta))

        eta = (tol - rounding(0.0)) / (rounding(1.0) - rounding(0.0))  # the bound is linear
        while rounding(eta) > tol:
            eta = np.nextafter(eta, 0.0)
        while rounding(np.nextafter(eta, np.inf)) <= tol:
            eta = np.nextafter(eta, np.inf)
        assert type(_offset_frame(config, eta).basis.deviation) is float
        above = np.nextafter(eta, np.inf)
        for refused in (lambda: _offset_frame(config, above),
                        lambda: OperatorMatrix.fourier(dim, theta0, above)):
            with pytest.raises(ValueError, match="which must stay within tol_op"):
                refused()

    @pytest.mark.parametrize("eta", [1e12, "limit"])
    def test_the_bound_covers_the_frame_phases(self, eta):
        # At d=7 and theta0=0 the frame's eigenvalues exp(-i eta theta_m) are
        # exp(-2 pi i frac(eta m/7)), with the fraction taken exactly. Within
        # the limit they round within tol_op; at eta=1e12, which is refused,
        # they were off by about 1e-4.
        dim = 7
        config = SpaceConfig.from_dim(dim)
        tol = TolerancePolicy.for_dim(dim).tol_op
        if eta == "limit":
            eta = tol / (np.finfo(float).eps * 2 * np.pi)
        formed = np.exp(-1j * eta * config.thetas())
        exact = np.exp(-2j * np.pi * np.array(
            [float(Fraction(eta) * m / dim % 1) for m in range(dim)]))
        error = np.max(np.abs(formed - exact))
        if eta == 1e12:
            assert error > 1e-5
            with pytest.raises(ValueError, match="tol_op"):
                _offset_frame(config, eta)
        else:
            assert error <= tol
            _offset_frame(config, eta)


class TestLadderOperators:
    def test_dim_1_single_level_cycle(self):
        config = SpaceConfig(s=0, theta0=0.9)
        profile = DeformationProfile(np.array([0.5]))
        a = build_lowering_operator(_offset_frame(config, 0.5), profile)
        assert a.entries[0, 0] == pytest.approx(
            np.sqrt(0.5) * np.exp(0.9j)
        )

    def test_dim_2_frame_coordinates(self):
        config = SpaceConfig.from_dim(2, 0.0)
        frame = _offset_frame(config, 0.5)
        profile = deformation_linear(config, 0.5)
        a = build_lowering_operator(frame, profile)
        in_frame = _in_frame(frame, a.entries)
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
        a = build_lowering_operator(frame, profile)
        lowering_then_raising = _in_frame(frame, a.adjoint().apply(a.entries))
        assert np.max(np.abs(lowering_then_raising - np.diag(profile.values))) <= 1e-11 * dim
        raising_then_lowering = _in_frame(frame, a.apply(a.adjoint().entries))
        assert (
            np.max(np.abs(raising_then_lowering - np.diag(np.roll(profile.values, -1))))
            <= 1e-11 * dim
        )

    def test_raising_is_the_exact_adjoint(self):
        config = SpaceConfig.from_dim(4, 0.3)
        frame = _offset_frame(config, 0.25)
        a = build_lowering_operator(frame, deformation_linear(config, 0.25))
        assert np.array_equal(a.adjoint().entries, a.entries.conj().T)
        assert a.adjoint().deviation is None

    def test_profile_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_lowering_operator(
                _offset_frame(SpaceConfig.from_dim(3), 0.5), DeformationProfile(np.array([1.0]))
            )


class TestRecoverPhaseOperator:
    def test_dim_2_recovers_swap(self):
        config = SpaceConfig.from_dim(2, 0.0)
        frame = _offset_frame(config, 0.5)
        profile = deformation_linear(config, 0.5)
        a = build_lowering_operator(frame, profile)
        recovered = recover_phase_operator(a, profile, frame)
        assert np.allclose(recovered.entries, [[0, 1], [1, 0]], atol=1e-14)

    def test_dim_3_matches_explicit_realization(self):
        config = SpaceConfig.from_dim(3, 0.4)
        frame = _offset_frame(config, 0.5)
        profile = deformation_linear(config, 0.5)
        a = build_lowering_operator(frame, profile)
        recovered = recover_phase_operator(a, profile, frame)
        expected = unitary_phase_operator(config)
        assert np.max(np.abs(recovered.entries - expected.entries)) <= 3e-11

    def test_dim_1_gives_window_phase(self):
        config = SpaceConfig(s=0, theta0=0.7)
        frame = _offset_frame(config, 0.5)
        profile = DeformationProfile(np.array([0.5]))
        a = build_lowering_operator(frame, profile)
        recovered = recover_phase_operator(a, profile, frame)
        assert recovered.entries[0, 0] == pytest.approx(np.exp(0.7j))

    def test_independent_of_weight_table(self):
        config = SpaceConfig.from_dim(3, 1.1)
        frame = _offset_frame(config, 0.25)
        expected = unitary_phase_operator(config)
        for values in ([0.7, 2.2, 1.3], [5.0, 0.1, 9.0]):
            profile = DeformationProfile(np.array(values))
            a = build_lowering_operator(frame, profile)
            recovered = recover_phase_operator(a, profile, frame)
            assert np.max(np.abs(recovered.entries - expected.entries)) <= 3e-11

    def test_zero_weight_refused(self):
        config = SpaceConfig.from_dim(2, 0.0)
        frame = _offset_frame(config, 0.5)
        profile = DeformationProfile(np.array([1.0, 0.0]))
        a = build_lowering_operator(frame, profile)
        with pytest.raises(ProfileError):
            recover_phase_operator(a, profile, frame)


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
        op = modified_number_shift(frame, _offset_phases(frame))
        assert np.max(
            np.abs(op.entries - number_shift_operator(config).entries)
        ) <= 4e-11

    def test_dim_2_half_eta_in_frame_coordinates(self):
        config = SpaceConfig.from_dim(2, 0.0)
        frame = _offset_frame(config, 0.5)
        op = modified_number_shift(frame, _offset_phases(frame))
        in_frame = _in_frame(frame, op.entries)
        expected = np.exp(-1j * np.pi / 2) * np.diag([1.0, -1.0])
        assert np.allclose(in_frame, expected, atol=1e-14)

    def test_dim_2_half_eta_standard_coordinates(self):
        # Hand value: the two projector terms evaluate to [[0,-1],[1,0]].
        frame = _offset_frame(SpaceConfig.from_dim(2, 0.0), 0.5)
        op = modified_number_shift(frame, _offset_phases(frame))
        assert np.allclose(op.entries, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 1.0, 1.5])
    def test_matches_spectral_form(self, dim, eta):
        config = SpaceConfig.from_dim(dim, 0.2)
        frame = _offset_frame(config, eta)
        realization = modified_number_shift(frame, _offset_phases(frame))
        spectral = generalized_number_shift(frame)
        assert np.max(np.abs(realization.entries - spectral.entries)) <= 1e-11 * dim

    def test_wraparound_action(self):
        config = SpaceConfig.from_dim(3, 0.0)
        frame = _offset_frame(config, 0.25)
        phases = _offset_phases(frame)
        out = modified_number_shift(frame, phases).apply(phases.basis.entries[:, 0])
        expected = np.exp(-2j * np.pi * 0.25) * phases.basis.entries[:, 2]
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


def _eta_class(eta):
    """Reference for the exact integer / half-odd test that decides whether
    ``cycle_sign_dichotomy`` is emitted."""
    if float(eta).is_integer():
        return "integer"
    if float(2 * eta).is_integer():
        return "half-odd"
    return "generic"


def _gdo_records(config, eta):
    """The gdo suite's records by id, at unit weights so any eta is admissible."""
    profile = DeformationProfile(values=np.ones(config.dim))
    records = suite_gdo(config, eta, profile, TolerancePolicy.for_dim(config.dim), {})
    return {record.check_id: record for record in records}, records


class TestEtaClass:
    """``cycle_sign_dichotomy`` is emitted exactly where the reference class
    is integer or half-odd, and compares the cycle with +1 or -1."""

    @pytest.mark.parametrize(
        "eta,expected",
        [
            (0.0, "integer"),
            (1.0, "integer"),
            (-2.0, "integer"),
            (1.0 + 5e-10, "generic"),
            (1.0 - 5e-10, "generic"),
            (0.5, "half-odd"),
            (1.5, "half-odd"),
            (-0.5, "half-odd"),
            (0.25, "generic"),
            (0.3, "generic"),
            (2.5, "half-odd"),
            (0.5 + 5e-10, "generic"),
            (0.5000000001, "generic"),
        ],
    )
    def test_classification(self, eta, expected):
        assert _eta_class(eta) == expected
        for dim in (1, 4, 5):
            by_id, _ = _gdo_records(SpaceConfig.from_dim(dim, 0.3), eta)
            if expected == "generic":
                assert "cycle_sign_dichotomy" not in by_id
                continue
            sign = 1.0 if expected == "integer" else -1.0
            record = by_id["cycle_sign_dichotomy"]
            tol = TolerancePolicy.for_dim(dim).tol_op
            assert record.tolerance == tol
            assert record.max_deviation == pytest.approx(
                abs(np.exp(-2j * np.pi * eta) - sign), abs=tol
            )


DUALITY_IDS = [
    "modified_shift_action",
    "modified_shift_wraparound",
    "unitary_phase_on_generalized_states",
    "unitary_phase_generalized_wraparound",
    "corner_phase_phase_operator",
    "corner_phase_number_shift",
]


class TestDualityCheck:
    """The six shift-law records of the gdo suite."""

    def test_six_records_follow_the_realization_in_order(self):
        _, records = _gdo_records(SpaceConfig.from_dim(4, 0.3), 0.25)
        ids = [record.check_id for record in records]
        start = ids.index("modified_shift_realization") + 1
        assert ids[start : start + 6] == DUALITY_IDS
        assert all(record.tolerance == 4e-12 for record in records[start : start + 6])

    def test_trivial_window_and_offset(self):
        by_id, _ = _gdo_records(SpaceConfig.from_dim(3, 0.0), 0.0)
        assert all(by_id[check_id].status == STATUS_PASS for check_id in DUALITY_IDS)

    def test_generic_run_passes(self):
        by_id, _ = _gdo_records(SpaceConfig.from_dim(5, 1.1), 0.3)
        assert all(by_id[check_id].status == STATUS_PASS for check_id in DUALITY_IDS)
        assert max(by_id[check_id].max_deviation for check_id in DUALITY_IDS) <= 5e-11

    def test_a_wrong_corner_phase_fails(self):
        # A window origin moves exp(i(s+1)theta_0), so the explicit exp(iPhi) of
        # another window misses the offset number states' wrap-around.
        config = SpaceConfig.from_dim(3, 0.0)
        shared = {"exp_iphi": unitary_phase_operator(SpaceConfig.from_dim(3, 0.4))}
        profile = DeformationProfile(values=np.ones(3))
        records = suite_gdo(config, 0.3, profile, TolerancePolicy.for_dim(3), shared)
        by_id = {record.check_id: record for record in records}
        assert by_id["unitary_phase_generalized_wraparound"].status == "fail"
        assert by_id["corner_phase_phase_operator"].status == "fail"
        assert by_id["modified_shift_action"].status == STATUS_PASS
        assert by_id["corner_phase_number_shift"].status == STATUS_PASS

    def test_corner_phases_both_minus_one(self):
        config = SpaceConfig.from_dim(2, np.pi / 2)
        frame = _offset_frame(config, 0.5)
        phase_op = unitary_phase_operator(config)
        corner_theta = complex(
            frame.basis.entries[:, 1].conj()
            @ phase_op.entries
            @ frame.basis.entries[:, 0]
        )
        qshift = generalized_number_shift(frame)
        phases = _offset_phases(frame).basis.entries
        corner_eta = complex(phases[:, 1].conj() @ qshift.entries @ phases[:, 0])
        assert corner_theta == pytest.approx(-1.0, abs=1e-12)
        assert corner_eta == pytest.approx(-1.0, abs=1e-12)
