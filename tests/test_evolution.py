"""Truncated-oscillator spectrum, one-cycle phases, parity, sector map."""

import numpy as np
import pytest

from fdphase.deformed import build_generalized_frame, cycle_operator_power
from fdphase.evolution import (
    CycleClassification,
    CycleOutcome,
    classify_cycle,
    compare_shift_vs_evolution,
    cycle_phase_per_level,
    eta_sector_map,
    hamiltonian,
    oscillator_spectrum,
    time_evolution,
)
from fdphase.numerics import (
    OperatorMatrix,
    StateVector,
    TolerancePolicy,
    basis_state,
    equal_up_to_global_phase,
    mat_apply,
    max_abs,
)
from fdphase.pegg_barnett import SpaceConfig, build_phase_frame, unitary_phase_operator

TWO_PI = 2.0 * np.pi


def _classify(dim):
    config = SpaceConfig.from_dim(dim)
    return classify_cycle(config, time_evolution(config, 1.0, TWO_PI))


def _classify_level_by_level(config, u):
    """The per-level classifier loop, verbatim: one matrix-vector product per level."""
    policy = TolerancePolicy.for_dim(config.dim)
    per_level = tuple(complex(z) for z in np.diag(u.entries))

    phases = []
    for level in range(config.dim):
        ket = basis_state(config.dim, level)
        comparison = equal_up_to_global_phase(ket, mat_apply(u, ket), policy.tol_op)
        if not comparison.equal:
            return CycleOutcome(CycleClassification.MIXED_PHASES, per_level, None)
        phases.append(comparison.phase)
    factors = np.exp(1j * np.asarray(phases))
    if max_abs(factors - factors[0]) > policy.tol_op:
        return CycleOutcome(CycleClassification.MIXED_PHASES, per_level, None)

    global_phase = phases[0]
    if abs(factors[0] + 1.0) <= policy.tol_op:
        kind = CycleClassification.GLOBAL_SIGN_FLIP
    elif abs(factors[0] - 1.0) <= policy.tol_op:
        kind = CycleClassification.IDENTITY
    else:
        kind = CycleClassification.MIXED_PHASES
    return CycleOutcome(kind, per_level, global_phase)


class TestSpectrum:
    def test_dim_1_top_level_shift_applies(self):
        spectrum = oscillator_spectrum(SpaceConfig.from_dim(1), 1.0)
        assert np.allclose(spectrum.energies, [1.0])

    def test_dim_2(self):
        spectrum = oscillator_spectrum(SpaceConfig.from_dim(2), 1.0)
        assert np.allclose(spectrum.energies, [0.5, 2.5])

    def test_dim_3(self):
        spectrum = oscillator_spectrum(SpaceConfig.from_dim(3), 1.0)
        assert np.allclose(spectrum.energies, [0.5, 1.5, 4.0])

    def test_omega_scaling(self):
        spectrum = oscillator_spectrum(SpaceConfig.from_dim(3), 2.0)
        assert np.allclose(spectrum.energies, [1.0, 3.0, 8.0])

    @pytest.mark.parametrize("omega", [0.0, -1.0, float("nan")])
    def test_rejects_bad_omega(self, omega):
        with pytest.raises(ValueError):
            oscillator_spectrum(SpaceConfig.from_dim(2), omega)

    @pytest.mark.parametrize("dim", range(1, 12))
    def test_strictly_increasing_with_exact_top_shift(self, dim):
        omega = 1.3
        spectrum = oscillator_spectrum(SpaceConfig.from_dim(dim), omega)
        if dim > 1:
            assert np.all(np.diff(spectrum.energies) > 0)
        top = spectrum.energies[-1] - (dim - 1 + 0.5) * omega
        assert top == pytest.approx(dim / 2 * omega)

    def test_hamiltonian_is_the_diagonal_of_energies(self):
        config = SpaceConfig.from_dim(3)
        op = hamiltonian(config, 1.0)
        assert np.array_equal(op.entries, np.diag(oscillator_spectrum(config, 1.0).energies))
        assert dict(op.deviations) == {}


class TestTimeEvolution:
    def test_t_zero_is_identity(self):
        op = time_evolution(SpaceConfig.from_dim(3), 1.0, 0.0)
        assert np.allclose(op.entries, np.eye(3))

    def test_dim_2_full_period_is_minus_identity(self):
        op = time_evolution(SpaceConfig.from_dim(2), 1.0, TWO_PI)
        assert np.max(np.abs(op.entries + np.eye(2))) <= 1e-12

    def test_dim_3_full_period_mixed(self):
        op = time_evolution(SpaceConfig.from_dim(3), 1.0, TWO_PI)
        assert np.allclose(np.diag(op.entries), [-1.0, -1.0, 1.0], atol=1e-12)

    def test_unitary_certified(self):
        op = time_evolution(SpaceConfig.from_dim(4), 1.0, 0.37)
        assert set(op.deviations) == {"unitary"}

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_group_law(self, dim):
        config = SpaceConfig.from_dim(dim)
        t1, t2 = 0.437, 2.91
        product = time_evolution(config, 1.0, t1).entries @ time_evolution(
            config, 1.0, t2
        ).entries
        direct = time_evolution(config, 1.0, t1 + t2).entries
        assert np.max(np.abs(product - direct)) <= 1e-11 * dim


class TestCyclePhasePerLevel:
    @pytest.mark.parametrize("dim", range(1, 14))
    def test_closed_form_values(self, dim):
        factors = cycle_phase_per_level(SpaceConfig.from_dim(dim))
        for n in range(dim - 1):
            assert factors[n] == pytest.approx(-1.0, abs=1e-12)
        expected_top = -1.0 if dim % 2 == 0 else 1.0
        assert factors[-1] == pytest.approx(expected_top, abs=1e-12)

    @pytest.mark.parametrize("dim", [*range(1, 14), 20, 27, 32])
    def test_matches_evolution_diagonal(self, dim):
        config = SpaceConfig.from_dim(dim)
        u = time_evolution(config, 1.0, TWO_PI)
        assert np.max(
            np.abs(np.diag(u.entries) - cycle_phase_per_level(config))
        ) <= 1e-12 * dim


class TestClassifyCycle:
    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 12, 16, 24, 32])
    def test_even_dims_flip_sign(self, dim):
        outcome = _classify(dim)
        assert outcome.classification is CycleClassification.GLOBAL_SIGN_FLIP
        assert outcome.global_phase == pytest.approx(np.pi, abs=1e-9)

    @pytest.mark.parametrize("dim", [3, 5, 7, 9, 15, 31])
    def test_odd_dims_are_mixed(self, dim):
        outcome = _classify(dim)
        assert outcome.classification is CycleClassification.MIXED_PHASES
        assert outcome.global_phase is None
        phases = np.asarray(outcome.per_level_phase)
        expected = np.concatenate([-np.ones(dim - 1), [1.0]])
        assert np.max(np.abs(phases - expected)) <= 1e-9

    def test_dim_1_returns_to_itself(self):
        outcome = _classify(1)
        assert outcome.classification is CycleClassification.IDENTITY
        assert abs(np.exp(1j * outcome.global_phase) - 1.0) <= 1e-9

    @pytest.mark.parametrize("omega", [1.0, 2.5])
    @pytest.mark.parametrize("dim", [*range(1, 41), 511, 512])
    def test_whole_array_test_matches_level_by_level_loop(self, dim, omega):
        config = SpaceConfig.from_dim(dim, 0.3)
        u = time_evolution(config, omega, TWO_PI / omega)
        assert classify_cycle(config, u) == _classify_level_by_level(config, u)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 31, 64])
    def test_non_diagonal_unitary_matches_level_by_level_loop(self, dim):
        config = SpaceConfig.from_dim(dim, 0.3)
        u = unitary_phase_operator(config)
        outcome = classify_cycle(config, u)
        assert outcome == _classify_level_by_level(config, u)
        if dim > 1:
            assert outcome.classification is CycleClassification.MIXED_PHASES

    @pytest.mark.parametrize("alpha", [0.0, np.pi, -np.pi, 0.7, 2 * np.pi - 1e-13])
    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    def test_scalar_unitary_matches_level_by_level_loop(self, dim, alpha):
        config = SpaceConfig.from_dim(dim)
        u = OperatorMatrix(np.exp(1j * alpha) * np.eye(dim))
        outcome = classify_cycle(config, u)
        assert outcome == _classify_level_by_level(config, u)
        assert outcome.global_phase is not None

    @pytest.mark.parametrize("dim", [3, 5])
    def test_odd_dims_far_from_any_scalar(self, dim):
        # diag(-1, ..., -1, +1) stays at least 1 away from every c*identity
        # in max-norm; the spread of the diagonal realizes that bound.
        u = time_evolution(SpaceConfig.from_dim(dim), 1.0, TWO_PI)
        diag = np.diag(u.entries)
        spread = max(
            abs(a - b) for a in diag for b in diag
        )
        assert spread / 2 == pytest.approx(1.0, abs=1e-12)


class TestEtaSectorMap:
    def test_dim_2(self):
        assert np.allclose(eta_sector_map(SpaceConfig.from_dim(2)), [0.5, 1.5])

    def test_dim_3(self):
        assert np.allclose(eta_sector_map(SpaceConfig.from_dim(3)), [0.5, 0.5, 2.0])

    def test_dim_1(self):
        assert np.allclose(eta_sector_map(SpaceConfig.from_dim(1)), [1.0])


class TestCompareShiftVsEvolution:
    @pytest.mark.parametrize("dim", range(1, 17))
    def test_all_levels_match(self, dim):
        config = SpaceConfig.from_dim(dim)
        records = compare_shift_vs_evolution(config, time_evolution(config, 1.0, TWO_PI))
        assert [record.check_id for record in records] == [
            "sector_equivalence",
            "uniform_half_eta_below_top",
        ]
        for record in records:
            assert record.status == "pass"
            assert record.max_deviation <= 1e-9

    def test_dim_2_factors_by_hand(self):
        # exp(-2 pi i (0 + 1/2)) = -1 and exp(-2 pi i (1 + 3/2)) = -1 both
        # match the diagonal of U(2 pi).
        u = time_evolution(SpaceConfig.from_dim(2), 1.0, TWO_PI)
        assert np.allclose(np.diag(u.entries), [-1.0, -1.0], atol=1e-12)

    def test_dim_3_top_level_by_hand(self):
        # exp(-2 pi i (2 + 2)) = +1 matches the top diagonal entry.
        u = time_evolution(SpaceConfig.from_dim(3), 1.0, TWO_PI)
        assert np.diag(u.entries)[2] == pytest.approx(1.0, abs=1e-12)

    def test_dim_1_by_hand(self):
        u = time_evolution(SpaceConfig.from_dim(1), 1.0, TWO_PI)
        assert u.entries[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestShiftRouteAgainstEvolution:
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_even_dim_routes_coincide(self, dim):
        # Both one-cycle routes equal -identity when the dimension is even.
        config = SpaceConfig.from_dim(dim)
        frame = build_generalized_frame(build_phase_frame(config), 0.5)
        shift_route = cycle_operator_power(frame, dim)
        evolution_route = time_evolution(config, 1.0, TWO_PI)
        assert np.max(np.abs(shift_route.entries - evolution_route.entries)) <= 1e-11 * dim
        assert np.max(np.abs(evolution_route.entries + np.eye(dim))) <= 1e-11 * dim

    @pytest.mark.parametrize("dim", [3, 5, 9])
    def test_odd_dim_routes_differ_at_top_level(self, dim):
        config = SpaceConfig.from_dim(dim)
        frame = build_generalized_frame(build_phase_frame(config), 0.5)
        shift_route = cycle_operator_power(frame, dim)
        evolution_route = time_evolution(config, 1.0, TWO_PI)
        below = np.max(
            np.abs(shift_route.entries[:, : dim - 1] - evolution_route.entries[:, : dim - 1])
        )
        assert below <= 1e-11 * dim
        top_gap = abs(
            shift_route.entries[dim - 1, dim - 1]
            - evolution_route.entries[dim - 1, dim - 1]
        )
        assert top_gap == pytest.approx(2.0, abs=1e-11)


class TestSuperpositionCycle:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_even_dim_superpositions_flip(self, dim):
        rng = np.random.default_rng(11)
        psi = StateVector(
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        ).normalized()
        u = time_evolution(SpaceConfig.from_dim(dim), 1.0, TWO_PI)
        out = mat_apply(u, psi)
        assert np.max(np.abs(out.amp + psi.amp)) <= 1e-12 * dim

    def test_odd_dim_superposition_does_not_return(self):
        psi = StateVector(np.ones(3) / np.sqrt(3.0))
        u = time_evolution(SpaceConfig.from_dim(3), 1.0, TWO_PI)
        out = mat_apply(u, psi)
        expected = np.array([-1.0, -1.0, 1.0]) / np.sqrt(3.0)
        assert np.max(np.abs(out.amp - expected)) <= 3e-12
