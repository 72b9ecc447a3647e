"""Truncated-oscillator spectrum, one-cycle phases, parity, sector map.

The cycle classifier below is the reference for the verify suite's
``cycle_parity`` record: the suite reads the parity off diag U(T) directly,
and it must agree with the classifier and its parity branches.
"""

import enum
import re
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from fdphase.deformed import build_generalized_frame, cycle_operator_power
from fdphase.evolution import (
    cycle_phase_per_level,
    eta_sector_map,
    hamiltonian,
    oscillator_spectrum,
    time_evolution,
)
from fdphase.numerics import (
    OperatorMatrix,
    TolerancePolicy,
    certify,
    equal_up_to_global_phase,
    max_abs,
)
from fdphase.pegg_barnett import SpaceConfig, build_phase_frame, unitary_phase_operator
from fdphase.suites import suite_evolution

TWO_PI = 2.0 * np.pi


class CycleClassification(enum.Enum):
    GLOBAL_SIGN_FLIP = "GlobalSignFlip"
    IDENTITY = "Identity"
    MIXED_PHASES = "MixedPhases"


@dataclass(frozen=True)
class CycleOutcome:
    """How one full period acts: global factor, or mixed per-level phases."""

    classification: CycleClassification
    per_level_phase: tuple
    global_phase: float | None


def classify_cycle(config, u):
    """Classify U(2*pi/omega) by testing its columns up to one shared phase.

    Column n keeps |n> up to a phase when the overlap <n|U|n> = u[n, n]
    carries the column's whole norm; all columns are tested at once.
    """
    tol = TolerancePolicy.for_dim(config.dim).tol_op
    diag = np.diag(u.entries)
    per_level = tuple(complex(z) for z in diag)
    if np.any(np.abs(diag) < np.linalg.norm(u.entries, axis=0) * (1.0 - tol)):
        return CycleOutcome(CycleClassification.MIXED_PHASES, per_level, None)
    phases = np.angle(diag) % TWO_PI
    factors = np.exp(1j * phases)
    if max_abs(factors - factors[0]) > tol:
        return CycleOutcome(CycleClassification.MIXED_PHASES, per_level, None)

    global_phase = float(phases[0])
    if abs(factors[0] + 1.0) <= tol:
        kind = CycleClassification.GLOBAL_SIGN_FLIP
    elif abs(factors[0] - 1.0) <= tol:
        kind = CycleClassification.IDENTITY
    else:
        kind = CycleClassification.MIXED_PHASES
    return CycleOutcome(kind, per_level, global_phase)


def _parity_deviation(config, u):
    """``cycle_parity``'s deviation read off the classifier's outcome."""
    dim = config.dim
    outcome = classify_cycle(config, u)
    if dim % 2 == 0:
        parity_dev = 0.0 if outcome.classification is CycleClassification.GLOBAL_SIGN_FLIP else 1.0
        if outcome.global_phase is not None:
            parity_dev = max(parity_dev, abs(outcome.global_phase - np.pi))
        else:
            parity_dev = 1.0
    elif dim == 1:
        parity_dev = 0.0 if outcome.classification is CycleClassification.IDENTITY else 1.0
        if outcome.global_phase is not None:
            parity_dev = max(parity_dev, abs(np.exp(1j * outcome.global_phase) - 1.0))
        else:
            parity_dev = 1.0
    else:
        parity_dev = 0.0 if outcome.classification is CycleClassification.MIXED_PHASES else 1.0
        expected = np.concatenate([-np.ones(dim - 1), [1.0]])
        parity_dev = max(
            parity_dev, max_abs(np.asarray(outcome.per_level_phase) - expected)
        )
    return parity_dev


def _evolution_records(config, omega, period_evolution=None):
    """The evolution suite's records by id; ``period_evolution`` replaces U(T)."""
    shared = {} if period_evolution is None else {"period_evolution": period_evolution}
    records = suite_evolution(config, omega, 0, TolerancePolicy.for_dim(config.dim), shared)
    return {record.check_id: record for record in records}


def _classify(dim):
    config = SpaceConfig.from_dim(dim)
    return classify_cycle(config, time_evolution(config, 1.0, TWO_PI))


def _classify_level_by_level(config, u):
    """The per-level classifier loop, verbatim: one matrix-vector product per level."""
    policy = TolerancePolicy.for_dim(config.dim)
    per_level = tuple(complex(z) for z in np.diag(u.entries))

    phases = []
    for level in range(config.dim):
        ket = np.eye(config.dim, dtype=np.complex128)[:, level]
        phase = equal_up_to_global_phase(ket, u.apply(ket), policy.tol_op)
        if phase is None:
            return CycleOutcome(CycleClassification.MIXED_PHASES, per_level, None)
        phases.append(phase)
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
        assert np.allclose(oscillator_spectrum(SpaceConfig.from_dim(1), 1.0), [1.0])

    def test_dim_2(self):
        assert np.allclose(oscillator_spectrum(SpaceConfig.from_dim(2), 1.0), [0.5, 2.5])

    def test_dim_3(self):
        assert np.allclose(oscillator_spectrum(SpaceConfig.from_dim(3), 1.0), [0.5, 1.5, 4.0])

    def test_omega_scaling(self):
        assert np.allclose(oscillator_spectrum(SpaceConfig.from_dim(3), 2.0), [1.0, 3.0, 8.0])

    def test_energies_are_read_only(self):
        energies = oscillator_spectrum(SpaceConfig.from_dim(3), 1.0)
        with pytest.raises(ValueError):
            energies[0] = 0.0

    @pytest.mark.parametrize("omega", [0.0, -1.0, float("nan")])
    def test_rejects_bad_omega(self, omega):
        with pytest.raises(ValueError):
            oscillator_spectrum(SpaceConfig.from_dim(2), omega)

    @pytest.mark.parametrize("dim", range(1, 12))
    def test_strictly_increasing_with_exact_top_shift(self, dim):
        omega = 1.3
        energies = oscillator_spectrum(SpaceConfig.from_dim(dim), omega)
        if dim > 1:
            assert np.all(np.diff(energies) > 0)
        top = energies[-1] - (dim - 1 + 0.5) * omega
        assert top == pytest.approx(dim / 2 * omega)

    def test_hamiltonian_is_the_diagonal_of_energies(self):
        config = SpaceConfig.from_dim(3)
        op = hamiltonian(config, 1.0)
        assert np.array_equal(op.entries, np.diag(oscillator_spectrum(config, 1.0)))
        assert dict(op.deviations) == {}


def _refused(config, omega):
    try:
        oscillator_spectrum(config, omega)
    except ValueError:
        return True
    return False


def _float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _bits(value):
    return struct.unpack("<q", struct.pack("<d", value))[0]


class TestSmallOmegaLimit:
    @pytest.mark.parametrize("dim", [2, 3, 512])
    def test_largest_refused_and_smallest_accepted_straddle_the_named_limit(self, dim):
        config = SpaceConfig.from_dim(dim)
        with pytest.raises(ValueError) as info:
            oscillator_spectrum(config, 1e-310)
        message = str(info.value)
        assert message.startswith("omega = 1e-310 is out of range: the period 2*pi/omega")
        named = float(re.search(r"omega must be at least (\S+)$", message).group(1))
        # Positive floats order as their bit patterns; bisect for the boundary.
        low, high = _bits(1e-310), _bits(1e-300)
        assert _refused(config, _float_from_bits(low))
        assert not _refused(config, _float_from_bits(high))
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if _refused(config, _float_from_bits(mid)) else (low, mid)
        largest_refused, smallest_accepted = _float_from_bits(low), _float_from_bits(high)
        assert largest_refused < named <= smallest_accepted
        assert named == pytest.approx(3.495e-308, rel=1e-3)
        assert np.isfinite(TWO_PI / smallest_accepted)
        assert np.all(np.diff(oscillator_spectrum(config, smallest_accepted)) > 0)

    def test_time_evolution_names_omega_before_the_time(self):
        config = SpaceConfig.from_dim(3)
        with pytest.raises(ValueError, match=r"^omega = 1e-310 is out of range"):
            time_evolution(config, 1e-310, TWO_PI / 1e-310)
        with pytest.raises(ValueError, match="time must be finite"):
            time_evolution(config, 1.0, float("inf"))


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


INJECTED_STATUS = {
    # (case, dim): cycle_parity's status with that U(T) in place.
    ("flipped_level", 4): "fail",
    ("flipped_level", 5): "fail",
    ("flipped_level", 1): "fail",
    ("top_phase_error", 4): "fail",
    ("top_phase_error", 5): "pass",  # 10*tol_op = 5e-10 is within the record's 1e-9
    ("top_phase_error", 1): "fail",
    ("plus_one", 4): "fail",
    ("plus_one", 5): "fail",
    ("plus_one", 1): "pass",
    ("minus_one", 4): "pass",
    ("minus_one", 5): "fail",
    ("minus_one", 1): "fail",
}


def _injected_period(config, case):
    """A certified U(T) that departs from the true one as ``case`` names."""
    diag = np.diag(time_evolution(config, 1.0, TWO_PI).entries).copy()
    if case == "flipped_level":
        diag[config.dim // 2] *= -1.0
    elif case == "top_phase_error":
        diag[-1] *= np.exp(10j * TolerancePolicy.for_dim(config.dim).tol_op)
    else:
        diag[:] = 1.0 if case == "plus_one" else -1.0
    return certify(OperatorMatrix(np.diag(diag)), "unitary")


class TestCycleParityRecord:
    @pytest.mark.parametrize("omega", [1.0, 2.5])
    @pytest.mark.parametrize("dim", [*range(1, 41), 511, 512])
    def test_deviation_matches_the_classifier_bit_for_bit(self, dim, omega):
        config = SpaceConfig.from_dim(dim, 0.3)
        record = _evolution_records(config, omega)["cycle_parity"]
        oracle = _parity_deviation(config, time_evolution(config, omega, TWO_PI / omega))
        assert record.max_deviation == float(oracle)
        assert record.status == "pass"

    @pytest.mark.parametrize("case, dim", sorted(INJECTED_STATUS))
    def test_status_matches_the_classifier_on_injected_cycles(self, case, dim):
        config = SpaceConfig.from_dim(dim)
        u = _injected_period(config, case)
        record = _evolution_records(config, 1.0, u)["cycle_parity"]
        oracle_status = "pass" if _parity_deviation(config, u) <= 1e-9 else "fail"
        assert record.status == oracle_status == INJECTED_STATUS[case, dim]
        if record.status == "pass":
            assert record.max_deviation == float(_parity_deviation(config, u))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_diagonal_cycle_fails(self, dim):
        # exp(iPhi) keeps no number state: no column is an eigenvector.
        config = SpaceConfig.from_dim(dim, 0.3)
        u = unitary_phase_operator(config)
        assert classify_cycle(config, u).classification is CycleClassification.MIXED_PHASES
        assert _evolution_records(config, 1.0, u)["cycle_parity"].status == "fail"


class TestEtaSectorMap:
    def test_dim_2(self):
        assert np.allclose(eta_sector_map(SpaceConfig.from_dim(2)), [0.5, 1.5])

    def test_dim_3(self):
        assert np.allclose(eta_sector_map(SpaceConfig.from_dim(3)), [0.5, 0.5, 2.0])

    def test_dim_1(self):
        assert np.allclose(eta_sector_map(SpaceConfig.from_dim(1)), [1.0])


class TestCompareShiftVsEvolution:
    """The sector-map records of the evolution suite against the U(T) diagonal."""

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_all_levels_match(self, dim):
        records = _evolution_records(SpaceConfig.from_dim(dim), 1.0)
        ids = list(records)
        start = ids.index("cycle_parity") + 1
        assert ids[start : start + 2] == ["sector_equivalence", "uniform_half_eta_below_top"]
        for check_id in ids[start : start + 2]:
            record = records[check_id]
            assert record.status == "pass"
            assert record.tolerance == 1e-9
            assert record.max_deviation <= 1e-9

    def test_a_flipped_top_level_fails_the_sector_map_only(self):
        config = SpaceConfig.from_dim(3)
        diag = np.diag(time_evolution(config, 1.0, TWO_PI).entries).copy()
        diag[-1] *= -1.0
        records = _evolution_records(config, 1.0, certify(OperatorMatrix(np.diag(diag)), "unitary"))
        assert records["sector_equivalence"].max_deviation == pytest.approx(2.0)
        assert records["uniform_half_eta_below_top"].status == "pass"

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
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        u = time_evolution(SpaceConfig.from_dim(dim), 1.0, TWO_PI)
        assert np.max(np.abs(u.apply(psi) + psi)) <= 1e-12 * dim

    def test_odd_dim_superposition_does_not_return(self):
        psi = np.ones(3) / np.sqrt(3.0)
        u = time_evolution(SpaceConfig.from_dim(3), 1.0, TWO_PI)
        expected = np.array([-1.0, -1.0, 1.0]) / np.sqrt(3.0)
        assert np.max(np.abs(u.apply(psi) - expected)) <= 3e-12
