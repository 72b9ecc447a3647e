"""Truncated-oscillator spectrum, one-cycle phases, parity, sector map.

The verify suite's ``cycle_parity`` record compares diag U(T) with the sign
each level should pick up over one period, and ``sector_equivalence``
compares it with the shift route's factors; the references below spell
both out level by level.
"""

import re
import struct

import numpy as np
import pytest

from fdphase.deformed import build_generalized_frame, cycle_operator_power
from fdphase.evolution import (
    cycle_phase_per_level,
    eta_sector_map,
    hamiltonian,
    oscillator_spectrum,
    period_evolution,
    time_evolution,
)
from fdphase.numerics import OperatorMatrix, TolerancePolicy, certify, max_abs
from fdphase.pegg_barnett import SpaceConfig, build_phase_frame, unitary_phase_operator
from fdphase.suites import suite_evolution

TWO_PI = 2.0 * np.pi


def _one_period_signs(dim):
    """-1 on every level below the top and (-1)^s on the top, level by level."""
    return np.array([-1.0 if n < dim - 1 else (-1.0) ** (dim - 1) for n in range(dim)])


def _sector_shift_route(config):
    """q^-(n+eta_n) raised to the power s+1 level by level, by repeated
    squaring from the lowest bit of s+1 up."""
    factors = []
    for n, eta in enumerate(eta_sector_map(config)):
        square, result, k = complex(config.root_power(-(n + eta))), 1.0 + 0.0j, config.dim
        while k:
            k, bit = divmod(k, 2)
            if bit:
                result *= square
            square *= square
        factors.append(result)
    return np.array(factors)


def _evolution_records(config, omega, period_evolution=None):
    """The evolution suite's records by id; ``period_evolution`` replaces U(T)."""
    shared = {} if period_evolution is None else {"period_evolution": period_evolution}
    records = suite_evolution(config, omega, 0, TolerancePolicy.for_dim(config.dim), shared)
    return {record.check_id: record for record in records}


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


class TestEnergyRecords:
    @pytest.mark.parametrize("omega", [1e-3, 0.37, 1.0, 1e150, 1e300])
    @pytest.mark.parametrize("dim", [1, 2, 16, 512])
    def test_tolerances_scale_with_omega(self, dim, omega):
        # The energies are omega times exact half-integers, so their rounding
        # error, and the tolerance, scale with omega.
        records = _evolution_records(SpaceConfig.from_dim(dim), omega)
        for check_id in ("spectrum_monotone", "spectrum_top_level_shift"):
            assert records[check_id].tolerance == TolerancePolicy.for_dim(dim).tol_elem * omega
            assert records[check_id].status == "pass"


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


class TestPeriodEvolution:
    @pytest.mark.parametrize("omega", [1.0, 0.37, 2.5])
    def test_equals_the_evolution_over_one_period(self, omega):
        config = SpaceConfig.from_dim(5)
        expected = time_evolution(config, omega, TWO_PI / omega)
        assert np.array_equal(period_evolution(config, omega).entries, expected.entries)

    @pytest.mark.parametrize("omega", [0.0, -0.0, -1.0])
    def test_names_a_non_positive_omega(self, omega):
        with pytest.raises(ValueError, match=rf"^omega must be a positive real, got {omega!r}$"):
            period_evolution(SpaceConfig.from_dim(3), omega)


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


class TestOnePeriodSigns:
    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 12, 16, 24, 32])
    def test_even_dims_flip_sign(self, dim):
        u = period_evolution(SpaceConfig.from_dim(dim), 1.0)
        assert max_abs(u.entries + np.eye(dim)) <= 1e-12 * dim

    @pytest.mark.parametrize("dim", [3, 5, 7, 9, 15, 31])
    def test_odd_dims_flip_every_level_but_the_top(self, dim):
        u = period_evolution(SpaceConfig.from_dim(dim), 1.0)
        expected = np.concatenate([-np.ones(dim - 1), [1.0]])
        assert max_abs(u.entries - np.diag(expected)) <= 1e-12 * dim

    def test_dim_1_returns_to_itself(self):
        u = period_evolution(SpaceConfig.from_dim(1), 1.0)
        assert abs(u.entries[0, 0] - 1.0) <= 1e-12

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
    ("top_phase_error", 5): "fail",
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
    return certify(OperatorMatrix.monomial(np.arange(config.dim), diag), "unitary")


class TestCycleParityRecord:
    @pytest.mark.parametrize("omega", [1.0, 2.5])
    @pytest.mark.parametrize("dim", [*range(1, 41), 511, 512])
    def test_deviation_is_the_worst_level_sign_error(self, dim, omega):
        config = SpaceConfig.from_dim(dim, 0.3)
        record = _evolution_records(config, omega)["cycle_parity"]
        diag = np.diag(time_evolution(config, omega, TWO_PI / omega).entries)
        assert record.max_deviation == max_abs(diag - _one_period_signs(dim))
        assert record.tolerance == TolerancePolicy.for_dim(dim).tol_elem
        assert record.status == "pass"

    def test_every_level_counts_at_even_dims(self):
        # Level 0 is -1 to one rounding here; the reported error comes from
        # the levels above it, which a level-0 phase reading would miss.
        config = SpaceConfig.from_dim(512)
        records = _evolution_records(config, 0.37)
        diag = np.diag(period_evolution(config, 0.37).entries)
        assert abs(diag[0] + 1.0) <= 1e-15
        assert records["cycle_parity"].max_deviation >= 1e-13
        assert records["cycle_parity"].max_deviation == max_abs(diag + 1.0)

    @pytest.mark.parametrize("case, dim", sorted(INJECTED_STATUS))
    def test_status_on_injected_cycles(self, case, dim):
        config = SpaceConfig.from_dim(dim)
        u = _injected_period(config, case)
        record = _evolution_records(config, 1.0, u)["cycle_parity"]
        deviation = max_abs(np.diag(u.entries) - _one_period_signs(dim))
        assert record.max_deviation == deviation
        assert record.status == INJECTED_STATUS[case, dim]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_diagonal_cycle_fails(self, dim):
        # exp(iPhi) keeps no number state: its diagonal is zero.
        config = SpaceConfig.from_dim(dim, 0.3)
        u = unitary_phase_operator(config)
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
            assert record.tolerance == TolerancePolicy.for_dim(dim).tol_elem

    @pytest.mark.parametrize("dim", [*range(1, 41), 64, 511, 512])
    def test_sector_map_takes_the_shift_route(self, dim):
        # The reference squares in Python complex arithmetic, which may round
        # differently from numpy's: a few ulps per squaring.
        config = SpaceConfig.from_dim(dim)
        diag = np.diag(period_evolution(config, 1.0).entries)
        record = _evolution_records(config, 1.0)["sector_equivalence"]
        expected = max_abs(diag - _sector_shift_route(config))
        assert abs(record.max_deviation - expected) <= 4 * np.finfo(float).eps * np.log2(2 * dim)
        assert record.status == "pass"

    def test_sector_map_is_not_the_closed_form(self):
        # cycle_phase_factors compares diag U(T) with the closed form; the
        # shift route rounds differently, so the two records differ.
        records = _evolution_records(SpaceConfig.from_dim(511), 1.0)
        sector = records["sector_equivalence"].max_deviation
        assert sector != records["cycle_phase_factors"].max_deviation
        assert sector > 1e-13

    def test_a_flipped_top_level_fails_the_sector_map_only(self):
        config = SpaceConfig.from_dim(3)
        diag = np.diag(time_evolution(config, 1.0, TWO_PI).entries).copy()
        diag[-1] *= -1.0
        flipped = OperatorMatrix.monomial(np.arange(3), diag)
        records = _evolution_records(config, 1.0, certify(flipped, "unitary"))
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
