"""Each record compares two routes, and the structured routes stay structured."""

import math

import numpy as np
import pytest

from fdphase import numerics, suites
from fdphase.deformed import (
    build_generalized_frame,
    build_lowering_operator,
    cycle_operator_power,
    deformation_linear,
    generalized_number_shift,
    modified_number_shift,
    offset_phase_coefficients,
    offset_phase_frame,
    recover_phase_operator,
)
from fdphase.evolution import period_evolution, time_evolution
from fdphase.pegg_barnett import (
    Frame,
    SpaceConfig,
    _toeplitz,
    build_phase_frame,
    commutator_closed_form,
    commutator_direct,
    hermitian_phase_operator,
    number_shift_operator,
    unitary_phase_from_spectrum,
    unitary_phase_operator,
)
from fdphase.report import RunManifest
from fdphase.suites import SUITE_NAMES, run_suites, suite_pb_core


def _record(dim, theta0, check_id):
    report = run_suites(RunManifest(dim=dim, theta0=theta0, suites=("pb-core",)))
    (record,) = [r for r in report.records if r.check_id == check_id]
    return record


def _is_monomial(entries):
    nonzero = entries != 0
    return bool(np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1))


class TestRecordsCompareTwoRoutes:
    @pytest.mark.parametrize("dim, theta0", [(31, 0.3), (64, 2.9), (128, 2.9)])
    def test_phase_state_components_fft_against_the_closed_form(self, dim, theta0):
        # The frame acts by FFT; the record reads it on the probe block
        # against the exact-turn closed form. Read against the dense product
        # of the frame's formed entries instead, the deviation moves by no
        # more than those two closed-form routes differ.
        config = SpaceConfig.from_dim(dim, theta0)
        block = numerics.probes(dim)
        dft = np.fft.ifft(block, axis=0, norm="ortho")
        twisted = np.exp(1j * theta0 * np.arange(dim))[:, None] * dft
        basis = build_phase_frame(config).basis
        four_step = numerics._exact_turns(basis, block)
        dense = basis.entries @ block
        record = _record(dim, theta0, "phase_state_components")
        assert record.max_deviation > 0.0
        assert record.max_deviation == np.max(np.abs(twisted - four_step))
        assert abs(record.max_deviation - np.max(np.abs(twisted - dense))) <= np.max(
            np.abs(four_step - dense))
        assert np.max(np.abs(four_step - dense)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("dim, theta0", [(31, 0.3), (64, 2.9)])
    def test_number_shift_diagonal_against_powers_of_inverse_q(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        factors = np.full(dim, np.conj(config.q))
        factors[0] = 1.0
        powers = np.cumprod(factors)  # q^-n by repeated multiplication
        deviation = np.max(np.abs(np.diag(number_shift_operator(config).entries) - powers))
        assert deviation > 0.0
        record = _record(dim, theta0, "number_shift_diagonal_in_number_basis")
        assert record.max_deviation == pytest.approx(deviation, rel=1e-9, abs=0.0)


class TestStructuredPowers:
    def test_run_takes_no_dense_power_and_no_dense_monomial_product(self, monkeypatch):
        # A unitarity reading that takes the product M^dag (M P) reads the
        # probe block; one whose operator has monomial entries reads its values.
        powers, products, blocks = [], [], []
        matrix_power = np.linalg.matrix_power
        tag_deviation, probes = numerics.tag_deviation, numerics.probes

        def counted_power(*args, **kwargs):
            powers.append(args)
            return matrix_power(*args, **kwargs)

        def counted_probes(dim):
            blocks.append(dim)
            return probes(dim)

        def counted_measure(m):
            blocks.clear()
            deviation = tag_deviation(m)
            if blocks:
                products.append(_is_monomial(m.entries))
            return deviation

        monkeypatch.setattr(np.linalg, "matrix_power", counted_power)
        monkeypatch.setattr(numerics, "probes", counted_probes)
        monkeypatch.setattr(numerics, "tag_deviation", counted_measure)
        report = run_suites(RunManifest(dim=64, theta0=2.9, eta=1.5, suites=SUITE_NAMES))
        assert report.status_counts()["fail"] == 0
        assert powers == []
        assert products and not any(products)


def _max_abs(x):
    return float(np.max(np.abs(x)))


def _dense_deviations(dim, theta0, eta):
    """Each probe-measured record's deviation over every entry, by dense products.

    Each row's route and reference as whole matrices, compared over every
    entry, from the formed ``entries`` of every operator; omega = 1.
    """
    config = SpaceConfig.from_dim(dim, theta0)
    eye = np.eye(dim)

    def gram(m):
        return _max_abs(m.conj().T @ m - eye)

    def u(t):
        return time_evolution(config, 1.0, t).entries

    frame = build_phase_frame(config)
    v = frame.basis.entries
    down = number_shift_operator(config).entries
    shift = unitary_phase_operator(config).entries
    offset = build_generalized_frame(frame, eta)
    w = offset.basis.entries
    coeff_op = offset_phase_coefficients(offset)
    phases = offset_phase_frame(offset, coeff_op)
    p = phases.basis.entries
    coeff = coeff_op.entries
    profile = deformation_linear(config, eta)
    lowering = build_lowering_operator(offset, profile)
    a, a_dag = lowering.entries, lowering.adjoint().entries
    q = generalized_number_shift(offset).entries
    q_p, shift_w = q @ p, shift @ w
    corner_theta, corner_eta = np.exp(1j * dim * theta0), np.exp(-2j * np.pi * eta)
    spectral = unitary_phase_from_spectrum(frame).entries
    cycle = cycle_operator_power(offset, dim).entries
    half_cycle = cycle_operator_power(build_generalized_frame(frame, 0.5), dim).entries
    period = period_evolution(config, 1.0).entries
    dft = np.fft.ifft(eye, axis=0, norm="ortho") * np.exp(1j * theta0 * np.arange(dim))[:, None]
    moved = {
        "phase_state_components": _max_abs(v - dft),
        "unitary_phase_shift_action": _max_abs(
            spectral - numerics.cyclic_shift(dim, corner_theta).entries),
        "unitary_phase_realization": _max_abs(shift - spectral),
        "phase_operator_recovery": _max_abs(
            recover_phase_operator(lowering, profile, offset).entries - shift),
        "modified_shift_realization": _max_abs(
            modified_number_shift(offset, phases).entries - q),
        "corner_phase_phase_operator": abs(
            w[:, dim - 1].conj() @ shift @ w[:, 0] - corner_theta),
        "corner_phase_number_shift": abs(p[:, dim - 1].conj() @ q @ p[:, 0] - corner_eta),
        "cycle_identity": _max_abs(cycle - corner_eta * eye),
        "cross_shift_evolution_below_top": _max_abs(
            half_cycle[:, : dim - 1] - period[:, : dim - 1]),
    }
    if 2.0 * eta == round(2.0 * eta):
        sign = 1.0 if eta == round(eta) else -1.0
        moved["cycle_sign_dichotomy"] = _max_abs(cycle - sign * eye)
    if dim % 2 == 0:
        moved["cross_cycle_even_dims"] = _max_abs(half_cycle - period)
    return moved | {
        "phase_frame_orthonormal": gram(v),
        "phase_frame_complete": _max_abs(v @ v.conj().T - eye),
        "number_shift_action": _max_abs(down @ v - np.roll(v, 1, axis=1)),
        "number_shift_realization": _max_abs(
            v @ numerics.cyclic_shift(dim, 1.0).entries @ v.conj().T - down),
        "unitary_phase_diagonal_in_phase_frame": _max_abs(
            v.conj().T @ shift @ v - np.diag(np.exp(1j * config.thetas()))),
        "generalized_number_frame_orthonormal": gram(w),
        "generalized_phase_frame_orthonormal": gram(p),
        "continuous_shift_roundtrip": _max_abs(p @ coeff.conj().T - w),
        "ladder_number_product": _max_abs(
            w.conj().T @ a_dag @ a @ w - np.diag(profile.values)),
        "ladder_reversed_product": _max_abs(
            w.conj().T @ a @ a_dag @ w - np.diag(np.roll(profile.values, -1))),
        "recovered_phase_unitary": gram(recover_phase_operator(lowering, profile, offset).entries),
        "modified_shift_action": _max_abs(q_p[:, 1:] - p[:, :-1]),
        "modified_shift_wraparound": _max_abs(
            q_p[:, 0] - np.exp(-2j * np.pi * eta) * p[:, dim - 1]),
        "unitary_phase_on_generalized_states": _max_abs(shift_w[:, 1:] - w[:, :-1]),
        "unitary_phase_generalized_wraparound": _max_abs(
            shift_w[:, 0] - np.exp(1j * dim * theta0) * w[:, dim - 1]),
        "evolution_group_law": _max_abs(u(0.37) @ u(1.91) - u(0.37 + 1.91)),
    }


class TestProbeRecordsAgainstTheDenseRoutes:
    """Above the exact dimension a record reads its row on the probe block only.

    For a probe column g, |E g| is at most ||g||_1 max|E| <= sqrt(d) max|E|,
    so a probe reading is at most sqrt(d) times the full-matrix reading, and
    it reaches the same verdict. The two corner records are read by
    matvecs, and the same bound holds for them.
    """

    @pytest.mark.parametrize("dim", [65, 128, 257])
    @pytest.mark.parametrize("theta0, eta", [(0.3, 0.25), (2.9, 1.5)])
    def test_status_and_bound_against_the_dense_deviation(self, dim, theta0, eta):
        dense = _dense_deviations(dim, theta0, eta)
        report = run_suites(RunManifest(dim=dim, theta0=theta0, eta=eta, suites=SUITE_NAMES))
        records = {record.check_id: record for record in report.records}
        for check_id, deviation in dense.items():
            record = records[check_id]
            dense_status = "pass" if deviation <= record.tolerance else "fail"
            assert record.status == dense_status, check_id
            assert record.max_deviation <= np.sqrt(dim) * deviation, check_id


def _pb_core(config, check_id):
    records = suite_pb_core(config, numerics.TolerancePolicy.for_dim(config.dim), {})
    (record,) = [r for r in records if r.check_id == check_id]
    return record


COMMUTATOR = "commutator_direct_vs_closed_form"


class TestPlantedFaultsInPhi:
    """Phi is its 2s+1 Toeplitz values, exp(i k theta_0) c[k mod d] with c the
    inverse DFT of the angles; a fault in c, in the -k factor of the direct
    commutator or in Phi's own window phase must not pass."""

    THETA0 = 2.9

    def _faulty_symbol(self, monkeypatch, dim, pair):
        # The inverse DFT of the real angles, the one real 1-d transform of
        # pb-core, with c[j] off by 1e-6 (and, with ``pair``, c[d-j] off by
        # its conjugate, so that Phi stays hermitian).
        ifft = np.fft.ifft
        j = max(1, dim // 3)

        def faulty(x, *args, **kwargs):
            out = ifft(x, *args, **kwargs)
            if np.ndim(x) == 1 and np.isrealobj(x):
                out[j] += 1e-6 * (1 + 1j)
                if pair:
                    out[dim - j] += 1e-6 * (1 - 1j)
            return out

        monkeypatch.setattr(np.fft, "ifft", faulty)

    @pytest.mark.parametrize("dim", [8, 128, 512])
    def test_the_sound_values_pass(self, dim):
        config = SpaceConfig.from_dim(dim, self.THETA0)
        assert _pb_core(config, "phase_operator_hermitian").status == "pass"
        assert _pb_core(config, COMMUTATOR).status == "pass"

    @pytest.mark.parametrize("dim", [8, 128, 512])
    def test_one_fft_value_off_is_refused(self, dim, monkeypatch):
        self._faulty_symbol(monkeypatch, dim, pair=False)
        config = SpaceConfig.from_dim(dim, self.THETA0)
        with pytest.raises(ArithmeticError, match="^hermitian certification failed"):
            hermitian_phase_operator(build_phase_frame(config))
        with pytest.raises(ArithmeticError, match="^hermitian certification failed"):
            _pb_core(config, COMMUTATOR)

    @pytest.mark.parametrize("dim", [8, 128, 512])
    def test_hermitian_pair_of_fft_values_off_fails_the_commutator(self, dim, monkeypatch):
        self._faulty_symbol(monkeypatch, dim, pair=True)
        config = SpaceConfig.from_dim(dim, self.THETA0)
        assert _pb_core(config, "phase_operator_hermitian").status == "pass"
        assert _pb_core(config, COMMUTATOR).status == "fail"

    @pytest.mark.parametrize("dim", [8, 128, 512])
    @pytest.mark.parametrize("factor", [1.0, -1.0 - 1e-9], ids=["flipped", "scaled"])
    def test_wrong_offset_factor_fails_the_commutator(self, dim, factor, monkeypatch):
        # factor * k instead of -k times Phi's value at n - n' = k.
        def faulty(phi):
            return factor * np.arange(1 - dim, dim) * phi

        monkeypatch.setattr(suites, "commutator_direct", faulty)
        assert _pb_core(SpaceConfig.from_dim(dim, self.THETA0), COMMUTATOR).status == "fail"

    @pytest.mark.parametrize("dim", [8, 128, 512])
    def test_wrong_window_phase_on_phi_only_fails_the_commutator(self, dim, monkeypatch):
        # exp(-i k theta_0) for exp(i k theta_0): Phi stays hermitian, and the
        # closed form keeps its own, sound, window phase.
        build = suites.hermitian_phase_operator
        offsets = np.arange(1 - dim, dim)

        def faulty(frame):
            values, deviation = build(frame)
            return values * np.exp(-2j * offsets * frame.config.theta0), deviation

        monkeypatch.setattr(suites, "hermitian_phase_operator", faulty)
        config = SpaceConfig.from_dim(dim, self.THETA0)
        assert _pb_core(config, "phase_operator_hermitian").status == "pass"
        assert _pb_core(config, COMMUTATOR).status == "fail"


class TestValueReadingsAreEveryEntry:
    """Phi's hermiticity and the commutator record read 2s+1 values; each
    reading is the maximum over the gathered d x d entries, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 64, 65])
    @pytest.mark.parametrize("theta0", [0.0, 0.3, 2.9])
    def test_readings_are_the_gathered_maxima(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        phi, hermitian = hermitian_phase_operator(build_phase_frame(config))
        entries = _toeplitz(phi)
        assert hermitian == numerics.max_abs(entries - entries.conj().T)
        direct = _toeplitz(commutator_direct(phi))
        closed = _toeplitz(commutator_closed_form(config))
        assert _pb_core(config, COMMUTATOR).max_deviation == numerics.max_abs(direct - closed)
        assert _pb_core(config, "phase_operator_hermitian").max_deviation == hermitian

    @pytest.mark.parametrize("dim", [1, 2, 3, 31, 64, 65, 128, 256])
    @pytest.mark.parametrize("theta0", [0.0, 0.3, 2.9, -1.0])
    def test_gathered_phi_is_the_dense_synthesis(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        v = np.exp(1j * np.outer(np.arange(dim), config.thetas())) / math.sqrt(dim)
        dense = (v * config.thetas()) @ v.conj().T
        phi, _ = hermitian_phase_operator(build_phase_frame(config))
        tol_op = numerics.TolerancePolicy.for_dim(dim).tol_op
        assert np.max(np.abs(_toeplitz(phi) - dense)) <= tol_op


class TestPlantedFaultsInTheFrameTransform:
    """Faulty FFT routes for the phase frame that stay unitary pass every
    certification; ``phase_state_components``, read against the exact-turn
    closed form, must fail on each of them, and on a faulty twiddle of the
    four-step tables, the other side of the record."""

    THETA0 = 2.9

    def _record(self, frame):
        config = frame.config
        records = suite_pb_core(config, numerics.TolerancePolicy.for_dim(config.dim), {
            "phase_frame": frame})
        (record,) = [r for r in records if r.check_id == "phase_state_components"]
        return record

    def _frame(self, dim, swap=False, drop_window=False, columns=None):
        """The phase frame with its diagonals diag(left) F diag(right) altered."""
        config = SpaceConfig.from_dim(dim, self.THETA0)
        left, right, theta0, eta = build_phase_frame(config).basis._parts
        if drop_window:
            left = np.ones(dim, dtype=complex)
        if columns is not None:
            right = right.copy()
            right[columns] *= np.exp(1e-6j)
        if swap:
            left, right = right, left
        parts = (left, right, theta0, eta)
        return Frame(config, 0.0, numerics.OperatorMatrix._held(numerics._FOURIER, parts, dim))

    @pytest.mark.parametrize("dim", [8, 128, 512])
    def test_the_sound_frame_passes(self, dim):
        assert self._record(self._frame(dim)).status == "pass"

    @pytest.mark.parametrize("dim", [8, 128])
    def test_fft_for_ifft(self, dim, monkeypatch):
        # The conjugate DFT, with its adjoint swapped to match, is unitary.
        inverse, forward = np.fft.ifft, np.fft.fft
        monkeypatch.setattr(np.fft, "ifft", forward)
        monkeypatch.setattr(np.fft, "fft", inverse)
        assert self._record(self._frame(dim)).status == "fail"

    @pytest.mark.parametrize("dim", [8, 128])
    def test_dropped_window_phase(self, dim):
        # F alone, without exp(i n theta_0).
        assert self._record(self._frame(dim, drop_window=True)).status == "fail"

    @pytest.mark.parametrize("dim", [8, 128])
    def test_transposed_dft(self, dim):
        # The transpose diag(right) F diag(left) of the factor: F is
        # symmetric, so the window phase moves onto the columns.
        assert self._record(self._frame(dim, swap=True)).status == "fail"

    @pytest.mark.parametrize("dim", [8, 128])
    def test_one_column_off_by_a_phase(self, dim):
        # One column's phase off by 1e-6: a fault the probe block meets
        # through every Gaussian column, however few columns it has.
        assert self._record(self._frame(dim, columns=dim // 3)).status == "fail"

    @pytest.mark.parametrize("dim", [32, 128, 512])
    def test_upper_half_of_the_columns_off_by_a_phase(self, dim):
        # right[m] off by 1e-6 for m >= d/2 only: the probe block covers
        # every m (the identity up to d=64, its Gaussian columns above), so
        # the half the corners miss still fails.
        assert self._record(self._frame(dim, columns=slice(dim // 2, None))).status == "fail"

    @pytest.mark.parametrize("dim", [32, 128, 512])
    def test_one_wrong_twiddle(self, dim, monkeypatch):
        # turns[1] off by a phase of 1e-6 once the frame is certified. At
        # these d, d1 and d2 are both above 1, so j = 1 is no multiple of d1
        # or d2 and only the twiddle exp(2 pi i n1 m2/d) at n1 = m2 = 1 reads
        # it. No operator in the run forms its entries from the table, so
        # the FFT side of every record is free of the fault at every d.
        frame = self._frame(dim)
        table = numerics._turns(dim).copy()
        table[1] *= np.exp(1e-6j)
        table.setflags(write=False)
        monkeypatch.setattr(numerics, "_turns", lambda d: table)
        assert self._record(frame).status == "fail"
        # The adjoint applies conj(T), which is T^dag only while T is
        # symmetric: the twiddle fault breaks that, so the certification
        # refuses it too.
        with pytest.raises(ArithmeticError, match="^unitary certification failed"):
            numerics.certify(frame.basis)


class TestTheExactTurnRoute:
    """The four-step route of the shifted DFT's closed form, against np.fft."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 64, 509, 511, 512, 4093, 4096])
    @pytest.mark.parametrize("theta0, eta", [(0.0, 0.0), (2.9, 1.5)])
    def test_four_step_against_np_fft(self, dim, theta0, eta):
        # On unit columns the FFT errs by at most about 5 eps log2 d in the
        # 2-norm and each matrix stage of length d_i by d_i eps (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., §24.1 and
        # §3.5); the diagonals add a few eps. The largest entry difference is
        # within eps (5 log2 d + d1 + d2 + 8); it read at most 3.7e-16.
        op = numerics.OperatorMatrix.fourier(dim, theta0, eta)
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((dim, 10)) + 1j * rng.standard_normal((dim, 10))
        x /= np.linalg.norm(x, axis=0)
        d1 = max(f for f in range(1, math.isqrt(dim) + 1) if dim % f == 0)
        bound = np.finfo(float).eps * (5 * math.log2(dim) + d1 + dim // d1 + 8)
        assert np.max(np.abs(numerics._exact_turns(op, x) - op.apply(x))) <= bound
        assert np.max(np.abs(numerics._exact_turns(op, x, adjoint=True)
                             - op.adjoint().apply(x))) <= bound

    @pytest.mark.parametrize("dim", [8, 128, 509, 512])
    def test_one_side_stays_off_the_fft(self, dim, monkeypatch):
        # The record's reference and both frames' certifications with every
        # np.fft transform raising: they read the four-step tables only.
        config = SpaceConfig.from_dim(dim, 2.9)
        basis = build_phase_frame(config).basis
        offset = numerics.OperatorMatrix.fourier(dim, 2.9, 1.5)

        def raises(*args, **kwargs):
            raise AssertionError("the exact-turn route called np.fft")

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, raises)
        block = numerics.probes(dim)
        assert numerics._exact_turns(basis, block).shape == block.shape
        assert numerics._exact_turns(offset, block, adjoint=True).shape == block.shape
        for op in (basis, offset):
            assert numerics.certify(op).deviation <= 1e-14


def _values(rng, dim, like=None):
    """Random complex values, some of them zero and, with ``like``, some equal to it."""
    values = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    values[rng.random(dim) < 0.2] = 0.0
    return values if like is None else np.where(rng.random(dim) < 0.3, like, values)


class TestMonomialReading:
    """Rows over monomials read ``(rows, values)`` in O(d): the reading is
    max |M - diag(d)| over every entry of the formed matrices, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 65])
    @pytest.mark.parametrize("rows", ["diagonal", "permuted"])
    @pytest.mark.parametrize("seed", range(4))
    def test_gap_is_the_every_entry_reading(self, dim, rows, seed):
        # A random permutation has fixed points, where the rows agree with
        # the diagonal's, and moved columns, where they differ.
        rng = np.random.default_rng([dim, seed])
        values = _values(rng, dim)
        op = numerics.OperatorMatrix.monomial(
            np.arange(dim) if rows == "diagonal" else rng.permutation(dim), values)
        diagonal = _values(rng, dim, like=values)
        gap = suites._diagonal_gap(op, diagonal)
        assert op._entries is None  # read without forming the entries
        every_entry = np.max(np.abs(op.entries - np.diag(diagonal)))
        assert gap.shape == (dim,)
        assert np.max(gap) == every_entry
        assert suites._record("check", "anchor", gap, 0.0, 1.0).max_deviation == every_entry
        # A scalar reference is the scalar times the identity, as c * eye reads.
        corner = complex(values[0]) if dim > 1 else 0.3 - 0.4j
        scalar = np.max(np.abs(op.entries - corner * np.eye(dim)))
        assert np.max(suites._diagonal_gap(op, corner)) == scalar

    @pytest.mark.parametrize("dim", [2, 3, 7, 65])
    def test_a_wrong_permutation_reads_the_larger_value(self, dim):
        # The diagonal's own values on rows rolled by one: every column
        # differs in two entries, so the reading is the largest modulus.
        values = _values(np.random.default_rng(dim), dim)
        rolled = numerics.OperatorMatrix.monomial(np.roll(np.arange(dim), 1), values)
        gap = suites._diagonal_gap(rolled, values)
        assert np.max(gap) == np.max(np.abs(rolled.entries - np.diag(values)))
        assert np.max(gap) == np.max(np.abs(values))

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 65])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_diagonal_is_the_every_entry_diagonal(self, dim, diagonal):
        rng = np.random.default_rng(dim)
        rows = np.arange(dim) if diagonal else rng.permutation(dim)
        op = numerics.OperatorMatrix.monomial(rows, rng.standard_normal(dim) + 1j)
        read = suites._diagonal(op)
        assert op._entries is None  # read without forming the entries
        assert read.dtype == np.complex128
        assert read.tobytes() == np.diag(op.entries).tobytes()

    @pytest.mark.parametrize("dim", [8, 128])
    def test_power_with_rolled_rows_fails_its_records(self, dim, monkeypatch):
        manifest = RunManifest(dim=dim, theta0=2.9, eta=1.5, suites=SUITE_NAMES)
        planted = {"unitary_phase_cyclic", "standard_shift_cycle_sign_below_top"}

        def statuses():
            return {r.check_id: r.status for r in run_suites(manifest).records
                    if r.check_id in planted}

        assert statuses() == dict.fromkeys(planted, "pass")
        power = suites.mat_power

        def rolled(m, k):
            rows, values = numerics._monomial(power(m, k))
            return numerics.OperatorMatrix.monomial(np.roll(rows, 1), values)

        monkeypatch.setattr(suites, "mat_power", rolled)
        assert statuses() == dict.fromkeys(planted, "fail")
