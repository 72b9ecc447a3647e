"""Operators held as their factors: how they act and how their entries are formed."""

import functools
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from fdphase import deformed, numerics
from fdphase.cli import main
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
from fdphase.evolution import hamiltonian, oscillator_spectrum, time_evolution
from fdphase.numerics import DimensionMismatch, OperatorMatrix, certify, mat_power
from fdphase.pegg_barnett import (
    SpaceConfig,
    build_phase_frame,
    number_shift_operator,
    unitary_phase_from_spectrum,
    unitary_phase_operator,
)

DIMS = [1, 2, 7, 64, 65, 257]


def _diagonal(values):
    return OperatorMatrix.monomial(np.arange(len(values)), values)


def _dense_cyclic_shift(dim, corner, weights=None):
    """The dense cyclic down-shift as it was built entry by entry."""
    entries = np.zeros((dim, dim), dtype=np.complex128)
    levels = np.arange(1, dim)
    if weights is None:
        entries[levels - 1, levels] = 1.0
        entries[dim - 1, 0] = corner
    else:
        entries[levels - 1, levels] = weights[1:]
        entries[dim - 1, 0] = weights[0] * corner
    return entries


def _synthesized(v, vals):
    return (v * vals) @ v.conj().T


def _shifted_dft(dim, theta0, eta):
    """exp(i(n+eta)theta_m)/sqrt(d) at exact turns, entry by entry.

    exp(i(n+eta)theta0) exp(2 pi i t/d) exp(2 pi i eta m/d)/sqrt(d), with the
    integer turn t = n m mod d taken into [-d/2, d/2).
    """
    levels = np.arange(dim)
    turns = (np.outer(levels, levels) % dim + dim // 2) % dim - dim // 2
    dft = np.exp(1j * (2 * np.pi * turns / dim))
    window = np.exp(1j * ((levels + eta) * theta0))
    offset = np.exp(1j * eta * (2 * np.pi * levels / dim))
    return dft * window[:, None] * (offset / math.sqrt(dim))


def _float_closed_form(dim, theta0, eta):
    """The 0.6.0 to 0.8.0 closed form, whose phases (n+eta)theta_m round in floats."""
    thetas = SpaceConfig.from_dim(dim, theta0).thetas()
    return np.exp(1j * np.outer(np.arange(dim) + eta, thetas)) / math.sqrt(dim)


def _oracles(dim, theta0=2.9, eta=1.5):
    """Each factored builder's entries and the dense expression that formed them."""
    config = SpaceConfig.from_dim(dim, theta0)
    frame = build_phase_frame(config)
    offset = build_generalized_frame(frame, eta)
    coeff_op = offset_phase_coefficients(offset)
    phases = offset_phase_frame(offset, coeff_op)
    profile = deformation_linear(config, eta)
    lowering = build_lowering_operator(offset, profile)
    thetas = config.thetas()
    v = _shifted_dft(dim, theta0, 0.0)
    coeff = _shifted_dft(dim, theta0, eta)
    w = _synthesized(v, np.exp(-1j * eta * thetas))
    p = w @ coeff
    corner = np.exp(1j * dim * theta0)
    a = w @ _dense_cyclic_shift(dim, corner, np.sqrt(profile.values)) @ w.conj().T
    levels = np.arange(dim)
    shift_eigvals = config.root_power(-(levels + eta))
    _, cycle_eigvals = numerics._binary_power(levels, shift_eigvals, dim)
    energies = oscillator_spectrum(config, 1.0)
    return {
        "phase_frame": (frame.basis, v),
        "offset_coefficients": (coeff_op, coeff),
        "exp_iphi_spectral": (unitary_phase_from_spectrum(frame),
                              _synthesized(v, np.exp(1j * thetas))),
        "exp_iphi": (unitary_phase_operator(config), _dense_cyclic_shift(dim, corner)),
        "q_minus_n": (number_shift_operator(config), np.diag(config.root_power(-levels))),
        "offset_frame": (offset.basis, w),
        "offset_phase_frame": (phases.basis, p),
        "lowering": (lowering, a),
        "raising": (lowering.adjoint(), a.conj().T),
        "recovered": (recover_phase_operator(lowering, profile, offset),
                      a @ _synthesized(w, (profile.values ** -0.5).astype(complex))),
        "generalized_shift": (generalized_number_shift(offset), _synthesized(w, shift_eigvals)),
        "modified_shift": (modified_number_shift(offset, phases),
                           p @ _dense_cyclic_shift(dim, np.exp(-2j * np.pi * eta)) @ p.conj().T),
        "cycle_power": (cycle_operator_power(offset, dim), _synthesized(w, cycle_eigvals)),
        "evolution": (time_evolution(config, 1.0, 0.7), np.diag(np.exp(-1j * energies * 0.7))),
        "number": (_diagonal(np.arange(dim)), np.diag(np.arange(dim, dtype=np.complex128))),
        "hamiltonian": (hamiltonian(config, 1.0), np.diag(energies.astype(np.complex128))),
    }


# The oracles whose dense expression takes no ``@``: their entries are formed
# with the same arithmetic, so they are its bytes. Every other oracle is a
# product, whose entries are its action on the identity through its factors.
_BYTE_EQUAL = {"phase_frame", "offset_coefficients", "exp_iphi", "q_minus_n",
               "evolution", "number", "hamiltonian"}


class TestEntriesKeepTheDenseExpressions:
    @pytest.mark.parametrize("dim", DIMS)
    def test_formed_entries_are_the_dense_expression_bytes(self, dim):
        oracles = _oracles(dim)
        assert _BYTE_EQUAL < oracles.keys()
        for name in _BYTE_EQUAL:
            op, dense = oracles[name]
            assert op.entries.shape == (dim, dim), name
            assert op.entries.tobytes() == np.ascontiguousarray(dense).tobytes(), name
            assert not op.entries.flags.writeable, name

    @pytest.mark.parametrize("dim", DIMS)
    def test_held_operators_act_as_their_entries(self, dim):
        # A product's entries and its dense expression round differently, by
        # at most 1.7 eps d max(1, max |oracle|) at every d here (the
        # recovered operator at d=2); the bound allows 8.
        rng = np.random.default_rng(dim)
        block = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        for name, (op, oracle) in _oracles(dim).items():
            scale = max(1.0, np.max(np.abs(oracle)))
            tol = 1e-13 * dim * scale
            assert np.max(np.abs(op.apply(block) - oracle @ block)) <= tol, name
            assert np.max(np.abs(op.apply(block[:, 0]) - oracle @ block[:, 0])) <= tol, name
            assert np.max(np.abs(op.adjoint().apply(block) - oracle.conj().T @ block)) <= tol, name
            bound = 8 * np.finfo(float).eps * dim * scale
            assert np.max(np.abs(op.entries - oracle)) <= bound, name
            assert not op.entries.flags.writeable, name


@functools.lru_cache(maxsize=None)
def _extended_lowering(dim, theta0, eta):
    """A = W S W^dag with W = V diag(exp(-i eta theta_m)) V^dag, in ``np.clongdouble``.

    V[n, m] = exp(i(n theta0 + 2 pi (n m mod d)/d))/sqrt(d) is the phase
    frame, S the weighted shift with sqrt(n + eta) on |n-1><n| and
    sqrt(eta) exp(i d theta0) on |d-1><0|; every phase is taken in extended
    precision and every product by numpy's loop, with no BLAS.
    """
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    levels = np.arange(dim)
    steps = levels.astype(ld)
    turns = (np.outer(levels, levels) % dim).astype(ld)
    v = np.exp(1j * (steps[:, None] * ld(theta0) + 2 * pi * turns / dim)) / np.sqrt(ld(dim))
    thetas = ld(theta0) + 2 * pi * steps / dim
    w = (v * np.exp(-1j * ld(eta) * thetas)) @ v.conj().T
    weights = np.sqrt(steps + ld(eta))
    s = np.zeros((dim, dim), dtype=np.clongdouble)
    s[levels[1:] - 1, levels[1:]] = weights[1:]
    s[dim - 1, 0] = weights[0] * np.exp(1j * dim * ld(theta0))
    return w @ s @ w.conj().T


class TestLoweringAgainstExtendedPrecision:
    """A and A^dag, formed by their action on the identity, against a
    ``np.clongdouble`` dense reference."""

    @pytest.mark.parametrize("dim", [7, 64, 257])
    @pytest.mark.parametrize("fault", [None, "corner", "conjugated"])
    def test_entries_are_the_reference_to_the_phase_rounding(self, dim, fault, monkeypatch):
        # A's largest entries are sqrt(F_n) ~ sqrt(d), and its double
        # phases (n + eta) theta_m round by up to about eps d (|theta0| + 2 pi),
        # so the bound is eps sqrt(d) d (|theta0| + 2 pi). The entries read
        # 2.6e-15, 1.2e-13 and 1.0e-12 at d = 7, 64 and 257: within the
        # bound by a margin of 15, 8.5 and 8. A planted fault, S's corner
        # phase dropped or the frame's eigenvalues exp(-i eta theta_m)
        # conjugated, reads above it.
        theta0, eta = 2.9, 0.5
        if fault == "corner":
            shift = deformed.cyclic_shift
            monkeypatch.setattr(deformed, "cyclic_shift",
                                lambda dim, corner, weights: shift(dim, 1.0, weights))
        elif fault == "conjugated":
            synthesize = deformed.spectral_synthesize
            monkeypatch.setattr(deformed, "spectral_synthesize",
                                lambda frame, eigvals: synthesize(frame, np.conj(eigvals)))
        config = SpaceConfig.from_dim(dim, theta0)
        frame = build_generalized_frame(build_phase_frame(config), eta)
        lowering = build_lowering_operator(frame, deformation_linear(config, eta))
        reference = _extended_lowering(dim, theta0, eta)
        bound = np.finfo(float).eps * math.sqrt(dim) * dim * (theta0 + 2 * np.pi)
        deviations = (np.max(np.abs(lowering.entries - reference)),
                      np.max(np.abs(lowering.adjoint().entries - reference.conj().T)))
        if fault is None:
            assert max(deviations) <= bound, deviations
        else:
            assert min(deviations) > bound, deviations


class TestShiftedDft:
    """The phase-basis factor exp(i(n+eta)theta_m)/sqrt(d), held as diag(left) F diag(right)."""

    WINDOWS = [(2.9, 1.5), (0.3, 0.25), (0.0, 0.0), (-1.0, 0.5)]

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("theta0, eta", WINDOWS)
    def test_entries_are_the_exact_turn_bytes(self, dim, theta0, eta):
        op = OperatorMatrix.fourier(dim, theta0, eta)
        assert op.entries.tobytes() == _shifted_dft(dim, theta0, eta).tobytes()
        assert not op.entries.flags.writeable

    @pytest.mark.parametrize("dim", [*DIMS, 512, 1024])
    @pytest.mark.parametrize("theta0, eta", [*WINDOWS, (100.0, -7.25)])
    def test_entries_are_the_float_closed_form_to_its_rounding(self, dim, theta0, eta):
        # The float closed form rounds theta_m, n+eta and their product, each
        # to a relative eps/2 of |(n+eta)theta_m|; the exact-turn entries
        # round only the two diagonals' phases, by eps |(n+eta)theta0| and
        # 2 eps 2 pi |eta|, and the turn table, by about eps pi. So the
        # entries differ by at most
        # eps (3 (d-1+|eta|)(|theta0|+2 pi) + 4 pi |eta| + 8)/sqrt(d).
        op = OperatorMatrix.fourier(dim, theta0, eta)
        eps = np.finfo(float).eps
        reach = (dim - 1 + abs(eta)) * (abs(theta0) + 2 * np.pi)
        bound = eps * (3 * reach + 4 * np.pi * abs(eta) + 8) / math.sqrt(dim)
        assert np.max(np.abs(op.entries - _float_closed_form(dim, theta0, eta))) <= bound

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("theta0, eta", WINDOWS)
    def test_fft_action_matches_the_entries(self, dim, theta0, eta):
        # Each closed-form entry rounds its phase (n+eta)theta_m, and the
        # product sums d such entries of modulus 1/sqrt(d) against a unit
        # vector; the FFT route adds O(eps log d). The bound
        # 16 eps sqrt(d) (1 + |theta0| + |eta|) held with a margin of about
        # 14 at every d up to 4096 and at theta0 = 1000.
        op = OperatorMatrix.fourier(dim, theta0, eta)
        entries = op.entries
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        x /= np.linalg.norm(x, axis=0)
        bound = 16 * np.finfo(float).eps * np.sqrt(dim) * (1.0 + abs(theta0) + abs(eta))
        for block in (x, x[:, 0]):  # a narrow block and a single state
            assert np.max(np.abs(op.apply(block) - entries @ block)) <= bound
            assert np.max(np.abs(op.adjoint().apply(block) - entries.conj().T @ block)) <= bound

    @pytest.mark.parametrize("dim, width", [(65, 10), (8, 8)])
    def test_acts_by_fft_on_any_block(self, dim, width):
        op = OperatorMatrix.fourier(dim, 2.9, 1.5)
        op.apply(np.ones((dim, width)))
        op.adjoint().apply(np.ones(dim))
        assert op._entries is None

    def test_parts_are_read_only(self):
        left, right, _, _ = OperatorMatrix.fourier(8, 2.9, 1.5)._parts
        for part in (left, right):
            with pytest.raises(ValueError):
                part[0] = 1.0

    @pytest.mark.parametrize("dim", [8, 65, 257])
    def test_certified_on_the_exact_turn_route(self, dim):
        # max |C^dag (C P) - P| with C acting through the four-step tables,
        # not through its formed entries, which stay unformed. The dense
        # reading over the formed entries rounds differently, by a few eps
        # per product of length d: the two agree within 4 d eps.
        op = OperatorMatrix.fourier(dim, 1e4, 1.5)
        deviation = certify(op).deviation
        assert op._entries is None
        block = numerics.probes(dim)
        entries = op.entries
        dense = np.max(np.abs(entries.conj().T @ (entries @ block) - block))
        eps = np.finfo(float).eps
        assert abs(deviation - dense) <= 4 * dim * eps
        assert deviation <= 4 * dim * eps

    @pytest.mark.parametrize("dim", [6, 65, 509, 512])
    def test_a_closed_form_that_is_not_unitary_is_refused(self, dim, monkeypatch):
        # One entry of the window diagonal a scaled by 1 + 1e-4: the exact-turn
        # route reads C^dag C - 1 off by about 2e-4/d on the probe block,
        # above tol_op = 1e-11 d.
        diagonals = numerics._shifted_dft_diagonals

        def skewed(*args):
            a, b = diagonals(*args)
            a[dim // 3] *= 1 + 1e-4
            return a, b

        monkeypatch.setattr(numerics, "_shifted_dft_diagonals", skewed)
        with pytest.raises(ArithmeticError, match="^unitary certification failed"):
            certify(OperatorMatrix.fourier(dim, 2.9, 1.5))

    @pytest.mark.parametrize("dim, which", [
        (1, "eta"), *((dim, which) for dim in (8, 65, 257, 4096) for which in ("theta0", "eta"))])
    def test_phases_that_round_past_tol_op_are_refused_by_name(self, dim, which):
        # The rounding bound eps (|(d-1+eta) theta0| + |eta theta0| + 2 pi |eta|)
        # is linear in theta0 at eta = 0 and in eta at theta0 = 0; 1% on
        # either side of the value where it reaches tol_op decides the refusal.
        tol_op = numerics.TolerancePolicy.for_dim(dim).tol_op
        eps = np.finfo(float).eps
        limit = tol_op / (eps * ((dim - 1) if which == "theta0" else 2 * np.pi))

        def fourier(scale):
            value = scale * limit
            return OperatorMatrix.fourier(dim, *((value, 0.0) if which == "theta0" else (0.0, value)))

        with pytest.raises(ValueError, match=r"are out of range: the phases \(n\+eta\)"):
            fourier(1.01)
        assert certify(fourier(0.99)).deviation <= tol_op

    def test_refusal_names_the_bound_and_the_limit(self):
        with pytest.raises(ValueError) as refused:
            OperatorMatrix.fourier(16, 1e6, 0.0)
        assert str(refused.value) == (
            "theta0 = 1000000.0 and eta = 0.0 are out of range: the phases (n+eta)*theta_m "
            "round by up to eps*(|(s+eta)*theta0| + |eta*theta0| + 2*pi*|eta|) = 3.331e-09, "
            "which must stay within tol_op = 1.600e-10 at dimension 16"
        )

    @pytest.mark.parametrize("theta0, eta", [(np.nan, 0.0), (0.0, np.inf), (1e308, 1e308)])
    def test_refuses_phases_that_are_not_finite(self, theta0, eta):
        with pytest.raises(ValueError, match="out of range"):
            OperatorMatrix.fourier(8, theta0, eta)

    def test_refuses_an_empty_space(self):
        with pytest.raises(ValueError):
            OperatorMatrix.fourier(0, 0.0, 0.0)


class TestHeldKinds:
    def test_monomial_acts_by_index(self):
        rows, values = np.array([2, 0, 1]), np.array([1j, -2.0, 0.5])
        op = OperatorMatrix.monomial(rows, values)
        dense = np.zeros((3, 3), dtype=complex)
        dense[rows, np.arange(3)] = values
        x = np.arange(6.0).reshape(3, 2) + 1j
        assert np.array_equal(op.entries, dense)
        assert np.allclose(op.apply(x), dense @ x, rtol=0.0, atol=1e-15)
        assert np.allclose(op.adjoint().apply(x), dense.conj().T @ x, rtol=0.0, atol=1e-15)
        assert np.allclose(op.apply(x[:, 1]), dense @ x[:, 1], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("rows, values", [
        ([0, 0], [1.0, 1.0]),
        ([0, 1], [1.0, np.inf]),
        ([0], [1.0, 1.0]),
        ([], []),
    ])
    def test_monomial_refuses_bad_parts(self, rows, values):
        with pytest.raises(ValueError):
            OperatorMatrix.monomial(rows, values)

    def test_product_refuses_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            OperatorMatrix.product(_diagonal(np.ones(2)), _diagonal(np.ones(3)))

    def test_adjoint_carries_no_certification(self):
        op = certify(OperatorMatrix.monomial([1, 0], [1.0, 1j]))
        assert op.adjoint().deviation is None
        assert np.array_equal(op.adjoint().entries, op.entries.conj().T)

    def test_formed_entries_must_be_finite(self):
        big = _diagonal(np.full(2, 1e200))
        product = OperatorMatrix.product(big, OperatorMatrix.fourier(2, 0.0, 0.0), big)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            product.entries

    def test_immutable(self):
        op = _diagonal(np.ones(2))
        with pytest.raises(AttributeError):
            op.dim = 3

    def test_certify_records_on_the_operator_itself(self):
        config = SpaceConfig.from_dim(5, 0.3)
        spectral = numerics.spectral_synthesize(build_phase_frame(config).basis,
                                                np.exp(1j * config.thetas()))
        entries = spectral.entries
        assert certify(spectral) is spectral
        assert type(spectral.deviation) is float
        assert spectral.entries is entries


class TestMonomialScan:
    def test_other_kinds_give_no_monomial_and_form_nothing(self):
        fourier = OperatorMatrix.fourier(6, 0.3, 0.5)
        product = OperatorMatrix.product(_diagonal(np.ones(6)), _diagonal(np.ones(6)))
        for op in (fourier, fourier.adjoint(), product, _diagonal(np.ones(6)).adjoint()):
            assert numerics._monomial(op) is None
            with pytest.raises(ValueError, match="monomial"):
                mat_power(op, 2)
            assert op._entries is None

    def test_held_monomial_gives_its_parts_without_a_scan(self):
        u = time_evolution(SpaceConfig.from_dim(4), 1.0, 0.3)
        rows, values = numerics._monomial(u)
        assert np.array_equal(rows, np.arange(4))
        assert values is u._parts[1]

    def test_number_operator_and_hamiltonian_are_held_diagonals(self):
        config = SpaceConfig.from_dim(5, 0.3)
        for op in (_diagonal(np.arange(config.dim)), hamiltonian(config, 0.37)):
            assert op._kind == numerics._MONOMIAL and op._parts[2]

    def test_power_of_a_held_monomial_is_held(self):
        u = time_evolution(SpaceConfig.from_dim(4), 1.0, 0.3)
        powered = mat_power(u, 3)
        assert powered._kind == numerics._MONOMIAL
        values = np.diag(u.entries)
        assert np.array_equal(powered.entries, np.diag(values * (values * values)))


def _formed(monkeypatch) -> list:
    """Every held operator whose entries are formed, in order."""
    formed = []
    form = OperatorMatrix._form

    def recorded(self):
        formed.append(self)
        return form(self)

    monkeypatch.setattr(OperatorMatrix, "_form", recorded)
    return formed


class TestVerifyFormsNoSquareArray:
    @pytest.mark.parametrize("dim", [1, 2, 8, 32, 64, 128])
    def test_verify_forms_no_entries(self, dim, monkeypatch, tmp_path, capsys):
        formed = _formed(monkeypatch)
        argv = ["verify", "--suite", "all", "--dim", str(dim), "--theta0", "2.9", "--eta", "1.5",
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        # Every operator acts through its factors at every d: the phase
        # frames by FFT, certified through the four-step tables, Phi as its
        # Toeplitz values, and a monomial as its (rows, values).
        assert formed == []

    def test_d1024_verify_peaks_below_a_quarter_of_a_square_array(self, tmp_path, capsys):
        # d^2 * 4 bytes is a quarter of one complex d x d array and half of
        # a real one; the suites hold about ten d x 10 blocks at a time.
        dim = 1024
        argv = ["verify", "--suite", "all", "--dim", str(dim), "--theta0", "2.9", "--eta", "1.5",
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0  # the probe block and the turn table are built before tracing
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dim * dim * 4


def _counted_ffts(monkeypatch) -> list:
    """Every np.fft.fft and np.fft.ifft call, as (name, shape, sha256 of its input)."""
    calls = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)

        def counted(x, *args, _name=name, _transform=transform, **kwargs):
            x = np.asarray(x)
            digest = hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
            calls.append((_name, x.shape, digest))
            return _transform(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestProbeImages:
    """An operator that acts by FFT takes its images of the probe block once."""

    @pytest.mark.parametrize("dim, theta0, eta, calls, inputs", [
        (8, "0.3", "0.25", 113, 109), (32, "2.9", "1.5", 113, 109),
        (65, "0.3", "0.25", 106, 102), (128, "2.9", "1.5", 113, 109),
        (511, "0.3", "0.25", 106, 102), (512, "2.9", "1.5", 113, 109)])
    def test_verify_ffts_and_their_distinct_inputs(
            self, dim, theta0, eta, calls, inputs, monkeypatch, tmp_path, capsys):
        # Before the images were kept, d=511 took 147 FFTs of 102 inputs and
        # d=512 159 of 109. The repeats left are actions on equal blocks that
        # are not the probe block itself.
        counted = _counted_ffts(monkeypatch)
        argv = ["verify", "--suite", "all", "--dim", str(dim), "--theta0", theta0,
                "--eta", eta, "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert (len(counted), len(set(counted))) == (calls, inputs)
        assert len(counted) - len(set(counted)) <= 4

    @pytest.mark.parametrize("dim", [8, 65, 512])
    def test_images_are_read_only_and_taken_once(self, dim, monkeypatch):
        config = SpaceConfig.from_dim(dim, 2.9)
        block = numerics.probes(dim)
        frame = build_phase_frame(config)
        spectral = unitary_phase_from_spectrum(frame)
        for op in (frame.basis, spectral, OperatorMatrix.fourier(dim, 0.3, 1.5)):
            for image_of in (op, op.adjoint()):
                image = image_of.apply(block)
                assert not image.flags.writeable
                with pytest.raises(ValueError):
                    image[0, 0] = 1.0
                assert image_of.apply(block) is image
                # An adjoint acts through its base, whose images it reads.
                assert image_of.adjoint().adjoint().apply(block) is image
        # Certification records on the operator, which keeps its images.
        image = spectral.apply(block)
        assert certify(spectral) is spectral
        assert spectral.apply(block) is image
        counted = _counted_ffts(monkeypatch)
        frame.basis.apply(block)
        spectral.adjoint().apply(block)
        assert counted == []

    @pytest.mark.parametrize("dim", [8, 65])
    @pytest.mark.parametrize("writeable", [True, False])
    def test_a_copy_of_the_probe_block_is_acted_on_afresh(self, dim, writeable):
        # P is recognised by identity, not by its values.
        basis = build_phase_frame(SpaceConfig.from_dim(dim, 2.9)).basis
        block = numerics.probes(dim)
        image = basis.apply(block)
        copy = block.copy()
        copy.setflags(write=writeable)
        fresh = basis.apply(copy)
        assert fresh is not image and fresh.flags.writeable
        assert fresh.tobytes() == image.tobytes()
        assert basis.apply(copy) is not fresh

    def test_a_monomial_keeps_no_image(self):
        block = numerics.probes(65)
        shift = numerics.cyclic_shift(65, 1j)
        assert shift.apply(block) is not shift.apply(block)
        assert shift._images == {}

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "all", "--dim", "65", "--theta0", "2.9", "--eta", "1.5"],
        ["verify", "--suite", "all", "--dim", "8", "--theta0", "0.3", "--eta", "0.25"]])
    def test_no_operator_and_no_image_outlives_the_command(
            self, argv, monkeypatch, tmp_path, capsys):
        # The images live in their operator's cache, in no module-level store.
        held, acted = [], []
        build, act = OperatorMatrix._held.__func__, OperatorMatrix._act

        def built(cls, *args, **kwargs):
            op = build(cls, *args, **kwargs)
            held.append(weakref.ref(op))
            return op

        def recorded(self, x, adjoint=False):
            image = act(self, x, adjoint)
            acted.append(weakref.ref(image))
            return image

        monkeypatch.setattr(OperatorMatrix, "_held", classmethod(built))
        monkeypatch.setattr(OperatorMatrix, "_act", recorded)
        assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
        assert held and all(ref() is None for ref in held)
        assert acted and all(ref() is None for ref in acted)
