"""Each dense step of a verify run happens once: certifications, frame builds."""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from fdphase import numerics, pegg_barnett
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
from fdphase.evolution import hamiltonian, time_evolution
from fdphase.numerics import OperatorMatrix, certify, tag_deviation
from fdphase.pegg_barnett import (
    SpaceConfig,
    build_phase_frame,
    hermitian_phase_operator,
    number_shift_operator,
    unitary_phase_from_spectrum,
    unitary_phase_operator,
)
from fdphase.report import RunManifest
from fdphase.suites import SUITE_NAMES, run_suites


def _diagonal(values):
    return OperatorMatrix.monomial(np.arange(len(values)), values)


def _number_operator(config):
    """N = diag(0, 1, ..., s), held as a diagonal monomial."""
    levels = np.arange(config.dim)
    return OperatorMatrix.monomial(levels, levels)


def _count_calls(monkeypatch, fn) -> list:
    """Count calls of ``fn`` through every fdphase module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "fdphase" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def measured(monkeypatch):
    """The arguments, ``(operator,)``, of each call of ``numerics.tag_deviation``."""
    return _count_calls(monkeypatch, numerics.tag_deviation)


class TestCertifyOnce:
    def test_certification_measures_once(self, measured):
        op = _diagonal([1.0, -1.0, 1.0])
        unitary = certify(op)
        assert unitary.deviation == 0.0
        assert measured == [(op,)]

    def test_constructor_measures_nothing(self, measured):
        for op in (_diagonal([1.0, 1.0]), OperatorMatrix.fourier(2, 0.3, 0.5)):
            assert op.deviation is None
        assert len(measured) == 0

    def test_certify_returns_the_operator_it_measured(self):
        op = _diagonal([1.0, -1.0])
        entries = op.entries
        assert certify(op) is op
        assert op.deviation == 0.0
        assert op.entries is entries
        assert not op.entries.flags.writeable

    def test_matrix_keeps_its_certified_deviation(self, measured):
        # A synthesis at dim 2 that is unitary to within 1e-13.
        config = SpaceConfig.from_dim(2, 0.0)
        phase = numerics.spectral_synthesize(build_phase_frame(config).basis,
                                             [1.0, 1.0 + 1e-13])
        measured.clear()  # the phase frame's own certification
        unitary = certify(phase)
        assert measured == [(phase,)]
        assert type(unitary.deviation) is float
        assert unitary.deviation == tag_deviation(phase)
        assert unitary.deviation > 0.0
        with pytest.raises(AttributeError):
            unitary.deviation = 0.0
        assert unitary.deviation == tag_deviation(phase)

    def test_failed_certification_measures_once_and_raises(self, measured):
        op = _diagonal([1.0, 2.0])
        with pytest.raises(ArithmeticError, match="unitary certification failed with deviation 3.000e"):
            certify(op)
        assert measured == [(op,)]
        assert op.deviation is None


# Each builder over one small space, and whether it certifies the operator.
BUILDERS = {
    "unitary_phase_operator": (True, lambda c: unitary_phase_operator(c.config)),
    "unitary_phase_from_spectrum": (True, lambda c: unitary_phase_from_spectrum(c.frame)),
    "number_shift_operator": (True, lambda c: number_shift_operator(c.config)),
    "number_operator": (False, lambda c: _number_operator(c.config)),
    "hamiltonian": (False, lambda c: hamiltonian(c.config, 1.0)),
    "time_evolution": (True, lambda c: time_evolution(c.config, 1.0, 0.7)),
    "ladder_lowering": (False, lambda c: build_lowering_operator(c.offset, c.profile)),
    "recover_phase_operator": (
        True,
        lambda c: recover_phase_operator(c.lowering, c.profile, c.offset),
    ),
    "generalized_number_shift": (True, lambda c: generalized_number_shift(c.offset)),
    "modified_number_shift": (
        True,
        lambda c: modified_number_shift(c.offset, c.phases),
    ),
    "cycle_operator_power": (False, lambda c: cycle_operator_power(c.offset, 5)),
}


class TestBuilderCertifications:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_deviation_is_recorded_exactly_when_the_builder_certifies(self, name, measured):
        certifies, build = BUILDERS[name]
        config = SpaceConfig.from_dim(5, 0.3)
        frame = build_phase_frame(config)
        offset = build_generalized_frame(frame, 0.5)
        profile = deformation_linear(config, 0.5)
        context = SimpleNamespace(
            config=config, frame=frame, offset=offset, profile=profile,
            lowering=build_lowering_operator(offset, profile),
            phases=offset_phase_frame(offset, offset_phase_coefficients(offset)),
        )
        measured.clear()
        op = build(context)
        assert len(measured) == certifies
        if certifies:
            assert type(op.deviation) is float
            assert op.deviation == tag_deviation(*measured[0])
        else:
            assert op.deviation is None

    @pytest.mark.parametrize("dim", [7, 64, 512])
    @pytest.mark.parametrize("eta, calls", [(0.5, 14), (1.5, 15)])
    def test_verify_measures_no_operator_twice(self, dim, eta, calls, measured, tmp_path):
        # Every operator is certified once, in place: the operators measured
        # in one verify run are pairwise distinct objects.
        argv = ["verify", "--suite", "all", "--dim", str(dim), "--theta0", "2.9",
                "--eta", str(eta), "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert len(measured) == calls
        assert len({id(op) for (op,) in measured}) == calls

    def test_run_measures_once_per_certification(self, monkeypatch):
        measured = _count_calls(monkeypatch, numerics.tag_deviation)
        certifications = _count_calls(monkeypatch, numerics.certify)
        run_suites(RunManifest(dim=64, theta0=0.3, eta=0.5, suites=SUITE_NAMES))
        assert len(certifications) > 0
        assert len(measured) == len(certifications)


class TestCertifiedDeviationsReported:
    def test_run_makes_no_direct_unitary_measurement(self, monkeypatch):
        # The unitarity records read the deviation measured at certification:
        # every measurement is the one of a certify call.
        measured = _count_calls(monkeypatch, numerics.tag_deviation)
        certifications = _count_calls(monkeypatch, numerics.certify)
        report = run_suites(RunManifest(dim=6, theta0=0.3, eta=0.5, suites=SUITE_NAMES))
        assert len(certifications) > 0
        assert len(measured) == len(certifications)
        ids = [record.check_id for record in report.records]
        assert {"evolution_unitary", "recovered_phase_unitary", "phase_operator_hermitian"} <= set(ids)

    def test_evolution_unitary_reports_the_certified_deviation(self):
        config = SpaceConfig.from_dim(7, 0.3)
        u = time_evolution(config, 1.0, 2.0 * np.pi)
        report = run_suites(RunManifest(dim=7, theta0=0.3, suites=("evolution",)))
        (record,) = [r for r in report.records if r.check_id == "evolution_unitary"]
        entries = u.entries
        values = np.diag(entries)
        assert np.count_nonzero(entries) == 7
        assert record.max_deviation == np.max(np.abs(values.real**2 + values.imag**2 - 1.0))

    def test_phase_operator_hermitian_reports_the_one_measurement(self, monkeypatch):
        labels = []
        within = numerics.within_tol_op

        def counted(label, deviation, dim):
            labels.append(label)
            return within(label, deviation, dim)

        monkeypatch.setattr(pegg_barnett, "within_tol_op", counted)
        report = run_suites(RunManifest(dim=6, theta0=0.3, eta=0.5, suites=SUITE_NAMES))
        assert labels == ["hermitian"]
        (record,) = [r for r in report.records if r.check_id == "phase_operator_hermitian"]
        _, deviation = hermitian_phase_operator(build_phase_frame(SpaceConfig.from_dim(6, 0.3)))
        assert record.max_deviation == deviation

class TestFramesOncePerRun:
    @pytest.mark.parametrize("dim, eta", [(1, 0.5), (6, 1.5), (7, 0.5), (5, 0.25)])
    def test_run_builds_the_phase_frame_once(self, monkeypatch, dim, eta):
        calls = _count_calls(monkeypatch, pegg_barnett.build_phase_frame)
        run_suites(RunManifest(dim=dim, theta0=0.3, eta=eta, suites=SUITE_NAMES))
        assert len(calls) == 1

    @pytest.mark.parametrize("eta, builds", [(0.5, 1), (1.5, 2), (0.25, 2)])
    def test_cross_module_reuses_the_half_eta_frame(self, monkeypatch, eta, builds):
        calls = _count_calls(monkeypatch, build_generalized_frame)
        run_suites(RunManifest(dim=6, theta0=2.9, eta=eta, suites=SUITE_NAMES))
        assert len(calls) == builds

    def test_each_verify_call_builds_its_own_frame(self, monkeypatch, capsys):
        # No frame is kept between runs: every cli.main call builds afresh.
        calls = _count_calls(monkeypatch, pegg_barnett.build_phase_frame)
        for _ in range(2):
            assert main(["verify", "--dim", "4"]) == 0
        assert len(calls) == 2

    def test_shared_frame_gives_the_same_records(self):
        manifest = RunManifest(dim=9, theta0=1.1, eta=0.5, suites=SUITE_NAMES)
        whole = run_suites(manifest).records
        one_by_one = [
            record
            for name in SUITE_NAMES
            for record in run_suites(
                RunManifest(dim=9, theta0=1.1, eta=0.5, suites=(name,))
            ).records
        ]
        assert list(whole) == one_by_one


def _built_frames(monkeypatch) -> list:
    """The frames built, in order, through every fdphase module that binds ``Frame``."""
    frames = []
    original = pegg_barnett.Frame

    def built(*args, **kwargs):
        frames.append(original(*args, **kwargs))
        return frames[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fdphase" and module is not None:
            if vars(module).get("Frame") is original:
                monkeypatch.setattr(module, "Frame", built)
    return frames


class TestFramesAreCertifiedOperators:
    """A frame is certified once, by certify, like any other unitary operator."""

    def test_verify_certifies_every_frame_through_certify(self, monkeypatch):
        # At eta != 1/2 a d=64 verify builds four frames (the phase frame,
        # the offset number and phase states at eta, the offset number states
        # at 1/2) beside eleven operator certifications, the offset phase
        # coefficients' among them, and measures orthonormality nowhere else;
        # Phi's hermiticity is read on its Toeplitz values, outside certify.
        frames = _built_frames(monkeypatch)
        certified = _count_calls(monkeypatch, numerics.certify)
        measured = _count_calls(monkeypatch, numerics.tag_deviation)
        run_suites(RunManifest(dim=64, theta0=2.9, eta=0.25, suites=SUITE_NAMES))
        assert len(frames) == 4
        assert len(certified) == 15
        assert len(measured) == 15
        frame_entries = [frame.basis.entries for frame in frames]
        certified_frames = [
            m for (m,) in certified
            if any(m.entries is entries for entries in frame_entries)
        ]
        assert len(certified_frames) == 4


class TestOffsetPhaseFamilyOnlyWhereRead:
    """Only the gdo suite reads the offset phase states, so only it builds them."""

    @staticmethod
    def _expected_frames(dim, theta0, eta):
        """The phase frame, the offset number states and the offset phase states."""
        base = build_phase_frame(SpaceConfig.from_dim(dim, theta0))
        offset = build_generalized_frame(base, eta)
        phases = offset_phase_frame(offset, offset_phase_coefficients(offset))
        return base.basis.entries, offset.basis.entries, phases.basis.entries

    def test_cross_module_verify_certifies_no_offset_phase_family(self, monkeypatch):
        base, number, _ = self._expected_frames(6, 2.9, 0.5)
        frames = _built_frames(monkeypatch)
        run_suites(RunManifest(dim=6, theta0=2.9, eta=1.5, suites=("cross-module",)))
        assert len(frames) == 2
        assert np.array_equal(frames[0].basis.entries, base)
        assert np.array_equal(frames[1].basis.entries, number)

    def test_shift_evolve_certifies_no_offset_phase_family(self, monkeypatch, tmp_path, capsys):
        base, number, _ = self._expected_frames(3, 0.0, 0.25)
        state = tmp_path / "state.json"
        state.write_text('{"dim": 3, "amp": [[1, 0], [0, 0], [0, 0]]}', encoding="utf-8")
        frames = _built_frames(monkeypatch)
        argv = ["evolve", str(state), "--mode", "shift", "--eta", "0.25", "--steps", "2"]
        assert main(argv) == 0
        assert len(frames) == 2
        assert np.array_equal(frames[0].basis.entries, base)
        assert np.array_equal(frames[1].basis.entries, number)

    def test_gdo_certifies_the_offset_phase_family_once(self, monkeypatch):
        expected = self._expected_frames(5, 0.3, 0.25)
        frames = _built_frames(monkeypatch)
        run_suites(RunManifest(dim=5, theta0=0.3, eta=0.25, suites=("gdo",)))
        assert len(frames) == 3
        for frame, want in zip(frames, expected):
            assert np.array_equal(frame.basis.entries, want)
            assert type(frame.basis.deviation) is float
