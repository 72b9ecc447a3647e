"""Each dense step of a verify run happens once: certifications, frame builds."""

import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from fdphase import numerics, pegg_barnett
from fdphase.cli import main
from fdphase.deformed import (
    build_generalized_frame,
    build_ladder_operators,
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
def tag_counts(monkeypatch):
    """The (operator, tag) of each call of ``numerics.tag_deviation``."""
    return _count_calls(monkeypatch, numerics.tag_deviation)


def _per_tag(calls) -> Counter:
    return Counter(tag for _, tag in calls)


class TestCertifyOnce:
    def test_certification_measures_its_tag_once(self, tag_counts):
        unitary = certify(_diagonal([1.0, -1.0, 1.0]), "unitary")
        assert dict(unitary.deviations) == {"unitary": 0.0}
        assert _per_tag(tag_counts) == {"unitary": 1}

    def test_constructor_measures_nothing(self, tag_counts):
        for op in (_diagonal([1.0, 1.0]), OperatorMatrix.fourier(2, 0.3, 0.5)):
            assert dict(op.deviations) == {}
        assert _per_tag(tag_counts) == {}

    def test_certified_matrix_shares_the_entries(self):
        op = _diagonal([1.0, -1.0])
        unitary = certify(op, "unitary")
        assert unitary.entries is op.entries
        assert not unitary.entries.flags.writeable
        assert dict(op.deviations) == {}

    def test_matrix_keeps_each_certified_deviation(self, tag_counts):
        # A synthesis at dim 2 that is unitary to within 1e-13.
        config = SpaceConfig.from_dim(2, 0.0)
        phase = numerics.spectral_synthesize(build_phase_frame(config).basis,
                                             [1.0, 1.0 + 1e-13])
        tag_counts.clear()  # the phase frame's own certification
        unitary = certify(phase, "unitary")
        assert dict(unitary.deviations) == {"unitary": tag_deviation(phase, "unitary")}
        assert unitary.deviations["unitary"] > 0.0
        assert _per_tag(tag_counts) == {"unitary": 1}
        with pytest.raises(TypeError):
            unitary.deviations["unitary"] = 0.0

    def test_failed_certification_measures_once_and_raises(self, tag_counts):
        op = _diagonal([1.0, 2.0])
        with pytest.raises(ArithmeticError, match="unitary certification failed with deviation 3.000e"):
            certify(op, "unitary")
        assert _per_tag(tag_counts) == {"unitary": 1}
        assert dict(op.deviations) == {}

    def test_unknown_tag_is_refused_unmeasured(self, monkeypatch, tag_counts):
        reads = _count_calls(monkeypatch, numerics.max_abs)
        with pytest.raises(ValueError, match=r"^unknown tag 'diagonal'; expected one of \['unitary'\]$"):
            certify(_diagonal([1.0, 1.0]), "diagonal")
        assert _per_tag(tag_counts) == {"diagonal": 1}
        assert reads == []
        with pytest.raises(ValueError, match="unknown tag 'hermitian'"):
            tag_deviation(object(), "hermitian")  # refused before the operator is read


# Each builder over one small space, and the tags it certifies.
BUILDERS = {
    "unitary_phase_operator": ({"unitary"}, lambda c: unitary_phase_operator(c.config)),
    "unitary_phase_from_spectrum": ({"unitary"}, lambda c: unitary_phase_from_spectrum(c.frame)),
    "number_shift_operator": ({"unitary"}, lambda c: number_shift_operator(c.config)),
    "number_operator": (set(), lambda c: _number_operator(c.config)),
    "hamiltonian": (set(), lambda c: hamiltonian(c.config, 1.0)),
    "time_evolution": ({"unitary"}, lambda c: time_evolution(c.config, 1.0, 0.7)),
    "ladder_lowering": (set(), lambda c: build_ladder_operators(c.offset, c.profile).a),
    "recover_phase_operator": (
        {"unitary"},
        lambda c: recover_phase_operator(c.ladder.a, c.profile, c.offset),
    ),
    "generalized_number_shift": ({"unitary"}, lambda c: generalized_number_shift(c.offset)),
    "modified_number_shift": (
        {"unitary"},
        lambda c: modified_number_shift(c.offset, c.phases),
    ),
    "cycle_operator_power": (set(), lambda c: cycle_operator_power(c.offset, 5)),
}


class TestBuilderCertifications:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_deviations_name_exactly_what_the_builder_certifies(self, name, tag_counts):
        tags, build = BUILDERS[name]
        config = SpaceConfig.from_dim(5, 0.3)
        frame = build_phase_frame(config)
        offset = build_generalized_frame(frame, 0.5)
        profile = deformation_linear(config, 0.5)
        context = SimpleNamespace(
            config=config, frame=frame, offset=offset, profile=profile,
            ladder=build_ladder_operators(offset, profile),
            phases=offset_phase_frame(offset, offset_phase_coefficients(offset)),
        )
        tag_counts.clear()
        op = build(context)
        assert set(op.deviations) == tags
        assert _per_tag(tag_counts) == {tag: 1 for tag in tags}

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
        tags = []
        within = numerics.within_tol_op

        def counted(tag, deviation, dim):
            tags.append(tag)
            return within(tag, deviation, dim)

        monkeypatch.setattr(pegg_barnett, "within_tol_op", counted)
        report = run_suites(RunManifest(dim=6, theta0=0.3, eta=0.5, suites=SUITE_NAMES))
        assert tags == ["hermitian"]
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
            m for m, tag in certified if tag == "unitary"
            and any(m.entries is entries for entries in frame_entries)
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
            assert set(frame.basis.deviations) == {"unitary"}
