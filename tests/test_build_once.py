"""Each dense step of a verify run happens once: tag measurements, frame builds."""

import sys

import numpy as np
import pytest

from fdphase import numerics, pegg_barnett
from fdphase.cli import main
from fdphase.deformed import build_generalized_frame
from fdphase.numerics import OperatorMatrix, certified, certify
from fdphase.report import RunManifest
from fdphase.suites import SUITE_NAMES, run_suites


@pytest.fixture
def tag_counts(monkeypatch):
    """Measurements per tag, counted at the ``_TAG_DEVIATIONS`` table."""
    counts = {}
    for tag, measure in list(numerics._TAG_DEVIATIONS.items()):

        def counted(entries, tag=tag, measure=measure):
            counts[tag] = counts.get(tag, 0) + 1
            return measure(entries)

        monkeypatch.setitem(numerics._TAG_DEVIATIONS, tag, counted)
    return counts


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


class TestCertifyOnce:
    def test_chained_certification_measures_each_tag_once(self, tag_counts):
        op = OperatorMatrix(np.diag([1.0, 1j, -1.0]))
        tagged = certified(certified(op, "diagonal"), "unitary")
        assert tagged.tags == {"diagonal", "unitary"}
        assert tag_counts == {"diagonal": 1, "unitary": 1}

    def test_existing_tags_are_not_measured_again(self, tag_counts):
        base = OperatorMatrix(np.eye(3), tags={"hermitian"})
        assert tag_counts == {"hermitian": 1}
        cert = certify(base, "unitary")
        assert cert.passed and cert.matrix.tags == {"hermitian", "unitary"}
        assert tag_counts == {"hermitian": 1, "unitary": 1}

    def test_certified_matrix_keeps_the_entries(self):
        op = OperatorMatrix(np.diag([1.0, -1.0]))
        tagged = certified(op, "unitary")
        assert np.array_equal(tagged.entries, op.entries)
        assert not tagged.entries.flags.writeable

    def test_failed_certification_attaches_nothing(self, tag_counts):
        op = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        cert = certify(op, "unitary")
        assert not cert.passed and cert.matrix.tags == frozenset()
        assert tag_counts == {"unitary": 1}

    def test_constructor_still_measures_tags_handed_to_it(self, tag_counts):
        OperatorMatrix(np.eye(2), tags={"hermitian", "diagonal"})
        assert tag_counts == {"diagonal": 1, "hermitian": 1}
        with pytest.raises(ValueError):
            OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), tags={"unitary"})


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
        # Nothing is kept between runs: every cli.main call builds afresh.
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
        assert [r.as_dict() for r in whole] == [r.as_dict() for r in one_by_one]
