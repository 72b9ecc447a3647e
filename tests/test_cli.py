"""Command-line behavior: exit codes, file formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdphase
from fdphase.cli import main
from fdphase.report import format_float


def write_state(path, amplitudes):
    payload = {
        "dim": len(amplitudes),
        "amp": [[float(z.real), float(z.imag)] for z in np.asarray(amplitudes, complex)],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestVerify:
    def test_default_run_passes_with_one_flagged(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--dim", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        statuses = [record["status"] for record in data["records"]]
        assert statuses.count("fail") == 0
        assert statuses.count("flagged") == 1
        flagged = [r for r in data["records"] if r["status"] == "flagged"]
        assert flagged[0]["check_id"] == "commutator_double_sum_vs_closed_form"
        assert flagged[0]["max_deviation"] == pytest.approx(np.pi)

    def test_dim_zero_is_usage_error(self, capsys):
        assert main(["verify", "--dim", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--dim", "2", "--frobnicate"])
        assert info.value.code == 2

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--dim", "2", "--suite", "nope"])
        assert info.value.code == 2

    def test_cycle_identity_record_at_dim_8(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            ["verify", "--dim", "8", "--eta", "0.5", "--suite", "gdo", "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        by_id = {record["check_id"]: record for record in data["records"]}
        assert by_id["cycle_identity"]["status"] == "pass"
        assert by_id["cycle_sign_dichotomy"]["status"] == "pass"

    def test_suite_selection_restricts_records(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            ["verify", "--dim", "3", "--suite", "evolution", "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["manifest"]["suites"] == ["evolution"]
        ids = {record["check_id"] for record in data["records"]}
        assert "cycle_parity" in ids
        assert "phase_frame_orthonormal" not in ids

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(
            ["verify", "--dim", "2", "--format", "csv", "--out", str(out)]
        ) == 0
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "check_id,paper_anchor,max_deviation,tolerance,status"

    def test_pretty_format_to_stdout(self, capsys):
        assert main(["verify", "--dim", "2", "--format", "pretty"]) == 0
        captured = capsys.readouterr()
        assert "fail 0" in captured.out
        assert "verify:" in captured.err

    def test_linear_profile_needs_positive_eta(self, capsys):
        assert main(["verify", "--dim", "2", "--eta", "0", "--suite", "gdo"]) == 2

    def test_nonpositive_omega_is_usage_error(self):
        assert main(["verify", "--dim", "2", "--omega", "-1"]) == 2

    def test_user_profile_file(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text("[0.7, 2.2, 1.3]", encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(
            [
                "verify",
                "--dim",
                "3",
                "--eta",
                "0.25",
                "--profile",
                str(profile),
                "--suite",
                "gdo",
                "--out",
                str(out),
            ]
        ) == 0

    def test_missing_profile_file(self, tmp_path):
        assert main(
            [
                "verify",
                "--dim",
                "3",
                "--profile",
                str(tmp_path / "absent.json"),
                "--suite",
                "gdo",
            ]
        ) == 2

    def test_byte_identical_reports(self, tmp_path):
        args = ["verify", "--dim", "3", "--theta0", "0.3", "--seed", "7"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main([*args, "--out", str(first)]) == 0
        assert main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestEvolve:
    def test_hamiltonian_full_cycle_at_dim_2(self, tmp_path):
        state = write_state(tmp_path / "state.json", [1.0, 0.0])
        out = tmp_path / "out.json"
        assert main(
            [
                "evolve",
                str(state),
                "--mode",
                "hamiltonian",
                "--steps",
                "1",
                "--dim",
                "2",
                "--out",
                str(out),
            ]
        ) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        amp = np.array([complex(re, im) for re, im in data["amp"]])
        assert np.allclose(amp, [-1.0, 0.0], atol=1e-12)
        assert data["global_phase"] == pytest.approx(np.pi, abs=1e-9)
        assert data["notes"] == []

    def test_shift_full_cycle_at_dim_3_eta_zero(self, tmp_path):
        state = write_state(tmp_path / "state.json", np.ones(3) / np.sqrt(3.0))
        out = tmp_path / "out.json"
        assert main(
            [
                "evolve",
                str(state),
                "--mode",
                "shift",
                "--eta",
                "0",
                "--steps",
                "3",
                "--out",
                str(out),
            ]
        ) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        amp = np.array([complex(re, im) for re, im in data["amp"]])
        assert np.allclose(amp, np.ones(3) / np.sqrt(3.0), atol=1e-12)
        assert abs(np.exp(1j * data["global_phase"]) - 1.0) <= 1e-9

    def test_shift_two_steps_half_eta_at_dim_2(self, tmp_path):
        state = write_state(tmp_path / "state.json", np.ones(2) / np.sqrt(2.0))
        out = tmp_path / "out.json"
        assert main(
            [
                "evolve",
                str(state),
                "--mode",
                "shift",
                "--eta",
                "0.5",
                "--steps",
                "2",
                "--out",
                str(out),
            ]
        ) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        amp = np.array([complex(re, im) for re, im in data["amp"]])
        assert np.allclose(amp, -np.ones(2) / np.sqrt(2.0), atol=1e-12)
        assert data["global_phase"] == pytest.approx(np.pi, abs=1e-9)

    @pytest.mark.parametrize("mode", ["shift", "hamiltonian"])
    def test_zero_steps_return_the_input_state(self, tmp_path, mode):
        amplitudes = np.array([0.6, 0.48j, -0.64])
        state = write_state(tmp_path / "state.json", amplitudes)
        out = tmp_path / "out.json"
        assert main(
            ["evolve", str(state), "--mode", mode, "--eta", "0.25", "--steps", "0",
             "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        amp = np.array([complex(re, im) for re, im in data["amp"]])
        assert np.max(np.abs(amp - amplitudes)) <= 3e-12
        assert abs(np.exp(1j * data["global_phase"]) - 1.0) <= 1e-9

    def test_single_shift_is_not_phase_proportional(self, tmp_path):
        # (1,1,1)/sqrt(3) is the theta_0 phase state; one down-shift sends it
        # to the orthogonal theta_2 state, so no global phase exists.
        state = write_state(tmp_path / "state.json", np.ones(3) / np.sqrt(3.0))
        out = tmp_path / "out.json"
        assert main(
            ["evolve", str(state), "--mode", "shift", "--eta", "0", "--steps", "1",
             "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["global_phase"] is None

    def test_non_normalized_input_warns_and_normalizes(self, tmp_path, capsys):
        state = write_state(tmp_path / "state.json", [2.0, 0.0])
        out = tmp_path / "out.json"
        assert main(
            ["evolve", str(state), "--mode", "hamiltonian", "--steps", "2",
             "--out", str(out)]
        ) == 0
        assert "not normalized" in capsys.readouterr().err
        data = json.loads(out.read_text(encoding="utf-8"))
        amp = np.array([complex(re, im) for re, im in data["amp"]])
        assert np.allclose(amp, [1.0, 0.0], atol=1e-12)
        assert len(data["notes"]) == 1

    def test_dimension_mismatch(self, tmp_path):
        state = write_state(tmp_path / "state.json", [1.0, 0.0])
        assert main(
            ["evolve", str(state), "--mode", "hamiltonian", "--dim", "3"]
        ) == 2

    def test_malformed_state_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["evolve", str(bad), "--mode", "hamiltonian"]) == 2

    def test_missing_state_file(self, tmp_path):
        assert main(
            ["evolve", str(tmp_path / "absent.json"), "--mode", "hamiltonian"]
        ) == 2

    def test_wrong_amp_shape(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "amp": [[1.0, 0.0]]}', encoding="utf-8")
        assert main(["evolve", str(bad), "--mode", "hamiltonian"]) == 2

    def test_zero_state_rejected(self, tmp_path):
        state = write_state(tmp_path / "state.json", [0.0, 0.0])
        assert main(["evolve", str(state), "--mode", "hamiltonian"]) == 2

    def test_output_state_is_reloadable(self, tmp_path):
        from fdphase.cli import load_state

        state = write_state(tmp_path / "state.json", [1.0, 0.0])
        out = tmp_path / "out.json"
        main(["evolve", str(state), "--mode", "hamiltonian", "--out", str(out)])
        reloaded = load_state(out)
        assert reloaded.dim == 2


class TestDump:
    def read(self, tmp_path, *args):
        out = tmp_path / "dump.json"
        assert main(["dump", *args, "--out", str(out)]) == 0
        return json.loads(out.read_text(encoding="utf-8"))

    def test_phi_dim_2(self, tmp_path):
        data = self.read(tmp_path, "phi", "--dim", "2")
        matrix = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
        expected = np.pi / 2 * np.array([[1, -1], [-1, 1]])
        assert np.allclose(matrix, expected)

    def test_qn_dim_2(self, tmp_path):
        data = self.read(tmp_path, "qN", "--dim", "2")
        matrix = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
        assert np.allclose(matrix, np.diag([1.0, -1.0]))

    def test_exp_iphi_dim_1(self, tmp_path):
        data = self.read(tmp_path, "exp-iphi", "--dim", "1", "--theta0", "0.4")
        entry = complex(*data["matrix"][0][0])
        assert entry == pytest.approx(np.exp(0.4j))

    def test_phase_states_dim_2(self, tmp_path):
        data = self.read(tmp_path, "phase-states", "--dim", "2")
        states = [
            np.array([complex(re, im) for re, im in state]) for state in data["states"]
        ]
        assert np.allclose(states[0], np.ones(2) / np.sqrt(2.0))
        assert np.allclose(states[1], np.array([1.0, -1.0]) / np.sqrt(2.0))

    def test_commutators_reports_discrepancy(self, tmp_path):
        data = self.read(tmp_path, "commutators", "--dim", "2")
        assert data["max_abs_deviation_double_sum_vs_closed"] == pytest.approx(np.pi)
        for key in ("direct", "closed_form", "double_sum", "elementwise_deviation"):
            assert key in data

    def test_ladder_dump_includes_profile(self, tmp_path):
        data = self.read(tmp_path, "A", "--dim", "2", "--eta", "0.5")
        assert data["profile"] == [0.5, 1.5]

    def test_hamiltonian_dump(self, tmp_path):
        data = self.read(tmp_path, "H", "--dim", "3")
        diag = [complex(*data["matrix"][n][n]).real for n in range(3)]
        assert diag == pytest.approx([0.5, 1.5, 4.0])

    def test_unknown_object_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["dump", "einstein", "--dim", "2"])
        assert info.value.code == 2


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "report.json"
        # The child imports the same fdphase as this test, installed or not.
        source = str(Path(fdphase.__file__).resolve().parents[1])
        paths = [source, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "fdphase",
                "verify",
                "--dim",
                "2",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "verify:" in proc.stderr
        assert json.loads(out.read_text(encoding="utf-8"))["manifest"]["dim"] == 2
