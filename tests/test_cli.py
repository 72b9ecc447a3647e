"""Command-line behavior: exit codes, file formats, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdphase
from fdphase.cli import DUMP_OBJECTS, MAX_DIM, MAX_DUMP_DIM, main
from fdphase.report import format_float, json_pieces, to_json
from fdphase.suites import SUITE_NAMES
from test_report import _as_lists


def write_state(path, amplitudes):
    payload = {
        "dim": len(amplitudes),
        "amp": [[float(z.real), float(z.imag)] for z in np.asarray(amplitudes, complex)],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


OMEGA_LIMIT_AT_DIM_3 = (
    "error: omega = 1e+308 is out of range: the top energy omega*(s+1/2) + "
    "omega*(s+1)/2 must be finite, so omega must stay below 4.494e+307 at dimension 3\n"
)
PHASE_ROUNDING = (
    "error: theta0 = {theta0} and eta = {eta} are out of range: the phases (n+eta)*theta_m "
    "round by up to eps*(|(s+eta)*theta0| + |eta*theta0| + 2*pi*|eta|) = {rounding}, "
    "which must stay within tol_op = {tol} at dimension {dim}\n"
)
# An overflowing eta makes the rounding bound infinite: the offset frame
# refuses it before anything is formed, in every command.
ETA_LIMIT_AT_DIM_3 = PHASE_ROUNDING.format(
    theta0="6.0", eta="1e+308", rounding="inf", tol="3.000e-11", dim=3)
# The offset frame at d=7 and eta=1e12, whose phases eta*theta_m round by
# about 1e-4: once a shift evolve or an A/Adag dump printed them, exit 0.
ETA_ROUNDING_AT_DIM_7 = PHASE_ROUNDING.format(
    theta0="0.0", eta="1000000000000.0", rounding="1.395e-03", tol="7.000e-11", dim=7)
SMALL_OMEGA_LIMIT = (
    "error: omega = 1e-310 is out of range: the period 2*pi/omega must be finite, "
    "so omega must be at least 3.49513784379046e-308\n"
)


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

    def test_theta0_with_an_infinite_corner_exponent_exits_2(self, capsys):
        assert main(["verify", "--dim", "8", "--theta0", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: theta0 = 1e+308 is out of range: (s+1)*theta0 must be finite, "
            "so |theta0| must stay below 2.247e+307 at dimension 8\n"
        )

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

    @pytest.mark.parametrize("position", [0, 2])
    def test_profile_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys, position):
        # The JSON integer 10**320 has no float; it is refused as a profile
        # weight, as an amplitude of the same size is refused by evolve.
        weights = ["1", "1", "1"]
        weights[position] = "1" + "0" * 320
        profile = tmp_path / "profile.json"
        profile.write_text("[%s]" % ", ".join(weights), encoding="utf-8")
        assert main(["verify", "--dim", "3", "--profile", str(profile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: profile weights must be finite\n"

    def test_failed_certification_exits_2_with_one_error_line(self, tmp_path, capsys):
        # sqrt(F) divided back out of A over weights 40 orders apart loses
        # unitarity far beyond tolerance; that is unusable input, not a
        # failed check.
        profile = tmp_path / "p.json"
        profile.write_text("[1e-20, 1e20, 1, 1]", encoding="utf-8")
        assert main(["verify", "--dim", "4", "--suite", "gdo", "--profile", str(profile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: unitary certification failed with deviation ")
        assert line.endswith("(tolerance 4.000e-11)")

    def test_unwritable_out_exits_2_with_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["verify", "--dim", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    def test_omega_with_an_infinite_top_energy_exits_2(self, capsys):
        assert main(["verify", "--dim", "3", "--omega", "1e308"]) == 2
        assert capsys.readouterr().err == OMEGA_LIMIT_AT_DIM_3

    @pytest.mark.parametrize("suite", ["evolution", "cross-module", "all"])
    def test_omega_with_an_infinite_period_exits_2(self, capsys, suite):
        assert main(["verify", "--dim", "3", "--omega", "1e-310", "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == SMALL_OMEGA_LIMIT

    @pytest.mark.parametrize("omega", ["0", "-0.0"])
    def test_cross_module_names_a_non_positive_omega(self, capsys, omega):
        assert main(["verify", "--dim", "3", "--suite", "cross-module", f"--omega={omega}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: omega must be a positive real, got {float(omega)!r}\n"

    def test_eta_near_but_not_at_a_half_odd_value_emits_no_sign_record(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["verify", "--dim", "2", "--suite", "gdo", "--eta", "0.5000000001"]
        assert main([*argv, "--out", str(out)]) == 0
        ids = [record["check_id"] for record in json.loads(out.read_text("utf-8"))["records"]]
        assert "cycle_identity" in ids
        assert "cycle_sign_dichotomy" not in ids

    def test_huge_omega_passes_the_energy_records(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--dim", "16", "--omega", "1e300", "--out", str(out)]) == 0

    @pytest.mark.parametrize("dim, tol", [(8, "8.000e-11"), (65, "6.500e-10")])
    def test_offset_coefficients_that_round_exit_2_at_every_dimension(self, capsys, dim, tol):
        # The coefficients exp(i(n+eta)theta_m)/sqrt(d) are refused by the
        # rounding bound of their phases, which eta = 1e9 takes past tol_op.
        assert main(["verify", "--dim", str(dim), "--theta0", "2.9", "--eta", "1e9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == PHASE_ROUNDING.format(
            theta0="2.9", eta="1000000000.0", rounding="2.683e-06", tol=tol, dim=dim)

    def test_eta_whose_phases_overflow_exits_2(self, capsys):
        assert main(["verify", "--dim", "3", "--theta0", "6", "--eta", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ETA_LIMIT_AT_DIM_3

    @pytest.mark.parametrize("suite", [*SUITE_NAMES, "all"])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_negative_seed_exits_2_naming_the_seed(self, capsys, suite, dim):
        assert main(["verify", "--dim", str(dim), "--seed", "-1", "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative, got -1\n"

    def test_dim_above_the_limit_exits_2_naming_it(self, capsys):
        assert main(["verify", "--dim", str(MAX_DIM + 1)]) == 2
        assert capsys.readouterr().err == (
            "error: dim = 4097 is out of range: verify accepts dimensions up to 4096\n"
        )

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

    @pytest.mark.parametrize("mode", ["hamiltonian", "shift"])
    @pytest.mark.parametrize(
        "amplitudes",
        [[1e-200, 0.0], [1e200, 1e200j], [1.7e308 - 1.7e308j, 1e308, 1e300j, 5e-324]],
        ids=["tiny", "huge", "near-max"],
    )
    def test_state_far_from_unit_norm_evolves_as_its_normalization(
            self, tmp_path, capsys, mode, amplitudes):
        # The norm of these states under- or overflows in double precision;
        # the output is the evolution of the state scaled by a power of two,
        # then divided by its norm, and numpy warns of nothing.
        state = np.asarray(amplitudes, complex)
        scale = 2.0 ** -math.frexp(np.max(np.abs(state.view(float))))[1]
        normalized = state * scale / np.linalg.norm(state * scale)
        argv = ["evolve", "--mode", mode, "--eta", "0.25", "--steps", "3", "--out"]
        raw, plain = tmp_path / "raw.json", tmp_path / "plain.json"
        assert main([*argv, str(raw), str(write_state(tmp_path / "state.json", state))]) == 0
        assert capsys.readouterr().err == (
            "warning: input state is not normalized; renormalizing\n")
        assert main([*argv, str(plain), str(write_state(tmp_path / "unit.json", normalized))]) == 0
        assert capsys.readouterr().err == ""
        got, want = (json.loads(path.read_text(encoding="utf-8")) for path in (raw, plain))
        assert got["notes"] == ["input state was not normalized; renormalized before evolving"]
        assert want["notes"] == []
        assert (got["amp"], got["global_phase"]) == (want["amp"], want["global_phase"])

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

    def test_undecodable_state_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"dim": 1}')
        assert main(["evolve", str(bad), "--mode", "hamiltonian"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot read state file: 'utf-8' codec can't decode")

    def test_refused_offset_frame_exits_2(self, tmp_path, capsys):
        # The offset frame is built over the phase frame, whose phases round
        # past tol_op at theta0 = 1e6.
        state = write_state(tmp_path / "state.json", [1.0, 0.0, 0.0])
        assert main(["evolve", str(state), "--mode", "shift", "--theta0", "1e6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == PHASE_ROUNDING.format(
            theta0="1000000.0", eta="0.0", rounding="4.441e-10", tol="3.000e-11", dim=3)

    def test_refused_phase_frame_above_the_exact_probe_dimension_exits_2(self, tmp_path, capsys):
        # The phase frame acts by FFT above d=64 too, and is refused by the
        # same rounding bound as every command that builds it.
        state = write_state(tmp_path / "state.json", [1.0] + [0.0] * 64)
        assert main(["evolve", str(state), "--mode", "shift", "--theta0", "1e6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == PHASE_ROUNDING.format(
            theta0="1000000.0", eta="0.0", rounding="1.421e-08", tol="6.500e-10", dim=65)

    def test_eta_whose_phases_overflow_exits_2(self, tmp_path, capsys):
        state = write_state(tmp_path / "state.json", [1.0, 0.0, 0.0])
        argv = ["evolve", str(state), "--mode", "shift", "--theta0", "6", "--eta", "1e308"]
        assert main(argv) == 2
        assert capsys.readouterr().err == ETA_LIMIT_AT_DIM_3

    def test_eta_whose_frame_phases_round_exits_2(self, tmp_path, capsys):
        # Formed, the offset frame is unitary but off by about 1e-4, and
        # three shift steps moved the amplitudes by 8.3e-5.
        d = 7
        amplitudes = [complex(math.cos(n), math.sin(n)) / math.sqrt(d) for n in range(d)]
        state = write_state(tmp_path / "state.json", amplitudes)
        argv = ["evolve", str(state), "--mode", "shift", "--eta", "1e12", "--steps", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ETA_ROUNDING_AT_DIM_7

    def test_omega_with_an_infinite_top_energy_exits_2(self, tmp_path, capsys):
        state = write_state(tmp_path / "state.json", [1.0, 0.0, 0.0])
        assert main(["evolve", str(state), "--mode", "hamiltonian", "--omega", "1e308"]) == 2
        assert capsys.readouterr().err == OMEGA_LIMIT_AT_DIM_3

    def test_state_dim_above_the_limit_exits_2_naming_it(self, tmp_path, capsys):
        amplitudes = np.zeros(MAX_DIM + 1)
        amplitudes[0] = 1.0
        state = write_state(tmp_path / "state.json", amplitudes)
        assert main(["evolve", str(state), "--mode", "shift"]) == 2
        assert capsys.readouterr().err == (
            "error: dim = 4097 is out of range: evolve accepts dimensions up to 4096\n"
        )

    def test_wrong_amp_shape(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "amp": [[1.0, 0.0]]}', encoding="utf-8")
        assert main(["evolve", str(bad), "--mode", "hamiltonian"]) == 2

    def test_zero_state_rejected(self, tmp_path, capsys):
        state = write_state(tmp_path / "state.json", [0.0, 0.0])
        assert main(["evolve", str(state), "--mode", "hamiltonian"]) == 2
        assert "error: cannot normalize the zero vector" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "amplitude", ["1e400", "-1e400", "NaN", "Infinity", "1" + "0" * 400],
        ids=["1e400", "-1e400", "NaN", "Infinity", "int1e400"],
    )
    def test_non_finite_amplitude_rejected(self, tmp_path, capsys, amplitude):
        # 1e400 parses as inf; Python's json also reads NaN and Infinity, and
        # the integer 10**400 has no float.
        state = tmp_path / "state.json"
        state.write_text(
            '{"dim": 2, "amp": [[%s, 0.0], [0.0, 0.0]]}' % amplitude, encoding="utf-8"
        )
        assert main(["evolve", str(state), "--mode", "hamiltonian"]) == 2
        assert capsys.readouterr().err == "error: state amplitudes must be finite\n"

    @pytest.mark.parametrize("payload", ['{"dim": 0, "amp": []}', '{"dim": 1, "amp": [[[1, 0]]]}'])
    def test_empty_or_nested_state_rejected(self, tmp_path, payload):
        state = tmp_path / "state.json"
        state.write_text(payload, encoding="utf-8")
        assert main(["evolve", str(state), "--mode", "hamiltonian"]) == 2

    def test_loaded_state_is_a_read_only_complex_array(self, tmp_path):
        from fdphase.cli import load_state

        state = load_state(write_state(tmp_path / "state.json", [0.6, 0.8j]))
        assert state.dtype == np.complex128 and state.shape == (2,)
        assert np.array_equal(state, [0.6, 0.8j])
        with pytest.raises(ValueError):
            state[0] = 1.0

    def test_theta0_with_an_infinite_corner_exponent_exits_2(self, tmp_path, capsys):
        state = write_state(tmp_path / "state.json", np.ones(8) / np.sqrt(8.0))
        assert main(["evolve", str(state), "--mode", "shift", "--theta0", "1e308"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: theta0 = 1e+308 is out of range")
        assert "below 2.247e+307 at dimension 8" in err

    def test_omega_with_an_infinite_period_exits_2(self, tmp_path, capsys):
        state = write_state(tmp_path / "state.json", [1.0, 0.0, 0.0])
        assert main(["evolve", str(state), "--mode", "hamiltonian", "--omega", "1e-310"]) == 2
        assert capsys.readouterr().err == SMALL_OMEGA_LIMIT

    @pytest.mark.parametrize(
        "mode, steps", [("shift", "1000000000000"), ("hamiltonian", "1000000000000000")]
    )
    def test_output_that_lost_precision_exits_2(self, tmp_path, capsys, mode, steps):
        # Repeated squaring of the unit-modulus eigenvalues doubles their
        # rounding error per bit of steps: the output norm drifts from 1 by
        # about 3.6e-5 (shift) and 2.8e-10 (hamiltonian) here.
        state = write_state(tmp_path / "state.json", [1.0, 0.0, 0.0])
        out = tmp_path / "out.json"
        argv = ["evolve", str(state), "--mode", mode, "--eta", "0.3", "--steps", steps]
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        match = re.fullmatch(
            rf"error: evolve lost precision over {steps} steps: the output norm is off "
            r"by (\S+) \(tolerance 3\.000e-12\)\n",
            capsys.readouterr().err,
        )
        assert match and float(match.group(1)) > 3e-12

    @pytest.mark.parametrize(
        "mode, steps", [("shift", str(10**23)), ("hamiltonian", str(10**300))]
    )
    def test_overflowing_power_exits_2_naming_the_steps(self, tmp_path, capsys, mode, steps):
        state = write_state(tmp_path / "state.json", [1.0, 0.0, 0.0])
        argv = ["evolve", str(state), "--mode", mode, "--eta", "0.3", "--steps", steps]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert steps in line

    @pytest.mark.parametrize("omega", ["0", "-1"])
    def test_non_positive_omega_exits_2(self, tmp_path, capsys, omega):
        state = write_state(tmp_path / "state.json", [1.0, 0.0, 0.0])
        assert main(["evolve", str(state), "--mode", "hamiltonian", "--omega", omega]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: omega must be a positive real, got {float(omega)!r}\n"

    def test_output_within_precision_keeps_its_bytes(self, tmp_path, capsys):
        from fdphase.deformed import build_generalized_frame, cycle_operator_power
        from fdphase.numerics import equal_up_to_global_phase
        from fdphase.pegg_barnett import SpaceConfig, build_phase_frame
        from fdphase.report import to_json

        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        state = write_state(tmp_path / "state.json", psi)
        assert main(["evolve", str(state), "--mode", "shift", "--eta", "0.3", "--steps", "1000"]) == 0
        frame = build_generalized_frame(build_phase_frame(SpaceConfig.from_dim(3)), 0.3)
        # evolve applies the power through its factors.
        result = cycle_operator_power(frame, 1000).apply(psi)
        expected = {
            "dim": 3,
            "amp": [[float(z.real), float(z.imag)] for z in result],
            "global_phase": equal_up_to_global_phase(psi, result, 3e-11),
            "notes": [],
        }
        captured = capsys.readouterr()
        assert captured.out == to_json(expected)
        assert captured.err == ""

    @pytest.mark.parametrize("seed", ["0", "-5"])
    def test_seed_is_an_unknown_flag(self, tmp_path, capsys, seed):
        state = write_state(tmp_path / "state.json", [1.0, 0.0])
        with pytest.raises(SystemExit) as info:
            main(["evolve", str(state), "--mode", "shift", "--seed", seed])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_output_state_is_reloadable(self, tmp_path):
        from fdphase.cli import load_state

        state = write_state(tmp_path / "state.json", [1.0, 0.0])
        out = tmp_path / "out.json"
        main(["evolve", str(state), "--mode", "hamiltonian", "--out", str(out)])
        reloaded = load_state(out)
        assert reloaded.shape == (2,)


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

    def test_profile_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text("[1, %s]" % ("1" + "0" * 320), encoding="utf-8")
        out = tmp_path / "A.json"
        assert main(["dump", "A", "--dim", "2", "--profile", str(profile), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: profile weights must be finite\n"
        assert not out.exists()

    def test_hamiltonian_dump(self, tmp_path):
        data = self.read(tmp_path, "H", "--dim", "3")
        diag = [complex(*data["matrix"][n][n]).real for n in range(3)]
        assert diag == pytest.approx([0.5, 1.5, 4.0])

    def test_theta0_with_an_infinite_corner_exponent_exits_2(self, capsys):
        assert main(["dump", "exp-iphi", "--dim", "8", "--theta0", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: theta0 = 1e+308 is out of range")
        assert "(s+1)*theta0 must be finite" in captured.err

    @pytest.mark.parametrize("name", ["phi", "phase-states", "commutators", "A"])
    def test_refused_phase_frame_exits_2(self, capsys, name):
        assert main(["dump", name, "--dim", "8", "--theta0", "1e6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == PHASE_ROUNDING.format(
            theta0="1000000.0", eta="0.0", rounding="1.554e-09", tol="8.000e-11", dim=8)

    @pytest.mark.parametrize("name", ["phase-states", "commutators", "A"])
    def test_refused_phase_frame_above_the_exact_probe_dimension_exits_2(self, capsys, name):
        assert main(["dump", name, "--dim", "65", "--theta0", "1e6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == PHASE_ROUNDING.format(
            theta0="1000000.0", eta="0.0", rounding="1.421e-08", tol="6.500e-10", dim=65)

    @pytest.mark.parametrize("name", ["A", "Adag"])
    def test_eta_whose_phases_overflow_exits_2(self, capsys, name):
        assert main(["dump", name, "--dim", "3", "--theta0", "6", "--eta", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ETA_LIMIT_AT_DIM_3

    @pytest.mark.parametrize("name", ["A", "Adag"])
    def test_eta_whose_frame_phases_round_exits_2(self, tmp_path, capsys, name):
        # Formed over that frame, the entries of A were off by 1.75e-4.
        profile = tmp_path / "profile.json"
        profile.write_text("[1, 2, 3, 4, 5, 6, 7]", encoding="utf-8")
        argv = ["dump", name, "--dim", "7", "--eta", "1e12", "--profile", str(profile)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ETA_ROUNDING_AT_DIM_7

    def test_omega_with_an_infinite_top_energy_exits_2(self, capsys):
        assert main(["dump", "H", "--dim", "3", "--omega", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == OMEGA_LIMIT_AT_DIM_3

    def test_omega_with_an_infinite_period_exits_2(self, capsys):
        assert main(["dump", "H", "--dim", "3", "--omega", "1e-310"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == SMALL_OMEGA_LIMIT

    def test_non_positive_omega_exits_2(self, capsys):
        assert main(["dump", "H", "--dim", "3", "--omega", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: omega must be a positive real, got 0.0\n"

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dump.json"
        assert main(["dump", "qN", "--dim", "2", "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize("name", DUMP_OBJECTS)
    def test_dim_above_the_limit_exits_2_naming_it(self, capsys, name):
        assert main(["dump", name, "--dim", str(MAX_DUMP_DIM + 1)]) == 2
        assert capsys.readouterr().err == (
            "error: dim = 2049 is out of range: dump accepts dimensions up to 2048\n"
        )

    def test_unknown_object_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["dump", "einstein", "--dim", "2"])
        assert info.value.code == 2

    @pytest.mark.parametrize("seed", ["0", "-1"])
    def test_seed_is_an_unknown_flag(self, capsys, seed):
        with pytest.raises(SystemExit) as info:
            main(["dump", "qN", "--dim", "2", "--seed", seed])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


class TestPayloadBytes:
    """The CLI's bytes equal the nested-list rendering of the payload it built."""

    def run(self, monkeypatch, capsys, argv):
        payloads = []

        def recording_json_pieces(payload):
            payloads.append(payload)
            return json_pieces(payload)

        monkeypatch.setattr(fdphase.cli, "json_pieces", recording_json_pieces)
        assert main(argv) == 0
        (payload,) = payloads
        lists = {
            key: _as_lists(value) if isinstance(value, np.ndarray) else value
            for key, value in payload.items()
        }
        # Line lists: pytest names the first differing line, where a diff of
        # two whole dumps would take minutes.
        assert capsys.readouterr().out.splitlines(True) == to_json(lists).splitlines(True)

    @pytest.mark.parametrize("dim", [1, 2, 3, 31, 64])
    @pytest.mark.parametrize("name", DUMP_OBJECTS)
    def test_dump(self, monkeypatch, capsys, name, dim):
        self.run(monkeypatch, capsys, ["dump", name, "--dim", str(dim), "--theta0", "2.9"])

    @pytest.mark.parametrize(
        "name,distinct",
        [
            ("phase-states", False),
            ("phi", True),
            ("exp-iphi", True),
            ("qN", True),
            ("A", False),
            ("commutators", True),
        ],
    )
    def test_benchmark_dumps_on_both_sides_of_the_distinct_rule(
        self, monkeypatch, capsys, name, distinct
    ):
        """The phase states and A hold nearly all distinct values and are
        filled entry by entry; the Toeplitz and monomial matrices render
        from their distinct values. Either way the bytes are the lists'."""
        taken = []
        distinct_rows = fdphase.report._distinct_rows

        def recording_distinct_rows(array, indent):
            rows = distinct_rows(array, indent)
            taken.append(rows is not None)
            return rows

        monkeypatch.setattr(fdphase.report, "_distinct_rows", recording_distinct_rows)
        self.run(monkeypatch, capsys, ["dump", name, "--dim", "65", "--theta0", "2.9"])
        assert taken and set(taken) == {distinct}

    @pytest.mark.parametrize("dim", [1, 3, 31])
    @pytest.mark.parametrize("mode", ["hamiltonian", "shift"])
    def test_evolve(self, tmp_path, monkeypatch, capsys, mode, dim):
        amp = np.exp(1j * np.arange(dim)) * np.linspace(1.0, 2.0, dim)
        state = write_state(tmp_path / "state.json", amp / np.linalg.norm(amp))
        self.run(monkeypatch, capsys, ["evolve", str(state), "--mode", mode, "--steps", "3"])


def run_fresh(argv):
    """``python -m fdphase`` in a new process, which imports the same fdphase
    as this test, installed or not."""
    source = str(Path(fdphase.__file__).resolve().parents[1])
    paths = [source, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, "-m", "fdphase", *argv],
                          capture_output=True, text=True, env=env)


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_fresh(["verify", "--dim", "2", "--out", str(out)])
        assert proc.returncode == 0
        assert "verify:" in proc.stderr
        assert json.loads(out.read_text(encoding="utf-8"))["manifest"]["dim"] == 2

    def test_commands_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        # The probe block is cached for the process: a command run after
        # others, at another dimension or at the same one, writes the bytes
        # of the same command run alone.
        amp = np.exp(1j * np.arange(7)) * np.linspace(1.0, 2.0, 7)
        state = write_state(tmp_path / "state.json", amp / np.linalg.norm(amp))
        verify = ["verify", "--dim", "128", "--theta0", "2.9", "--eta", "1.5"]
        commands = [verify, ["dump", "A", "--dim", "65", "--theta0", "2.9"],
                    ["evolve", str(state), "--mode", "shift", "--eta", "1.5", "--steps", "3"],
                    verify]
        for argv in commands:
            status = main(argv)
            captured = capsys.readouterr()
            proc = run_fresh(argv)
            assert (status, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr)


class TestExitContract:
    """Any finite input ends in exit status 0, 1 or 2, never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=12),
        theta0=st.floats(allow_nan=False, allow_infinity=False),
        eta=st.floats(allow_nan=False, allow_infinity=False),
        omega=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        weights=st.lists(st.floats(min_value=1e-30, max_value=1e30), min_size=12, max_size=12),
    )
    # A weight table whose recovered exp(iPhi) fails its unitarity
    # certification, a window origin whose corner exponent overflows, a
    # phase frame that fails its certification, an omega whose top
    # energy overflows, and offsets whose phases overflow.
    @example(dim=4, theta0=0.0, eta=0.5, omega=1.0, weights=[1e-20, 1e20] + [1.0] * 10)
    @example(dim=8, theta0=1e308, eta=0.5, omega=1.0, weights=[1.0] * 12)
    @example(dim=8, theta0=1e6, eta=0.5, omega=1.0, weights=[1.0] * 12)
    @example(dim=3, theta0=0.0, eta=0.5, omega=1e308, weights=[1.0] * 12)
    @example(dim=3, theta0=6.0, eta=1e308, omega=1.0, weights=[1.0] * 12)
    @example(dim=1, theta0=6.0, eta=2.9961552247705263e307, omega=1.0, weights=[1.0] * 12)
    def test_every_command_returns_a_status(self, dim, theta0, eta, omega, weights):
        space = [f"--dim={dim}", f"--theta0={theta0!r}", f"--eta={eta!r}", f"--omega={omega!r}"]
        with tempfile.TemporaryDirectory() as tmp:
            profile = Path(tmp) / "profile.json"
            profile.write_text(json.dumps(weights[:dim]), encoding="utf-8")
            state = write_state(Path(tmp) / "state.json", np.ones(dim) / np.sqrt(dim))
            out = str(Path(tmp) / "out.json")
            common = [*space, "--profile", str(profile), "--out", out]
            assert main(["verify", *common]) in (0, 1, 2)
            for name in DUMP_OBJECTS:
                assert main(["dump", name, *common]) in (0, 1, 2)
            for mode in ("hamiltonian", "shift"):
                assert main(["evolve", str(state), "--mode", mode, *common]) in (0, 1, 2)
