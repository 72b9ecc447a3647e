"""Report records, manifests, and the byte-stable renderers."""

import json

import numpy as np
import pytest

from fdphase.report import (
    STATUS_FAIL,
    STATUS_FLAGGED,
    STATUS_PASS,
    CheckRecord,
    RunManifest,
    REPORT_FORMATS,
    VerificationReport,
    format_float,
    render,
    render_csv,
    render_json,
    render_pretty,
    to_json,
)


class TestFormatFloat:
    @pytest.mark.parametrize(
        "value,text",
        [
            (0.5, "0.5"),
            (1.0, "1"),
            (np.pi, "3.1415926535897931"),
            (-0.0, "-0"),
        ],
    )
    def test_known_renderings(self, value, text):
        assert format_float(value) == text

    @pytest.mark.parametrize(
        "value",
        [0.3, 2.9, 1e-11, 1e300, -7.25e-5, np.pi / 2, 2.0 / 3.0],
    )
    def test_round_trip_exact(self, value):
        assert float(format_float(value)) == value

    def test_lowercase_exponent(self):
        assert "e" in format_float(1e-11)
        assert "E" not in format_float(1e-11)


class TestRunManifest:
    def test_rejects_dim_zero(self):
        with pytest.raises(ValueError):
            RunManifest(dim=0)

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError):
            RunManifest(dim=2, format="yaml")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RunManifest(dim=2, theta0=float("inf"))

    def test_rendered_key_order(self):
        data = json.loads(render_json(_sample_report()))
        assert list(data["manifest"]) == [
            "dim",
            "theta0",
            "eta",
            "omega",
            "profile",
            "suites",
            "seed",
            "format",
        ]
        assert list(data["records"][0]) == [
            "check_id",
            "paper_anchor",
            "max_deviation",
            "tolerance",
            "status",
        ]


class TestCheckRecord:
    def test_measured_pass_at_equality(self):
        record = CheckRecord.measured("x", "anchor", 1e-12, 1e-12)
        assert record.status == STATUS_PASS

    def test_measured_fail_above_tolerance(self):
        record = CheckRecord.measured("x", "anchor", 2e-12, 1e-12)
        assert record.status == STATUS_FAIL

    def test_flagged_never_fails(self):
        record = CheckRecord.flagged("x", "anchor", 3.14, 1e-12)
        assert record.status == STATUS_FLAGGED

    def test_rejects_negative_deviation(self):
        with pytest.raises(ValueError):
            CheckRecord("x", "anchor", -1.0, 1e-12, STATUS_PASS)

    def test_rejects_unknown_status(self):
        with pytest.raises(ValueError):
            CheckRecord("x", "anchor", 0.0, 1e-12, "warn")


def _sample_report() -> VerificationReport:
    manifest = RunManifest(dim=2, suites=("pb-core",), seed=3)
    records = (
        CheckRecord.measured("alpha", "a = b", 1.5e-16, 2e-11),
        CheckRecord.flagged("beta", "c differs from d", np.pi, 2e-11),
    )
    return VerificationReport(manifest=manifest, records=records)


class TestRenderJson:
    def test_is_valid_json_with_expected_fields(self):
        report = _sample_report()
        data = json.loads(render_json(report))
        assert list(data) == ["tool_version", "manifest", "records"]
        assert data["manifest"]["dim"] == 2
        assert data["records"][1]["status"] == "flagged"
        assert data["records"][1]["max_deviation"] == np.pi

    def test_repeated_renders_identical(self):
        report = _sample_report()
        assert render_json(report) == render_json(report)

    def test_trailing_newline(self):
        assert render_json(_sample_report()).endswith("}\n")

    def test_float_payload_uses_policy(self):
        text = render_json(_sample_report())
        assert "3.1415926535897931" in text


class TestRender:
    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_picks_the_manifest_format(self, fmt):
        report = VerificationReport(
            manifest=RunManifest(dim=2, suites=("pb-core",), seed=3, format=fmt),
            records=_sample_report().records,
        )
        by_format = {"json": render_json, "csv": render_csv, "pretty": render_pretty}
        assert render(report) == by_format[fmt](report)

    def test_formats(self):
        assert REPORT_FORMATS == ("json", "csv", "pretty")


class TestRenderCsv:
    def test_header_and_rows(self):
        text = render_csv(_sample_report())
        lines = text.split("\n")
        assert lines[0] == "check_id,paper_anchor,max_deviation,tolerance,status"
        assert lines[1].startswith("alpha,")
        assert lines[1].endswith("pass")
        assert lines[2].endswith("flagged")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_deterministic(self):
        assert render_csv(_sample_report()) == render_csv(_sample_report())


class TestRenderPretty:
    def test_contains_counts(self):
        text = render_pretty(_sample_report())
        assert "pass 1" in text
        assert "flagged 1" in text
        assert "fail 0" in text


class TestToJson:
    def test_scalar_list_inline(self):
        assert to_json([1.0, 2.0]) == "[1, 2]\n"

    def test_null_and_bool(self):
        assert to_json({"a": None, "b": True}) == '{\n  "a": null,\n  "b": true\n}\n'

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            to_json({"a": object()})


EDGE_VALUES = [0.0, -0.0, 1e-300, 5e-324, -1.7976931348623157e308]


def _pairs(values) -> list:
    """Complex entries as the [re, im] lists of Python floats the dumps hold."""
    return [[float(z.real), float(z.imag)] for z in values]


def _as_lists(array: np.ndarray) -> list:
    """The nested lists an array renders as, built entry by entry."""
    if np.iscomplexobj(array):
        return _pairs(array) if array.ndim == 1 else [_pairs(row) for row in array]
    if array.ndim == 1:
        return [float(x) for x in array]
    return [[float(x) for x in row] for row in array]


def _edge_complex(count: int) -> np.ndarray:
    """Every edge value as a real part and as an imaginary part, signs kept."""
    array = np.empty(count, dtype=np.complex128)
    array.real = np.resize(EDGE_VALUES, count)
    array.imag = np.resize(EDGE_VALUES[::-1], count)
    return array


class TestArrayRendering:
    @pytest.mark.parametrize(
        "array",
        [
            np.array(EDGE_VALUES),
            np.array(EDGE_VALUES).reshape(1, 5),
            np.array(EDGE_VALUES[:4]).reshape(2, 2),
            _edge_complex(5),
            _edge_complex(6).reshape(2, 3),
            np.array([-0.0]),
            np.array([[5e-324]]),
            np.array([complex(1e-300, -0.0)]),
            np.array([[complex(-0.0, -1.7976931348623157e308)]]),
        ],
        ids=[
            "real-1d",
            "real-row",
            "real-2x2",
            "complex-1d",
            "complex-2x3",
            "real-(1,)",
            "real-(1,1)",
            "complex-(1,)",
            "complex-(1,1)",
        ],
    )
    def test_matches_the_nested_lists(self, array):
        assert to_json(array) == to_json(_as_lists(array))
        assert to_json({"matrix": array}) == to_json({"matrix": _as_lists(array)})

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_transposed_view(self, dtype):
        base = np.arange(12, dtype=dtype).reshape(3, 4)
        if dtype is np.complex128:
            base.imag = -0.5 * base.real
        base[0, 1] = -0.0
        base[2, 3] = 5e-324
        view = base.T
        assert not view.flags["C_CONTIGUOUS"]
        assert to_json({"states": view}) == to_json({"states": _as_lists(view)})

    def test_complex_entries_are_re_im_pairs(self):
        assert to_json(np.array([1.5 - 2j, complex(-0.0, 0.0)])) == (
            "[\n  [1.5, -2],\n  [-0, 0]\n]\n"
        )

    def test_round_trip_exact(self):
        array = _edge_complex(5)
        pairs = json.loads(to_json(array))
        assert [complex(re, im) for re, im in pairs] == list(array)


class TestStatusCounts:
    def test_counts(self):
        report = _sample_report()
        counts = report.status_counts()
        assert counts == {"pass": 1, "fail": 0, "flagged": 1}
