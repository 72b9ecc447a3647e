"""Report records, manifests, and the byte-stable renderers."""

import inspect
import math
import json
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdphase import report
from fdphase.pegg_barnett import (
    SpaceConfig,
    _toeplitz,
    commutator_closed_form,
    number_shift_operator,
    unitary_phase_operator,
)
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
from fdphase.suites import FLAGGED_CHECK, _suite, suite_pb_core


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

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            RunManifest(dim=2, seed=-1)

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


class TestRecordLoop:
    """``suites._suite`` turns each yielded row into its record."""

    @staticmethod
    def _records(*rows):
        @_suite
        def suite():
            yield from rows

        return suite()

    def test_pass_at_equality(self):
        (record,) = self._records(("x", "anchor", 1e-12, 0.0, 1e-12))
        assert record.status == STATUS_PASS
        assert record.max_deviation == 1e-12

    def test_fail_above_tolerance(self):
        (record,) = self._records(("x", "anchor", 2e-12, 0.0, 1e-12))
        assert record.status == STATUS_FAIL

    def test_flagged_never_fails(self):
        (record,) = self._records((FLAGGED_CHECK, "anchor", 3.14, 0.0, 1e-12))
        assert record.status == STATUS_FLAGGED
        assert record.max_deviation == 3.14

    def test_deviation_is_the_largest_entry_modulus(self):
        route = np.array([[1.0, 2.0j], [0.5, -1.0]])
        reference = np.array([[1.0, 0.0], [0.0, -1.0]])
        (record,) = self._records(("x", "anchor", route, reference, 3.0))
        assert record.max_deviation == 2.0
        assert record.status == STATUS_PASS

    def test_empty_routes_read_zero(self):
        (record,) = self._records(("x", "anchor", np.zeros(0), np.zeros(0), 1e-12))
        assert record.max_deviation == 0.0

    def test_a_row_is_released_before_the_next_is_built(self):
        released = []

        @_suite
        def suite():
            route = np.ones(4)
            alive = weakref.ref(route)
            yield ("first", "anchor", route, np.ones(4), 1e-12)
            del route
            released.append(alive() is None)
            yield ("second", "anchor", 0.0, 0.0, 1e-12)

        assert [record.check_id for record in suite()] == ["first", "second"]
        assert released == [True]

    def test_suites_stay_plain_functions(self):
        assert inspect.isfunction(suite_pb_core)
        assert suite_pb_core.__module__ == "fdphase.suites"


class TestCheckRecord:
    def test_rejects_negative_deviation(self):
        with pytest.raises(ValueError):
            CheckRecord("x", "anchor", -1.0, 1e-12, STATUS_PASS)

    def test_rejects_unknown_status(self):
        with pytest.raises(ValueError):
            CheckRecord("x", "anchor", 0.0, 1e-12, "warn")


def _sample_report() -> VerificationReport:
    manifest = RunManifest(dim=2, suites=("pb-core",), seed=3)
    records = (
        CheckRecord("alpha", "a = b", 1.5e-16, 2e-11, STATUS_PASS),
        CheckRecord("beta", "c differs from d", np.pi, 2e-11, STATUS_FLAGGED),
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


def _as_lists(array: np.ndarray):
    """The nested lists an array renders as, built entry by entry."""
    if array.ndim == 0:
        value = array.item()
        return [value.real, value.imag] if isinstance(value, complex) else value
    return [_as_lists(entry) for entry in array]


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_ELEMENTS = {
    np.float64: _FINITE_FLOATS | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    np.complex128: st.builds(complex, _FINITE_FLOATS, _FINITE_FLOATS),
    np.int64: st.integers(min_value=-(2**63), max_value=2**63 - 1),
}


def _edge_complex(count: int) -> np.ndarray:
    """Every edge value as a real part and as an imaginary part, signs kept."""
    array = np.empty(count, dtype=np.complex128)
    array.real = np.resize(EDGE_VALUES, count)
    array.imag = np.resize(EDGE_VALUES[::-1], count)
    return array


_EDGE_ELEMENTS = {
    np.float64: st.sampled_from(EDGE_VALUES),
    np.complex128: st.builds(complex, st.sampled_from(EDGE_VALUES), st.sampled_from(EDGE_VALUES)),
}


def _assert_renders_as_lists(array: np.ndarray) -> None:
    """``array`` renders, alone and inside a dict, as its nested lists do.

    Line lists: pytest names the first differing line, where a diff of two
    whole renderings of a large array would take minutes.
    """
    for wrap in (lambda value: value, lambda value: {"matrix": value}):
        expected = to_json(wrap(_as_lists(array))).splitlines(True)
        assert to_json(wrap(array)).splitlines(True) == expected


def _as_floats(array: np.ndarray) -> np.ndarray:
    """The float array a complex array renders from: its entries as [re, im] pairs."""
    return np.stack((array.real, array.imag), axis=-1) if np.iscomplexobj(array) else array


def _signed_zero_toeplitz(dim: int) -> np.ndarray:
    """The closed-form commutator's Toeplitz matrix with -0.0 and 0.0 planted in its values."""
    values = commutator_closed_form(SpaceConfig.from_dim(dim, 2.9)).copy()
    values[0] = complex(-0.0, 0.0)
    values[1] = complex(0.0, -0.0)
    values[2] = complex(-0.0, -0.0)
    assert values[dim - 1] == 0.0 and not np.signbit(values[dim - 1].real)
    return _toeplitz(values)


def _repeated_pairs(dim: int) -> np.ndarray:
    """A (dim, dim, 2) block of a few values, with repeated pairs and pairs whose re == im."""
    pairs = np.array([[0.5, 0.5], [0.5, -0.0], [-0.0, 0.5], [0.0, 0.0], [1e-300, 1e-300]])
    return pairs[np.add.outer(np.arange(dim), 2 * np.arange(dim)) % len(pairs)]


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
            np.resize(EDGE_VALUES, 24).reshape(2, 3, 4),
            _edge_complex(12).reshape(2, 3, 2),
            np.resize(EDGE_VALUES, 32).reshape(2, 2, 2, 4),
            np.array([0, -1, 2**63 - 1, -(2**63)], dtype=np.int64),
            np.arange(-6, 6, dtype=np.int64).reshape(2, 3, 2),
            np.array([[0, 2**64 - 1]], dtype=np.uint64),
            np.array([True, False]),
            np.array([[True], [False]]),
            np.array(-0.0),
            np.array(complex(5e-324, -0.0)),
            np.empty(0),
            np.empty((2, 0)),
            np.empty((0, 3)),
            np.empty((2, 0, 2)),
            np.empty((2, 0), dtype=np.complex128),
            np.empty((0, 3), dtype=np.int64),
            np.empty((2, 0), dtype=bool),
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
            "real-2x3x4",
            "complex-2x3x2",
            "real-2x2x2x4",
            "int-1d",
            "int-2x3x2",
            "uint-1x2",
            "bool-1d",
            "bool-2x1",
            "real-0d",
            "complex-0d",
            "real-(0,)",
            "real-(2,0)",
            "real-(0,3)",
            "real-(2,0,2)",
            "complex-(2,0)",
            "int-(0,3)",
            "bool-(2,0)",
        ],
    )
    def test_matches_the_nested_lists(self, array):
        assert to_json(array) == to_json(_as_lists(array))
        assert to_json({"matrix": array}) == to_json({"matrix": _as_lists(array)})

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([np.float64, np.complex128, np.int64]).flatmap(
            lambda dtype: hnp.arrays(
                dtype,
                hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
                elements=_ELEMENTS[dtype],
            )
        )
    )
    @example(np.array([[0.0, -0.0], [5e-324, -2.2250738585072009e-308]]))
    def test_random_arrays_match_the_nested_lists(self, array):
        assert to_json(array) == to_json(_as_lists(array))
        assert to_json({"matrix": array}) == to_json({"matrix": _as_lists(array)})

    @pytest.mark.parametrize(
        "array",
        [
            _signed_zero_toeplitz(65),
            _signed_zero_toeplitz(65).T,
            unitary_phase_operator(SpaceConfig.from_dim(65, 2.9)).entries,
            number_shift_operator(SpaceConfig.from_dim(65, 2.9)).entries,
            _signed_zero_toeplitz(65).real.copy(),
            _signed_zero_toeplitz(65).imag.T,
            _repeated_pairs(9),
            np.resize([5e-324, -5e-324, 1e-310, -2.2250738585072009e-308, 0.0, -0.0], (7, 6)),
            np.resize(np.array([0.1, -0.0, 3.4028235e38, 1e-45, 0.0], dtype=np.float32), (8, 8)),
            np.resize(EDGE_VALUES, (3, 4, 4)),
        ],
        ids=[
            "complex-toeplitz-65",
            "complex-toeplitz-65-transposed",
            "monomial-exp-iphi-65",
            "monomial-qN-65",
            "real-toeplitz-65",
            "real-toeplitz-65-transposed",
            "pairs-(9,9,2)",
            "subnormals-7x6",
            "float32-8x8",
            "real-3x4x4",
        ],
    )
    def test_distinct_values_match_the_nested_lists(self, array):
        assert report._distinct_rows(_as_floats(array), 0) is not None
        _assert_renders_as_lists(array)

    def test_signed_zeros_keep_their_signs(self):
        # -0.0 == 0.0, so a renderer keyed on float equality would print
        # one of the zeros planted below with another's sign.
        array = _signed_zero_toeplitz(65)
        lines = to_json(array).splitlines()
        assert {"    [-0, 0]", "    [0, -0]", "    [-0, -0]", "    [0, 0]"} <= set(lines)
        _assert_renders_as_lists(array)

    @pytest.mark.parametrize("distinct,taken", [(1, True), (4, True), (5, False), (16, False)])
    def test_at_most_a_quarter_distinct_takes_the_distinct_path(self, distinct, taken):
        array = np.resize(np.arange(distinct, dtype=np.float64), (4, 4))
        assert (report._distinct_rows(array, 0) is not None) == taken
        _assert_renders_as_lists(array)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([np.float64, np.complex128]).flatmap(
            lambda dtype: hnp.arrays(
                dtype,
                hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
                elements=_EDGE_ELEMENTS[dtype],
            )
        )
    )
    def test_repeated_edge_values_match_the_nested_lists(self, array):
        # Five possible values: arrays of two or more dimensions and 20
        # floats or more take the distinct-value path, the others the fill.
        _assert_renders_as_lists(array)

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


def _reference_texts(values: np.ndarray) -> list:
    return [format_float(value) for value in values.tolist()]


def _neighbours(value: float, ulps: int = 2) -> list:
    """``value`` and the doubles up to ``ulps`` steps either side of it, with both signs."""
    below, above = [value], [value]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    around = below[::-1] + above[1:]
    return around + [-v for v in around]


# Ties at the 17th digit: m / 4 for odd m in [4e15, 9e15), a quarter of a unit.
_TIES = (np.random.default_rng(20261020).integers(2 * 10**15, 9 * 10**15 // 2, 4096) * 2 + 1) / 4
EXACTNESS_EDGES = np.array(
    [1000000000000000.25, 9.9999999999999999e-5, 0.0, -0.0, 5e-324, -5e-324,
     2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, math.inf, -math.inf, math.nan]
    + _TIES.tolist()
    + [float(m) / 4 for m in (4 * 10**15 + 1, 9 * 10**15 - 1)]
    # Powers of ten, and the style switches at 1e-5/1e-4 and 1e16/1e17,
    # with values that round up into the next decade.
    + [v for j in range(-20, 21) for v in _neighbours(float(f"1e{j}"))]
    + [v for j in (-5, -4, 16, 17) for v in _neighbours(float(f"9.9999999999999999e{j - 1}"), 3)]
)


class TestFloatTexts:
    """``report._float_texts`` formats arrays in integers; its bytes are ``format_float``'s."""

    def test_random_bit_patterns_across_every_exponent(self):
        rng = np.random.default_rng(28)
        count = 2**20
        mantissa = rng.integers(0, 2**52, count, dtype=np.uint64)
        # Half over every biased exponent, half over those of 1e-15 to 1e16.
        exponent = np.concatenate(
            (rng.integers(0, 2048, count // 2), rng.integers(1023 - 51, 1023 + 54, count // 2))
        ).astype(np.uint64)
        sign = rng.integers(0, 2, count, dtype=np.uint64)
        values = (sign << 63 | exponent << 52 | mantissa).view(np.float64)
        assert set(exponent.tolist()) == set(range(2048))
        texts = report._float_texts(values)
        expected = _reference_texts(values)
        assert len(texts) == count
        wrong = [(e, t) for e, t in zip(expected, texts) if e != t]
        assert not wrong, wrong[:5]

    def test_edge_values(self):
        assert len(EXACTNESS_EDGES) > 4096
        assert report._float_texts(EXACTNESS_EDGES) == _reference_texts(EXACTNESS_EDGES)

    def test_ties_round_half_to_even(self):
        assert report._float_texts(np.array([1000000000000000.25, 1000000000000000.75])) == [
            "1000000000000000.2",
            "1000000000000000.8",
        ]

    @pytest.mark.parametrize("dtype,unsigned", [(np.float32, np.uint32), (np.float16, np.uint16)])
    def test_narrow_floats_every_pattern(self, dtype, unsigned):
        # Every float16 pattern; float32 patterns from every exponent.
        rng = np.random.default_rng(16)
        if dtype is np.float16:
            values = np.arange(2**16, dtype=np.uint32).astype(unsigned).view(dtype)
        else:
            values = rng.integers(0, 2**32, 2**17, dtype=np.uint64).astype(unsigned).view(dtype)
        assert report._float_texts(values) == _reference_texts(values)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):
        array = np.array(values, dtype=np.float64)
        assert report._float_texts(array) == _reference_texts(array)

    def test_the_exact_range_bounds(self):
        tables = report._tables()
        assert np.array(tables.low, dtype=np.uint64).view(np.float64) == 1e-15
        assert np.array(tables.high, dtype=np.uint64).view(np.float64) == 1e16


class TestChunkedArrays:
    """Arrays rendered a chunk at a time give the bytes of their nested lists."""

    def test_a_size_that_is_not_a_multiple_of_the_chunk(self):
        rng = np.random.default_rng(3)
        array = rng.standard_normal(2 * report._CHUNK + 5) / 16
        array[[0, report._CHUNK - 1, report._CHUNK, -1]] = [0.0, 1e-300, -math.inf, 5e-324]
        _assert_renders_as_lists(array)
        # 2 * _CHUNK + 8 floats as [re, im] pairs.
        complex_array = np.empty((2, report._CHUNK // 4 + 1, 2), dtype=np.complex128)
        complex_array.real = array[: complex_array.size].reshape(complex_array.shape)
        complex_array.imag = array[3 : 3 + complex_array.size].reshape(complex_array.shape)
        _assert_renders_as_lists(complex_array)

    @pytest.mark.parametrize("chunk", [1, 2, 5, 7, 16])
    @pytest.mark.parametrize(
        "shape", [(3, 4, 5), (2, 3, 2, 4), (5, 1, 3), (1, 1, 1, 1), (4, 6), (11,)]
    )
    def test_deeper_separators_inside_a_chunk(self, monkeypatch, chunk, shape):
        monkeypatch.setattr(report, "_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        array = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        _assert_renders_as_lists(array)
        _assert_renders_as_lists(array.astype(np.complex128) * (1 - 0.5j))

    @pytest.mark.parametrize("chunk", [3, 4])
    def test_fallback_values_first_and_last_in_a_chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(report, "_CHUNK", chunk)
        array = np.full(4 * chunk, 0.1)
        array[::chunk] = [0.0, -5e-324, 1e300, -0.0]
        array[chunk - 1 :: chunk] = [math.nan, 1e-16, -1e16, math.inf]
        for shape in ((array.size,), (2, -1), (2, 2, -1)):
            _assert_renders_as_lists(array.reshape(shape))

    def test_one_piece_per_chunk(self):
        array = np.linspace(0.1, 0.2, 3 * report._CHUNK + 1).reshape(-1, 1)
        pieces = report.json_pieces({"matrix": array})
        assert len(pieces) == 3 + 1 + 4
