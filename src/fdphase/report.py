"""Verification manifests, check records, and byte-stable rendering.

This is the one module that turns values into output bytes: the verify
report in each of its formats and the JSON payloads of ``dump`` and
``evolve``. Output must be reproducible down to the byte: floats are
written as decimal with 17 significant digits and a lowercase exponent
(round-trip exact for doubles), field order is fixed, and no timestamps or
environment data are embedded. The fields of the dataclasses, in their
declared order, are the report schema. A numpy array renders as nested
lists in its own layout; a complex entry becomes an ``[re, im]`` pair.
A float array that repeats its values, such as a Toeplitz, shift or
diagonal matrix, is rendered from the texts of its distinct values, each
formatted once; any other array is formatted a block at a time. Both give
the bytes of formatting every entry with the same ``%.17g`` policy.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "TOOL_VERSION",
    "STATUS_PASS",
    "STATUS_FAIL",
    "STATUS_FLAGGED",
    "RunManifest",
    "CheckRecord",
    "VerificationReport",
    "format_float",
    "to_json",
    "render_json",
    "render_csv",
    "render_pretty",
    "render",
]

TOOL_VERSION = "0.9.0"

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_FLAGGED = "flagged"
_STATUSES = (STATUS_PASS, STATUS_FAIL, STATUS_FLAGGED)


@dataclass(frozen=True)
class RunManifest:
    """Everything a verify run depends on."""

    dim: int
    theta0: float = 0.0
    eta: float = 0.5
    omega: float = 1.0
    profile: str = "linear"
    suites: tuple = ()
    seed: int = 0
    format: str = "json"

    def __post_init__(self) -> None:
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)):
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        for name in ("theta0", "eta", "omega"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.format not in REPORT_FORMATS:
            raise ValueError(f"format must be one of {REPORT_FORMATS}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "suites", tuple(self.suites))


@dataclass(frozen=True)
class CheckRecord:
    """One verified identity: what was checked, how far off, and the verdict."""

    check_id: str
    paper_anchor: str
    max_deviation: float
    tolerance: float
    status: str

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")
        for name in ("max_deviation", "tolerance"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class VerificationReport:
    """All records of one run plus the manifest that produced them."""

    manifest: RunManifest
    records: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def status_counts(self) -> dict:
        counts = {status: 0 for status in _STATUSES}
        for record in self.records:
            counts[record.status] += 1
        return counts


_FLOAT_SPEC = "%.17g"


def format_float(value: float) -> str:
    """Decimal float text: 17 significant digits, lowercase exponent."""
    return _FLOAT_SPEC % float(value)


def _render_array(array: np.ndarray, indent: int, out: list) -> None:
    """Append a float array as its nested lists.

    A matrix or block whose distinct values are at most a quarter of its
    entries, such as a Toeplitz, shift or diagonal matrix, is rendered from
    the texts of its distinct rows (``_distinct_rows``); any other array is
    filled one ``%`` block at a time (``_render_filled``). Both give the
    bytes of formatting every entry with ``format_float``.
    """
    if array.ndim > 1 and array.size and array.itemsize <= 8:
        rows = _distinct_rows(array, indent)
        if rows is not None:
            # One piece per array: a large piece is mapped on its own and goes
            # back to the system when freed, where thousands of row pieces
            # can stay pinned in the heap after ``to_json`` returns (a
            # `dump commutators --dim 1024` peaked at 526-561 MB that way,
            # against 463 MB with one piece per array).
            pieces = []
            _render_rows(*rows, indent, pieces)
            out.append("".join(pieces))
            return
    _render_filled(array, indent, out)


def _render_filled(array: np.ndarray, indent: int, out: list) -> None:
    """Append a float array, one ``%`` fill of ``_FLOAT_SPEC`` per 1-D or 2-D block."""
    if not len(array):
        out.append("[]")
        return
    pad = "  " * indent
    if array.ndim == 1:
        out.append(("[" + ", ".join([_FLOAT_SPEC] * len(array)) + "]") % tuple(array.tolist()))
        return
    if array.ndim == 2:
        row = pad + "  [" + ", ".join([_FLOAT_SPEC] * array.shape[1]) + "]"
        out.append("[\n")
        out.append(",\n".join([row] * len(array)) % tuple(array.ravel().tolist()))
    else:
        for n, block in enumerate(array):
            out.append(("[\n" if n == 0 else ",\n") + pad + "  ")
            _render_filled(block, indent + 1, out)
    out.append("\n" + pad + "]")


def _distinct_rows(array: np.ndarray, indent: int):
    """The texts of a float array's distinct innermost rows and each row's index
    among them, or None when more than a quarter of its values are distinct.

    Values are keyed on their bits, not on ``==``: -0.0 and 0.0 print
    differently. Each distinct value is formatted once, and each innermost
    row is joined once: each distinct pair when rows are pairs (the
    ``[re, im]`` of complex entries), else each row (a real matrix row).
    """
    bits = np.ascontiguousarray(array).view(f"i{array.itemsize}").ravel()
    ordered = np.sort(bits)
    values = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    # Freed before the index is taken: without this, `dump commutators --dim
    # 1024` peaked at 435-501 MB, varying with the import path.
    del ordered
    if 4 * len(values) > len(bits):
        return None
    index = np.searchsorted(values, bits)
    texts = [_FLOAT_SPEC % value for value in values.view(array.dtype).tolist()]
    rows = index.reshape(-1, array.shape[-1])
    if rows.shape[1] == 2:
        shape = (len(texts), len(texts))
        codes = np.ravel_multi_index(tuple(rows.T), shape)
        pairs, row_index = np.unique(codes, return_inverse=True)
        rows = np.stack(np.unravel_index(pairs, shape), axis=-1)
    else:
        row_index = np.arange(len(rows))
    pad = "  " * (indent + array.ndim - 1) + "["
    row_texts = [pad + ", ".join(map(texts.__getitem__, row.tolist())) + "]" for row in rows]
    return row_texts, row_index.reshape(array.shape[:-1])


def _render_rows(row_texts: list, index: np.ndarray, indent: int, out: list) -> None:
    """Append nested lists whose innermost rows are ``row_texts[index]``,
    each matrix row with one join."""
    pad = "  " * indent
    if index.ndim == 1:
        out.append("[\n")
        out.append(",\n".join(map(row_texts.__getitem__, index.tolist())))
    else:
        for n, block in enumerate(index):
            out.append(("[\n" if n == 0 else ",\n") + pad + "  ")
            _render_rows(row_texts, block, indent + 1, out)
    out.append("\n" + pad + "]")


def _render(value, indent: int, out: list) -> None:
    """Append the text of ``value`` to ``out`` piece by piece; ``to_json`` joins it once."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = np.stack((value.real, value.imag), axis=-1)
        if value.ndim and value.dtype.kind == "f":
            _render_array(value, indent, out)
            return
        value = value.tolist()
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        for n, (key, item) in enumerate(value.items()):
            out.append(("{\n" if n == 0 else ",\n") + f"{pad}  {json.dumps(str(key))}: ")
            _render(item, indent + 1, out)
        out.append("\n" + pad + "}")
        return
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        if all(not isinstance(item, (dict, list, tuple)) for item in items):
            for n, item in enumerate(items):
                out.append("[" if n == 0 else ", ")
                _render(item, 0, out)
            out.append("]")
            return
        for n, item in enumerate(items):
            out.append(("[\n" if n == 0 else ",\n") + pad + "  ")
            _render(item, indent + 1, out)
        out.append("\n" + pad + "]")
        return
    out.append(_render_scalar(value))


def _render_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    raise TypeError(f"cannot render value of type {type(value).__name__}")


def to_json(value) -> str:
    """Render a dict/list/array/scalar structure with the stable policy.

    The text is built as a list of pieces and joined once, so a large
    array's text is not copied again by each enclosing level. An array
    whose distinct float values are at most a quarter of its entries is
    one piece, built from each distinct value's text (``_render_array``);
    the bytes are those of formatting every entry.
    """
    out = []
    _render(value, 0, out)
    out.append("\n")
    return "".join(out)


def render_json(report: VerificationReport) -> str:
    return to_json({"tool_version": TOOL_VERSION, **asdict(report)})


def render_csv(report: VerificationReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["check_id", "paper_anchor", "max_deviation", "tolerance", "status"])
    for record in report.records:
        writer.writerow(
            [
                record.check_id,
                record.paper_anchor,
                format_float(record.max_deviation),
                format_float(record.tolerance),
                record.status,
            ]
        )
    return buffer.getvalue()


def render_pretty(report: VerificationReport) -> str:
    manifest = report.manifest
    lines = [
        f"verification report (tool {TOOL_VERSION})",
        "manifest: dim=%d theta0=%s eta=%s omega=%s profile=%s seed=%d"
        % (
            manifest.dim,
            format_float(manifest.theta0),
            format_float(manifest.eta),
            format_float(manifest.omega),
            manifest.profile,
            manifest.seed,
        ),
        "suites: " + (", ".join(manifest.suites) if manifest.suites else "(none)"),
        "",
    ]
    width = max((len(r.check_id) for r in report.records), default=8)
    for record in report.records:
        lines.append(
            "%-7s %-*s  dev=%-12.3e tol=%-12.3e %s"
            % (
                record.status,
                width,
                record.check_id,
                record.max_deviation,
                record.tolerance,
                record.paper_anchor,
            )
        )
    counts = report.status_counts()
    lines.append("")
    lines.append(
        "checks: %d | pass %d | flagged %d | fail %d"
        % (len(report.records), counts["pass"], counts["flagged"], counts["fail"])
    )
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "pretty": render_pretty}
REPORT_FORMATS = tuple(_RENDERERS)


def render(report: VerificationReport) -> str:
    """The report in the format its manifest names."""
    return _RENDERERS[report.manifest.format](report)
