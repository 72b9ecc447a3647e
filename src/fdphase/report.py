"""Verification manifests, check records, and byte-stable rendering.

This is the one module that turns values into output bytes: the verify
report in each of its formats and the JSON payloads of ``dump`` and
``evolve``. Output must be reproducible down to the byte: floats are
written as decimal with 17 significant digits and a lowercase exponent
(round-trip exact for doubles), field order is fixed, and no timestamps or
environment data are embedded. The fields of the dataclasses, in their
declared order, are the report schema. A numpy array renders as nested
lists in its own layout; a complex entry becomes an ``[re, im]`` pair.
Arrays are formatted a block at a time with the same ``%.17g`` policy.
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
    """Append a float or int array as its nested lists, one ``%`` fill per 1-D or 2-D block."""
    if not len(array):
        out.append("[]")
        return
    spec = _FLOAT_SPEC if array.dtype.kind == "f" else "%d"
    pad = "  " * indent
    if array.ndim == 1:
        out.append(("[" + ", ".join([spec] * len(array)) + "]") % tuple(array.tolist()))
        return
    if array.ndim == 2:
        row = pad + "  [" + ", ".join([spec] * array.shape[1]) + "]"
        out.append("[\n")
        out.append(",\n".join([row] * len(array)) % tuple(array.ravel().tolist()))
    else:
        for n, block in enumerate(array):
            out.append(("[\n" if n == 0 else ",\n") + pad + "  ")
            _render_array(block, indent + 1, out)
    out.append("\n" + pad + "]")


def _render(value, indent: int, out: list) -> None:
    """Append the text of ``value`` to ``out`` piece by piece; ``to_json`` joins it once."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = np.stack((value.real, value.imag), axis=-1)
        if value.ndim and value.dtype.kind in "fiu":
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
    array's text is not copied again by each enclosing level.
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
