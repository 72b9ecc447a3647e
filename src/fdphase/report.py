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
formatted once; any other array is formatted a chunk of entries at a time,
in integers, with its list separators (``_fill``). Both give the bytes of
formatting every entry with the same ``%.17g`` policy.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import mmap
from dataclasses import asdict, dataclass
from typing import NamedTuple

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
    "json_pieces",
    "to_json",
    "render_json",
    "render_csv",
    "render_pretty",
    "render",
]

TOOL_VERSION = "0.11.0"

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


# Values formatted into one piece of text, through one reused buffer. With
# 8192, the larger temporaries of each chunk let glibc's heap grow by 13 MB
# in some perfbench dump-evolve runs (peak RSS 84 against 70-71 MB).
_CHUNK = 4096
# Bytes of the longest ``%.17g`` text, "-2.2250738585072014e-308".
_TEXT_BYTES = 24


class _Tables(NamedTuple):
    """The read-only lookup tables of :func:`_fill`.

    Tables "by xi" are indexed by a decimal exponent X plus 16, X in
    [-16, 17]; a word holds 8 bytes of text, the first byte lowest.
    """

    low: int  # bits of the smallest double >= 1e-15
    high: int  # bits of the smallest double >= 1e16
    base: np.ndarray  # by biased binary exponent: xi of its lowest value
    next: np.ndarray  # by biased binary exponent: bits of the smallest double >= 10**(X + 1)
    five: tuple  # by xi: 5**(16 - X) << z, in [2**71, 2**72), as bits 0-31, 32-63 and 64-71
    shift: np.ndarray  # by xi: the product's right shift in its high word, plus the biased exponent
    point: np.ndarray  # by xi: max(X, 0), the digits after the leading one that precede the point
    exponent: np.ndarray  # by xi: "e-XX" in bytes 3-6 of the third word when X < -4
    prefix: np.ndarray  # by xi: "0.", then -X - 1 zeros, in bytes 1-5 when -4 <= X < 0
    fixed_small: np.ndarray  # by xi: all ones when -4 <= X < 0
    digits: tuple  # by 4-digit group: its ASCII digits as bytes 0-3 and as bytes 4-7
    last: tuple  # by 4-digit group, one table per place k: 4k + the place of its last nonzero digit
    keep: tuple  # by a count of digits up to 16: the mask of its bytes in each of two words
    dot: tuple  # by point + 17 * (a fraction is written): the point in each of two words


@functools.cache
def _tables() -> _Tables:
    """The tables of :func:`_fill`, built on first use."""
    u64 = np.uint64
    # bounds[j + 16] is the smallest double >= 10**j: a double is >= 10**j
    # exactly when its bits are at least those of bounds[j + 16].
    bounds = []
    for j in range(-16, 18):
        bound = float(f"1e{j}")  # the nearest double
        numerator, denominator = bound.as_integer_ratio()
        if numerator * 10 ** max(-j, 0) < denominator * 10 ** max(j, 0):
            bound = math.nextafter(bound, math.inf)
        bounds.append(bound)
    bounds = np.array(bounds).view(u64)
    # Every value in [2**e, 2**(e + 1)) has the X of 2**e or one more.
    base = np.searchsorted(bounds, np.arange(2048, dtype=u64) << 52, side="right") - 1
    base = np.clip(base, 0, 31)
    # X = 17 is only met by values outside the exact range, whose digits are
    # discarded.
    x = np.arange(34) - 16
    powers = [5**k if 0 <= k < 32 else 0 for k in range(32, -2, -1)]
    scaled = [power << (72 - power.bit_length()) for power in powers]
    shift = [72 - power.bit_length() - k + 1011 for k, power in zip(range(32, -2, -1), powers)]
    group = np.arange(10000, dtype=u64)
    ascii_group = sum(((group // 10**place % 10) | 0x30) << (24 - 8 * place) for place in range(4))
    trailing = (group % 10 == 0).astype(u64) + (group % 100 == 0) + (group % 1000 == 0)
    last = [np.where(group > 0, 4 * place + 4 - trailing, 0).astype(np.uint8) for place in range(4)]
    dot = np.zeros((2, 2, 17), dtype=u64)
    dot[0, 1, :8] = dot[1, 1, 8:16] = 0x2E << (8 * np.arange(8, dtype=u64))
    tens, units = (-x) // 10 | 0x30, (-x) % 10 | 0x30
    exponent = np.where(x < -4, (0x65 | 0x2D << 8 | tens << 16 | units << 24) << 24, 0)
    small = (x < 0) & (x >= -4)
    zeros = np.array([0, 0x30, 0x3030, 0x303030], dtype=u64)[np.clip(-x - 1, 0, 3)]
    counts = np.arange(17)
    tables = _Tables(
        low=int(bounds[1]),
        high=int(bounds[32]),
        base=base,
        next=bounds[base + 1],
        five=tuple(
            np.array([value >> bit & 0xFFFF_FFFF for value in scaled], dtype=u64)
            for bit in (0, 32, 64)
        ),
        shift=np.array(shift, dtype=u64),
        point=np.clip(x, 0, 16).astype(np.uint8),
        exponent=exponent.astype(u64),
        prefix=np.where(small, 0x30 << 8 | 0x2E << 16 | zeros << 24, u64(0)),
        fixed_small=np.where(small, np.iinfo(u64).max, u64(0)),
        digits=(ascii_group, ascii_group << 32),
        last=tuple(last),
        keep=tuple(
            np.array([(1 << 8 * int(n)) - 1 for n in np.clip(counts - offset, 0, 8)], dtype=u64)
            for offset in (0, 8)
        ),
        dot=(dot[0].ravel(), dot[1].ravel()),
    )
    return _Tables(
        *(
            tuple(map(_mapped, table)) if isinstance(table, tuple) else _mapped(table)
            for table in tables
        )
    )


def _mapped(table):
    """A read-only copy of an array table in a mapping of its own, or a bound as is.

    Tables built at first use, in the middle of a render, and held in the
    malloc heap sat above the render's freed temporaries and kept them
    resident: a perfbench dump-evolve run peaked at 80 MB that way, against
    69.5 MB with the tables out of the heap (and 72 MB at the `%` fill).
    """
    if not isinstance(table, np.ndarray):
        return table
    copy = np.frombuffer(mmap.mmap(-1, table.nbytes), dtype=table.dtype).reshape(table.shape)
    copy[...] = table
    copy.setflags(write=False)
    return copy


def _fill(values: np.ndarray, rows: np.ndarray) -> str:
    """The ``%.17g`` texts of ``values``, each followed by its separator.

    Row i of ``rows`` (little-endian words) holds the separator of value i
    after its first ``_TEXT_BYTES`` bytes, which take the value's text,
    NUL-padded; the result is the rows' bytes without the NULs. A value v with 1e-15 <=
    |v| < 1e16 is formatted in integers: its 17 significant digits are
    m * 5**k * 2**(e + k), for v = m * 2**e and k = 16 - X, rounded half to
    even on the exact remainder. Any other value is formatted with ``%``.
    """
    t = _tables()
    with np.errstate(invalid="ignore"):  # a signalling NaN of a narrower float
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    magnitude = bits & 0x7FFF_FFFF_FFFF_FFFF
    biased = magnitude >> 52
    xi = t.base.take(biased) + (magnitude >= t.next.take(biased))
    # m * 5**k * 2**z, a 125-bit product, as high * 2**64 + a low word,
    # from the 32-bit halves of m and of the multiplier's low 64 bits.
    significand = (magnitude & 0xF_FFFF_FFFF_FFFF) | 1 << 52
    m0, m1 = significand & 0xFFFF_FFFF, significand >> 32
    f0, f1 = t.five[0].take(xi), t.five[1].take(xi)
    low = m0 * f0
    cross = m0 * f1
    middle = (low >> 32) + (cross & 0xFFFF_FFFF) + m1 * f0
    high = m1 * f1 + (cross >> 32) + (middle >> 32) + significand * t.five[2].take(xi)
    sticky = ((middle << 32) | (low & 0xFFFF_FFFF)) != 0
    # The 17 digits are high >> shift (shift is 3 to 7 in range); the bits
    # shifted out go to the top of `rest`, whose low bit is free for `sticky`.
    shift = (t.shift.take(xi) - biased) & 63
    digits = high >> shift
    rest = (high << ((64 - shift) & 63)) | sticky
    digits += (rest + (digits & 1)) > 1 << 63
    carry = digits == 10**17
    digits[carry] = 10**16
    xi += carry
    upper = digits // 10**8
    lead = upper // 10**8
    groups = (upper - lead * 10**8, digits - upper * 10**8)
    a1, b1 = groups[0] // 10**4, groups[1] // 10**4
    a0, b0 = groups[0] - a1 * 10**4, groups[1] - b1 * 10**4
    # Significant digits after the leading one, and those kept: at least
    # the point's position, so an integer keeps its trailing zeros.
    significant = np.maximum(
        np.maximum(t.last[0].take(a1), t.last[1].take(a0)),
        np.maximum(t.last[2].take(b1), t.last[3].take(b0)),
    )
    point = t.point.take(xi)
    kept = np.maximum(significant, point)
    word_a = (t.digits[0].take(a1) | t.digits[1].take(a0)) & t.keep[0].take(kept)
    word_b = (t.digits[0].take(b1) | t.digits[1].take(b0)) & t.keep[1].take(kept)
    # The point goes after `point` digits, or nowhere when no fraction is left.
    dot = point + 17 * (significant > point)
    left_a, left_b = word_a & t.keep[0].take(point), word_b & t.keep[1].take(point)
    right_a, right_b = word_a ^ left_a, word_b ^ left_b
    pointed = (
        left_a | (right_a << 8) | t.dot[0].take(dot),
        left_b | (right_b << 8) | (right_a >> 56) | t.dot[1].take(dot),
        right_b >> 56,
    )
    sign = (bits >> 63) * 0x2D
    lead |= 0x30
    # sign, lead digit, point and digits, "e-XX"; or, for -4 <= X < 0,
    # sign, "0.", zeros, lead digit and digits.
    large = (
        sign | (lead << 8) | (pointed[0] << 16),
        (pointed[0] >> 48) | (pointed[1] << 16),
        (pointed[1] >> 48) | (pointed[2] << 16) | t.exponent.take(xi),
    )
    small = (
        sign | t.prefix.take(xi) | (lead << 48) | (word_a << 56),
        (word_a >> 8) | (word_b << 56),
        word_b >> 8,
    )
    choose = t.fixed_small.take(xi)
    for column, (first, second) in enumerate(zip(large, small)):
        rows[:, column] = first ^ ((first ^ second) & choose)
    exact = (magnitude >= t.low) & (magnitude < t.high)
    if not exact.all():
        others = np.flatnonzero(~exact)
        texts = [
            (_FLOAT_SPEC % value).encode("ascii").ljust(_TEXT_BYTES, b"\0")
            for value in bits[others].view(np.float64).tolist()
        ]
        text_bytes = np.frombuffer(b"".join(texts), dtype=np.uint8).reshape(-1, _TEXT_BYTES)
        rows.view(np.uint8)[others, :_TEXT_BYTES] = text_bytes
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _float_pieces(array: np.ndarray, separators: list, out: list) -> None:
    """Append the ``%.17g`` texts of a float array's entries in C order, one
    piece per ``_CHUNK`` entries.

    Each text is followed by ``separators[level]``, where ``level`` is the
    outermost axis whose index the next entry changes (``ndim - 1`` within
    an innermost row), and the last by ``separators[ndim]``.
    """
    width = (max(map(len, separators)) + 7) // 8
    table = b"".join(text.encode("ascii").ljust(8 * width, b"\0") for text in separators)
    table = np.frombuffer(table, dtype="<u8").reshape(-1, width)
    flat = np.ravel(array)
    size = flat.size
    # Every `period` entries, an item of axis `level + 1` ends.
    periods = np.cumprod(array.shape[:0:-1]).tolist()
    buffer = np.empty((min(size, _CHUNK), _TEXT_BYTES // 8 + width), dtype="<u8")
    for start in range(0, size, _CHUNK):
        stop = min(start + _CHUNK, size)
        rows = buffer[: stop - start]
        after = rows[:, _TEXT_BYTES // 8 :]
        after[:] = table[array.ndim - 1]
        for level, period in zip(range(array.ndim - 2, -1, -1), periods):
            after[(-1 - start) % period :: period] = table[level]
        if stop == size:
            after[-1] = table[array.ndim]
        out.append(_fill(flat[start:stop], rows))


def _float_texts(values: np.ndarray) -> list:
    """The ``%.17g`` text of each entry of a 1-D float array."""
    pieces = []
    _float_pieces(values, ["\n", "\n"], pieces)
    return "".join(pieces).split("\n")[:-1]


def _separators(ndim: int, indent: int) -> tuple:
    """The text before a float array's first entry, and the separators of
    :func:`_float_pieces`, for an array of ``ndim`` axes at ``indent``."""
    pads = ["  " * (indent + level) + "  " for level in range(ndim)]
    opening, closing = ["["], ["]"]
    for level in range(ndim - 2, -1, -1):
        opening.insert(0, "[\n" + pads[level] + opening[0])
        closing.insert(0, closing[0] + "\n" + pads[level][:-2] + "]")
    separators = [
        closing[level + 1] + ",\n" + pads[level] + opening[level + 1] for level in range(ndim - 1)
    ]
    return opening[0], separators + [", ", closing[0]]


def _render_array(array: np.ndarray, indent: int, out: list) -> None:
    """Append a float array as its nested lists.

    A matrix or block whose distinct values are at most a quarter of its
    entries, such as a Toeplitz, shift or diagonal matrix, is rendered from
    the texts of its distinct rows (``_distinct_rows``); any other array is
    formatted by :func:`_fill`, a chunk of entries and their separators at a
    time. Both give the bytes of formatting every entry with ``format_float``.
    """
    if array.ndim > 1 and array.itemsize <= 8:
        rows = _distinct_rows(array, indent)
        if rows is not None:
            # One piece per array: a large piece is mapped on its own and goes
            # back to the system when freed, where thousands of row pieces
            # can stay pinned in the heap after the text is written (a
            # `dump commutators --dim 1024` peaked at 526-561 MB that way,
            # against 463 MB with one piece per array).
            pieces = []
            _render_rows(*rows, indent, pieces)
            out.append("".join(pieces))
            return
    head, separators = _separators(array.ndim, indent)
    out.append(head)
    _float_pieces(array, separators, out)


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
    texts = _float_texts(values.view(array.dtype))
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
    """Append the text of ``value`` to ``out`` piece by piece (see :func:`json_pieces`)."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            # The [re, im] pairs as a view of C-ordered entries: a transposed
            # array is copied once, here, and not again a chunk at a time.
            shape = value.shape
            value = np.ascontiguousarray(value)
            value = value.view(value.real.dtype).reshape(shape + (2,))
        if value.size and value.ndim and value.dtype.kind == "f":
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


def json_pieces(value) -> list:
    """The text of a dict/list/array/scalar structure, with the stable policy, as a list of pieces.

    A large array's text is not copied again by each enclosing level, and
    a writer that takes the pieces one by one never holds the whole text
    at once. An array whose distinct float values are at most a quarter of
    its entries is one piece, built from each distinct value's text
    (``_render_array``); the bytes are those of formatting every entry.
    """
    out = []
    _render(value, 0, out)
    out.append("\n")
    return out


def to_json(value) -> str:
    """The pieces of :func:`json_pieces` joined into one text."""
    return "".join(json_pieces(value))


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
