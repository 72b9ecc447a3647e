"""The skeleton of every verify report stays pinned.

For a grid of manifests (all suites), the ordered ``(check_id,
paper_anchor, tolerance, status)`` of every record must equal
``tests/data/report_skeletons.json``. Deviations are left out, since their
last digits depend on the BLAS build. Regenerate the file after a
deliberate change of ids, anchors, tolerances or verdicts with::

    PYTHONPATH=src python tests/test_report_skeletons.py
"""

import json
from pathlib import Path

import pytest

from fdphase.report import RunManifest
from fdphase.suites import SUITE_NAMES, run_suites

SKELETONS = Path(__file__).resolve().parent / "data" / "report_skeletons.json"
GRID = [
    (dim, theta0, eta)
    for dim in (1, 2, 3, 8)
    for theta0 in (0.0, 2.9)
    for eta in (0.25, 0.5, 1.0)
]


def _key(dim, theta0, eta):
    return f"dim={dim} theta0={theta0!r} eta={eta!r}"


def skeleton(dim, theta0, eta):
    manifest = RunManifest(dim=dim, theta0=theta0, eta=eta, suites=SUITE_NAMES)
    return [
        [r.check_id, r.paper_anchor, r.tolerance, r.status]
        for r in run_suites(manifest).records
    ]


def _write(path):
    """One record per line, so a changed record is a one-line diff."""
    lines = []
    for n, (dim, theta0, eta) in enumerate(GRID):
        rows = ",\n".join("  " + json.dumps(row) for row in skeleton(dim, theta0, eta))
        comma = "," if n + 1 < len(GRID) else ""
        lines.append(f" {json.dumps(_key(dim, theta0, eta))}: [\n{rows}\n ]{comma}")
    path.write_text("{\n" + "\n".join(lines) + "\n}\n", encoding="utf-8")


@pytest.fixture(scope="module")
def pinned():
    return json.loads(SKELETONS.read_text(encoding="utf-8"))


def test_the_file_covers_the_grid(pinned):
    assert list(pinned) == [_key(*manifest) for manifest in GRID]


@pytest.mark.parametrize("dim, theta0, eta", GRID, ids=lambda v: repr(v))
def test_report_skeleton_is_pinned(pinned, dim, theta0, eta):
    assert skeleton(dim, theta0, eta) == pinned[_key(dim, theta0, eta)]


if __name__ == "__main__":
    _write(SKELETONS)
