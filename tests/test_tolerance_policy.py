"""One tolerance policy for every check record.

Every row a suite in ``suites`` yields, ``(check_id, paper_anchor, route,
reference, tolerance)``, takes its tolerance from the run's
``TolerancePolicy``: the tolerance element reads a field of ``policy`` and
holds no numeric literal. Read from the source with ``ast``, so nothing is
imported.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from fdphase.numerics import TolerancePolicy

SUITES = Path(__file__).resolve().parents[1] / "src" / "fdphase" / "suites.py"
POLICY_FIELDS = {field.name for field in dataclasses.fields(TolerancePolicy)}
TREE = ast.parse(SUITES.read_text(encoding="utf-8"))
# Module-level string constants, such as the flagged record's id.
CONSTANTS = {
    target.id: node.value.value
    for node in TREE.body
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
    for target in node.targets
    if isinstance(target, ast.Name)
}


def _check_id(row):
    """The row's record id: a literal, or a module constant naming one."""
    first = row.elts[0]
    if isinstance(first, ast.Name):
        return CONSTANTS[first.id]
    return first.value


YIELDS = sorted(
    (node for node in ast.walk(TREE) if isinstance(node, ast.Yield)),
    key=lambda node: node.lineno,
)
ROWS = [
    node.value
    for node in YIELDS
    if isinstance(node.value, ast.Tuple) and len(node.value.elts) == 5
]


def test_every_yield_is_a_five_element_row():
    assert len(ROWS) == len(YIELDS) > 0


def test_the_guard_sees_the_records_it_guards():
    ids = {_check_id(row) for row in ROWS}
    assert {
        "cycle_sign_dichotomy",
        "spectrum_monotone",
        "spectrum_top_level_shift",
        "cycle_parity",
        "sector_equivalence",
        "uniform_half_eta_below_top",
        "commutator_double_sum_vs_closed_form",
        "corner_phase_phase_operator",
        "standard_shift_cycle_sign_below_top",
    } <= ids


@pytest.mark.parametrize("row", ROWS, ids=_check_id)
def test_tolerance_is_rooted_in_the_policy(row):
    tolerance = row.elts[4]
    nodes = list(ast.walk(tolerance))
    literals = [
        node.value
        for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float, complex))
    ]
    assert not literals, f"line {row.lineno}: numeric literal {literals} in the tolerance"
    assert any(
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "policy"
        and node.attr in POLICY_FIELDS
        for node in nodes
    ), f"line {row.lineno}: tolerance {ast.unparse(tolerance)!r} does not read the policy"
