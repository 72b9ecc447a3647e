"""One tolerance policy for every check record.

Every ``CheckRecord.measured`` and ``CheckRecord.flagged`` call in
``suites`` takes its tolerance from the run's ``TolerancePolicy``: the
tolerance expression reads a field of ``policy`` and holds no numeric
literal. Read from the source with ``ast``, so nothing is imported.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from fdphase.numerics import TolerancePolicy

SUITES = Path(__file__).resolve().parents[1] / "src" / "fdphase" / "suites.py"
POLICY_FIELDS = {field.name for field in dataclasses.fields(TolerancePolicy)}


def _record_calls():
    """Each ``CheckRecord.measured``/``flagged`` call in ``suites``."""
    for node in ast.walk(ast.parse(SUITES.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("measured", "flagged")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "CheckRecord"
        ):
            yield node


def _tolerance(call):
    """The tolerance argument: the fourth positional one or ``tolerance=``."""
    keywords = {keyword.arg: keyword.value for keyword in call.keywords}
    if "tolerance" in keywords:
        return keywords["tolerance"]
    assert len(call.args) == 4, f"line {call.lineno}: expected four positional arguments"
    return call.args[3]


def _check_id(call):
    """The record id when it is a literal, else its source (the shift-law loop)."""
    first = call.args[0]
    return first.value if isinstance(first, ast.Constant) else ast.unparse(first)


CALLS = sorted(_record_calls(), key=lambda call: call.lineno)


def test_the_guard_sees_the_records_it_guards():
    ids = {_check_id(call) for call in CALLS}
    assert {
        "cycle_sign_dichotomy",
        "spectrum_monotone",
        "spectrum_top_level_shift",
        "cycle_parity",
        "sector_equivalence",
        "uniform_half_eta_below_top",
        "commutator_double_sum_vs_closed_form",
    } <= ids


@pytest.mark.parametrize("call", CALLS, ids=_check_id)
def test_tolerance_is_rooted_in_the_policy(call):
    tolerance = _tolerance(call)
    nodes = list(ast.walk(tolerance))
    literals = [
        node.value
        for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float, complex))
    ]
    assert not literals, f"line {call.lineno}: numeric literal {literals} in the tolerance"
    assert any(
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "policy"
        and node.attr in POLICY_FIELDS
        for node in nodes
    ), f"line {call.lineno}: tolerance {ast.unparse(tolerance)!r} does not read the policy"
