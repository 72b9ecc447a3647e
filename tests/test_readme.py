"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "the Library section has no python block"
    return match.group(1)


def test_library_example_runs():
    code = _library_example()
    assert "build_generalized_frame(build_phase_frame(config), eta=0.5)" in code
    assert "build_lowering_operator(frame, profile)" in code
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["recovered"].dim == 8
