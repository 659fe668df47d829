"""Run every ``python`` example block of README.md as it stands."""
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = [(README.count("\n", 0, m.start()) + 2, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", README,
                               re.MULTILINE | re.DOTALL)]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS,
                         ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_example_runs(line, code):
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + code, "README.md", "exec"), {})
