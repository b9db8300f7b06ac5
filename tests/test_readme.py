"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

_README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = _README.read_text()
# each block padded with blank lines, so tracebacks give README line numbers
_BLOCKS = [
    "\n" * _TEXT.count("\n", 0, m.start(1)) + m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, flags=re.S | re.M)
]


def test_readme_has_python_examples():
    assert _BLOCKS


@pytest.mark.parametrize("source", _BLOCKS, ids=[f"block{i}" for i in range(len(_BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(_README), "exec"), {"__name__": "readme"})
