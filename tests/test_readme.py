"""Every ```python block of README.md runs as it is written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_a_python_block_runs(block):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
