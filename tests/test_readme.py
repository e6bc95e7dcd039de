"""Every Python block of README.md runs to the end on the public API."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_blocks_are_found():
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, {"__name__": "__main__"})
