"""The python examples of README.md run against the package as it is.

Every ```python block is executed in a fresh namespace. A top-level
print line that ends in a comment must print exactly that comment.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)
PRINT_LINE = re.compile(r"^print\(.*?\)(?:\s+# (.*))?$")


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source):
    expected = [m.group(1) for m in map(PRINT_LINE.match, source.splitlines()) if m]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for want, got in zip(expected, printed):
        if want is not None:
            assert got == want
