"""The README's Python examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # one namespace, so a block may use the names an earlier one defined
        exec(compile(block, str(README), "exec"), namespace)
