"""The README's Python examples run as written.

Each ```python block runs in order, in one namespace, so a later block
may use what an earlier one defined.  Each block keeps its README line
numbers, so a traceback points at the README line that failed.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL))
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        offset = text.count("\n", 0, block.start(1))
        exec(compile("\n" * offset + block.group(1), str(README), "exec"), namespace)
