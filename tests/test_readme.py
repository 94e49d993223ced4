"""The python examples of README.md run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for source in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(source, str(README), "exec"), {})
