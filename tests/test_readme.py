"""The python examples of README.md run as written, and its command-line
examples parse."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from vsp.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for source in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(source, str(README), "exec"), {})


def test_readme_cli_lines_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = [
        line.split("#")[0].strip()
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
    ]
    commands = [shlex.split(line) for line in lines if line.startswith("vsp ")]
    assert commands
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
