"""The README's examples run: the library quick start executes, and every
``matchstream`` line of the command-line block parses."""

import re
import shlex
from pathlib import Path

from matchstream.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    """The first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    code = _block("Library quick start", "python")
    assert "import matchstream" in code
    exec(compile(code, "README.md", "exec"), {})


def test_command_line_examples_parse():
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("matchstream ")]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
