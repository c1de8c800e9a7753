"""The README's library example and command lines run against the package as it stands."""

import re
import shlex
from pathlib import Path

import pytest

from entcat.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def _command_examples():
    """``(argv, expected stdout)`` of each README command line whose ``# ->`` text is a number."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    examples = re.findall(r"^entcat (.*)\n# -> (\d.*)$", block, re.M)
    return [(shlex.split(command), re.sub(r"\s+\(.*\)$", "", shown)) for command, shown in examples]


COMMAND_EXAMPLES = _command_examples()


@pytest.mark.parametrize("argv,expected", COMMAND_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in COMMAND_EXAMPLES])
def test_command_line_example_prints_what_the_readme_shows(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"
