import re
import shlex
from pathlib import Path

import pytest

from hawkesflow import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The first python block after the README heading ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def readme_commands() -> list[list[str]]:
    """The arguments of every ``hawkesflow`` command in the README's bash
    blocks, with continuation lines joined and comments stripped."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["hawkesflow"]:
                commands.append(words[1:])
    return commands


def test_library_in_five_lines_runs(capsys):
    # a signature change that breaks the README's example fails here
    exec(compile(readme_block("Library in five lines"), str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_has_cli_examples():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "simulate", "estimate", "report", "roundtrip", "robustness"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_cli_example_parses(argv):
    # a renamed or removed option breaks the README's example here
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
