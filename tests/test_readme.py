import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The first python block after the README heading ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_in_five_lines_runs(capsys):
    # a signature change that breaks the README's example fails here
    exec(compile(readme_block("Library in five lines"), str(README), "exec"), {})
    assert capsys.readouterr().out
