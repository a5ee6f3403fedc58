"""The README's command-line examples run, exit 0 and print what it shows."""

import re
import shlex
from pathlib import Path

from epilex.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[list[str], list[str]]]:
    """Each ``epilex ...`` command of the command-line block, with the ``-> `` lines after it."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```\n(.*?)```", text, re.S).group(1)
    examples: list[tuple[list[str], list[str]]] = []
    for line in block.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("epilex "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("-> "):
            examples[-1][1].append(line[3:])
    return examples


def test_readme_command_lines_run_as_shown(capsys, monkeypatch):
    monkeypatch.delenv("ETK_HORIZON", raising=False)
    examples = _examples()
    assert len(examples) >= 8 and any(shown for _, shown in examples)
    for argv, shown in examples:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if shown:
            assert out.splitlines() == shown, argv
