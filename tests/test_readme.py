"""The README's examples run and print what it shows."""

import ast
import re
import shlex
from enum import Enum
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


def test_readme_command_lines_run_as_shown(capsys):
    examples = _examples()
    assert len(examples) >= 8 and any(shown for _, shown in examples)
    for argv, shown in examples:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if shown:
            assert out.splitlines() == shown, argv


def test_readme_library_block_runs_as_shown():
    # Each statement runs in turn.  A trailing comment that parses as an
    # expression is the value shown: its repr, or an enum member's name; any
    # other comment is prose, and its statement is only run.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n.*?```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    shown = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip().removeprefix("#").strip()
        try:
            ast.parse(comment, mode="eval")
        except SyntaxError:
            continue
        assert comment == (value.name if isinstance(value, Enum) else repr(value)), ast.unparse(stmt)
        shown += 1
    assert shown >= 5
