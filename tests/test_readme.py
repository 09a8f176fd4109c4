"""The README's examples, run: each `$ unicusp ...` line of its command-line
block through `cli.main`, compared with the output printed under it, and
its Python API block, checked against the values its comments state."""

import ast
import shlex
from pathlib import Path

import pytest

from unicusp.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first fenced block of one language under a level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def _sessions() -> list[tuple[list[str], str]]:
    """(argv, expected stdout) for each command of the command-line block."""
    sessions = []
    for chunk in _block("Command line", "text").split("\n\n"):
        command, *output = chunk.split("\n")
        assert command.startswith("$ unicusp "), command
        sessions.append((shlex.split(command)[2:], "\n".join(output) + "\n"))
    return sessions


SESSIONS = _sessions()


@pytest.mark.parametrize("argv, expected", SESSIONS, ids=[" ".join(a) for a, _ in SESSIONS])
def test_readme_command_line_example(capsys, argv, expected):
    code = main(argv)
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == expected


def test_readme_python_api_example():
    source = _block("Python API", "python")
    namespace: dict = {}
    exec(source, namespace)
    checked = []
    for line in source.splitlines():
        expr, sep, comment = line.partition("#")
        if not sep or not expr.strip():
            continue
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue  # prose, not a value
        assert eval(expr.strip(), namespace) == want, line
        checked.append(comment.strip())
    assert checked == ["(2, 2)", "2", "6"]
