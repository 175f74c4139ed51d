"""The README's command-line examples, run as written.

Each `$ ennola ...` line in a shell block of the README's "Command line"
section is run in process, with the user cache directory moved to a
fresh temporary one.  It must exit 0, and print exactly the lines shown
under it, up to the next blank line, where a line `...` stands for any
number of lines.  An example that shows no output is checked for its
exit code only."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from ennola.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_examples() -> list[tuple[str, list[str]]]:
    """(command, output lines shown) for each example of the section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples: list[tuple[str, list[str]]] = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith("$ ennola "):
                shown = []
                examples.append((line[2:], shown))
            elif not line.strip():
                shown = None
            elif shown is not None:
                shown.append(line)
    return examples


def output_matches(shown: list[str], out: str) -> bool:
    pattern = "".join("(?:.*\n)*?" if line == "..." else re.escape(line) + "\n"
                      for line in shown)
    return re.fullmatch(pattern, out) is not None


EXAMPLES = command_line_examples()


def test_the_section_has_examples_with_output():
    assert len(EXAMPLES) >= 6
    assert any(command.startswith("ennola verify") and shown for command, shown in EXAMPLES)


def test_an_ellipsis_stands_for_any_lines():
    assert output_matches(["a", "...", "d"], "a\nb\nc\nd\n")
    assert output_matches(["a", "...", "d"], "a\nd\n")
    assert not output_matches(["a", "...", "d"], "a\nb\n")
    assert not output_matches(["a"], "a\nb\n")


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example(capsys, monkeypatch, tmp_path, command, shown):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    rc = main(shlex.split(command, comments=True)[1:])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    if shown:
        assert output_matches(shown, out), out
