"""Every ``silo-repro`` command the docs show must still parse.

README.md, EXPERIMENTS.md and the ``cli`` module docstring are the
places a reader copies commands from.  Each ``silo-repro ...`` (or
``python -m repro.harness ...``) command in them is parsed with the
real argument parsers — nothing runs — so a doc that names a removed
command or flag fails here instead of on a reader's terminal.
"""

from __future__ import annotations

import os
import re
import shlex
from typing import List, Tuple

import pytest

from repro.harness import cli

REPO = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
DOCS = ("README.md", "EXPERIMENTS.md")

#: The CLI's two spellings; ``python -m repro.harness.<module>`` names
#: a different program and is not matched.
_PROGRAM = re.compile(r"(?:silo-repro|python -m repro\.harness)(?![\w.-])")
_FENCE = re.compile(r"^\s*```")
_INLINE = re.compile(r"`([^`]+)`")


def _commands_in_block(lines: List[str]) -> List[str]:
    """Commands in a code block: one per (continuation-joined) line,
    everything after the program name."""
    joined = "\n".join(lines).replace("\\\n", " ")
    commands = []
    for line in joined.splitlines():
        match = _PROGRAM.search(line)
        if match:
            commands.append(line[match.end():])
    return commands


def _commands_in_markdown(text: str) -> List[str]:
    commands: List[str] = []
    prose: List[str] = []
    block: List[str] = []
    in_block = False
    for line in text.splitlines():
        if _FENCE.match(line):
            if in_block:
                commands += _commands_in_block(block)
                block = []
            in_block = not in_block
        elif in_block:
            block.append(line)
        else:
            prose.append(line)
    # Inline code spans may wrap across a line break.
    for span in _INLINE.findall("\n".join(prose)):
        match = _PROGRAM.match(span.strip())
        if match:
            commands.append(span.strip()[match.end():])
    return commands


def _documented_commands() -> List[Tuple[str, str]]:
    found = []
    for name in DOCS:
        with open(os.path.join(REPO, name)) as handle:
            found += [(name, c) for c in _commands_in_markdown(handle.read())]
    # The docstring's commands are its indented example block.
    examples = [line for line in cli.__doc__.splitlines() if line[:4] == "    "]
    found += [("cli docstring", c) for c in _commands_in_block(examples)]
    return found


def _parse(command: str) -> None:
    argv = shlex.split(command, comments=True)
    if argv[:1] == ["exp"]:
        cli.build_exp_parser().parse_args(argv[1:])
    else:
        cli.build_parser().parse_args(argv)


COMMANDS = _documented_commands()


def test_the_docs_show_commands():
    sources = {source for source, _ in COMMANDS}
    assert sources == {"README.md", "EXPERIMENTS.md", "cli docstring"}
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize(
    "source,command", COMMANDS, ids=[f"{s}:{c.strip()}" for s, c in COMMANDS]
)
def test_documented_command_parses(source, command):
    try:
        _parse(command)
    except SystemExit as exc:
        pytest.fail(f"{source}: 'silo-repro{command}' does not parse ({exc})")

