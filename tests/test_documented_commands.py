"""Every documented ``repro`` command line still parses.

The CI workflow, the README, ``docs/`` and the verify skill all quote
``python -m repro ...`` command lines (and back-ticked ``repro ...``
ones).  This test extracts each of them and feeds it to the CLI's own
parser, then checks the experiment / trace / scenario names it uses are
registered -- so a deleted subcommand, a dead flag or a renamed
measurement cannot stay documented, or gated on in CI.  Stdlib only.
"""

import argparse
import re
import shlex
from pathlib import Path

from repro.cli import EXPERIMENTS, TRACES, build_parser
from repro.scenarios.registry import scenario_names

REPO = Path(__file__).resolve().parent.parent
SOURCES = [
    REPO / ".github" / "workflows" / "ci.yml",
    REPO / "README.md",
    REPO / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((REPO / "docs").glob("*.md")),
]

COMMAND = re.compile(r"(?:python -m |`)repro ([^`\n]*)")
#: a line holding one of these is a template or a pipeline, not a command
TEMPLATE_MARKS = ("$", "<", "[", "{", "|", "...", "…")
SHELL_OPERATORS = {">", ">>", "&&", ";"}


def _documented_commands():
    """``(where, argv)`` for every literal command line in the sources."""
    for path in SOURCES:
        if not path.is_file():  # the skill file is optional in a checkout
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for match in COMMAND.finditer(line):
                text = match.group(1)
                if any(mark in text for mark in TEMPLATE_MARKS):
                    continue
                argv = shlex.split(text, comments=True)
                for index, token in enumerate(argv):
                    if token in SHELL_OPERATORS:
                        argv = argv[:index]
                        break
                yield f"{path.relative_to(REPO)}:{number}", argv


def _unregistered_names(args):
    """Lower-case names the parsed command uses that no registry knows."""
    if args.command == "run":
        names, known = args.names, EXPERIMENTS
    elif args.command == "trace":
        names, known = [args.name], TRACES
    elif args.command == "scenario" and args.scenario_command == "run":
        names, known = [args.name], scenario_names()
    else:
        return []
    return [
        name for name in names
        if name not in known and not name.isupper()  # NAME: a placeholder
        and not name.endswith(".json")  # a spec file path
    ]


def test_documented_command_lines_parse(monkeypatch):
    def refuse(self, message):
        raise ValueError(message)

    monkeypatch.setattr(argparse.ArgumentParser, "error", refuse)
    parser = build_parser()
    commands = list(_documented_commands())
    assert len(commands) >= 30, "the extraction pattern found too little"
    problems = []
    for where, argv in commands:
        try:
            args = parser.parse_args(argv)
        except ValueError as exc:
            if "are required" in str(exc):
                continue  # a mention of the subcommand, not a full line
            problems.append(f"{where}: repro {' '.join(argv)}: {exc}")
            continue
        for name in _unregistered_names(args):
            problems.append(f"{where}: {name!r} is not registered")
    assert not problems, "\n".join(problems)


def test_ci_bench_matrix_names_are_experiments():
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    matrix = re.search(r"^\s+name: \[([^\]]+)\]$", workflow, re.MULTILINE)
    assert matrix, "the bench job's matrix.name list moved"
    names = [name.strip() for name in matrix.group(1).split(",")]
    assert names and set(names) <= set(EXPERIMENTS)
