"""The README and the demos name only commands and flags the CLI has: every
``nullshaper`` command in README's bash blocks and in the demos' printed
hints parses, and README's flag list for each subcommand is that
subcommand's options, in order. A flag added or removed without its docs
fails here."""

import argparse
import ast
import re
import shlex
from pathlib import Path

import pytest

from nullshaper import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def commands(text):
    """The argument lists, without the program name, of the ``nullshaper``
    command lines in ``text``, with backslash continuations joined."""
    lines = re.sub(r"\\\n", " ", text).splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.strip().startswith("nullshaper ")]


def string_constants(demo):
    """Every string constant of the demo's source; adjacent literals, such
    as a printed hint spread over several lines, are one constant."""
    tree = ast.parse(demo.read_text())
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


README_COMMANDS = [argv for block in re.findall(r"```bash\n(.*?)```", README, re.S)
                   for argv in commands(block)]
DEMO_COMMANDS = [(demo.name, argv) for demo in DEMOS
                 for text in string_constants(demo) for argv in commands(text)]


def subparsers():
    [action] = [action for action in cli._build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    return action.choices


def test_readme_shows_every_subcommand():
    assert sorted({argv[0] for argv in README_COMMANDS}) == sorted(subparsers())


def test_every_demo_prints_a_command():
    assert {name for name, _ in DEMO_COMMANDS} == {demo.name for demo in DEMOS}


@pytest.mark.parametrize("argv", README_COMMANDS + [argv for _, argv in DEMO_COMMANDS],
                         ids=[argv[0] for argv in README_COMMANDS]
                         + [name for name, _ in DEMO_COMMANDS])
def test_documented_command_parses(argv):
    cli._build_parser().parse_args(argv)


def test_readme_flag_lists_are_the_subcommands_options():
    # one "- `name`: `--flag`, `--flag value`, ... (note)" line per subcommand
    listed = {name: [token.split()[0] for token in re.findall(r"`([^`]+)`", flags.split(" (")[0])]
              for name, flags in re.findall(r"^- `([a-z]+)`: (.*)$", README, re.M)}
    options = {name: [option for action in parser._actions for option in action.option_strings
                      if option not in ("-h", "--help")]
               for name, parser in subparsers().items()}
    assert listed == options
