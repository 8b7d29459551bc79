"""Every command-line option is exercised by a test or by a README command.

An option of subcommand S counts as used when a file under tests/ other
than this one holds a list or tuple display whose first item is the
string S and one of whose items is the option, alone or as the head of
"--option=value" (an f-string counts by its constant head), or when a
command in a README ```sh block runs `multisent S` with it. The
subcommand and the option must share one display, so an option that two
subcommands register (predict --mode, preprocess --mode) needs a use
under each. -h/--help is argparse's own and is skipped.
"""

import argparse
import ast
import re
import shlex
from pathlib import Path

from multisent import cli

ROOT = Path(__file__).resolve().parent.parent


def registered_options() -> set[tuple[str, str]]:
    """(subcommand, option string) for every option build_parser registers."""
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {(name, option) for name, parser in subparsers.choices.items()
            for action in parser._actions for option in action.option_strings
            if option not in ("-h", "--help")}


def _string_items(node: ast.List | ast.Tuple) -> list[str]:
    """Each item's string (an f-string's constant head), or "" for any other item."""
    items = []
    for item in node.elts:
        if isinstance(item, ast.JoinedStr) and item.values:
            item = item.values[0]
        if isinstance(item, ast.Constant) and isinstance(item.value, str):
            items.append(item.value)
        else:
            items.append("")
    return items


def invocations_in_tests() -> list[list[str]]:
    """Argument lists in the test files: displays whose first item is a string."""
    found = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        if path.resolve() == Path(__file__).resolve():
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.List, ast.Tuple)) and node.elts:
                items = _string_items(node)
                if items[0]:
                    found.append(items)
    return found


def invocations_in_readme() -> list[list[str]]:
    """The words after `multisent` of each command in README's sh blocks."""
    found = []
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["multisent"]:
                found.append(words[1:])
    return found


def test_every_cli_option_is_exercised():
    options = registered_options()
    assert ("predict", "--model") in options
    used = set()
    for words in invocations_in_tests() + invocations_in_readme():
        for word in words[1:]:
            used.add((words[0], word.split("=", 1)[0]))
    assert sorted(f"{sub} {opt}" for sub, opt in options - used) == []
