"""Every function, class, method and property under src/multisent is used somewhere.

A definition counts as used when src/, tests/ or perfbench/ refers to it
other than inside its own body, and one that only tests use is named in
TEST_ONLY with the reason it stays. A reference is a name, an attribute, an
import, or a string constant (dotted strings such as "EmbeddingTable.fingerprint"
count part by part, as perfbench's hooks name their targets). A class
member is reached through an attribute, so a bare name of the same
spelling (a parameter, say) does not count for it. Two things are not
uses: the package __init__ re-exports, and a string passed as a keyword
argument (a hypothesis label, say). Dunder methods are called by Python
itself and are skipped.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "perfbench")

# Definitions that nothing in src/ or perfbench/ uses, each with why it stays.
TEST_ONLY = {
    "nb_posterior": "the acceptance gate reads NB class posteriors, which prediction never needs",
    "touch": "IdAudit.touch lets the acceptance gate register a leak the audit must catch",
    "next_float": "SplitMix64.next_float draws the acceptance gate's seeded scales",
}


def _references(tree: ast.AST) -> tuple[Counter, Counter]:
    """(bare-name references, attribute references) in tree, by identifier."""
    names: Counter = Counter()
    attrs: Counter = Counter()
    keyword_values = {id(k.value) for k in ast.walk(tree) if isinstance(k, ast.keyword)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.asname or node.name] += 1
            attrs[node.name] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in keyword_values):
            for part in node.value.split("."):
                names[part] += 1
                attrs[part] += 1
    return names, attrs


def unreferenced(sources: dict[str, str], defining: set[str]) -> list[str]:
    """"path:line name" of each definition in the `defining` paths that nothing uses.

    sources maps a path to its Python text; a path ending in __init__.py
    is read for definitions only.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    names: Counter = Counter()
    attrs: Counter = Counter()
    for path, tree in trees.items():
        if not path.endswith("__init__.py"):
            n, a = _references(tree)
            names.update(n)
            attrs.update(a)
    unused = []
    for path in sorted(defining):
        tree = trees[path]
        members = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attrs = _references(node)
            uses = attrs[name] - own_attrs[name]
            if id(node) not in members:
                uses += names[name] - own_names[name]
            if uses <= 0:
                unused.append((path, node.lineno, name))
    return [f"{path}:{line} {name}" for path, line, name in sorted(unused)]


def _sources(dirs) -> dict[str, str]:
    return {
        p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
        for d in dirs for p in sorted((ROOT / d).rglob("*.py"))
    }


def _defining(sources: dict[str, str]) -> set[str]:
    defining = {p for p in sources if p.startswith("src/multisent/")}
    assert len(defining) > 10
    return defining


def test_every_definition_under_src_is_referenced():
    sources = _sources(DIRS)
    assert unreferenced(sources, _defining(sources)) == []


def test_only_the_listed_definitions_are_used_by_tests_alone():
    sources = _sources(("src", "perfbench"))
    flagged = unreferenced(sources, _defining(sources))
    assert sorted(entry.split()[1] for entry in flagged) == sorted(TEST_ONLY)


def test_check_flags_a_member_named_only_by_a_bare_name():
    sources = {
        "mod.py": (
            "class Params:\n"
            "    @property\n"
            "    def input_dim(self):\n"
            "        return self.input_dim\n"
            "    def used(self):\n"
            "        return 0\n"
            "def init(input_dim):\n"
            "    return input_dim\n"
            "def recurse():\n"
            "    return recurse()\n"
        ),
        "__init__.py": "from .mod import recurse\n",
        "use.py": "from mod import Params, init\nParams().used()\ndraw(label='recurse')\n",
    }
    assert unreferenced(sources, {"mod.py"}) == ["mod.py:3 input_dim", "mod.py:9 recurse"]
