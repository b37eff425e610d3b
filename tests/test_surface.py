"""Every public module-level function and class in src/ofprobe has a use.

A name counts as used when it appears outside its own definition: in any
module of the package, in the benchmark harness (benchmarks/*.py) or as a
[project.scripts] entry point.  Tests do not count, so code that only
tests call fails here.
"""

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ofprobe"


def public_definitions(path):
    """(name, first line, last line) of each public top-level def/class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.name, node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def entry_points():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    return {target.split(":")[1] for target in scripts.values()}


def unused_names():
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for path in sorted(PACKAGE.glob("*.py"))}
    harness = "\n".join(path.read_text(encoding="utf-8")
                        for path in sorted((ROOT / "benchmarks").glob("*.py")))
    scripts = entry_points()
    unused = []
    for path, lines in sources.items():
        for name, first, last in public_definitions(path):
            word = re.compile(r"\b%s\b" % re.escape(name))
            elsewhere = [text for other, text in sources.items()
                         if other != path]
            elsewhere.append(lines[:first - 1] + lines[last:])
            if name in scripts or word.search(harness) or any(
                    word.search(line) for text in elsewhere for line in text):
                continue
            unused.append("%s.%s" % (path.stem, name))
    return unused


def test_every_public_name_has_a_use_outside_the_tests():
    assert unused_names() == []
