"""Every helper in src has a caller: no def or class that nothing names.

The package's source is parsed with ast.  Each top-level def or class,
and each method other than a dunder, must be named somewhere in src
outside its own definition (a call, an attribute, a reference) or be
exported through nonicindex.__all__.
"""

import ast
from collections import Counter
from pathlib import Path

import nonicindex

SRC = Path(nonicindex.__file__).parent


def _definitions(tree):
    """(name, definition node) of each top-level def or class and each
    non-dunder method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _names(tree) -> Counter:
    """How often each name occurs in tree as a Name id or Attribute attr."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def test_every_definition_in_src_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "gf.py" in trees and "nonic.py" in trees
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    exported = set(nonicindex.__all__)
    unused = []
    for filename, tree in trees.items():
        for qualname, node in _definitions(tree):
            # a use inside the definition itself, such as recursion, is no caller
            if node.name not in exported and everywhere[node.name] == _names(node)[node.name]:
                unused.append(f"{filename}:{node.lineno} {qualname}")
    assert not unused, unused
