"""Every helper in src has a caller: no def or class that nothing names.
And every cache in src is bounded.

The package's source is parsed with ast.  Each top-level def or class,
and each method other than a dunder, must be named somewhere in src
outside its own definition (a call, an attribute, a reference) or be
exported through nonicindex.__all__.  Each object in a src module, or in
a class defined there, that has cache_info() has a finite maxsize, and
the certificate's mod-p table has a fixed size.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import nonicindex
from nonicindex import nonic

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


def _caches():
    """(qualified name, object) of each object in a src module, or in a
    class defined there, that has cache_info(): every lru_cache."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"nonicindex.{path.stem}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)):
                yield f"{path.stem}.{name}", obj
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr in vars(obj):
                    method = getattr(obj, attr)
                    if callable(getattr(method, "cache_info", None)):
                        yield f"{path.stem}.{name}.{attr}", method


def test_every_cache_in_src_is_bounded():
    # an unbounded cache grows for the life of the process
    caches = dict(_caches())
    assert {"gf.factor", "arith._ecm_plan", "engstrom.nu_lookup"} <= set(caches)
    unbounded = [name for name, cache in caches.items() if cache.cache_info().maxsize is None]
    assert not unbounded, unbounded
    # nonic keeps what it knows of F mod p in its mod-p table alone: it
    # defines no lru_cache (nu_lookup is engstrom's, imported)
    assert not [name for name, cache in caches.items() if cache.__module__ == nonic.__name__]
    # the certificate's mod-p table never evicts, so its size is fixed: one
    # row per prime p <= 97, and row p, once its first slot is read, holds
    # p^2 slots, one per (a mod p, b mod p), whatever is read after it
    assert tuple(nonic._ROWS) == nonic._CERT_PRIMES and len(nonic._ROWS) == 25
    for p in nonic._ROWS:
        for a in range(p):
            nonic._factor_degrees(p, a, (3 * a + 1) % p)
    assert tuple(nonic._ROWS) == nonic._CERT_PRIMES
    assert all(len(row) <= p * p for p, row in nonic._ROWS.items())
    assert sum(len(row) for row in nonic._ROWS.values()) == 65796
