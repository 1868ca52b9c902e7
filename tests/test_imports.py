"""Every name a module of isolat imports is used in that module, and every
private module-level name it defines is read somewhere in the package.

Stdlib ast scans: the names bound by import statements against the names
the module reads (__init__.py is left out, since it imports to re-export),
and the module-level _names each module defines (functions, classes and
assignments) against the names and attributes read anywhere in isolat.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "isolat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_sees_an_unused_import():
    src = "from __future__ import annotations\nimport math\nfrom os import path, sep\nsep\n"
    assert unused_imports(src) == ["math", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> list[str]:
    """Module-level _names (not __dunders__) bound by def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def names_read(sources) -> set[str]:
    """Every name loaded and every attribute taken in the given sources."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_names(sources: dict) -> list[str]:
    read = names_read(sources.values())
    return [
        f"{module}:{name}"
        for module, source in sources.items()
        for name in private_definitions(source)
        if name not in read
    ]


def test_the_scan_sees_an_unread_private_helper():
    sources = {
        "a": "_CAP = 3\n_KINDS: tuple = ()\n__all__ = []\ndef _used(): return _CAP\n"
        "def _dead(): pass\nclass _Gone: pass\n",
        "b": "from .a import _used\nimport a\n_used()\na._KINDS\n",
    }
    assert unread_private_names(sources) == ["a:_dead", "a:_Gone"]


def test_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def package_imports(source: str) -> set[str]:
    """The isolat modules a module imports by relative import."""
    return {
        node.module
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_the_oracle_imports_no_lattice_engine_module():
    # the oracle checks the engine, so it shares only the catalog of subgroups
    # with it: no lift, adjoint, poset or momentum code
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"catalog", "errors", "rotation"}
