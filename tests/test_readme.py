"""The README's Library snippet runs as written and shows what it says.

Each top-level statement of the snippet is executed in order; an expression
statement is evaluated instead, and its repr is compared with the comment on
its last line.  A renamed or moved import fails here, not in a reader's
session.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_library_snippet_shows_its_commented_values():
    source = library_snippet()
    lines = source.splitlines()
    namespace: dict = {}
    shown = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
            shown.append((repr(value), comment))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert shown == [("['1', 'SO2', 'SO3']",) * 2, ("True",) * 2]


# ---------------------------------------------------------------------------
# Every cache and every stored key is listed under "Stored values"

SRC = README.parent / "src" / "isolat"


def stored_values_section() -> str:
    return README.read_text(encoding="utf-8").split("\n### Stored values\n", 1)[1].split("\n## ", 1)[0]


def key_strings(node) -> list[str]:
    """The strings a key expression can be: a string, or a conditional of such."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        body, orelse = key_strings(node.body), key_strings(node.orelse)
        return body + orelse if body and orelse else []
    return []


def memo_names(source: str) -> set[str]:
    """The functools.lru_cache'd functions of a module and the keys of its stored(...) calls.

    A key is a key_strings expression, or a name the calling function assigns
    one to; any other key is returned as "<key ...>", which no README names.
    """
    names = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for d in func.decorator_list:
            d = d.func if isinstance(d, ast.Call) else d
            if getattr(d, "id", None) == "lru_cache" or getattr(d, "attr", None) == "lru_cache":
                names.add(func.name)
        assigned = {
            t.id: node.value
            for node in ast.walk(func) if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)
        }
        for call in ast.walk(func):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "stored":
                key = call.args[1]
                key = assigned.get(key.id, key) if isinstance(key, ast.Name) else key
                names.update(key_strings(key) or [f"<key {ast.unparse(call.args[1])}>"])
    return names


def test_the_scan_sees_every_cache_and_stored_key():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(t):\n    return t\n"
        "@functools.lru_cache\ndef b():\n    return 1\n"
        "def c(F):\n    return stored(F, '_x', lambda G: stored(G, 'y', len))\n"
        "def d(F, so3):\n    key = '_y' if so3 else '_z'\n    return stored(F, key, len)\n"
        "def e(F, k):\n    return stored(F, k, len)\n"
        "def f(F, k):\n    return stored(F, '_' + k, len)\n"
    )
    assert memo_names(source) == {"a", "b", "_x", "y", "_y", "_z", "<key k>", "<key '_' + k>"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_and_stored_key_is_named_under_stored_values(path):
    section = stored_values_section()
    named = set(re.findall(r"`(?:[\w.]*\.)?(\w+)[`(]", section))
    assert memo_names(path.read_text(encoding="utf-8")) - named == set()
