"""The README's Library snippet runs as written and shows what it says.

Each top-level statement of the snippet is executed in order; an expression
statement is evaluated instead, and its repr is compared with the comment on
its last line.  A renamed or moved import fails here, not in a reader's
session.
"""

import ast
from pathlib import Path

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
