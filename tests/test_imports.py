"""Every name a module of isolat imports is used in that module, every
private module-level name it defines is read somewhere in the package, and
importing a module loads only the isolat modules it imports.

Stdlib ast scans: the names bound by import statements against the names
the module reads, and the module-level _names each module defines
(functions, classes and assignments) against the names and attributes read
anywhere in isolat.  Fresh interpreters report which isolat modules an
import loads: the package's __init__.py imports none, so each module pulls
in only its own imports.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "isolat"
MODULES = sorted(SRC.glob("*.py"))


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


def modules_loaded_by(statement: str) -> set[str]:
    """The isolat.* modules a fresh interpreter holds after the statement."""
    # -S: no site hooks (.pth files) can import anything on their own
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); {statement}; "
        "print(*sorted(m for m in sys.modules if m.startswith('isolat.')))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_importing_the_package_loads_no_module():
    assert modules_loaded_by("import isolat") == set()


def test_importing_the_oracle_loads_no_lattice_engine_module():
    # the run-time side of the ast test above: the package init adds nothing
    assert modules_loaded_by("import isolat.oracle") == {
        "isolat.oracle", "isolat.catalog", "isolat.errors", "isolat.rotation"
    }


def dict_reads(source: str) -> list[str]:
    """Where a module reads an instance's __dict__ for stored data.

    A read is X.__dict__.get(...) or .setdefault(...), a test key in
    X.__dict__, or a load of X.__dict__[...].  Writes (a value set at
    construction) are not reads.  Returns "function:line" for each read
    outside a function named stored.
    """
    def is_dict(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "__dict__"

    found = []

    def visit(node, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        read = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "setdefault")
            and is_dict(node.func.value)
        ) or (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
            and any(is_dict(c) for c in node.comparators)
        ) or (
            isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and is_dict(node.value)
        )
        if read and func != "stored":
            found.append(f"{func}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def test_the_scan_sees_a_hand_rolled_store():
    src = (
        "def stored(o, k, b):\n    v = o.__dict__.get(k)\n    o.__dict__[k] = v\n"
        "def a(F):\n    F.__dict__['x'] = 1\n    return F.__dict__.get('t')\n"
        "def b(F):\n    return 't' not in F.__dict__ or F.__dict__['t']\n"
    )
    assert dict_reads(src) == ["a:6", "b:8", "b:8"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_stored_reads_a_dict_for_stored_data(path):
    # derived data is kept through rotation.stored or a cached_property
    assert dict_reads(path.read_text(encoding="utf-8")) == []


# Where __dict__ may be written: stored, the two constructors that fill the
# fields, and a __post_init__ that canonicalises one of its class's fields.
DICT_WRITERS = ("stored", "Value.__init__", "Rotation.__init__")
DICT_MUTATORS = ("update", "pop", "popitem", "clear", "__setitem__", "__delitem__")


def dict_writes(source: str) -> list[str]:
    """Where a module writes an instance's __dict__ by hand.

    A write is a store into or a deletion from X.__dict__[...], a mutating
    method of X.__dict__ (update, pop and the like), or X.__dict__ bound to
    a name to be written through.  Returns "qualified.name:line" for each
    write outside DICT_WRITERS and the field writes of a __post_init__.
    """
    def is_dict(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "__dict__"

    found = []

    def visit(node, qual: str, fields: set) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{qual}.{node.name}" if qual else node.name
        if isinstance(node, ast.ClassDef):
            fields = {s.target.id for s in node.body if isinstance(s, ast.AnnAssign)}
        field_write = False
        if isinstance(node, ast.Subscript) and is_dict(node.value):
            write = isinstance(node.ctx, (ast.Store, ast.Del))
            key = node.slice.value if isinstance(node.slice, ast.Constant) else None
            field_write = write and isinstance(node.ctx, ast.Store) and key in fields
        elif isinstance(node, ast.Attribute) and is_dict(node.value):
            write = node.attr in DICT_MUTATORS
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and node.value is not None:
            values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
            write = any(map(is_dict, values))
        else:
            write = False
        if write and qual not in DICT_WRITERS and not (
            field_write and qual.endswith(".__post_init__")
        ):
            found.append(f"{qual}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, qual, fields)

    visit(ast.parse(source), "", set())
    return found


def test_the_scan_sees_a_hand_written_store():
    src = (
        "def stored(o, k, b):\n    o.__dict__[k] = b(o)\n"
        "class Value:\n    x: int\n    def __init__(self):\n        d = self.__dict__\n"
        "    def __post_init__(self):\n        self.__dict__['x'] = 1\n"
        "        self.__dict__['lines'] = 2\n"
        "def a(F):\n    F.__dict__['lines'] = {}\n    F.__dict__.update(t=1)\n"
        "def b(F):\n    d = F.__dict__\n    del F.__dict__['t']\n"
    )
    assert dict_writes(src) == ["Value.__post_init__:9", "a:11", "a:12", "b:14", "b:15"]
    assert dict_reads(src) == []  # the read scan sees none of them


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_stored_writes_a_dict_for_derived_data(path):
    # derived data is kept through rotation.stored or a cached_property
    assert dict_writes(path.read_text(encoding="utf-8")) == []


def ambient_type_tests(source: str) -> list[str]:
    """Where a module tests an ambient's type outside ambient_class.

    An ambient is the name G or an attribute .ambient; a test is an
    isinstance call on one.  Returns "function:line" for each.
    """
    def is_ambient(node) -> bool:
        return (isinstance(node, ast.Name) and node.id == "G") or (
            isinstance(node, ast.Attribute) and node.attr == "ambient"
        )

    found = []

    def visit(node, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and node.args
            and is_ambient(node.args[0])
            and func != "ambient_class"
        ):
            found.append(f"{func}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def test_the_scan_sees_an_ambient_type_test():
    src = (
        "def ambient_class(G):\n    return isinstance(G, O2)\n"
        "def a(G, S):\n    return isinstance(S, F) or isinstance(G, FullSub)\n"
        "def b(spec):\n    return isinstance(spec.ambient, F)\n"
        "isinstance(G, F)\n"
    )
    assert ambient_type_tests(src) == ["a:4", "b:6", "<module>:7"]


@pytest.mark.parametrize("name", ["lift.py", "momentum.py", "cli.py"])
def test_only_ambient_class_tests_an_ambient_type(name):
    # the ambient's class decides its kind; the lift, momentum and cli code
    # read that tag
    assert ambient_type_tests((SRC / name).read_text(encoding="utf-8")) == []


def bit_layout_uses(source: str) -> list[str]:
    """Where a module shifts bits or reads a private name of poset.

    A shift is a << expression or augmented assignment; a private read is a
    _name imported from poset or taken as an attribute of the name poset.
    Returns "what:line" for each, by line.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.LShift):
            found.append((node.lineno, "<<"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "poset":
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "poset"
            and node.attr.startswith("_")
        ):
            found.append((node.lineno, node.attr))
    return [f"{what}:{line}" for line, what in sorted(found)]


def test_the_scan_sees_the_bit_layout():
    src = (
        "from .poset import _lattice, build_lattice\n"
        "from . import poset\n"
        "def f(m, i):\n    m |= 1 << i\n    m <<= 2\n    return poset._down_sets(m)\n"
        "x = 1 >> 2\n"
    )
    assert bit_layout_uses(src) == ["_lattice:1", "<<:4", "<<:5", "_down_sets:6"]


@pytest.mark.parametrize("name", ["catalog.py", "lift.py", "momentum.py", "cli.py"])
def test_the_bit_layout_stays_inside_poset(name):
    # class sets are sets everywhere but poset, whose lattices keep their
    # down-sets as bits over their own classes
    assert bit_layout_uses((SRC / name).read_text(encoding="utf-8")) == []
