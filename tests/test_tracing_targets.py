"""Every isolat name the benchmark's tracer wraps still exists.

bench/tracing.py replaces the functions in its TARGETS table, and reads a
few more names while it installs: lift.SO3Ambient,
catalog.canonical_rep.cache_info, rotation.FiniteRotationGroup.from_elements
and the cli's own json module.  A traced run fails on the first one that is
gone.  tracing.py is executed from its source, so no bytecode cache is
written in bench/.
"""

import importlib
import json
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def bench_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def isolat_module(home: str) -> types.ModuleType:
    return importlib.import_module("isolat." + home)


def test_every_traced_name_resolves_in_its_home_module():
    tracing = bench_tracing()
    assert tracing.TARGETS
    for home, attr, _, mode in tracing.TARGETS:
        assert callable(getattr(isolat_module(home), attr, None)), f"isolat.{home}.{attr}"
        assert mode in (tracing.SPAN, tracing.COUNT)


def test_the_names_read_while_installing_resolve():
    assert isinstance(isolat_module("lift").SO3Ambient, type)
    assert callable(isolat_module("catalog").canonical_rep.cache_info)
    frg = isolat_module("rotation").FiniteRotationGroup
    assert isinstance(frg.__dict__["from_elements"], classmethod)
    assert callable(isolat_module("cli").json.dumps)


def test_the_so3_ambient_alias_is_the_type_of_the_so3_ambient():
    # the tracer's pair hook counts lifts whose ambient is a lift.SO3Ambient:
    # the SO(3) ambient a spec builds is one, the circle and finite ones not
    cli, so3_type = isolat_module("cli"), isolat_module("lift").SO3Ambient
    generators = [{"axis": [0, 0, 1], "angle_deg": 90}]
    for group, is_so3 in (
        ({"kind": "SO3"}, True),
        ({"kind": "circle"}, False),
        ({"kind": "finite", "generators": generators}, False),
    ):
        spec = cli.parse_spec(json.dumps({"group": group, "base_lattice": ["1"]}))
        assert isinstance(spec.ambient, so3_type) is is_so3, group["kind"]
