"""The lift command's stored witness text is the text json.dumps would give.

_cmd_lift renders each witness once and stores the text on the witness
object.  Here its stdout is compared with a plain json.dumps of the whole
document, on a cold memo, on a warm one, and for finite parents after an
SO(3) lift whose witnesses compare equal to theirs but carry other floats.
"""

import json

import pytest

import isolat.cli
from isolat.catalog import ICOSA, OCTA, TETRA, canonical_rep
from isolat.cli import (
    _witness_text,
    lattice_to_json,
    parse_spec,
    run_command,
    subgroup_to_json,
    witness_to_json,
)
from isolat.lift import FiniteAmbient, _diagonal_witnesses, lifted_lattice
from isolat.poset import build_lattice


def rot(axis, deg):
    return {"axis": list(axis), "angle_deg": deg}


SO3 = {"kind": "SO3"}
BASES = {
    "all98": (
        SO3,
        ["1"]
        + [f"C{n}" for n in range(2, 49)]
        + [f"D{n}" for n in range(2, 49)]
        + ["SO2", "O2", "SO3"],
    ),
    "exceptional": (SO3, ["1", "C2", "D2", "T", "O", "I", "SO3"]),
    "axial": (SO3, ["1", "C2", "C4", "D2", "D4", "D8", "SO2", "O2", "SO3"]),
    "octa": (
        {"kind": "finite", "generators": [rot((0, 0, 1), 90), rot((1, 1, 1), 120)]},
        ["1", "C2", "C3", "C4", "D2", "D3", "D4", "T", "O"],
    ),
    "tetra": (
        {"kind": "finite", "generators": [rot((0, 0, 1), 180), rot((1, 1, 1), 120)]},
        ["1", "C2", "C3", "D2", "T"],
    ),
    "circle": ({"kind": "circle"}, ["1", "C2", "C4", "SO2"]),
}
FLAGS = [(), ("--cotangent",), ("--no-witnesses",)]


@pytest.fixture(autouse=True)
def fresh_witnesses():
    """New witness objects, so the first lift in a test renders every text."""
    _diagonal_witnesses.cache_clear()


def write(tmp_path, name):
    group, base = BASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"group": group, "base_lattice": base}))
    return path


def expected(path, flags):
    spec = parse_spec(path.read_text())
    result = lifted_lattice(spec.ambient, build_lattice(spec.base_tags))
    doc = {"bundle": "T*M" if "--cotangent" in flags else "TM"}
    doc.update(lattice_to_json(result.lifted))
    if "--no-witnesses" not in flags:
        doc["witnesses"] = [witness_to_json(w) for w in result.witnesses]
    return json.dumps(doc, indent=2) + "\n"


def lift_stdout(capsys, path, flags):
    capsys.readouterr()
    assert run_command(["lift", str(path), *flags]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("flags", FLAGS, ids=lambda f: " ".join(f) or "plain")
@pytest.mark.parametrize("name", sorted(BASES))
def test_lift_stdout_is_the_plain_json_dump(tmp_path, capsys, name, flags):
    path = write(tmp_path, name)
    want = expected(path, flags)
    assert lift_stdout(capsys, path, flags) == want  # cold memo
    assert lift_stdout(capsys, path, flags) == want  # warm memo


def test_warm_lift_renders_no_witness_again(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "exceptional")
    want = lift_stdout(capsys, path, ())
    calls = []
    monkeypatch.setattr(isolat.cli, "witness_to_json", lambda w: calls.append(w))
    assert lift_stdout(capsys, path, ()) == want
    assert lift_stdout(capsys, path, ("--cotangent",)).replace('"T*M"', '"TM"') == want
    assert calls == []


def test_finite_parents_after_an_so3_lift(tmp_path, capsys):
    parents = {name: write(tmp_path, name) for name in ("octa", "tetra")}
    before = {name: lift_stdout(capsys, p, ()) for name, p in parents.items()}
    lift_stdout(capsys, write(tmp_path, "exceptional"), ())
    for name, path in parents.items():
        assert lift_stdout(capsys, path, ()) == before[name] == expected(path, ())


@pytest.mark.parametrize("tag", [TETRA, OCTA, ICOSA], ids=lambda t: t.short())
def test_equal_witnesses_keep_their_own_bits(tag):
    so3 = next(w for w in _diagonal_witnesses(tag) if w.lifted_class == tag)
    parent = FiniteAmbient(canonical_rep(tag).group)
    (finite,) = lifted_lattice(parent, build_lattice([tag])).witnesses
    assert so3.embedding == canonical_rep(tag) and so3 == finite
    assert subgroup_to_json(so3.embedding) != subgroup_to_json(canonical_rep(tag))
    assert _witness_text(so3) != _witness_text(finite)
    assert _witness_text(finite) is _witness_text(finite)
    assert json.loads(_witness_text(finite)) == witness_to_json(finite)
