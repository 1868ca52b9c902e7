"""Byte-identity of CLI output: sha256 of stdout for a fixed set of commands.

The digests were recorded from the code before the line-table and
pair-contribution refactor, and the finite-parent and cotangent ones from the
code before the subgroup joins ran on the Cayley table; any change to
lattices, witnesses, positions or float formatting shows up here.  A change
meant to alter output must update these digests and say why.
"""

import hashlib
import json

import pytest

from isolat.cli import run_command

EXCEPTIONAL = ["1", "C2", "D2", "T", "O", "I", "SO3"]
AXIAL = ["1", "C2", "C4", "D2", "D4", "D8", "SO2", "O2", "SO3"]


def rot(axis, deg):
    return {"axis": list(axis), "angle_deg": deg}


FINITE_PARENTS = {
    "octa": (
        [rot((0, 0, 1), 90), rot((1, 1, 1), 120)],
        ["1", "C2", "C3", "C4", "D2", "D3", "D4", "T", "O"],
    ),
    "tetra": ([rot((0, 0, 1), 180), rot((1, 1, 1), 120)], ["1", "C2", "C3", "D2", "T"]),
}

GOLDEN = {
    ("lift", "exceptional"): "ff757af0a5aaecb7d697dc0385a8d23eeb1d3124d26667b8ad3a443cb63ebf18",
    ("requilibria", "exceptional"): (
        "8375991d2c854bf14a553bcd272530ce8f35ba2796e855f51cf89e290b806b77"
    ),
    ("lift", "axial"): "2f5c4c099cd1edfdd7df707735d3769990f79f22714a5dfaea2311ecf9dd3486",
    ("requilibria", "axial"): "0a8dedfb7dc7119510413faf3999052cdadcfb047ae7063d5582b1d6fadef2a9",
    ("lift", "octa"): "3b20b4da4fc48e6559e721c2a0b911e83987e2d7e3ad161b68b0126cfc1d271c",
    ("lift", "tetra"): "0fa781e246c44ddc0c4f2a98c027577abbf1d1f6938a0e2996f0a667f51040c4",
    ("lift --cotangent", "exceptional"): (
        "96069d99c7a7cf6b5385f8f37556a8a5c592c7893b596f24de0984e5b79b3b5d"
    ),
    ("adjoint", "D6"): "f35dbba0caceae236371a1ca456033a46dd728e199a8de948cd8d054be4f126c",
    ("adjoint", "O"): "542205903d262a1e4bcc10b78cd40915fa84b711f8a78060e894a7febd4add74",
    ("adjoint", "I"): "6c1806c5ac3c2b13f9685999d1da509d16154dcd19fe2ac82cc023a9d634af68",
}


def stdout_digest(capsys, argv) -> str:
    capsys.readouterr()
    assert run_command(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command", ["lift", "requilibria"])
@pytest.mark.parametrize("name,base", [("exceptional", EXCEPTIONAL), ("axial", AXIAL)])
def test_lattice_output_is_byte_identical(tmp_path, capsys, command, name, base):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"group": {"kind": "SO3"}, "base_lattice": base}))
    assert stdout_digest(capsys, [command, str(path)]) == GOLDEN[(command, name)]


@pytest.mark.parametrize("tag", ["D6", "O", "I"])
def test_adjoint_output_is_byte_identical(capsys, tag):
    assert stdout_digest(capsys, ["adjoint", tag]) == GOLDEN[("adjoint", tag)]


@pytest.mark.parametrize("name", sorted(FINITE_PARENTS))
def test_lift_in_a_finite_parent_is_byte_identical(tmp_path, capsys, name):
    generators, base = FINITE_PARENTS[name]
    path = tmp_path / f"{name}.json"
    doc = {"group": {"kind": "finite", "generators": generators}, "base_lattice": base}
    path.write_text(json.dumps(doc))
    assert stdout_digest(capsys, ["lift", str(path)]) == GOLDEN[("lift", name)]


def test_cotangent_lift_output_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "exceptional.json"
    path.write_text(json.dumps({"group": {"kind": "SO3"}, "base_lattice": EXCEPTIONAL}))
    digest = stdout_digest(capsys, ["lift", str(path), "--cotangent"])
    assert digest == GOLDEN[("lift --cotangent", "exceptional")]
