import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isolat.cli import (
    EXIT_CLOSED_STDOUT,
    ProblemSpec,
    lattice_to_dot,
    lattice_to_json,
    parse_spec,
    run_command,
    _READ_SIZE,
    _read_spec_file,
)
from isolat.errors import GroupTooLarge, NoUniqueMinimum, SchemaError, ValidationError
from isolat.catalog import CIRCLE, FULL, N_CAP, canonical_rep, is_subconjugate, parse_tag
from isolat.poset import build_lattice
from isolat.rotation import FiniteRotationGroup


def spec_text(doc):
    return json.dumps(doc)


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(spec_text(doc))
    return str(p)


SO3_SPEC = {"group": {"kind": "SO3"}, "base_lattice": ["SO2", "SO3"]}
CIRCLE_SPEC = {"group": {"kind": "circle"}, "base_lattice": ["C2", "C4", "SO2"]}
TETRA_SPEC = {
    "group": {
        "kind": "finite",
        "generators": [
            {"axis": [0, 0, 1], "angle_deg": 180},
            {"axis": [1, 1, 1], "angle_deg": 120},
        ],
    },
    "base_lattice": ["1", "C2", "C3", "T"],
}


def finite_spec(*generators):
    return {"group": {"kind": "finite", "generators": list(generators)}, "base_lattice": ["1"]}


# ---------------------------------------------------------------------------
# Spec parsing


def test_parse_so3_spec():
    spec = parse_spec(spec_text(SO3_SPEC))
    assert spec.ambient is canonical_rep(FULL)
    assert [t.short() for t in spec.base.classes] == ["SO2", "SO3"]
    assert spec.action is None


def test_parse_circle_spec():
    spec = parse_spec(spec_text(CIRCLE_SPEC))
    assert spec.ambient is canonical_rep(CIRCLE)


def test_parse_finite_spec_closes_generators():
    spec = parse_spec(spec_text(TETRA_SPEC))
    assert isinstance(spec.ambient, FiniteRotationGroup)
    assert len(spec.ambient) == 12


def test_parse_spec_with_order_and_action():
    doc = dict(SO3_SPEC)
    doc["order"] = [["SO2", "SO3"]]
    doc["action"] = "SO3_on_R3"
    spec = parse_spec(spec_text(doc))
    assert spec.base is build_lattice([parse_tag("SO2"), parse_tag("SO3")])
    assert spec.action.name == "SO3_on_R3" and spec.action.ambient is spec.ambient


@pytest.mark.parametrize(
    "doc,path",
    [
        ("not json {", ""),
        ('["list"]', ""),
        ({"group": {"kind": "SO3"}, "base_lattice": ["SO3"], "bogus": 1}, "bogus"),
        ({"base_lattice": ["SO3"]}, "group"),
        ({"group": {"kind": "U2"}, "base_lattice": ["SO3"]}, "group.kind"),
        ({"group": {"kind": "finite"}, "base_lattice": ["1"]}, "group.generators"),
        (
            {
                "group": {
                    "kind": "finite",
                    "generators": [{"axis": [0, 0, 1], "angle_deg": 180}, {"axis": [0, 0]}],
                },
                "base_lattice": ["1"],
            },
            "group.generators[1]",
        ),
        (
            {"group": {"kind": "SO3", "generators": []}, "base_lattice": ["SO3"]},
            "group.generators",
        ),
        ({"group": {"kind": "SO3", "color": 1}, "base_lattice": ["SO3"]}, "group"),
        ({"group": {"kind": "SO3"}}, "base_lattice"),
        ({"group": {"kind": "SO3"}, "base_lattice": []}, "base_lattice"),
        ({"group": {"kind": "SO3"}, "base_lattice": [7]}, "base_lattice[0]"),
        ({"group": {"kind": "SO3"}, "base_lattice": ["SO3"], "order": 3}, "order"),
        (
            {"group": {"kind": "SO3"}, "base_lattice": ["SO3"], "order": [["SO3"]]},
            "order[0]",
        ),
        ({"group": {"kind": "SO3"}, "base_lattice": ["SO3"], "action": 4}, "action"),
        (finite_spec({"axis": [math.nan, 0, 1], "angle_deg": 90}), "group.generators[0]"),
        (finite_spec({"axis": [0, math.inf, 1], "angle_deg": 90}), "group.generators[0]"),
        (finite_spec({"axis": [0, 0, 1], "angle_deg": math.nan}), "group.generators[0]"),
        (finite_spec({"axis": [0, 0, 1], "angle_deg": -math.inf}), "group.generators[0]"),
        (finite_spec({"axis": [10**400, 0, 1], "angle_deg": 90}), "group.generators[0]"),
        (finite_spec({"axis": [0, 0, 1], "angle_deg": 90, "x": 1}), "group.generators[0]"),
    ],
)
def test_schema_errors(doc, path):
    text = doc if isinstance(doc, str) else spec_text(doc)
    with pytest.raises(SchemaError) as e:
        parse_spec(text)
    assert e.value.path == path


@pytest.mark.parametrize(
    "doc,path",
    [
        ({"group": {"kind": "SO3"}, "base_lattice": ["Q5"]}, "base_lattice[0]"),
        ({"group": {"kind": "SO3"}, "base_lattice": ["SO2", "SO2"]}, "base_lattice[1]"),
        ({"group": {"kind": "circle"}, "base_lattice": ["D4"]}, "base_lattice[0]"),
        (
            {"group": {"kind": "SO3"}, "base_lattice": ["SO2", "SO3"], "order": []},
            "order",
        ),
        (
            {
                "group": {"kind": "SO3"},
                "base_lattice": ["SO2", "SO3"],
                "order": [["SO2", "SO3"], ["SO3", "SO2"]],
            },
            "order",
        ),
        (
            {
                "group": {"kind": "SO3"},
                "base_lattice": ["SO2", "SO3"],
                "order": [["SO2", "SO3"], ["C2", "SO3"]],
            },
            "order[1]",
        ),
        (
            {"group": {"kind": "SO3"}, "base_lattice": ["SO3"], "action": "Nope_on_X"},
            "action",
        ),
        (
            {"group": {"kind": "circle"}, "base_lattice": ["SO2"], "action": "SO3_on_R3"},
            "action",
        ),
        (
            {"group": {"kind": "SO3"}, "base_lattice": ["C2", "SO3"], "order": [["C2", "X9"]]},
            "order[0]",
        ),
    ],
)
def test_validation_errors(doc, path):
    with pytest.raises(ValidationError) as e:
        parse_spec(spec_text(doc))
    assert e.value.path == path


def test_oversized_closure_names_the_generators():
    doc = finite_spec({"axis": [0, 0, 1], "angle_deg": 1})
    with pytest.raises(GroupTooLarge) as e:
        parse_spec(spec_text(doc))
    assert e.value.path == "group.generators"


def test_order_must_be_complete():
    doc = {
        "group": {"kind": "SO3"},
        "base_lattice": ["C2", "C4", "SO2"],
        "order": [["C2", "C4"], ["C4", "SO2"]],
    }
    with pytest.raises(ValidationError) as e:
        parse_spec(spec_text(doc))
    assert "missing the pair C2 < SO2" in str(e.value)


@pytest.mark.parametrize(
    "order,message",
    [
        # a missing pair is reported before a false one, each the first in tag_sort_key order
        ([["C4", "C2"], ["C2", "SO2"], ["C4", "SO2"]], "declared order is missing the pair C2 < C4"),
        (
            [["C2", "C4"], ["C2", "SO2"], ["C4", "SO2"], ["SO2", "C4"], ["C4", "C2"]],
            "declared pair C4 < C2 does not hold",
        ),
    ],
)
def test_order_errors_name_the_first_wrong_pair(order, message):
    doc = {"group": {"kind": "SO3"}, "base_lattice": ["SO2", "C4", "C2"], "order": order}
    with pytest.raises(ValidationError) as e:
        parse_spec(spec_text(doc))
    assert str(e.value) == message and e.value.path == "order"


# ---------------------------------------------------------------------------
# Rendering helpers


def test_lattice_to_json_shape():
    L = build_lattice([parse_tag(s) for s in ["1", "C2", "D2"]])
    out = lattice_to_json(L)
    assert out["classes"] == ["1", "C2", "D2"]
    assert out["hasse"] == [[0, 1], [1, 2]]


def test_lattice_to_dot():
    L = build_lattice([parse_tag(s) for s in ["SO2", "SO3"]])
    dot = lattice_to_dot(L)
    assert dot.startswith("digraph isotropy {")
    assert "rankdir=BT;" in dot
    assert 'n0 [label="SO(2)"];' in dot
    assert "n0 -> n1;" in dot
    assert dot.endswith("}\n")


# ---------------------------------------------------------------------------
# Commands


def run(capsys, *argv):
    code = run_command(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_usage_paths(capsys):
    code, _, err = run(capsys)
    assert code == 1 and "usage" in err
    code, out, _ = run(capsys, "-h")
    assert code == 0 and "usage" in out
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and "unknown command" in err


def test_lift_command(tmp_path, capsys):
    path = write_spec(tmp_path, SO3_SPEC)
    code, out, err = run(capsys, "lift", path)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["bundle"] == "TM"
    assert doc["classes"] == ["1", "SO2", "SO3"]
    assert doc["hasse"] == [[0, 1], [1, 2]]
    assert [w["class"] for w in doc["witnesses"]] == ["1", "SO2", "SO3"]
    assert all({"h1", "h2", "k", "embedding", "k_rep"} <= set(w) for w in doc["witnesses"])


def test_lift_cotangent_and_no_witnesses(tmp_path, capsys):
    path = write_spec(tmp_path, SO3_SPEC)
    code, out, _ = run(capsys, "lift", path, "--cotangent", "--no-witnesses")
    assert code == 0
    doc = json.loads(out)
    assert doc["bundle"] == "T*M"
    assert "witnesses" not in doc


def test_lift_is_byte_deterministic(tmp_path, capsys):
    path = write_spec(tmp_path, TETRA_SPEC)
    _, out1, _ = run(capsys, "lift", path)
    _, out2, _ = run(capsys, "lift", path)
    assert out1 == out2


def test_lift_finite_fast_path(tmp_path, capsys):
    path = write_spec(tmp_path, TETRA_SPEC)
    code, out, _ = run(capsys, "lift", path)
    assert code == 0
    assert json.loads(out)["classes"] == ["1", "C2", "C3", "T"]


def test_lift_writes_dot(tmp_path, capsys):
    path = write_spec(tmp_path, SO3_SPEC)
    dot_path = tmp_path / "out.dot"
    code, _, _ = run(capsys, "lift", path, "--dot", str(dot_path))
    assert code == 0
    text = dot_path.read_text()
    assert "digraph isotropy {" in text and "n1 -> n2;" in text


@pytest.mark.parametrize("command", ["lift", "requilibria"])
def test_dot_keeps_stdout_unchanged(tmp_path, capsys, command):
    path = write_spec(tmp_path, SO3_SPEC)
    dot_path = tmp_path / "out.dot"
    code, out, err = run(capsys, command, path, "--dot", str(dot_path))
    assert code == 0 and err == ""
    assert out == run(capsys, command, path)[1]
    classes = [parse_tag(s) for s in json.loads(out)["classes"]]
    assert dot_path.read_text() == lattice_to_dot(build_lattice(classes))


@pytest.mark.parametrize("command", ["lift", "requilibria"])
def test_failed_dot_write_prints_no_result(tmp_path, capsys, command):
    path = write_spec(tmp_path, SO3_SPEC)
    dot_path = tmp_path / "missing" / "out.dot"
    code, out, err = run(capsys, command, path, "--dot", str(dot_path))
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec["code"] == "validation" and rec["path"] == "dot"


@pytest.mark.parametrize("command", ["lift", "requilibria"])
def test_an_empty_dot_path_is_a_validation_error(tmp_path, capsys, command):
    path = write_spec(tmp_path, SO3_SPEC)
    code, out, err = run(capsys, command, path, "--dot", "")
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec == {"code": "validation", "path": "dot", "message": "--dot needs a file name"}


def test_lift_missing_file(capsys):
    code, _, err = run(capsys, "lift", "/nonexistent/spec.json")
    assert code == 2
    rec = json.loads(err)["error"]
    assert rec["code"] == "validation" and rec["path"] == "specfile"


def test_a_spec_file_that_is_not_utf8_names_the_specfile(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "lift", str(p))
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec["code"] == "validation" and rec["path"] == "specfile"
    assert rec["message"].startswith("cannot read spec file: 'utf-8' codec")


SPEC_BYTES = json.dumps(SO3_SPEC, indent=2).encode()


def _symlink_to(tmp_path):
    link = tmp_path / "link"
    link.symlink_to(tmp_path, target_is_directory=True)
    return str(link)


# file contents, or a function of tmp_path giving a path that is no file
READ_CASES = {
    "crlf": SPEC_BYTES.replace(b"\n", b"\r\n"),
    "lone cr": SPEC_BYTES.replace(b"\n", b"\r"),
    "mixed ends": SPEC_BYTES.replace(b"\n", b"\r\r\n\n", 1) + b"\r",
    "bom": b"\xef\xbb\xbf" + SPEC_BYTES,
    "non-ascii": SPEC_BYTES.replace(b"SO3", b"SO\xe2\x82\x83"),
    "invalid byte": SPEC_BYTES.replace(b"SO2", b"SO\xff"),
    "invalid byte far in": b" " * 100_000 + b"\r\n\xc3(" + SPEC_BYTES,
    "cut sequence": SPEC_BYTES + b"\xe2\x82",
    "empty": b"",
    # the read loop's boundaries: _READ_SIZE bytes are asked of each read
    "read size": SPEC_BYTES.ljust(_READ_SIZE),
    "read size and one": SPEC_BYTES.ljust(_READ_SIZE + 1),
    "sequence across reads": b" " * (_READ_SIZE - 1) + b"\xe2\x82\x83" + SPEC_BYTES,
    "crlf across reads": b" " * (_READ_SIZE - 1) + b"\r\n" + SPEC_BYTES,
    "directory": str,
    "symlink to a directory": _symlink_to,
}


@pytest.mark.parametrize("case", READ_CASES)
def test_a_spec_file_reads_as_in_text_mode(tmp_path, capsys, case):
    if callable(READ_CASES[case]):
        path = READ_CASES[case](tmp_path)
    else:
        path = str(tmp_path / "spec.json")
        Path(path).write_bytes(READ_CASES[case])
    try:
        with open(path, encoding="utf-8") as fh:
            want, fault = fh.read(), None
    except (OSError, UnicodeDecodeError) as e:
        want, fault = None, f"cannot read spec file: {e}"
    if fault is None:
        assert _read_spec_file(path) == want
        return
    with pytest.raises(ValidationError) as info:
        _read_spec_file(path)
    assert (str(info.value), info.value.path) == (fault, "specfile")
    code, out, err = run(capsys, "lift", path)
    record = {"error": {"code": "validation", "path": "specfile", "message": fault}}
    assert (code, out, err) == (2, "", json.dumps(record, indent=2) + "\n")


def test_lift_no_unique_minimum(tmp_path, capsys):
    path = write_spec(tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["C2", "C3"]})
    code, _, err = run(capsys, "lift", path)
    assert code == 2
    assert json.loads(err)["error"]["code"] == "no-unique-minimum"


def test_lift_schema_error_record(tmp_path, capsys):
    path = write_spec(tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["SO3"], "x": 1})
    code, _, err = run(capsys, "lift", path)
    assert code == 2
    rec = json.loads(err)["error"]
    assert rec["code"] == "schema" and rec["path"] == "x" and rec["message"]


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"group": {"kind": "SO3"}, "base_lattice": ["1", "SO3"], "base_lattice": ["1"]}', "base_lattice"),
        ('{"group": {"kind": "circle", "kind": "SO3"}, "base_lattice": ["1"]}', "kind"),
    ],
)
@pytest.mark.parametrize("command", [["lift"], ["requilibria"], ["mu", "--mu", "0"]])
def test_a_repeated_key_is_a_schema_error(tmp_path, capsys, text, key, command):
    # json.loads alone keeps the last value of a repeated key
    path = tmp_path / "spec.json"
    path.write_text(text)
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"code": "schema", "path": "", "message": f"repeated key {key!r}"}


def test_mu_command(tmp_path, capsys):
    path = write_spec(tmp_path, CIRCLE_SPEC)
    code, out, _ = run(capsys, "mu", path, "--mu", "1", "--closure", "C2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == 1
    assert doc["classes"] == ["C2", "C4"]
    assert doc["closure"] == {"class": "C2", "classes": ["C2", "C4"]}


def test_mu_closure_outside_the_level_set_names_closure(tmp_path, capsys):
    path = write_spec(tmp_path, SO3_SPEC)
    code, out, err = run(capsys, "mu", path, "--mu", "0", "--closure", "C7")
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec["code"] == "class-not-in-lattice" and rec["path"] == "closure"
    assert "C7" in rec["message"]


def test_an_empty_mu_closure_is_a_validation_error(tmp_path, capsys):
    path = write_spec(tmp_path, SO3_SPEC)
    code, out, err = run(capsys, "mu", path, "--mu", "0", "--closure", "")
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec == {"code": "validation", "path": "closure", "message": "cannot parse class tag ''"}


def test_mu_zero_vector(tmp_path, capsys):
    path = write_spec(tmp_path, SO3_SPEC)
    code, out, _ = run(capsys, "mu", path, "--mu", "[0,0,0]")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == [0.0, 0.0, 0.0]
    assert doc["classes"] == ["SO2", "SO3"]


CIRCLE_WITH_ONE_SPEC = {"group": {"kind": "circle"}, "base_lattice": ["1", "C2", "SO2"]}


@pytest.mark.parametrize(
    "doc,value,classes",
    [
        (CIRCLE_WITH_ONE_SPEC, "[0,0,0]", ["1", "C2", "SO2"]),
        # the circle's momentum is the component along its axis, the z axis,
        # so [1,0,0] is its zero level
        (CIRCLE_WITH_ONE_SPEC, "[1,0,0]", ["1", "C2", "SO2"]),
        (CIRCLE_WITH_ONE_SPEC, "[0,0,2]", ["1", "C2"]),
        (TETRA_SPEC, "[0,0,0]", ["1", "C2", "C3", "T"]),
    ],
    ids=["circle-zero", "circle-nonzero", "circle-on-axis", "finite-zero"],
)
def test_mu_vector_on_circle_and_finite_ambients(tmp_path, capsys, doc, value, classes):
    # a three-component mu goes through momentum._mu_is_zero on these ambients
    path = write_spec(tmp_path, doc)
    code, out, _ = run(capsys, "mu", path, "--mu", value)
    assert code == 0
    doc_out = json.loads(out)
    assert doc_out["mu"] == json.loads(value)
    assert doc_out["classes"] == classes


def test_mu_nonzero_vector_on_finite_ambient_is_rejected(tmp_path, capsys):
    path = write_spec(tmp_path, TETRA_SPEC)
    code, out, err = run(capsys, "mu", path, "--mu", "[1,0,0]")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "not-totally-isotropic"
    assert json.loads(err)["error"]["path"] == "mu"


def test_mu_rejects_nonisotropic(tmp_path, capsys):
    path = write_spec(tmp_path, SO3_SPEC)
    code, _, err = run(capsys, "mu", path, "--mu", "[0,0,2]")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "not-totally-isotropic"
    assert json.loads(err)["error"]["path"] == "mu"


def test_mu_with_no_surviving_class_names_mu(tmp_path, capsys):
    # a nonzero value on the circle keeps only 1 and the C_n; here there are none
    path = write_spec(tmp_path, {"group": {"kind": "circle"}, "base_lattice": ["SO2"]})
    code, out, err = run(capsys, "mu", path, "--mu", "3")
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec["code"] == "not-totally-isotropic" and rec["path"] == "mu"
    assert "no base class has an algebra annihilated" in rec["message"]


def test_mu_rejects_malformed_value(tmp_path, capsys):
    path = write_spec(tmp_path, SO3_SPEC)
    code, _, err = run(capsys, "mu", path, "--mu", "zero")
    assert code == 2
    assert json.loads(err)["error"]["path"] == "mu"


@pytest.mark.parametrize(
    "value",
    ["NaN", "Infinity", "[0, NaN, 0]", "1" + "0" * 400],
    ids=["nan", "inf", "nan-component", "overflowing-int"],
)
def test_mu_rejects_non_finite_value(tmp_path, capsys, value):
    path = write_spec(tmp_path, CIRCLE_SPEC)
    code, out, err = run(capsys, "mu", path, "--mu", value)
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec["code"] == "validation" and rec["path"] == "mu"


def test_an_overflowing_generator_axis_is_not_the_identity(tmp_path, capsys):
    # [1e200, 1e200, 0] squares to inf; it is the quarter turn about [1, 1, 0]
    big = parse_spec(spec_text(finite_spec({"axis": [1e200, 1e200, 0], "angle_deg": 90})))
    unit = parse_spec(spec_text(finite_spec({"axis": [1, 1, 0], "angle_deg": 90})))
    assert len(big.ambient) == 4 and big.ambient.elements == unit.ambient.elements
    doc = finite_spec({"axis": [1e200, 1e200, 0], "angle_deg": 90})
    doc["base_lattice"] = ["1", "C4"]
    code, out, err = run(capsys, "lift", write_spec(tmp_path, doc))
    assert code == 0 and err == ""
    assert json.loads(out)["classes"] == ["1", "C4"]


# json.loads raises RecursionError on such a nest, which used to escape as a
# traceback
DEEP_NEST = "[" * 100_000


def deep_nest_error(*argv):
    """The one error record of a fresh isolat.cli process that exits 2."""
    proc = run_module(["-m", "isolat.cli", *argv])
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    return json.loads(proc.stderr)["error"]


def test_a_deeply_nested_spec_is_a_schema_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_NEST)
    assert deep_nest_error("lift", str(deep)) == {
        "code": "schema", "path": "", "message": "input is nested too deeply to parse"
    }


def test_a_deeply_nested_spec_is_a_schema_error_in_process(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_NEST)
    code, out, err = run(capsys, "lift", str(deep))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "code": "schema", "path": "", "message": "input is nested too deeply to parse"
    }


def test_a_deeply_nested_mu_is_a_validation_error(tmp_path):
    rec = deep_nest_error("mu", write_spec(tmp_path, SO3_SPEC), "--mu", DEEP_NEST)
    assert rec["code"] == "validation" and rec["path"] == "mu"


def test_lift_oversized_closure_record(tmp_path, capsys):
    path = write_spec(tmp_path, finite_spec({"axis": [0, 0, 1], "angle_deg": 1}))
    code, out, err = run(capsys, "lift", path)
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec["code"] == "group-too-large" and rec["path"] == "group.generators"


C101_TURN = {"axis": [0, 0, 1], "angle_deg": 360 / 101}
HALF_TURN_X = {"axis": [1, 0, 0], "angle_deg": 180}


@pytest.mark.parametrize("command", [["lift"], ["requilibria"], ["mu", "--mu", "0"], ["check"]])
@pytest.mark.parametrize(
    "generators,message",
    [
        ([C101_TURN], "cyclic order 101 exceeds cap 100"),
        ([C101_TURN, HALF_TURN_X], "dihedral index 101 exceeds cap 100"),  # 202 elements
    ],
    ids=["C101", "D101"],
)
def test_a_group_outside_the_catalog_names_the_generators(tmp_path, capsys, command, generators, message):
    path = write_spec(tmp_path, finite_spec(*generators))
    code, out, err = run(capsys, command[0], path, *command[1:])
    assert code == 3 and out == ""
    rec = json.loads(err)["error"]
    assert rec == {"code": "unclassifiable-group", "path": "group.generators", "message": message}


def test_requilibria_command(tmp_path, capsys):
    path = write_spec(tmp_path, SO3_SPEC)
    code, out, _ = run(capsys, "requilibria", path)
    assert code == 0
    assert json.loads(out)["classes"] == ["1", "SO2", "SO3"]


def test_check_match(tmp_path, capsys):
    doc = dict(SO3_SPEC)
    doc["action"] = "SO3_on_R3"
    path = write_spec(tmp_path, doc)
    code, out, _ = run(capsys, "check", path, "--samples", "500")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "MATCH"
    assert len(lines) == 5  # base, lifted, zero-level, requilibria, MATCH
    assert all(line.endswith("ok") for line in lines[:-1])


def test_check_finite_skips_requilibria(tmp_path, capsys):
    doc = dict(TETRA_SPEC)
    doc["action"] = "Finite_on_R3:T"
    path = write_spec(tmp_path, doc)
    code, out, _ = run(capsys, "check", path, "--samples", "500")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "MATCH"
    assert len(lines) == 4  # no requilibria row


def test_check_mismatch_exits_3(tmp_path, capsys):
    path = write_spec(tmp_path, SO3_SPEC)
    code, out, _ = run(capsys, "check", path, "--action", "SO3_on_S2", "--samples", "300")
    assert code == 3
    assert out.strip().splitlines()[-1] == "MISMATCH"


def test_check_rejects_negative_samples(tmp_path, capsys):
    doc = dict(SO3_SPEC)
    doc["action"] = "SO3_on_R3"
    path = write_spec(tmp_path, doc)
    code, out, err = run(capsys, "check", path, "--samples", "-5")
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec["code"] == "validation" and rec["path"] == "samples"


def test_check_with_zero_samples_uses_the_strata_seeds(tmp_path, capsys):
    doc = dict(SO3_SPEC)
    doc["action"] = "SO3_on_R3"
    path = write_spec(tmp_path, doc)
    code, out, _ = run(capsys, "check", path, "--samples", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "MATCH" and len(lines) == 5


def test_check_takes_one_point_stabilizer_per_walked_pair(tmp_path, capsys, monkeypatch):
    # every row reads one walk: the 5 strata seeds of SO3_on_R3 and 60 draws
    # cost 65 point stabilizers, none recomputed for the requilibria row
    from isolat import oracle

    points = []
    real = oracle.stabilizer_of_point

    def counting(action, x):
        points.append(x)
        return real(action, x)

    monkeypatch.setattr(oracle, "stabilizer_of_point", counting)
    path = write_spec(tmp_path, dict(SO3_SPEC, action="SO3_on_R3"))
    code, out, _ = run(capsys, "check", path, "--samples", "60")
    assert code == 0 and out.strip().splitlines()[-1] == "MATCH"
    assert len(points) == 65


def test_check_needs_an_action(tmp_path, capsys):
    path = write_spec(tmp_path, SO3_SPEC)
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert json.loads(err)["error"]["path"] == "action"


def test_check_rejects_foreign_ambient(tmp_path, capsys):
    path = write_spec(tmp_path, CIRCLE_SPEC)
    code, _, err = run(capsys, "check", path, "--action", "SO3_on_R3")
    assert code == 2
    assert json.loads(err)["error"]["path"] == "action"


def test_adjoint_command(capsys):
    code, out, _ = run(capsys, "adjoint", "D4")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "D4"
    assert doc["subspace"] == {"type": "all"}
    assert [e["class"] for e in doc["entries"]] == ["1", "C2", "C2", "C4", "D4"]


def test_adjoint_circle(capsys):
    code, out, _ = run(capsys, "adjoint", "SO2")
    assert code == 0
    doc = json.loads(out)
    assert doc["subspace"] == {"type": "plane", "normal": [0.0, 0.0, 1.0]}
    assert [e["class"] for e in doc["entries"]] == ["1", "SO2"]


def test_adjoint_full(capsys):
    code, out, _ = run(capsys, "adjoint", "SO3")
    assert code == 0
    doc = json.loads(out)
    assert doc["subspace"] == {"type": "zero"}
    assert [e["class"] for e in doc["entries"]] == ["SO3"]


def test_adjoint_bad_tag(capsys):
    code, _, err = run(capsys, "adjoint", "X9")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "validation"


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "catalog", "--max-n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == [
        "1", "C2", "C3", "D2", "D3", "T", "O", "I", "SO2", "O2", "SO3",
    ]
    assert len(doc["subconjugate"]) == 42
    assert doc["orders"]["D3"] == 6
    assert doc["orders"]["SO2"] is None
    assert ["C2", "D2"] in doc["subconjugate"]
    assert ["1", "SO3"] in doc["subconjugate"]
    assert ["D2", "C2"] not in doc["subconjugate"]


def test_catalog_subconjugate_pairs_are_the_double_loop(capsys):
    code, out, _ = run(capsys, "catalog", "--max-n", "100")
    assert code == 0
    doc = json.loads(out)
    tags = [parse_tag(s) for s in doc["classes"]]
    assert len(tags) == 205
    want = [[a.short(), b.short()] for a in tags for b in tags if a != b and is_subconjugate(a, b)]
    assert doc["subconjugate"] == want


def test_catalog_rejects_bad_range(capsys):
    code, _, err = run(capsys, "catalog", "--max-n", "1")
    assert code == 2
    assert json.loads(err)["error"]["path"] == "max-n"


def test_argparse_failures_exit_2(tmp_path, capsys):
    code, _, _ = run(capsys, "lift")
    assert code == 2
    code, _, _ = run(capsys, "mu", write_spec(tmp_path, SO3_SPEC))
    assert code == 2  # --mu is required


def module_env(env=None):
    """The environment of a fresh isolat process: this one's, extra ENV and src/ on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    full_env = dict(os.environ, **(env or {}))
    full_env["PYTHONPATH"] = os.pathsep.join(p for p in (src, full_env.get("PYTHONPATH")) if p)
    return full_env


def run_module(args, env=None):
    """Run python -m isolat.cli ARGS in a fresh process, with extra ENV variables."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=module_env(env), timeout=60
    )


def test_module_entry_point_prints_catalog(capsys):
    proc = run_module(["-m", "isolat.cli", "catalog"])
    assert proc.returncode == 0, proc.stderr
    _, expected, _ = run(capsys, "catalog")
    assert proc.stdout == expected
    assert json.loads(proc.stdout)["classes"][0] == "1"


def test_a_closed_stdout_ends_with_its_exit_code_and_no_traceback():
    # the catalog outgrows a 64 KiB pipe, and unbuffered reads take only
    # the first line, so the writer meets the closed pipe for sure
    proc = subprocess.Popen(
        [sys.executable, "-m", "isolat.cli", "catalog", "--max-n", str(N_CAP)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=module_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_CLOSED_STDOUT
    assert err == b""


@pytest.mark.parametrize("value", ["1e-16", "1e-3", "abc"])
def test_tolerance_environment_variable_is_ignored(value, capsys):
    # the tolerance is a fixed constant; no environment variable moves it
    proc = run_module(["-m", "isolat.cli", "adjoint", "D48"], {"ISOLAT_TOLERANCE": value})
    assert proc.returncode == 0, proc.stderr
    _, expected, _ = run(capsys, "adjoint", "D48")
    assert proc.stdout == expected


@pytest.mark.parametrize(
    "argv", [["lift"], ["mu", "--mu", "0"], ["requilibria"], ["check", "--samples", "0"]]
)
def test_no_unique_minimum_names_base_lattice(tmp_path, capsys, argv):
    doc = {"group": {"kind": "SO3"}, "base_lattice": ["C2", "C3"], "action": "SO3_on_R3"}
    path = write_spec(tmp_path, doc)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec["code"] == "no-unique-minimum" and rec["path"] == "base_lattice"
    assert rec["message"] == "minimal classes are C2, C3, expected exactly one"


@pytest.mark.parametrize("action", [None, "Bogus", "Circle_on_R2"])
def test_check_reports_no_unique_minimum_before_the_action(tmp_path, capsys, action):
    # the base lattice is part of the parsed spec; the action is resolved after it
    doc = {"group": {"kind": "SO3"}, "base_lattice": ["C2", "C3"]}
    if action is not None:
        doc["action"] = action
    code, out, err = run(capsys, "check", write_spec(tmp_path, doc))
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec["code"] == "no-unique-minimum" and rec["path"] == "base_lattice"


def test_non_ascii_digits_are_not_a_tag(tmp_path, capsys):
    code, out, err = run(capsys, "adjoint", "C\u0662")
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec["code"] == "validation" and rec["path"] == "tag"
    assert rec["message"] == "cannot parse class tag 'C\u0662'"
    path = write_spec(tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["1", "C0002"]})
    code, out, err = run(capsys, "lift", path)
    assert code == 2 and out == ""
    rec = json.loads(err)["error"]
    assert rec["code"] == "validation" and rec["path"] == "base_lattice[1]"
    assert rec["message"] == "cannot parse class tag 'C0002'"


def test_one_process_answers_like_fresh_ones(tmp_path, capsys, monkeypatch):
    # parsers are built once per process; nothing of one call may leak into
    # the next (help text width is pinned, since it follows the terminal)
    monkeypatch.setenv("COLUMNS", "80")
    path = write_spec(
        tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["1", "C2", "D4", "SO2", "O2", "SO3"]}
    )
    argvs = [
        ["lift", path, "--cotangent"],
        ["lift", path],
        ["lift", path, "--no-witnesses"],
        ["lift", "--help"],
        ["lift", path, "--bogus"],
        ["mu", path, "--mu", "0", "--closure", "C2"],
        ["mu", path, "--mu", "0"],
    ]
    in_process = [run(capsys, *argv) for argv in argvs]
    for argv, got in zip(argvs, in_process):
        proc = run_module(["-m", "isolat.cli", *argv], {"COLUMNS": "80"})
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    assert "closure" in in_process[5][1] and "closure" not in in_process[6][1]
    assert in_process[4][0] == 2 and in_process[3][0] == 0


@pytest.mark.parametrize("change", ["add", "drop"])
@pytest.mark.parametrize("flags", [(), ("--no-witnesses",), ("--cotangent",)])
def test_rule_table_and_witnesses_disagreeing_is_a_witness_check_error(
    tmp_path, capsys, monkeypatch, fresh_lattices, change, flags
):
    # the lattice comes from the rule table and the witnesses from geometry:
    # a table class with no witness ("add") and a witnessed class the table
    # lacks ("drop") both end in the recheck's coded error, with no output.
    # Cold, the lift reads the tampered rule.  Warm, a first lift has stored
    # the lifted lattice and the witnesses on the shared base lattice, and
    # the recheck must still recompute the table from the tampered rule.
    import isolat.lift as lift_module
    from isolat import poset
    from isolat.catalog import ann_classes, cyclic, dihedral
    from isolat.cli import parse_spec

    moved = {cyclic(7) if change == "add" else cyclic(4)}
    d4 = dihedral(4)
    tampered = []

    def tampered_classes(h):
        if h is d4:
            tampered.append(h)
            return ann_classes(h) ^ moved
        return ann_classes(h)

    path = write_spec(tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["1", "D4"]})
    for warm in (False, True):
        poset._lattice.cache_clear()
        parse_spec.cache_clear()
        monkeypatch.undo()
        if warm:
            assert run(capsys, "lift", path, *flags)[0] == 0
        monkeypatch.setattr(lift_module, "ann_classes", tampered_classes)
        tampered.clear()
        code, out, err = run(capsys, "lift", path, *flags)
        assert tampered  # the patched rule is what the lift read
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": {"code": "witness-check", "path": "", "message": "internal witness recheck failed"}
        }


_CACHES_AFTER = """
import contextlib, io, json, sys
from isolat import adjoint, catalog
from isolat.cli import run_command
enumerated, built = [], []
real = catalog._enumerate_subgroups
catalog._enumerate_subgroups = lambda F: enumerated.append(F) or real(F)
real_ann = adjoint._isotropy_on_ann
adjoint._isotropy_on_ann = lambda H: built.append(H) or real_ann(H)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = run_command(sys.argv[1:])
sizes = [len(built), len(enumerated)]
print(json.dumps({"code": code, "out": out.getvalue(), "sizes": sizes}))
"""


def test_so3_requilibria_and_check_build_no_geometry(tmp_path):
    # both read the lifted lattice off the rule table: a fresh process ends
    # with no annihilator isotropy built and no subgroup enumeration run
    from isolat.lift import lifted_lattice

    base_tags = ["1", "C2", "D2", "T", "O", "I", "SO3"]
    path = write_spec(tmp_path, {"group": {"kind": "SO3"}, "base_lattice": base_tags})
    proc = run_module(["-c", _CACHES_AFTER, "requilibria", path])
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["code"] == 0 and got["sizes"] == [0, 0]
    lifted = lifted_lattice(canonical_rep(FULL), build_lattice(map(parse_tag, base_tags))).lifted
    assert json.loads(got["out"]) == lattice_to_json(lifted)

    path = write_spec(tmp_path, dict(SO3_SPEC, action="SO3_on_R3"), "check.json")
    proc = run_module(["-c", _CACHES_AFTER, "check", path, "--samples", "300"])
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["code"] == 0 and got["sizes"] == [0, 0]
    lifted = lifted_lattice(canonical_rep(FULL), build_lattice(map(parse_tag, SO3_SPEC["base_lattice"])))
    row = next(line for line in got["out"].splitlines() if line.startswith("lifted "))
    assert row.split()[1] == "predicted=" + ",".join(t.short() for t in lifted.lifted.classes)


def test_a_repeated_lift_and_requilibria_build_and_render_no_lattice(tmp_path, capsys, monkeypatch):
    # equal class sets share one lattice and its text is stored on it, so a
    # second round over one spec builds no lattice and names no tag: neither
    # a lattice's text nor a witness's is rendered again
    # (nor is the spec text decoded again: its ProblemSpec is kept)
    from isolat import poset
    from isolat.catalog import ClassTag

    path = write_spec(
        tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["1", "C3", "D6", "SO2", "O2", "SO3"]}
    )
    argvs = [["lift", path], ["requilibria", path], ["lift", path, "--cotangent"]]
    first = [run(capsys, *argv) for argv in argvs]
    built, named = [], []
    down_sets, short = poset._down_sets, ClassTag.short
    monkeypatch.setattr(poset, "_down_sets", lambda cs: built.append(cs) or down_sets(cs))
    monkeypatch.setattr(ClassTag, "short", lambda t: named.append(t) or short(t))
    decoded = counting_decodes(monkeypatch)
    assert [run(capsys, *argv) for argv in argvs] == first
    assert built == [] and named == [] and decoded == []
    assert first[0][0] == 0 and first[1][0] == 0


def test_a_repeated_lift_and_requilibria_parse_sort_and_build_nothing(tmp_path, capsys, monkeypatch):
    # why parse_tag and tag_sort_key keep no cache: after one lift and one
    # requilibria of a spec, repeating both parses no tag, sorts no class and
    # calls build_lattice nowhere, in every module that calls those functions
    from isolat import cli, lift, momentum, poset

    calls = []
    for module in (cli, lift, momentum, poset):
        for name in ("parse_tag", "build_lattice", "tag_sort_key"):
            if hasattr(module, name):
                real = getattr(module, name)
                counting = lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)
                monkeypatch.setattr(module, name, counting)
    path = write_spec(
        tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["1", "C3", "C6", "D6", "SO2", "O2", "SO3"]}
    )
    parse_spec.cache_clear()  # so the first round parses the text: the counts see each call
    first = [run(capsys, "lift", path), run(capsys, "requilibria", path)]
    assert set(calls) == {"parse_tag", "build_lattice", "tag_sort_key"}
    calls.clear()
    assert [run(capsys, "lift", path), run(capsys, "requilibria", path)] == first
    assert calls == []
    assert first[0][0] == 0 and first[1][0] == 0


# ---------------------------------------------------------------------------
# The per-text spec cache


def counting_decodes(monkeypatch):
    """The top-level objects cli decodes from here on, one per spec decode."""
    from isolat import cli

    decoded, real = [], cli._unique_keys

    def counting(pairs):
        if any(k == "base_lattice" for k, _ in pairs):
            decoded.append(pairs)
        return real(pairs)

    monkeypatch.setattr(cli, "_unique_keys", counting)
    return decoded


def test_a_lift_and_its_requilibria_decode_the_spec_once(tmp_path, capsys, monkeypatch, fresh_specs):
    decoded = counting_decodes(monkeypatch)
    path = write_spec(tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["1", "D4", "SO3"]})
    assert run(capsys, "lift", path)[0] == 0
    assert run(capsys, "requilibria", path)[0] == 0
    assert len(decoded) == 1
    info = parse_spec.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_a_refused_spec_is_refused_again_on_every_call(tmp_path, capsys, monkeypatch, fresh_specs):
    decoded = counting_decodes(monkeypatch)
    path = write_spec(tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["1", "X"]})
    first = run(capsys, "lift", path)
    assert first[0] == 2 and first[1] == ""
    assert json.loads(first[2])["error"]["path"] == "base_lattice[1]"
    assert run(capsys, "lift", path) == first
    assert len(decoded) == 2 and parse_spec.cache_info().currsize == 0


def test_a_spec_without_a_unique_minimum_is_refused_and_not_kept(fresh_specs):
    text = spec_text({"group": {"kind": "SO3"}, "base_lattice": ["C2", "C3"]})
    for _ in range(2):
        with pytest.raises(NoUniqueMinimum) as e:
            parse_spec(text)
        assert e.value.path == "base_lattice"
        assert str(e.value) == "minimal classes are C2, C3, expected exactly one"
    assert parse_spec.cache_info().currsize == 0


def test_a_check_makes_the_spec_action_once_per_spec_text(tmp_path, capsys, monkeypatch, fresh_specs):
    # parse_spec resolves the spec's action and keeps it on the spec; check
    # makes an action itself only for an --action override
    from isolat import cli

    made, real = [], cli.make_action
    monkeypatch.setattr(cli, "make_action", lambda name: made.append(name) or real(name))
    path = write_spec(tmp_path, dict(SO3_SPEC, action="SO3_on_R3"))
    assert run(capsys, "check", path, "--samples", "0")[0] == 0
    assert made == ["SO3_on_R3"]
    assert run(capsys, "check", path, "--samples", "0")[0] == 0
    assert made == ["SO3_on_R3"]
    assert run(capsys, "check", path, "--samples", "0", "--action", "SO3_on_R3")[0] == 0
    assert made == ["SO3_on_R3", "SO3_on_R3"]


def test_a_rewritten_spec_file_gives_the_new_answer(tmp_path, capsys, fresh_specs):
    # the cache is keyed by the text, not by the path
    path = write_spec(tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["SO2", "SO3"]})
    code, out, _ = run(capsys, "requilibria", path)
    assert code == 0 and json.loads(out)["classes"] == ["1", "SO2", "SO3"]
    write_spec(tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["1", "C2", "SO3"]})
    code, out, _ = run(capsys, "requilibria", path)
    assert code == 0 and json.loads(out)["classes"] == ["1", "C2", "SO3"]
    write_spec(tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["C2", "X"]})
    code, out, err = run(capsys, "requilibria", path)
    assert code == 2 and out == "" and json.loads(err)["error"]["path"] == "base_lattice[1]"


def test_the_spec_cache_is_bounded(fresh_specs):
    from isolat import cli

    size = cli.SPEC_CACHE_SIZE
    assert parse_spec.cache_info().maxsize == size
    texts = [spec_text({"group": {"kind": "SO3"}, "base_lattice": [f"{k}{n}"]})
             for k in "CD" for n in range(2, N_CAP + 1)]
    assert len(texts) > size + 1
    first = parse_spec(texts[0])
    assert parse_spec(texts[0]) is first
    for text in texts[1:size + 2]:
        parse_spec(text)
    assert parse_spec.cache_info().currsize == size
    again = parse_spec(texts[0])  # the oldest entry went first
    assert again is not first and again == first
