"""A fuzzed command line: every draw ends in an exit code, never a traceback.

Specs and argv are drawn from the inputs a user can get wrong: group kinds,
generators with NaN, infinite, zero, tiny and huge axes and angles, deep
nesting, duplicate, unknown and non-catalog tags with and without an order,
and every command with its flags.  Derandomized, so a run is repeatable.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isolat.cli import _USAGE, run_command

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

TAGS = [
    "1", "C2", "C3", "C4", "C5", "C6", "D2", "D3", "D4", "D6", "C100", "D100",
    "T", "O", "I", "SO2", "O2", "SO3",
]
BAD_TAGS = ["C1", "C0", "C101", "D1", "D101", "C02", "X", "", "SO(3)", "C٣", " C2", "c2"]
NUMBERS = [
    0, 1, -1, 0.5, 1e-300, 1e-12, 1e-9, 1e200, 1e308, -1e308,
    math.nan, math.inf, -math.inf,
]
ANGLES = [0, 90, 120, 180, 72, 45, 1, 1e-6, 1e-12, 360, -90, 1e300, math.nan, math.inf]
ACTIONS = [
    "SO3_on_R3", "SO3_on_S2", "Circle_on_R2", "Finite_on_R3:D4", "Finite_on_S2:T",
    "Finite_on_R3:C3", "Finite_on_R3:SO2", "Finite_on_R3:X", "bogus",
]


def mostly(good, bad):
    """good in four draws out of five, else bad (hypothesis leans to small ints)."""
    return st.integers(0, 4).flatmap(lambda i: bad if i == 4 else good)


tags = mostly(
    st.sampled_from(TAGS),
    st.one_of(st.sampled_from(BAD_TAGS), st.sampled_from([3, None, ["C2"]])),
)
axes = mostly(
    st.sampled_from([[0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [1, 0, 1]]),
    st.one_of(
        st.lists(st.sampled_from(NUMBERS), min_size=3, max_size=3),
        st.sampled_from([[0, 0], [0, 0, 1, 0], "z", None, [True, 0, 0]]),
    ),
)
rotations = mostly(
    st.fixed_dictionaries({"axis": axes, "angle_deg": st.sampled_from([90, 120, 180, 72, 60])}),
    st.one_of(
        st.fixed_dictionaries({"axis": axes, "angle_deg": st.sampled_from(ANGLES)}),
        st.fixed_dictionaries({"axis": axes, "angle_deg": st.just(90), "turns": st.just(1)}),
        st.fixed_dictionaries({"axis": axes}),
        st.sampled_from([None, 90, [0, 0, 1]]),
    ),
)
groups = mostly(
    st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["SO3", "circle"])}),
        st.fixed_dictionaries(
            {"kind": st.just("finite"), "generators": st.lists(rotations, min_size=1, max_size=2)}
        ),
    ),
    st.one_of(
        st.fixed_dictionaries(
            {"kind": st.sampled_from(["SO3", "circle", "finite", "SO2", 3]), "generators": st.just([])}
        ),
        st.sampled_from([None, "SO3", {}, {"kind": None}]),
    ),
)


@st.composite
def specs(draw):
    """Spec text: a drawn document, or a nest too deep to parse."""
    if draw(st.integers(0, 15)) == 15:
        depth = draw(st.sampled_from([1, 50, 100_000]))
        return draw(st.sampled_from(["[", '{"a": '])) * depth
    base = draw(st.lists(tags, min_size=0, max_size=5))
    if "1" not in base and draw(st.integers(0, 3)) < 3:
        base.insert(draw(st.integers(0, len(base))), "1")  # most bases have a unique minimum
    doc = {"group": draw(groups), "base_lattice": base}
    if draw(st.booleans()):
        named = [t for t in base if isinstance(t, str)] or ["1"]
        pair = st.lists(st.sampled_from(named), min_size=2, max_size=2)
        doc["order"] = draw(mostly(st.lists(pair, max_size=4), st.sampled_from([None, "x", [["1"]]])))
    if draw(st.integers(0, 3)) < 3:
        doc["action"] = draw(mostly(st.sampled_from(ACTIONS), st.just(7)))
    if draw(st.integers(0, 9)) == 9:
        doc[draw(st.sampled_from(["extra", "Group"]))] = 1
    if draw(st.integers(0, 9)) == 9:
        doc = draw(st.sampled_from([[doc], "spec", 3]))
    return json.dumps(doc)  # NaN and Infinity go in as the tokens json.loads reads


MU_VALUES = [
    "0", "1", "-2.5", "[0,0,0]", "[0,0,1]", "[1,2]", "1e400", "NaN", "-Infinity",
    "true", '"0"', "[0,0,1e400]", "", "x", "{}", "[" * 5000,
]


@st.composite
def commands(draw, spec: str, dot: str):
    """One well-formed argv: every option as --name=value, so argparse takes it."""
    cmd = draw(st.sampled_from(["lift", "mu", "requilibria", "check", "adjoint", "catalog"]))
    dots = st.sampled_from([dot, "", dot + "/missing/out.dot"])
    if cmd == "adjoint":
        return [cmd, draw(tags.filter(lambda t: isinstance(t, str)))]
    if cmd == "catalog":
        return [cmd] + draw(st.sampled_from([[], ["--max-n=2"], ["--max-n=1"], ["--max-n=101"], ["--max-n=-3"]]))
    argv = [cmd, spec]
    if cmd == "lift":
        for flag in ("--cotangent", "--no-witnesses"):
            if draw(st.booleans()):
                argv.append(flag)
        if draw(st.booleans()):
            argv.append("--dot=" + draw(dots))
    elif cmd == "requilibria":
        if draw(st.booleans()):
            argv.append("--dot=" + draw(dots))
    elif cmd == "mu":
        argv.append("--mu=" + draw(st.sampled_from(MU_VALUES)))
        if draw(st.booleans()):
            argv.append("--closure=" + draw(tags.filter(lambda t: isinstance(t, str))))
    else:
        if draw(st.booleans()):
            argv.append("--action=" + draw(st.sampled_from(ACTIONS + [""])))
        argv.append(f"--seed={draw(st.sampled_from([0, 1, -5, 10**30]))}")
        argv.append(f"--samples={draw(st.integers(-2, 50))}")
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


# codes of faults that sit at a spec field or an argument, whose record names
# it; the only such record with an empty path for a spec that loads as an
# object is a repeated key, which json.dumps never writes
SPEC_FIELD_CODES = {
    "schema", "validation", "group-too-large", "unclassifiable-group",
    "no-unique-minimum", "not-realizable",
}


def loads_as_object(text: str) -> bool:
    try:
        return isinstance(json.loads(text), dict)
    except (ValueError, RecursionError):
        return False


def one_record(err: str) -> dict:
    rec = json.loads(err, parse_constant=_no_constant)
    assert list(rec) == ["error"] and list(rec["error"]) == ["code", "path", "message"], err
    assert rec["error"]["code"] and rec["error"]["message"], err
    return rec["error"]


@FUZZ
@given(data=st.data())
def test_every_drawn_command_ends_in_a_coded_exit(tmp_path, data):
    spec_path = tmp_path / "spec.json"
    text = data.draw(specs())
    spec_path.write_text(text, encoding="utf-8")
    argv = data.draw(commands(str(spec_path), str(tmp_path / "out.dot")))
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if err:
        # whatever was wrong, the only output is one coded record
        assert code in (2, 3) and out == "", (argv, out, err)
        rec = one_record(err)
        if rec["code"] in SPEC_FIELD_CODES and loads_as_object(text):
            assert rec["path"], (argv, text, err)
    else:
        assert code in (0, 3), (argv, code)
    if code == 0 and argv[0] != "check":
        json.loads(out, parse_constant=_no_constant)
    if code == 3 and not err:
        assert argv[0] == "check" and out.endswith("MISMATCH\n"), (argv, out)


ARGV_WORDS = [
    "lift", "mu", "requilibria", "check", "adjoint", "catalog", "frobnicate",
    "-h", "--help", "--cotangent", "--no-witnesses", "--dot", "--mu", "--closure",
    "--action", "--seed", "--samples", "--max-n", "--bogus", "-", "--",
    "0", "-1", "1e400", "NaN", "C2", "SO3", "x", "",
]


@FUZZ
@given(words=st.lists(st.sampled_from(ARGV_WORDS + ["SPEC", "MISSING"]), max_size=6))
def test_every_drawn_argv_ends_in_an_exit_code(tmp_path, words):
    # stderr is empty, one coded record, the top-level usage (exit 1), or a
    # command's argparse usage and error line (exit 2); stdout is written
    # only on exit 0
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"group": {"kind": "SO3"}, "base_lattice": ["SO2", "SO3"]}')
    argv = [
        str(spec_path) if w == "SPEC" else str(tmp_path / "missing.json") if w == "MISSING" else w
        for w in words
    ]
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, (argv, err)
    assert code == 0 or out == "", (argv, code, out)
    if not err:
        return
    if err.startswith("{"):
        assert code in (2, 3), (argv, code)
        one_record(err)
    elif code == 1:
        # the top-level usage, after the unknown command if there was one
        unknown = f"unknown command {argv[0]!r}\n" if argv else ""
        assert err == unknown + _USAGE + "\n", (argv, err)
    else:
        # argparse's own refusal: the command's usage, then one error line
        assert code == 2 and err.startswith(f"usage: isolat {argv[0]} "), (argv, code, err)
        assert err.endswith("\n") and err.splitlines()[-1].startswith(f"isolat {argv[0]}: error: "), (argv, err)
