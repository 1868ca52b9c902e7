"""The lift, requilibria and mu output is the text json.dumps would give.

_cmd_lift renders each witness from its fields once and stores the text on
the witness object, and all three commands render their classes and hasse
members from fragments.  Here stdout is compared with a plain json.dumps of
the whole document, on a cold memo, on a warm one, and for finite parents
after an SO(3) lift whose witnesses compare equal to theirs but carry other
floats; and each cold witness text with json.dumps of witness_to_json.
"""

import collections
import json

import pytest

import isolat.cli
from isolat import poset
from isolat.catalog import (
    CIRCLE,
    FULL,
    ICOSA,
    OCTA,
    TETRA,
    canonical_rep,
    is_subconjugate,
    parse_tag,
)
from isolat.cli import (
    _document,
    _group_text,
    _lattice_text,
    _witness_texts,
    lattice_to_json,
    parse_spec,
    run_command,
    subgroup_to_json,
    witness_to_json,
)
from isolat.lift import _diagonal_witnesses, lifted_lattice
from isolat.momentum import mu_lattice, relative_equilibria_lattice
from isolat.poset import IsotropyLattice, build_lattice


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
    """New witness objects, so the first lift in a test renders every text.

    An SO(3) lift stores its witness tuple on the shared base lattice, so the
    lattices go too, and the kept specs that hold them.
    """
    _diagonal_witnesses.cache_clear()
    poset._lattice_of_mask.cache_clear()
    parse_spec.cache_clear()


def write(tmp_path, name):
    group, base = BASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"group": group, "base_lattice": base}))
    return path


def expected(path, flags):
    spec = parse_spec(path.read_text())
    result = lifted_lattice(spec.ambient, spec.base)
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
    calls = []
    monkeypatch.setattr(isolat.cli, "_group_text", lambda S: calls.append(S) or _group_text(S))
    want = lift_stdout(capsys, path, ())
    assert calls  # the cold lift renders through the patched function
    calls.clear()
    assert lift_stdout(capsys, path, ()) == want
    assert lift_stdout(capsys, path, ("--cotangent",)).replace('"T*M"', '"TM"') == want
    assert calls == []


def test_a_cold_lift_renders_each_embedding_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "all98")
    calls = []
    monkeypatch.setattr(isolat.cli, "_group_text", lambda S: calls.append(S) or _group_text(S))
    lift_stdout(capsys, path, ())
    spec = parse_spec(path.read_text())
    ws = lifted_lattice(spec.ambient, spec.base).witnesses
    embeddings = {id(w.embedding) for w in ws}
    times = collections.Counter(map(id, calls))
    assert all(times[e] == 1 for e in embeddings)
    # most witnesses of this base take the embedding itself as k_rep
    others = sum(w.k_rep is not w.embedding for w in ws)
    assert len(calls) == len(embeddings) + others and others < len(ws) // 10


def test_finite_parents_after_an_so3_lift(tmp_path, capsys):
    parents = {name: write(tmp_path, name) for name in ("octa", "tetra")}
    before = {name: lift_stdout(capsys, p, ()) for name, p in parents.items()}
    lift_stdout(capsys, write(tmp_path, "exceptional"), ())
    for name, path in parents.items():
        assert lift_stdout(capsys, path, ()) == before[name] == expected(path, ())


@pytest.mark.parametrize("tag", [TETRA, OCTA, ICOSA], ids=lambda t: t.short())
def test_equal_witnesses_keep_their_own_bits(tag):
    so3 = next(w for w in _diagonal_witnesses(tag, True) if w.lifted_class == tag)
    parent = canonical_rep(tag)
    (finite,) = lifted_lattice(parent, build_lattice([tag])).witnesses
    assert so3.embedding == canonical_rep(tag) and so3 == finite
    assert subgroup_to_json(so3.embedding) != subgroup_to_json(canonical_rep(tag))
    (so3_text,), (finite_text,) = _witness_texts([so3]), _witness_texts([finite])
    assert so3_text != finite_text
    assert _witness_texts([finite])[0] is finite_text  # stored on the witness
    assert json.loads(finite_text) == witness_to_json(finite)


def reference_text(w):
    """The witness text of the json.dumps path, at its depth in the lift document."""
    return json.dumps(witness_to_json(w), indent=2).replace("\n", "\n    ")


ALL98 = BASES["all98"][1]
CANDIDATES = ["1", "C2", "C3", "C4", "C5", "C6", "C7", "D2", "D3", "D4", "D5", "D6", "T", "O", "I"]
AMBIENT_BASES = {
    "SO3 all98 T O I": (FULL, ALL98 + ["T", "O", "I"]),
    **{
        s: (parse_tag(s), [c for c in CANDIDATES if is_subconjugate(parse_tag(c), parse_tag(s))])
        for s in ("C6", "C7", "D5", "D6", "T", "O", "I")
    },
    "circle": (CIRCLE, ["1", "C2", "C3", "C6", "SO2"]),
}


@pytest.mark.parametrize("name", list(AMBIENT_BASES))
def test_cold_witness_texts_are_the_json_dumps_texts(name):
    ambient, names = AMBIENT_BASES[name]
    result = lifted_lattice(canonical_rep(ambient), build_lattice(tags(*names)))
    texts = _witness_texts(result.witnesses)
    assert len(texts) == len(result.witnesses) == len(result.lifted.classes)
    for w, text in zip(result.witnesses, texts):
        assert text == reference_text(w), w.lifted_class.short()
    kinds = {json.loads(t)[k]["type"] for t in texts for k in ("embedding", "k_rep")}
    if ambient is FULL:
        assert kinds == {"finite", "so2", "o2", "so3"}
        assert any("e-17" in t for t in texts)  # noise floats print in exponent form
    elif ambient is CIRCLE:
        assert kinds == {"finite", "so2"}


def test_a_lift_stores_no_text_on_rotations_or_groups(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"group": SO3, "base_lattice": ALL98 + ["T", "O", "I"]}))
    lift_stdout(capsys, path, ())
    spec = parse_spec(path.read_text())
    ws = lifted_lattice(spec.ambient, spec.base).witnesses
    assert all(isinstance(w.__dict__.get("_json_text"), str) for w in ws)
    groups = {id(S): S for w in ws for S in (w.embedding, w.k_rep)}.values()
    held = [*groups, *(r for S in groups if hasattr(S, "elements") for r in S)]
    assert len(held) > 3000
    assert not [x for x in held if any(isinstance(v, str) for v in x.__dict__.values())]


def plain_dump(L, **members):
    doc = dict(members)
    doc.update(lattice_to_json(L))
    return json.dumps(doc, indent=2)


def tags(*names):
    return tuple(parse_tag(s) for s in names)


@pytest.mark.parametrize("name", sorted(BASES))
def test_lattice_text_is_the_plain_json_dump(tmp_path, name):
    spec = parse_spec(write(tmp_path, name).read_text())
    base = spec.base
    lattices = [
        base,
        lifted_lattice(spec.ambient, base).lifted,
        relative_equilibria_lattice(spec.ambient, base),
        mu_lattice(spec.ambient, base, 0),
    ]
    for L in lattices:
        assert _document([_lattice_text(L)]) == plain_dump(L)


def test_lattice_text_of_one_class_and_of_several_minima():
    single = build_lattice(tags("SO3"))
    assert single.classes == tags("SO3") and single.hasse == ()
    assert _document([_lattice_text(single)]) == plain_dump(single)
    assert '"hasse": []' in _lattice_text(single)
    # on the circle a nonzero mu keeps the finite classes, here two minima
    base = build_lattice(tags("C2", "C3", "C6", "SO2"), require_unique_min=False)
    level = mu_lattice(canonical_rep(CIRCLE), base, 1.0)
    assert level.classes == tags("C2", "C3", "C6") and not level.unique_min
    assert _document([_lattice_text(level)]) == plain_dump(level)


def test_a_stored_lattice_text_leaves_equality_and_hash_alone():
    L = build_lattice(tags("1", "C2", "D2", "D4", "SO3"))
    fresh = IsotropyLattice(L.classes, L.hasse, L.unique_min)
    text = _lattice_text(L)
    assert _lattice_text(L) is text and "_json_text" not in fresh.__dict__
    assert L == fresh and hash(L) == hash(fresh) and repr(L) == repr(fresh)
    assert _lattice_text(fresh) == text and _lattice_text(fresh) is not text


@pytest.mark.parametrize("name", sorted(BASES))
def test_requilibria_and_mu_stdout_are_the_plain_json_dump(tmp_path, capsys, name):
    path = write(tmp_path, name)
    spec = parse_spec(path.read_text())
    base = spec.base
    capsys.readouterr()
    assert run_command(["requilibria", str(path)]) == 0
    L = relative_equilibria_lattice(spec.ambient, base)
    assert capsys.readouterr().out == plain_dump(L) + "\n"
    bottom = base.classes[0].short()  # the unique minimum: its closure is the whole level set
    for value, mu in (("0", 0), ("[0, 0, 0]", [0.0, 0.0, 0.0])):
        assert run_command(["mu", str(path), "--mu", value, "--closure", bottom]) == 0
        level = mu_lattice(spec.ambient, base, mu)
        doc = {"mu": mu, **lattice_to_json(level)}
        doc["closure"] = {"class": bottom, "classes": [t.short() for t in level.classes]}
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
