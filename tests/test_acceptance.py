"""Acceptance gate: one test per shipped guarantee.

Each test carries an acceptance marker; the terminal summary prints one
pass/fail line per criterion.  Expected lattices are exact discrete sets,
checked against the brute-force oracles where the guarantee involves a
concrete action.
"""

import json
import math
import random

import pytest

from isolat.catalog import (
    CIRCLE,
    FULL,
    ICOSA,
    OCTA,
    ORTH_CIRCLE,
    TETRA,
    TRIVIAL,
    CircleSub,
    OrthCircleSub,
    canonical_rep,
    cyclic,
    cyclic_group,
    dihedral,
    dihedral_group,
    embeddings_of_class_in,
    g_class_of,
    intersect,
    is_subconjugate,
    parse_tag,
    subgroups_of,
)
from isolat.adjoint import isotropy_on_ann
from isolat.cli import lattice_to_json, run_command, witness_to_json
from isolat.errors import NoUniqueMinimum
from isolat.lift import lift_witness_check, lifted_lattice
from isolat.momentum import mu_lattice, relative_equilibria_lattice
from isolat.oracle import (
    empirical_lattices,
    empirical_requilibria_lattice,
    make_action,
)
from isolat.poset import build_lattice


def tags(names):
    return [parse_tag(s) for s in names]


def shorts(classes):
    return [t.short() for t in classes]


def write_spec(tmp_path, doc):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = run_command(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


FINITE_GENERATORS = {
    "T": [{"axis": [0, 0, 1], "angle_deg": 180}, {"axis": [1, 1, 1], "angle_deg": 120}],
    "O": [{"axis": [0, 0, 1], "angle_deg": 90}, {"axis": [1, 1, 1], "angle_deg": 120}],
    "I": [
        {"axis": [(1 + math.sqrt(5)) / 2, 0, 1], "angle_deg": 72},
        {"axis": [0, 0, 1], "angle_deg": 180},
    ],
    "D4": [{"axis": [0, 0, 1], "angle_deg": 90}, {"axis": [1, 0, 0], "angle_deg": 180}],
    "C6": [{"axis": [0, 0, 1], "angle_deg": 60}],
}


@pytest.mark.acceptance("R3 lift: {SO2,SO3} -> {1,SO2,SO3}, oracle MATCH")
def test_criterion_01(tmp_path, capsys):
    path = write_spec(
        tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["SO2", "SO3"]}
    )
    code, out, _ = run(capsys, "lift", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == ["1", "SO2", "SO3"]
    assert doc["hasse"] == [[0, 1], [1, 2]]

    code, out, _ = run(capsys, "check", path, "--action", "SO3_on_R3", "--samples", "1500")
    assert code == 0
    assert out.strip().splitlines()[-1] == "MATCH"


@pytest.mark.acceptance("S2 lift: {SO2} -> {1,SO2}, oracle MATCH")
def test_criterion_02(tmp_path, capsys):
    path = write_spec(tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["SO2"]})
    code, out, _ = run(capsys, "lift", path)
    assert code == 0
    assert json.loads(out)["classes"] == ["1", "SO2"]

    code, out, _ = run(capsys, "check", path, "--action", "SO3_on_S2", "--samples", "1500")
    assert code == 0
    assert out.strip().splitlines()[-1] == "MATCH"


@pytest.mark.acceptance("finite ambient lift over T, O, I, D4, C6, one path with SO(3)")
def test_criterion_03(tmp_path, capsys):
    expected_bases = {
        "T": ["1", "C2", "C3", "T"],
        "O": ["1", "C2", "C3", "C4", "O"],
        "I": ["1", "C2", "C3", "C5", "I"],
        "D4": ["1", "C2", "C4", "D4"],
        "C6": ["1", "C6"],
    }
    for name, want in expected_bases.items():
        action = make_action(f"Finite_on_R3:{name}")
        oracle_base, empirical, _, _ = empirical_lattices(action, 0, 1000)
        assert sorted(shorts(oracle_base)) == sorted(want), name

        base = build_lattice(oracle_base)
        res = lifted_lattice(action.ambient, base)
        assert res.lifted.classes == base.classes, name
        assert res.lifted.hasse == base.hasse, name
        assert lift_witness_check(action.ambient, base, res), name

        assert empirical == set(base.classes), name

        path = write_spec(
            tmp_path,
            {
                "group": {"kind": "finite", "generators": FINITE_GENERATORS[name]},
                "base_lattice": shorts(base.classes),
            },
        )
        code, out, _ = run(capsys, "lift", path)
        assert code == 0
        assert json.loads(out)["classes"] == shorts(base.classes), name


@pytest.mark.acceptance("circle ambient lift {C2 < C4 < SO2}, one path with SO(3)")
def test_criterion_04(tmp_path, capsys):
    base = build_lattice(tags(["C2", "C4", "SO2"]))
    res = lifted_lattice(canonical_rep(CIRCLE), base)
    assert res.lifted == base
    assert lift_witness_check(canonical_rep(CIRCLE), base, res)

    path = write_spec(
        tmp_path, {"group": {"kind": "circle"}, "base_lattice": ["C2", "C4", "SO2"]}
    )
    code, out, _ = run(capsys, "lift", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == ["C2", "C4", "SO2"]
    assert doc["hasse"] == [[0, 1], [1, 2]]


@pytest.mark.acceptance("subconjugation agrees with enumeration, n <= 12 plus T, O, I")
def test_criterion_05():
    pool = [TRIVIAL]
    pool += [cyclic(n) for n in range(2, 13)]
    pool += [dihedral(n) for n in range(2, 13)]
    pool += [TETRA, OCTA, ICOSA]
    for b in pool:
        classes = {g_class_of(S) for S in subgroups_of(canonical_rep(b))}
        for s in pool:
            assert is_subconjugate(s, b) == (s in classes), (s.short(), b.short())


@pytest.mark.acceptance("continuous rules agree with C60/D60 truncations")
def test_criterion_06():
    N = 60
    Z = (0.0, 0.0, 1.0)
    X = (1.0, 0.0, 0.0)
    G = (1 / math.sqrt(2), 0.0, 1 / math.sqrt(2))

    def trunc(S):
        if isinstance(S, CircleSub):
            return cyclic_group(N, S.axis)
        if isinstance(S, OrthCircleSub):
            return dihedral_group(N, S.axis)
        return S

    def back(t):
        if t.kind == "C" and t.n == N:
            return "SO2"
        if t.kind == "D" and t.n == N:
            return "O2"
        return t.short()

    # intersections at lattice-compatible positions: same line, orthogonal,
    # generic 45-degree tilt
    cases = []
    for a, b in [(Z, Z), (Z, X), (Z, G)]:
        cases.append((CircleSub(a), CircleSub(b)))
        cases.append((OrthCircleSub(a), OrthCircleSub(b)))
        cases.append((CircleSub(a), OrthCircleSub(b)))
        cases.append((OrthCircleSub(a), CircleSub(b)))
    for A, B in cases:
        predicted = g_class_of(intersect(A, B)).short()
        empirical = back(g_class_of(intersect(trunc(A), trunc(B))))
        assert predicted == empirical, (A, B)

    def truncated_tag(t):
        if t.kind == "SO2":
            return cyclic(N)
        if t.kind == "O2":
            return dihedral(N)
        return t

    # embeddings against every linear isotropy rep of the parent, continuous
    # versus truncated, compared as intersection class sets
    for parent, trunc_parent, finite_kind, names in (
        (ORTH_CIRCLE, dihedral_group(N), "C", ("C2", "C3", "C5", "C6", "D2", "D3", "D5", "D6", "SO2", "O2")),
        (CIRCLE, cyclic_group(N), "1", ("C2", "C3", "C12", "SO2")),
    ):
        H2 = canonical_rep(parent)
        ann = isotropy_on_ann(H2)
        ann_t = [K if g_class_of(K).kind == finite_kind else trunc_parent for K in ann]
        for s in names:
            t = parse_tag(s)
            predicted = {
                g_class_of(intersect(E, K)).short()
                for E in embeddings_of_class_in(t, H2)
                for K in ann
            }
            empirical = {
                back(g_class_of(intersect(E, K)))
                for E in embeddings_of_class_in(truncated_tag(t), trunc_parent)
                for K in ann_t
            }
            assert predicted == empirical, (parent.short(), s)


@pytest.mark.acceptance("zero momentum level equals the base for every action")
def test_criterion_07(tmp_path, capsys):
    action_bases = {
        "SO3_on_R3": ["SO2", "SO3"],
        "SO3_on_S2": ["SO2"],
        "Circle_on_R2": ["1", "SO2"],
        "Finite_on_R3:T": ["1", "C2", "C3", "T"],
        "Finite_on_S2:D4": ["1", "C2", "C4"],
    }
    for name, base_names in action_bases.items():
        action = make_action(name)
        base = build_lattice(tags(base_names))
        level = mu_lattice(action.ambient, base, (0.0, 0.0, 0.0))
        assert level.classes == base.classes, name
        empirical = empirical_lattices(action, 0, 600)[2]
        assert empirical == set(base.classes), name

    path = write_spec(
        tmp_path, {"group": {"kind": "SO3"}, "base_lattice": ["SO2", "SO3"]}
    )
    code, out, _ = run(capsys, "mu", path, "--mu", "[0,0,0]")
    assert code == 0
    assert json.loads(out)["classes"] == ["SO2", "SO3"]


@pytest.mark.acceptance("circle mu = 1 keeps exactly {C2, C4}")
def test_criterion_08(tmp_path, capsys):
    base = build_lattice(tags(["C2", "C4", "SO2"]))
    level = mu_lattice(canonical_rep(CIRCLE), base, 1.0)
    assert shorts(level.classes) == ["C2", "C4"]

    path = write_spec(
        tmp_path, {"group": {"kind": "circle"}, "base_lattice": ["C2", "C4", "SO2"]}
    )
    code, out, _ = run(capsys, "mu", path, "--mu", "1")
    assert code == 0
    assert json.loads(out)["classes"] == ["C2", "C4"]


@pytest.mark.acceptance("relative equilibria match sampling on R3 and S2")
def test_criterion_09():
    for name, base_names, want in (
        ("SO3_on_R3", ["SO2", "SO3"], ["1", "SO2", "SO3"]),
        ("SO3_on_S2", ["SO2"], ["1", "SO2"]),
    ):
        base = build_lattice(tags(base_names))
        predicted = relative_equilibria_lattice(canonical_rep(FULL), base)
        assert shorts(predicted.classes) == want, name
        empirical = empirical_requilibria_lattice(make_action(name), 0, 400)
        assert empirical == set(predicted.classes), name


@pytest.mark.acceptance("200 random bases: monotone, unique min, witnessed, deterministic")
def test_criterion_10():
    pool = [TRIVIAL]
    pool += [cyclic(n) for n in range(2, 11)]
    pool += [dihedral(n) for n in range(2, 11)]
    pool += [TETRA, OCTA, ICOSA, CIRCLE, ORTH_CIRCLE, FULL]

    rng = random.Random(20260816)
    built = 0
    while built < 200:
        chosen = rng.sample(pool, rng.randint(1, 6))
        try:
            base = build_lattice(chosen)
        except (NoUniqueMinimum, ValueError):
            continue
        res = lifted_lattice(canonical_rep(FULL), base)
        assert set(base.classes) <= set(res.lifted.classes)
        assert res.lifted.unique_min
        assert lift_witness_check(canonical_rep(FULL), base, res)

        again = lifted_lattice(canonical_rep(FULL), base)
        first = json.dumps(
            [lattice_to_json(res.lifted), [witness_to_json(w) for w in res.witnesses]]
        )
        second = json.dumps(
            [lattice_to_json(again.lifted), [witness_to_json(w) for w in again.witnesses]]
        )
        assert first == second
        built += 1
