"""The lift from the diagonal pairs only, checked against exact rules.

The lift takes, for each base class h, the classes of the entries of
isotropy_on_ann(canonical_rep(h)).  Three independent routes pin that down:

- an integer rule per catalog kind (no rotations) for the isotropy classes
  of h on the annihilator of its algebra, checked against those entries
  and, for every off-diagonal pair h1 < h2, against the classes of E meet K
  built geometrically;
- the lifted lattice of any base equals build_lattice(base + rule(h) ...);
- a copy of the former h1 x h2 pair loop, whose output bytes must equal the
  diagonal engine's on fixed and seeded random bases.
"""

import json
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from isolat.adjoint import isotropy_on_ann
from isolat.catalog import (
    canonical_rep,
    embeddings_of_class_in,
    g_class_of,
    intersect,
    subgroup_equal,
)
from isolat.lift import ann_classes
from isolat.tags import (
    CIRCLE,
    FULL,
    ICOSA,
    N_CAP,
    OCTA,
    ORTH_CIRCLE,
    TETRA,
    TRIVIAL,
    cyclic,
    dihedral,
    is_subconjugate,
    parse_tag,
    tag_sort_key,
)
from isolat.cli import lattice_to_json, witness_to_json
from isolat.lift import (
    LiftWitness,
    _diagonal_witnesses,
    lift_witness_check,
    lifted_classes,
    lifted_lattice,
)
from isolat.momentum import relative_equilibria_lattice
from isolat.poset import build_lattice, compute_depths


def catalog(n_max):
    return (
        [TRIVIAL]
        + [cyclic(n) for n in range(2, n_max + 1)]
        + [dihedral(n) for n in range(2, n_max + 1)]
        + [TETRA, OCTA, ICOSA, CIRCLE, ORTH_CIRCLE, FULL]
    )


CATALOG = catalog(N_CAP)
# the off-diagonal pair sweep over all of N_CAP takes seconds; n <= 24
# covers every kind and both parities of the dihedral rule
PAIR_N_MAX = 24

_EXCEPTIONAL_AXES = {"T": (2, 3), "O": (2, 3, 4), "I": (2, 3, 5)}


def above_sets(tags):
    """For each tag, the other tags it is subconjugate to."""
    return {m: [t for t in tags if t != m and is_subconjugate(m, t)] for m in tags}


ABOVE = above_sets(CATALOG)


def rule(t):
    """Isotropy classes of t on the annihilator of its algebra, by kind."""
    if t.kind == "1":
        return {TRIVIAL}
    if t.kind == "C":
        return {TRIVIAL, t}
    if t.kind == "D":  # three classes for D2, where C_n is C2
        return {TRIVIAL, cyclic(2), cyclic(t.n), t}
    if t.kind in _EXCEPTIONAL_AXES:
        return {TRIVIAL, t} | {cyclic(k) for k in _EXCEPTIONAL_AXES[t.kind]}
    if t.kind == "SO2":
        return {TRIVIAL, CIRCLE}
    if t.kind == "O2":
        return {cyclic(2), ORTH_CIRCLE}
    return {FULL}


def pair_classes(h1, h2):
    """Classes of E meet K over the positions E of h1 in h2, built geometrically."""
    return {
        g_class_of(intersect(E, K))
        for E in embeddings_of_class_in(h1, canonical_rep(h2))
        for K in isotropy_on_ann(canonical_rep(h2))
    }


def test_rule_matches_the_annihilator_isotropy_for_every_tag():
    # requilibria and check read ann_classes alone: this is its geometric guard
    assert len(CATALOG) == 205
    for t in CATALOG:
        labels = set(map(g_class_of, isotropy_on_ann(canonical_rep(t))))
        assert labels == rule(t), t.short()
        assert ann_classes(t) == rule(t) == labels, t.short()


def test_off_diagonal_pairs_add_nothing():
    tags = catalog(PAIR_N_MAX)
    pairs = 0
    for h2 in tags:
        for h1 in tags:
            if h1 != h2 and is_subconjugate(h1, h2):
                assert pair_classes(h1, h2) <= rule(h1), (h1.short(), h2.short())
                pairs += 1
    assert pairs > 300


def test_self_embedding_is_the_canonical_rep_as_a_set():
    for t in CATALOG:
        witnesses = _diagonal_witnesses(t, True)
        assert witnesses is _diagonal_witnesses(t, True)
        for w in witnesses:
            assert w.embedding is witnesses[0].embedding
            assert subgroup_equal(w.embedding, canonical_rep(t)), t.short()
            if t not in (TETRA, OCTA, ICOSA):
                assert w.embedding is canonical_rep(t), t.short()


COLD_LIFT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from isolat import catalog, lift, tags
from isolat.cli import run_command

calls = []

def counted(f):
    def wrapper(*args, **kw):
        calls.append(f.__name__)
        return f(*args, **kw)
    return wrapper

catalog._enumerate_subgroups = counted(catalog._enumerate_subgroups)
catalog.embeddings_of_class_in = counted(catalog.embeddings_of_class_in)
lift.embeddings_of_class_in = counted(lift.embeddings_of_class_in)
with open(sys.argv[2], "w") as fh:
    json.dump({"group": {"kind": "SO3"}, "base_lattice": sys.argv[3:]}, fh)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = run_command(["lift", sys.argv[2]])
witnesses = [w for t in sys.argv[3:] for w in lift._diagonal_witnesses(tags.parse_tag(t), True)]
print(json.dumps({
    "code": code,
    "calls": calls,
    "printed": out.getvalue().count('"embedding"'),
    "witnesses": len(witnesses),
    "own_rep": [w.embedding is catalog.canonical_rep(w.h1) for w in witnesses],
}))
"""


def test_a_cold_lift_without_exceptional_classes_searches_no_position(tmp_path):
    # a fresh process: no per-tag witness and no enumeration exists yet
    base = ["1", "C2", "C3", "C4", "C6", "D2", "D3", "D4", "D6", "SO2", "O2", "SO3"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", COLD_LIFT, src, str(tmp_path / "spec.json"), *base],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["code"] == 0 and got["calls"] == []
    lifted = lifted_classes(canonical_rep(FULL), build_lattice(map(parse_tag, base)))
    assert got["printed"] == len(lifted.classes)
    assert got["witnesses"] > got["printed"] and all(got["own_rep"])


# ---------------------------------------------------------------------------
# The former h1 x h2 pair loop, kept here as a reference engine


@lru_cache(maxsize=None)
def old_pair_contribution(h1, h2):
    found = {}
    for E in embeddings_of_class_in(h1, canonical_rep(h2)):
        for K in isotropy_on_ann(canonical_rep(h2)):
            t = g_class_of(intersect(E, K))
            if t not in found:
                found[t] = LiftWitness(t, h1, h2, g_class_of(K), E, K)
    return tuple(found.values())


def old_lifted_lattice_so3(base):
    depths = compute_depths(base)
    h2_order = sorted(base.classes, key=lambda t: (depths[t], tag_sort_key(t)))
    found = {}
    for h2 in h2_order:
        for h1 in base.classes:
            if is_subconjugate(h1, h2):
                for w in old_pair_contribution(h1, h2):
                    found.setdefault(w.lifted_class, w)
    lifted = build_lattice(found.keys())
    return lifted, tuple(found[t] for t in lifted.classes)


def dump(lifted, witnesses):
    return json.dumps([lattice_to_json(lifted), [witness_to_json(w) for w in witnesses]])


def random_base(rng):
    """A base with a unique minimum: a random floor and classes above it."""
    floor = rng.choice(CATALOG)
    k = min(len(ABOVE[floor]), rng.randint(0, 5))
    return build_lattice([floor] + rng.sample(ABOVE[floor], k))


def test_diagonal_lift_is_byte_identical_to_the_pair_loop():
    axial_98 = [t for t in catalog(48) if t not in (TETRA, OCTA, ICOSA)]
    bases = [
        build_lattice(axial_98),
        build_lattice([parse_tag(s) for s in ["1", "C2", "D2", "T", "O", "I", "SO3"]]),
        build_lattice(
            [parse_tag(s) for s in ["1", "C2", "C4", "D2", "D4", "D8", "SO2", "O2", "SO3"]]
        ),
    ]
    rng = random.Random(20261018)
    bases += [random_base(rng) for _ in range(200)]
    mismatched = []
    for base in bases:
        res = lifted_lattice(canonical_rep(FULL), base)
        if dump(res.lifted, res.witnesses) != dump(*old_lifted_lattice_so3(base)):
            mismatched.append([t.short() for t in base.classes])
    assert mismatched == []


# ---------------------------------------------------------------------------
# Properties over random bases


@st.composite
def so3_bases(draw):
    floor = draw(st.sampled_from(CATALOG))
    rest = draw(st.lists(st.sampled_from(ABOVE[floor] or [floor]), max_size=5))
    return build_lattice([floor] + rest)


CIRCLE_TAGS = [TRIVIAL] + [cyclic(n) for n in range(2, N_CAP + 1)] + [CIRCLE]
CIRCLE_ABOVE = above_sets(CIRCLE_TAGS)


@st.composite
def circle_bases(draw):
    floor = draw(st.sampled_from(CIRCLE_TAGS))
    rest = draw(st.lists(st.sampled_from(CIRCLE_ABOVE[floor] or [floor]), max_size=4))
    return build_lattice([floor] + rest)


FINITE_PARENTS = [dihedral(12), TETRA, OCTA, ICOSA]


@st.composite
def finite_bases(draw):
    parent = draw(st.sampled_from(FINITE_PARENTS))
    inside = [t for t in catalog(12) if is_subconjugate(t, parent)]
    floor = draw(st.sampled_from(inside))
    rest = draw(st.lists(st.sampled_from(above_sets(inside)[floor] or [floor]), max_size=4))
    return canonical_rep(parent), build_lattice([floor] + rest)


@settings(max_examples=60, deadline=None)
@given(so3_bases())
def test_so3_lift_properties(base):
    res = lifted_lattice(canonical_rep(FULL), base)
    assert set(base.classes) <= set(res.lifted.classes)
    assert res.lifted.unique_min
    assert res.lifted == build_lattice(set(base.classes).union(*map(rule, base.classes)))
    assert relative_equilibria_lattice(canonical_rep(FULL), base) == res.lifted
    assert lifted_classes(canonical_rep(FULL), base) == res.lifted
    assert lift_witness_check(canonical_rep(FULL), base, res)


@settings(max_examples=40, deadline=None)
@given(circle_bases())
def test_circle_lift_is_idempotent(base):
    res = lifted_lattice(canonical_rep(CIRCLE), base)
    assert res.lifted == base
    assert lifted_lattice(canonical_rep(CIRCLE), res.lifted).lifted == res.lifted
    assert relative_equilibria_lattice(canonical_rep(CIRCLE), base) == res.lifted
    assert lift_witness_check(canonical_rep(CIRCLE), base, res)


@settings(max_examples=40, deadline=None)
@given(finite_bases())
def test_finite_lift_is_idempotent(case):
    G, base = case
    res = lifted_lattice(G, base)
    assert res.lifted == base
    assert lifted_lattice(G, res.lifted).lifted == res.lifted
    assert relative_equilibria_lattice(G, base) == res.lifted
    assert lift_witness_check(G, base, res)
