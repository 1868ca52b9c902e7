import random

import pytest

from isolat import oracle
from isolat.catalog import CIRCLE, FULL, CircleSub, FullSub, canonical_rep, g_class_of, parse_tag
from isolat.errors import NotTangent
from isolat.rotation import FiniteRotationGroup, apply, cross, norm, normalize, vsub
from isolat.oracle import (
    SAMPLE_TOL,
    SPHERE_DRAW_MIN_NORM,
    _walk,
    empirical_lattices,
    empirical_requilibria_lattice,
    make_action,
    stabilizer_of_point,
    stabilizer_of_tangent,
    strata_seeds,
)


def shorts(ts):
    return sorted(t.short() for t in ts)


def test_make_action_names():
    assert make_action("SO3_on_R3").ambient is canonical_rep(FULL)
    assert make_action("SO3_on_S2").space == "S2"
    assert make_action("Circle_on_R2").ambient is canonical_rep(CIRCLE)
    a = make_action("Finite_on_R3:D4")
    assert isinstance(a.ambient, FiniteRotationGroup)
    assert a.space == "R3" and g_class_of(a.ambient).short() == "D4"
    assert len(a.ambient) == 8
    assert make_action("Finite_on_S2:T").space == "S2"
    assert make_action("Circle_on_R2").space == "R2"


@pytest.mark.parametrize(
    "bad",
    ["SO3_on_T2", "Finite_on_R3:SO2", "Finite_on_R3:1", "Finite_on_S2:nope", ""],
)
def test_make_action_rejects(bad):
    with pytest.raises(ValueError):
        make_action(bad)


def test_point_stabilizers_r3():
    a = make_action("SO3_on_R3")
    assert isinstance(stabilizer_of_point(a, (0.0, 0.0, 0.0)), FullSub)
    s = stabilizer_of_point(a, (1.0, 2.0, 3.0))
    assert isinstance(s, CircleSub)
    assert g_class_of(s).short() == "SO2"


def test_point_stabilizers_sphere_and_plane():
    s2 = make_action("SO3_on_S2")
    assert isinstance(stabilizer_of_point(s2, (0.0, 1.0, 0.0)), CircleSub)
    r2 = make_action("Circle_on_R2")
    assert g_class_of(stabilizer_of_point(r2, (0.0, 0.0, 0.0))).short() == "SO2"
    assert g_class_of(stabilizer_of_point(r2, (1.0, 0.5, 0.0))).short() == "1"


def test_point_stabilizers_octahedral():
    a = make_action("Finite_on_R3:O")
    assert g_class_of(stabilizer_of_point(a, (0.0, 0.0, 0.0))).short() == "O"
    assert g_class_of(stabilizer_of_point(a, (0.0, 0.0, 1.0))).short() == "C4"
    assert g_class_of(stabilizer_of_point(a, (1.0, 1.0, 1.0))).short() == "C3"
    assert g_class_of(stabilizer_of_point(a, (1.0, 1.0, 0.0))).short() == "C2"
    assert g_class_of(stabilizer_of_point(a, (0.3, 0.5, 0.9))).short() == "1"


def test_tangent_stabilizers_r3():
    a = make_action("SO3_on_R3")
    z = (0.0, 0.0, 1.0)
    o = (0.0, 0.0, 0.0)
    assert isinstance(stabilizer_of_tangent(a, o, o), FullSub)
    assert g_class_of(stabilizer_of_tangent(a, z, o)).short() == "SO2"
    assert g_class_of(stabilizer_of_tangent(a, z, (0.0, 0.0, -3.0))).short() == "SO2"
    assert g_class_of(stabilizer_of_tangent(a, o, z)).short() == "SO2"
    assert g_class_of(stabilizer_of_tangent(a, z, (1.0, 0.0, 0.0))).short() == "1"


def test_tangent_stabilizers_sphere():
    a = make_action("SO3_on_S2")
    z = (0.0, 0.0, 1.0)
    assert g_class_of(stabilizer_of_tangent(a, z, (0.0, 0.0, 0.0))).short() == "SO2"
    assert g_class_of(stabilizer_of_tangent(a, z, (1.0, 0.0, 0.0))).short() == "1"


def test_tangent_rejects_off_sphere_data():
    a = make_action("SO3_on_S2")
    with pytest.raises(NotTangent):
        stabilizer_of_tangent(a, (0.0, 0.0, 2.0), (1.0, 0.0, 0.0))
    with pytest.raises(NotTangent):
        stabilizer_of_tangent(a, (0.0, 0.0, 1.0), (0.0, 0.0, 0.5))
    b = make_action("Finite_on_S2:T")
    with pytest.raises(NotTangent):
        stabilizer_of_tangent(b, (0.0, 0.0, 0.3), (1.0, 0.0, 0.0))


@pytest.mark.parametrize("name", ["SO3_on_S2", "Finite_on_S2:T"])
def test_sphere_point_stabilizer_rejects_off_sphere_points(name):
    a = make_action(name)
    for x in [(0.0, 0.0, 0.0), (0.0, 0.0, 2.0), (0.3, 0.0, 0.0)]:
        with pytest.raises(NotTangent, match="^sphere points must have unit length$"):
            stabilizer_of_point(a, x)
    # the unit length is tested before the orthogonality
    with pytest.raises(NotTangent, match="^sphere points must have unit length$"):
        stabilizer_of_tangent(a, (0.0, 0.0, 2.0), (0.0, 0.0, 1.0))
    with pytest.raises(NotTangent, match="^tangent vectors to the sphere are orthogonal"):
        stabilizer_of_tangent(a, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0))


def test_tangent_stabilizers_finite():
    a = make_action("Finite_on_R3:T")
    d = (1.0, 1.0, 1.0)
    assert g_class_of(stabilizer_of_tangent(a, d, (2.0, 2.0, 2.0))).short() == "C3"
    assert g_class_of(stabilizer_of_tangent(a, d, (1.0, 0.0, 0.0))).short() == "1"
    assert g_class_of(stabilizer_of_tangent(a, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))).short() == "C2"


def test_tangent_stabilizers_plane():
    a = make_action("Circle_on_R2")
    o = (0.0, 0.0, 0.0)
    assert g_class_of(stabilizer_of_tangent(a, o, o)).short() == "SO2"
    assert g_class_of(stabilizer_of_tangent(a, o, (1.0, 0.0, 0.0))).short() == "1"
    assert g_class_of(stabilizer_of_tangent(a, (1.0, 2.0, 0.0), o)).short() == "1"


def test_plane_rejects_data_off_the_plane():
    a = make_action("Circle_on_R2")
    for x in [(0.0, 0.0, 5.0), (1.0, 0.0, 1e-6)]:
        with pytest.raises(NotTangent, match="^plane points must have z = 0$"):
            stabilizer_of_point(a, x)
        with pytest.raises(NotTangent, match="^plane points must have z = 0$"):
            stabilizer_of_tangent(a, x, (0.0, 0.0, 0.0))
    for x in [(0.0, 0.0, 0.0), (1.0, 2.0, 0.0)]:
        with pytest.raises(NotTangent, match="^tangent vectors to the plane must have z = 0$"):
            stabilizer_of_tangent(a, x, (0.0, 0.0, 3.0))
    # rounding within the sample slack stays on the plane
    assert g_class_of(stabilizer_of_tangent(a, (0.0, 0.0, 1e-12), (0.0, 0.0, -1e-12))).short() == "SO2"


ACTION_TABLES = [
    ("SO3_on_R3", ["SO2", "SO3"], ["1", "SO2", "SO3"], ["SO2", "SO3"]),
    ("SO3_on_S2", ["SO2"], ["1", "SO2"], ["SO2"]),
    ("Circle_on_R2", ["1", "SO2"], ["1", "SO2"], ["1", "SO2"]),
    ("Finite_on_R3:T", ["1", "C2", "C3", "T"], ["1", "C2", "C3", "T"], ["1", "C2", "C3", "T"]),
    ("Finite_on_S2:D4", ["1", "C2", "C4"], ["1", "C2", "C4"], ["1", "C2", "C4"]),
]


@pytest.mark.parametrize("name,base,lifted,zero", ACTION_TABLES)
def test_empirical_lattices(name, base, lifted, zero):
    a = make_action(name)
    found_base, found_lifted, found_zero, _ = empirical_lattices(a, 0, 600)
    assert shorts(found_base) == base
    assert shorts(found_lifted) == lifted
    assert shorts(found_zero) == zero


@pytest.mark.parametrize(
    "name,expected",
    [
        ("SO3_on_R3", ["1", "SO2", "SO3"]),
        ("SO3_on_S2", ["1", "SO2"]),
        ("Circle_on_R2", ["1", "SO2"]),
    ],
)
def test_empirical_requilibria(name, expected):
    a = make_action(name)
    assert shorts(empirical_requilibria_lattice(a, 0, 300)) == expected


# The separate requilibria walk that empirical_lattices replaced, kept as a
# reference: its own draws, a fresh G_x per evaluation and the 44 directions
# turned into velocities by hand per action.
def _reference_requilibria(a, rng_seed, n_random):
    points = [x for x, _ in strata_seeds(a)]
    rng = random.Random(rng_seed)
    for _ in range(n_random):
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        for _ in range(3):
            rng.uniform(-2, 2)  # the draw's v, which this loop does not read
        if a.name == "SO3_on_S2":
            if norm(x) <= SPHERE_DRAW_MIN_NORM:
                continue
            x = normalize(x)
        if a.name == "Circle_on_R2":
            x = (x[0], x[1], 0.0)
        points.append(x)
    rng = random.Random(rng_seed + 1)
    xis = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.3, -1.2, 0.7)]
    xis += [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
    out, moved = set(), set()
    for x in points:
        for xi in xis:
            if a.name == "Circle_on_R2":
                v = (-xi[2] * x[1], xi[2] * x[0], 0.0)
            else:
                v = cross(xi, x)
            moved.add((x, v))
            out.add(g_class_of(stabilizer_of_tangent(a, x, v)))
    return out, moved


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["SO3_on_R3", "SO3_on_S2", "Circle_on_R2"])
def test_one_walk_requilibria_equal_the_separate_walk(monkeypatch, name, seed):
    a = make_action(name)
    reference = {}
    for n_random in (0, 60, 2000, 4000):
        # 4000 draws cross the cut: the row reads the first 2000 alone
        cut = min(n_random, oracle.REQUILIBRIA_DRAWS)
        if cut not in reference:
            reference[cut] = _reference_requilibria(a, seed, cut)
        want, want_moved = reference[cut]
        walked = {(x, v) for x, v, _ in _walk(a, seed, n_random)}
        seen = set()
        real = oracle._tangent_isotropy

        def recording(action, x, Gx, v):
            seen.add((x, v))
            return real(action, x, Gx, v)

        monkeypatch.setattr(oracle, "_tangent_isotropy", recording)
        got = empirical_lattices(a, seed, n_random)[3]
        monkeypatch.undo()
        assert got == want, n_random
        # the same trajectory velocities are evaluated, besides the walked pairs
        assert seen == walked | want_moved, n_random


def test_requilibria_needs_continuous_ambient():
    with pytest.raises(ValueError):
        empirical_requilibria_lattice(make_action("Finite_on_R3:T"))


@pytest.mark.parametrize(
    "name", ["SO3_on_R3", "SO3_on_S2", "Circle_on_R2", "Finite_on_S2:T", "Finite_on_R3:O"]
)
def test_empirical_lattices_is_one_walk(monkeypatch, name):
    a = make_action(name)
    points = [x for x, _, _ in _walk(a, 1, 200)]
    seen = []
    real = oracle.stabilizer_of_point

    def counting(action, x):
        seen.append(x)
        return real(action, x)

    monkeypatch.setattr(oracle, "stabilizer_of_point", counting)
    empirical_lattices(a, 1, 200)
    assert seen == points


ZERO_LEVEL_ACTIONS = [
    "SO3_on_R3",
    "SO3_on_S2",
    "Circle_on_R2",
    "Finite_on_R3:T",
    "Finite_on_R3:O",
    "Finite_on_R3:I",
    "Finite_on_R3:D4",
    "Finite_on_S2:D4",
    "Finite_on_S2:O",
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ZERO_LEVEL_ACTIONS)
def test_zero_level_lies_in_lifted(name, seed):
    _, lifted, zero_level, _ = empirical_lattices(make_action(name), seed, 300)
    assert zero_level <= lifted


def _fixes(g, p):
    return norm(vsub(apply(g, p), p)) <= SAMPLE_TOL * max(1.0, norm(p))


@pytest.mark.parametrize("space", ["R3", "S2"])
@pytest.mark.parametrize("tag", ["C5", "D4", "T", "O", "I"])
def test_tangent_stabilizer_matches_direct_filter(space, tag):
    a = make_action(f"Finite_on_{space}:{tag}")
    F = a.ambient
    for x, v, _ in _walk(a, 0, 300):
        for w in (v, (0.0, 0.0, 0.0), x):
            if space == "S2" and w is x:
                with pytest.raises(NotTangent):
                    stabilizer_of_tangent(a, x, w)
                continue
            kept = [g for g in F if _fixes(g, x) and _fixes(g, w)]
            want = g_class_of(FiniteRotationGroup.from_elements(kept))
            assert g_class_of(stabilizer_of_tangent(a, x, w)) is want, (x, w)


def test_sampling_is_monotone():
    a = make_action("Finite_on_R3:O")
    small = empirical_lattices(a, 3, 200)[1]
    big = empirical_lattices(a, 3, 1000)[1]
    assert small <= big


def test_sampling_is_deterministic():
    a = make_action("SO3_on_R3")
    assert empirical_lattices(a, 5, 400) == empirical_lattices(a, 5, 400)


def test_plan_seeds_cover_axis_strata():
    a = make_action("Finite_on_R3:O")
    hits = {g_class_of(stabilizer_of_point(a, x)).short() for x, _ in strata_seeds(a)}
    assert hits == {"1", "C2", "C3", "C4", "O"}


def test_sphere_plan_pairs_are_tangent():
    a = make_action("Finite_on_S2:T")
    for x, v in strata_seeds(a):
        stabilizer_of_tangent(a, x, v)  # must not raise


def test_empirical_octa_base_matches_catalog():
    a = make_action("Finite_on_R3:O")
    assert shorts(empirical_lattices(a, 0, 600)[0]) == ["1", "C2", "C3", "C4", "O"]


def test_empirical_icosa_base_matches_catalog():
    a = make_action("Finite_on_R3:I")
    assert shorts(empirical_lattices(a, 0, 400)[0]) == ["1", "C2", "C3", "C5", "I"]
