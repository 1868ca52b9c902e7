import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolat.catalog import canonical_rep
from isolat.errors import GroupTooLarge
from isolat.rotation import (
    _KEY_DIGITS,
    CLOSURE_CAP,
    TOLERANCE,
    FiniteRotationGroup,
    Rotation,
    _order_of_angle,
    apply,
    axis_angle_of,
    close_group,
    compose,
    dot,
    eq,
    norm,
    normalize,
    rotation_from_json,
    rotation_to_json,
)
from isolat.tags import ICOSA, N_CAP, OCTA, TETRA, TRIVIAL, cyclic, dihedral


def rodrigues(axis, angle):
    """Independent rotation-matrix oracle."""
    ux, uy, uz = normalize(axis)
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return [
        [c + ux * ux * C, ux * uy * C - uz * s, ux * uz * C + uy * s],
        [uy * ux * C + uz * s, c + uy * uy * C, uy * uz * C - ux * s],
        [uz * ux * C - uy * s, uz * uy * C + ux * s, c + uz * uz * C],
    ]


def mat_apply(M, v):
    return tuple(sum(M[i][j] * v[j] for j in range(3)) for i in range(3))


def close_vec(a, b, tol=1e-9):
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def random_rotation(rng):
    while True:
        q = [rng.gauss(0, 1) for _ in range(4)]
        if sum(c * c for c in q) > 0.3:
            return Rotation(*q)


def test_compose_two_half_turns_is_half_turn_about_third_axis():
    rx = Rotation.from_axis_angle((1, 0, 0), math.pi)
    ry = Rotation.from_axis_angle((0, 1, 0), math.pi)
    rz = Rotation.from_axis_angle((0, 0, 1), math.pi)
    assert eq(compose(rx, ry), rz)
    assert eq(compose(ry, rx), rz)


def test_compose_order_is_right_to_left():
    # compose(a, b) applies b first
    a = Rotation.from_axis_angle((0, 0, 1), math.pi / 2)
    b = Rotation.from_axis_angle((1, 0, 0), math.pi / 2)
    v = (0.0, 0.0, 1.0)
    step = apply(b, v)
    assert close_vec(apply(compose(a, b), v), apply(a, step))


@pytest.mark.parametrize(
    "axis,angle",
    [
        ((0, 0, 1), math.pi / 2),
        ((1, 1, 1), 2 * math.pi / 3),
        ((1, -2, 0.5), 1.234),
        ((0, 1, 0), math.pi),
    ],
)
def test_apply_matches_matrix_oracle(axis, angle):
    r = Rotation.from_axis_angle(axis, angle)
    M = rodrigues(axis, angle)
    rng = random.Random(3)
    for _ in range(50):
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert close_vec(apply(r, v), mat_apply(M, v), 1e-9)


def test_trisection_rotation_permutes_coordinates():
    r = Rotation.from_axis_angle((1, 1, 1), 2 * math.pi / 3)
    assert close_vec(apply(r, (1, 0, 0)), (0, 1, 0))
    assert close_vec(apply(r, (0, 1, 0)), (0, 0, 1))


@pytest.mark.parametrize(
    "angle,order",
    [
        (math.radians(144), 5),
        (math.pi, 2),
        (math.pi / 2, 4),
        (2 * math.pi / 3, 3),
        (2 * math.pi / 7, 7),
    ],
)
def test_order_detection(angle, order):
    aa = axis_angle_of(Rotation.from_axis_angle((0, 0, 1), angle))
    assert aa.order == order


def test_irrational_angle_has_no_order():
    aa = axis_angle_of(Rotation.from_axis_angle((0, 0, 1), 1.0))
    assert aa.order is None


def test_axis_angle_of_identity_is_none():
    assert axis_angle_of(Rotation.identity()) is None
    assert Rotation.identity().is_identity()


def test_half_turn_axis_sign_is_canonical():
    a = axis_angle_of(Rotation.from_axis_angle((0, 0, -1), math.pi))
    b = axis_angle_of(Rotation.from_axis_angle((0, 0, 1), math.pi))
    assert close_vec(a.axis, b.axis)
    assert a.axis[2] > 0


def test_axis_angle_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        axis = normalize((rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)))
        angle = rng.uniform(0.05, math.pi - 0.05)
        r = Rotation.from_axis_angle(axis, angle)
        aa = axis_angle_of(r)
        assert abs(aa.angle - angle) <= 1e-9
        assert eq(Rotation.from_axis_angle(aa.axis, aa.angle), r)


def test_eq_handles_antipodal_quaternions():
    r = Rotation.from_axis_angle((1, 2, 3), 0.7)
    flipped = Rotation(-r.w, -r.x, -r.y, -r.z)
    assert eq(r, flipped)


def test_eq_near_the_sign_boundary():
    # w sits within tolerance of zero, so canonical signs can disagree
    for ang in (math.pi - 5e-10, math.pi, math.pi + 5e-10):
        a = Rotation.from_axis_angle((0, 1, 0), ang)
        b = Rotation.from_axis_angle((0, 1, 0), math.pi)
        assert eq(a, b)


def test_inverse():
    r = Rotation.from_axis_angle((1, 2, -1), 0.9)
    assert compose(r, r.inverse()).is_identity()


def test_degenerate_quaternion_rejected():
    with pytest.raises(ValueError):
        Rotation(0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "gens,size",
    [
        ([((0, 0, 1), math.pi / 2)], 4),
        ([((0, 0, 1), 2 * math.pi / 5)], 5),
        ([((0, 0, 1), math.pi / 2), ((1, 0, 0), math.pi)], 8),
        ([((0, 0, 1), math.pi), ((1, 1, 1), 2 * math.pi / 3)], 12),
    ],
)
def test_close_group_sizes(gens, size):
    F = close_group([Rotation.from_axis_angle(a, ang) for a, ang in gens])
    assert len(F) == size


def test_close_group_caps_infinite_generators():
    with pytest.raises(GroupTooLarge):
        close_group([Rotation.from_axis_angle((0, 0, 1), 1.0)])


def test_from_elements_and_close_group_raise_one_cap_message():
    turn = Rotation.from_axis_angle((0, 0, 1), 1.0)  # of infinite order
    powers = [turn]
    while len(powers) < CLOSURE_CAP:
        powers.append(compose(turn, powers[-1]))
    assert len(FiniteRotationGroup.from_elements(powers[:-1])) == CLOSURE_CAP
    with pytest.raises(GroupTooLarge) as built:
        FiniteRotationGroup.from_elements(powers)
    with pytest.raises(GroupTooLarge) as closed:
        close_group([turn])
    assert str(built.value) == str(closed.value) == f"group order exceeds cap {CLOSURE_CAP}"


def test_where_keeping_every_element_is_the_group_itself():
    F = canonical_rep(OCTA)
    assert F.where(lambda r: True) is F
    # the identity is kept whatever keep says of it
    assert F.where(lambda r: not r.is_identity()) is F


def test_where_keeps_the_parent_objects_in_the_parent_order():
    from isolat.catalog import intersect

    F = canonical_rep(dihedral(4))
    _, quarter_line = max(F.lines.values(), key=lambda entry: len(entry[1]))
    on_line = {id(r) for r, _ in quarter_line}
    S = F.where(lambda r: id(r) in on_line)
    assert len(S) == 4 and S == canonical_rep(cyclic(4))
    assert S.elements == tuple(r for r in F.elements if id(r) in on_line or r.is_identity())
    assert all(any(r is g for g in F) for r in S)
    # so intersect meets S inside F by identity, looking up no element
    assert S.id_set <= F.id_set and intersect(S, F) is S


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_where_keeps_a_copied_parent_own_identity(clone):
    F = clone(canonical_rep(dihedral(4)))
    ident = next(r for r in F if r.is_identity())
    half = next(r for r in F if axis_angle_of(r) is not None and axis_angle_of(r).order == 2)
    assert F.where(lambda r: False).elements == (ident,)
    S = F.where(lambda r: r is half)
    assert len(S) == 2 and S.elements[0] is ident and S.elements[1] is half
    assert S.id_set <= F.id_set


def test_close_group_is_idempotent():
    F = close_group(
        [
            Rotation.from_axis_angle((0, 0, 1), math.pi / 3),
            Rotation.from_axis_angle((1, 0, 0), math.pi),
        ]
    )
    G = close_group(list(F))
    assert F == G


def test_closure_really_closed():
    F = close_group(
        [
            Rotation.from_axis_angle((0, 0, 1), math.pi / 2),
            Rotation.from_axis_angle((1, 0, 0), math.pi),
        ]
    )
    for a in F:
        for b in F:
            assert F.contains(compose(a, b))


def test_group_identity_always_present():
    F = FiniteRotationGroup.from_elements([])
    assert len(F) == 1
    assert F.elements[0].is_identity()


def test_group_deduplicates_equivalent_elements():
    r = Rotation.from_axis_angle((0, 0, 1), math.pi / 2)
    s = Rotation(-r.w, -r.x, -r.y, -r.z)
    F = FiniteRotationGroup.from_elements([r, s, r])
    assert len(F) == 2


def test_group_equality_by_content():
    a = close_group([Rotation.from_axis_angle((0, 0, 1), math.pi / 2)])
    b = close_group([Rotation.from_axis_angle((0, 0, 1), -math.pi / 2)])
    assert a == b
    assert hash(a) == hash(b)


def test_norm_preserved_in_bulk():
    # a million applications drift no further than a few ulps
    rng = random.Random(5)
    rotations = [random_rotation(rng) for _ in range(1000)]
    vectors = [
        (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        for _ in range(1000)
    ]
    worst = 0.0
    for r in rotations:
        for v in vectors:
            worst = max(worst, abs(norm(apply(r, v)) - norm(v)))
    assert worst <= 10 * TOLERANCE


def test_rotation_json_round_trip():
    for axis, angle in [((0, 0, 1), 90.0), ((1, 1, 0), 120.0), ((0, 1, 0), 180.0)]:
        r = Rotation.from_axis_angle(axis, math.radians(angle))
        rec = rotation_to_json(r)
        assert eq(rotation_from_json(rec), r)
        assert rec == rotation_to_json(rotation_from_json(rec))


def test_rotation_json_identity():
    rec = rotation_to_json(Rotation.identity())
    assert rec == {"axis": [0.0, 0.0, 1.0], "angle_deg": 0.0}
    assert rotation_from_json(rec).is_identity()


@pytest.mark.parametrize(
    "rec",
    [
        "not a dict",
        {"axis": [1, 0], "angle_deg": 90},
        {"axis": [1, 0, 0]},
        {"axis": [1, 0, "x"], "angle_deg": 90},
    ],
)
def test_rotation_json_rejects_malformed(rec):
    with pytest.raises(ValueError):
        rotation_from_json(rec)


quaternions = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda q: sum(c * c for c in q) > 0.3)


@settings(max_examples=60, deadline=None)
@given(quaternions)
def test_canonical_sign_invariant(q):
    r = Rotation(*q)
    for c in (r.w, r.x, r.y, r.z):
        if abs(c) > TOLERANCE:
            assert c > 0
            break


@settings(max_examples=60, deadline=None)
@given(quaternions, quaternions)
def test_compose_preserves_angles_between_vectors(qa, qb):
    r = compose(Rotation(*qa), Rotation(*qb))
    u, v = (1.0, 0.2, -0.5), (0.3, -1.0, 0.8)
    assert abs(dot(apply(r, u), apply(r, v)) - dot(u, v)) <= 1e-9


# ---------------------------------------------------------------------------
# memoised order test and single-key from_elements, against the old code


def _order_by_scan(angle):
    """The un-memoised CLOSURE_CAP-step scan of _order_of_angle."""
    turns = angle / (2.0 * math.pi)
    for k in range(1, CLOSURE_CAP + 1):
        f = k * turns
        if abs(f - round(f)) <= TOLERANCE * k and round(f) >= 1:
            return k
    return None


def test_memoised_order_matches_the_scan():
    rng = random.Random(240)
    # axis_angle_of only produces angles in (0, pi]
    rational = {
        2.0 * math.pi * p / n
        for n in range(2, CLOSURE_CAP + 1)
        for p in range(1, n // 2 + 1)
        if math.gcd(p, n) == 1
    }
    perturbed = [
        a * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -8.0))
        for a in sorted(rational)
    ]
    generic = [rng.uniform(0.0, math.pi) for _ in range(1000)]
    for a in sorted(rational) + perturbed + generic:
        want = _order_by_scan(a)
        assert _order_of_angle(a) == want, a
        assert _order_of_angle(a) == want, a  # the memoised answer
    assert _order_of_angle(2.0 * math.pi / 7.0) == 7
    assert _order_of_angle(1.0) is None


def _from_elements_by_lambda(elements):
    """from_elements as it was: key() called four times per sort key."""
    ident = Rotation.identity()
    unique = [ident]
    buckets = {ident.key(): [0]}
    for r in elements:
        k = r.key()
        hits = buckets.get(k)
        if hits is not None and any(eq(unique[i], r) for i in hits):
            continue
        buckets.setdefault(k, []).append(len(unique))
        unique.append(r)
    unique.sort(key=lambda r: (-r.key()[0], -r.key()[1], -r.key()[2], -r.key()[3]))
    return tuple(unique)


def _assert_same_order(elements):
    F = FiniteRotationGroup.from_elements(elements)
    old = _from_elements_by_lambda(elements)
    assert F.elements == old
    table = {}
    for i, r in enumerate(old):
        table.setdefault(r.key(), []).append(i)
    assert F._buckets == table


def test_from_elements_order_matches_lambda_sort_on_catalog_reps():
    rng = random.Random(3)
    tags = [cyclic(n) for n in range(2, 101)] + [dihedral(n) for n in range(2, 101)]
    for t in tags + [TETRA, OCTA, ICOSA]:
        els = list(canonical_rep(t).elements)
        rng.shuffle(els)
        _assert_same_order(els + els[: len(els) // 2])


def test_from_elements_order_matches_lambda_sort_on_random_sets():
    rng = random.Random(4)
    icosa = list(canonical_rep(ICOSA).elements)
    for _ in range(200):
        picked = rng.sample(icosa, rng.randint(0, len(icosa)))
        picked += [random_rotation(rng) for _ in range(rng.randint(0, 5))]
        rng.shuffle(picked)
        _assert_same_order(picked + picked[:3])


def test_key_is_stored_on_the_instance():
    finite = [TRIVIAL, *map(cyclic, range(2, N_CAP + 1)),
              *map(dihedral, range(2, N_CAP + 1)), TETRA, OCTA, ICOSA]
    for t in finite:
        for r in canonical_rep(t):
            fresh = tuple(round(c, _KEY_DIGITS) for c in (r.w, r.x, r.y, r.z))
            assert r.key() == fresh
            assert r.key() is r.key() is r.__dict__["_key"]
