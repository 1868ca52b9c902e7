import collections
import copy
import gc
import hashlib
import math
import pickle
import random
import weakref

import pytest

from isolat import catalog
from isolat.adjoint import isotropy_on_ann
from isolat.catalog import (
    CIRCLE,
    FULL,
    ICOSA,
    N_CAP,
    OCTA,
    ORTH_CIRCLE,
    TETRA,
    TRIVIAL,
    CircleSub,
    ClassTag,
    FullSub,
    OrthCircleSub,
    canonical_rep,
    classify_finite,
    cyclic,
    cyclic_group,
    dihedral,
    dihedral_group,
    embeddings_of_class_in,
    g_class_of,
    in_plane_direction,
    intersect,
    is_subconjugate,
    parse_tag,
    principal_axis,
    subgroup_contains,
    subgroup_equal,
    subgroups_of,
    tag_sort_key,
)
from isolat.errors import NotSubconjugate, UnclassifiableGroup
from isolat.poset import _down_sets, build_lattice
from isolat.rotation import (
    FiniteRotationGroup,
    Rotation,
    canon_direction,
    compose,
    cross,
    eq,
    line_key,
)


def random_rotation(rng):
    while True:
        q = [rng.gauss(0, 1) for _ in range(4)]
        if sum(c * c for c in q) > 0.3:
            return Rotation(*q)


# ---------------------------------------------------------------------------
# tags


def test_tag_parse_and_display():
    assert parse_tag("C4") == cyclic(4)
    assert parse_tag("D12") == dihedral(12)
    assert parse_tag("SO3") == FULL
    assert cyclic(4).display() == "C4"
    assert CIRCLE.display() == "SO(2)"
    assert ORTH_CIRCLE.short() == "O2"
    assert TRIVIAL.display() == "1"


@pytest.mark.parametrize("bad", ["C1", "D1", "C101", "X3", "", "SO4", "c4"])
def test_tag_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_tag(bad)


@pytest.mark.parametrize(
    "bad", ["C\u0662", "C0002", "C02", "D00", "D\u00b2", "C\uff12", "C+2", "C-2", "C 2", "C2\n"]
)
def test_tag_parse_takes_ascii_digits_without_leading_zeros(bad):
    # other scripts' digits, superscripts and padding would parse to a tag
    # that prints differently from what was written
    with pytest.raises(ValueError, match="^cannot parse class tag"):
        parse_tag(bad)


def test_tag_parse_keeps_the_range_message_for_long_indices():
    for s in ("C0", "C101", "D" + "9" * 5000):
        with pytest.raises(ValueError, match=r"index must lie in 2\.\.100"):
            parse_tag(s)


def test_tag_validation():
    with pytest.raises(ValueError):
        ClassTag("C")
    with pytest.raises(ValueError):
        ClassTag("T", 3)
    with pytest.raises(ValueError):
        ClassTag("D", 101)


def test_tag_sort_is_by_order():
    tags = [FULL, cyclic(2), TRIVIAL, dihedral(2), TETRA, CIRCLE, cyclic(5)]
    s = sorted(tags, key=tag_sort_key)
    assert s == [TRIVIAL, cyclic(2), dihedral(2), cyclic(5), TETRA, CIRCLE, FULL]


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize(
    "tag",
    ["1", "C2", "C3", "C7", "D2", "D3", "D6", "T", "O", "I"],
)
def test_canonical_reps_classify_to_their_tag(tag):
    t = parse_tag(tag)
    rep = canonical_rep(t)
    assert g_class_of(rep) == t
    if isinstance(rep, FiniteRotationGroup):
        assert len(rep) == t.min_order()


def test_continuous_reps():
    assert isinstance(canonical_rep(CIRCLE), CircleSub)
    assert isinstance(canonical_rep(ORTH_CIRCLE), OrthCircleSub)
    assert isinstance(canonical_rep(FULL), FullSub)
    assert g_class_of(canonical_rep(ORTH_CIRCLE)) == ORTH_CIRCLE


def test_tetra_sits_inside_octa():
    octa = canonical_rep(OCTA)
    for r in canonical_rep(TETRA):
        assert octa.contains(r)


def test_icosa_closes_at_sixty():
    rep = canonical_rep(ICOSA)
    assert len(rep) == 60
    assert classify_finite(rep) == ICOSA


def test_classification_is_conjugation_invariant():
    rng = random.Random(23)
    tags = [cyclic(n) for n in (2, 3, 5, 8)] + [dihedral(n) for n in (2, 3, 6)]
    tags += [TETRA, OCTA]
    for t in tags:
        rep = canonical_rep(t)
        for _ in range(6):
            h = random_rotation(rng)
            moved = FiniteRotationGroup.from_elements(compose(h, compose(r, h.inverse())) for r in rep)
            assert g_class_of(moved) == t


def test_classify_finite_stores_its_tag_per_instance(monkeypatch):
    scans = []
    real = catalog.axis_lines
    monkeypatch.setattr(catalog, "axis_lines", lambda F: scans.append(F) or real(F))
    els = canonical_rep(dihedral(5)).elements
    A = FiniteRotationGroup.from_elements(els)
    B = FiniteRotationGroup.from_elements(els)
    assert A == B and A is not B
    assert classify_finite(A) == dihedral(5)
    assert classify_finite(A) == dihedral(5)
    assert scans == [A]
    assert classify_finite(B) == dihedral(5)
    assert scans == [A, B]


def test_classify_rejects_non_groups():
    # two rotations about the same axis with inconsistent orders
    els = [
        Rotation.from_axis_angle((0, 0, 1), math.pi / 2),
        Rotation.from_axis_angle((0, 0, 1), math.pi),
    ]
    # not closed: missing the 270 degree element
    with pytest.raises(UnclassifiableGroup):
        classify_finite(FiniteRotationGroup.from_elements(els))


# ---------------------------------------------------------------------------
# subgroup enumeration


def test_subgroup_counts_cyclic():
    assert len(subgroups_of(canonical_rep(cyclic(4)))) == 3
    # one per divisor
    assert len(subgroups_of(canonical_rep(cyclic(12)))) == 6


def test_subgroup_profile_tetra():
    subs = subgroups_of(canonical_rep(TETRA))
    profile = collections.Counter(len(S) for S in subs)
    assert profile == {1: 1, 2: 3, 3: 4, 4: 1, 12: 1}


def test_subgroup_count_dihedral():
    # tau(n) + sigma(n) subgroups for D_n
    assert len(subgroups_of(canonical_rep(dihedral(6)))) == 16
    assert len(subgroups_of(canonical_rep(dihedral(12)))) == 34


def test_subgroup_profile_octa():
    subs = subgroups_of(canonical_rep(OCTA))
    profile = collections.Counter(classify_finite(S).short() for S in subs)
    assert profile == {
        "1": 1, "C2": 9, "C3": 4, "C4": 3,
        "D2": 4, "D3": 4, "D4": 3, "T": 1, "O": 1,
    }


def test_subgroup_count_icosa():
    subs = subgroups_of(canonical_rep(ICOSA))
    assert len(subs) == 59
    profile = collections.Counter(classify_finite(S).short() for S in subs)
    assert profile["C2"] == 15 and profile["C5"] == 6 and profile["T"] == 5


def test_subgroups_are_subgroups():
    F = canonical_rep(dihedral(4))
    for S in subgroups_of(F):
        for r in S:
            assert F.contains(r)


def test_subgroups_order_cap():
    with pytest.raises(ValueError):
        subgroups_of(canonical_rep(dihedral(100)))


def test_subgroups_of_a_non_group_is_unclassifiable():
    quarter = Rotation.from_axis_angle((0.0, 0.0, 1.0), math.pi / 2)
    with pytest.raises(UnclassifiableGroup):
        subgroups_of(FiniteRotationGroup.from_elements([quarter]))


# sha256 over repr((w, x, y, z)) of every element of every subgroup, in
# subgroups_of order, recorded from the pairwise-join code before it ran on
# the Cayley table: same groups, same float bits, same order.  D6, D8, D9,
# D10, D12 and I were re-pinned when the order took the line_key of the
# principal line instead of its raw floats: the same groups bit for bit, in
# a new order.
SUBGROUP_DIGESTS = {
    "T": "9cd0b360323443d326e3995416521a0226a152909342bee5500e960a47720128",
    "O": "2996dad20bfea7e3f1264e177872513752f13023808c9c9568d60a2cc4db9852",
    "I": "b5e7bb032a336600273b693aaf90b0c3f6f33a48148fbd233dac77923b1667b4",
    "C2": "c4c7879246a03edd4cb4299df910f6ff545389aefa832005b3f507991a8722c2",
    "C3": "0fb415063fb5a3ef140250d3a220aac7efdb573d438c29d77c3f6865cdde2d22",
    "C4": "ba315a9b8ab52bba30012d3aabb19b559530bb4444ade547bcc6bd07e39a9710",
    "C5": "76f8655247318a4e01e1ce07b1861a519326711f32197e5b2ec9629653356f63",
    "C6": "851e94ae87bc4b4499cb27ec93326a4d3a96271aa31a2c4e09bb3aa1c74d644f",
    "C7": "42c6bf26106276ecc6b64fcaba0bedacd1cfc2dd25cebb56a6a2189e1f7746b8",
    "C8": "4e99e051abd48dbba3e08df51a471152ead0139bce71ae858f6270d5a74e3647",
    "C9": "156c3b0306c657a681d2d0d3cc0fb77ba93a2e1879c6aad6981c5cdcf3d49966",
    "C10": "b2960da445b808861c80ec1062a40a24f9b6d8daa4ad87d55131742e051bb9a1",
    "C11": "51cfb361e43ecb7e7b8b6cd39e6f1ab3f6cc6087a07b7dd8da14a6b8060671a0",
    "C12": "0addbff6d7654ef43e2a28f82ec220c213eebc5867011d7733a0d177b7b08388",
    "D2": "b46c14d9e1af08c9c59e0b7b94e3ab046587926059133a1689bb294b85c3f546",
    "D3": "6499148243a9c3efd3181e8061fa3a3ddfed61885829e87570e67fef346fc6bb",
    "D4": "a63d3e1e7e63fc1511cb0fa71023fb4982e3b46bccbb15095b111c8c371ff684",
    "D5": "6793400e33bf48d660e08815c0c4e0e47fa89032a1173da80aded1037e2a9a81",
    "D6": "11f2f117e822bf3cf32cd2280a1d3cc9d0c0dc997d9034324c4bd36c99e65eb1",
    "D7": "14caaed118cf6bd6fb5ffaf0aaed66da333da161b65acfd6d87b67120018bdd2",
    "D8": "dff6ff1f8c196c241dfcddc169bd2094578fbee7b3be5ebd92eb2643a3b2e9e1",
    "D9": "6e476c9d34dc6c7efe0b955521d788c2ee3b45b8c41c11e6643cbd6ea17bbe28",
    "D10": "f95cb839123fc341cbba53eaf6b8caf08560cf3f415a6e5bf7ad69da295026a0",
    "D11": "d84f5a97f01750a86c146a1adc40dce6fe06041ecbac143b58c80d984fa32849",
    "D12": "30ac38abd5ab39cafee13676c0bf03ddc68ee567756ef18013e4951f8b4060d3",
}


@pytest.mark.parametrize("tag", sorted(SUBGROUP_DIGESTS, key=lambda s: tag_sort_key(parse_tag(s))))
def test_subgroups_of_is_bitwise_pinned(tag):
    h = hashlib.sha256()
    for S in subgroups_of(canonical_rep(parse_tag(tag))):
        for r in S:
            h.update(repr((r.w, r.x, r.y, r.z)).encode())
    assert h.hexdigest() == SUBGROUP_DIGESTS[tag]


# One sha256 over the subgroups of T, O, I, C2..C36 and D2..D36, each parent
# in turn and its subgroups in subgroups_of order: every subgroup's order,
# its elements' float bits and the positions in the parent of the objects
# its id_set names.  Recorded from the join fixpoint, before the
# enumeration became one pass over pairs of cyclic subgroups.
ENUMERATION_PARENTS = [TETRA, OCTA, ICOSA, *map(cyclic, range(2, 37)), *map(dihedral, range(2, 37))]
ENUMERATION_DIGEST = "63a6a8fcd493d6b8e9ae11635038db8924e2c5adf09b5d48bf0c50c62da54954"


def test_one_pass_of_cyclic_joins_enumerates_the_fixpoints_subgroups():
    h = hashlib.sha256()
    for p in ENUMERATION_PARENTS:
        P = canonical_rep(p)
        at = {id(r): i for i, r in enumerate(P.elements)}
        for S in subgroups_of(P):
            record = (len(S), [(r.w, r.x, r.y, r.z) for r in S], sorted(at[i] for i in S.id_set))
            h.update(repr(record).encode())
    assert h.hexdigest() == ENUMERATION_DIGEST


# ---------------------------------------------------------------------------
# subconjugation


@pytest.mark.parametrize(
    "a,b,want",
    [
        ("1", "C2", True),
        ("C2", "C4", True),
        ("C3", "C4", False),
        ("C2", "D5", True),
        ("C5", "D5", True),
        ("C4", "D6", False),
        ("D2", "D4", True),
        ("D2", "D5", False),
        ("D3", "D6", True),
        ("C3", "T", True),
        ("C4", "T", False),
        ("D2", "T", True),
        ("D3", "T", False),
        ("C4", "O", True),
        ("D4", "O", True),
        ("C5", "I", True),
        ("D5", "I", True),
        ("D4", "I", False),
        ("T", "O", True),
        ("T", "I", True),
        ("O", "I", False),
        ("C7", "SO2", True),
        ("D7", "SO2", False),
        ("D7", "O2", True),
        ("SO2", "O2", True),
        ("O2", "SO2", False),
        ("O2", "SO3", True),
        ("SO3", "O2", False),
        ("T", "O2", False),
    ],
)
def test_subconjugation_table(a, b, want):
    assert is_subconjugate(parse_tag(a), parse_tag(b)) is want


def _tag_pool():
    pool = [TRIVIAL]
    pool += [cyclic(n) for n in range(2, 11)]
    pool += [dihedral(n) for n in range(2, 11)]
    pool += [TETRA, OCTA, ICOSA, CIRCLE, ORTH_CIRCLE, FULL]
    return pool


def test_subconjugation_is_a_partial_order():
    pool = _tag_pool()
    for a in pool:
        assert is_subconjugate(a, a)
    for a in pool:
        for b in pool:
            if a != b and is_subconjugate(a, b):
                assert not is_subconjugate(b, a)
    for a in pool:
        for b in pool:
            if not is_subconjugate(a, b):
                continue
            for c in pool:
                if is_subconjugate(b, c):
                    assert is_subconjugate(a, c)


# ---------------------------------------------------------------------------
# membership and intersections


def test_membership_continuous():
    z = (0.0, 0.0, 1.0)
    circle = CircleSub(z)
    orth = OrthCircleSub(z)
    spin = Rotation.from_axis_angle(z, 0.77)
    flip = Rotation.from_axis_angle((math.cos(0.3), math.sin(0.3), 0), math.pi)
    tilt = Rotation.from_axis_angle((1, 0, 1), math.pi)
    assert subgroup_contains(circle, spin)
    assert not subgroup_contains(circle, flip)
    assert subgroup_contains(orth, spin)
    assert subgroup_contains(orth, flip)
    assert not subgroup_contains(orth, tilt)


def test_intersect_orth_circles_perpendicular_gives_klein():
    K = intersect(OrthCircleSub((0, 0, 1)), OrthCircleSub((1, 0, 0)))
    assert g_class_of(K) == dihedral(2)
    assert len(K) == 4


def test_intersect_orth_circles_generic_gives_common_flip():
    K = intersect(OrthCircleSub((0, 0, 1)), OrthCircleSub((1, 0, 1)))
    assert g_class_of(K) == cyclic(2)
    # the surviving flip is about the cross of the two axes
    aa = [r for r in K if not r.is_identity()]
    from isolat.rotation import axis_angle_of

    axis = axis_angle_of(aa[0]).axis
    assert abs(axis[1]) > 0.99


def test_intersect_circle_with_orth_circle():
    z, x = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
    assert isinstance(intersect(CircleSub(z), OrthCircleSub(z)), CircleSub)
    K = intersect(CircleSub(z), OrthCircleSub(x))
    assert g_class_of(K) == cyclic(2)
    assert g_class_of(intersect(CircleSub(z), OrthCircleSub((1, 0, 1)))) == TRIVIAL


def test_intersect_circles():
    z = (0.0, 0.0, 1.0)
    assert isinstance(intersect(CircleSub(z), CircleSub((0, 0, -1))), CircleSub)
    assert g_class_of(intersect(CircleSub(z), CircleSub((1, 0, 0)))) == TRIVIAL


def test_intersect_finite_with_continuous():
    octa = canonical_rep(OCTA)
    z = (0.0, 0.0, 1.0)
    C = intersect(octa, CircleSub(z))
    assert g_class_of(C) == cyclic(4)
    # manual filter oracle
    manual = [r for r in octa if subgroup_contains(CircleSub(z), r)]
    assert len(manual) == 4
    D = intersect(octa, OrthCircleSub(z))
    assert g_class_of(D) == dihedral(4)
    tetra = canonical_rep(TETRA)
    assert g_class_of(intersect(tetra, OrthCircleSub(z))) == dihedral(2)


def test_intersect_with_full():
    octa = canonical_rep(OCTA)
    assert intersect(FullSub(), octa) is octa
    assert isinstance(intersect(octa, FullSub()), FiniteRotationGroup)


def test_intersect_finite_finite():
    t = canonical_rep(TETRA)
    d4 = dihedral_group(4)
    K = intersect(t, d4)
    assert g_class_of(K) == dihedral(2)


def test_subgroup_equal_compares_orth_circles_by_line():
    a = OrthCircleSub((0, 0, 1))
    b = OrthCircleSub((1e-12, 0, -2))
    assert a != b and subgroup_equal(a, b)
    assert not subgroup_equal(a, OrthCircleSub((1, 0, 0)))
    assert not subgroup_equal(a, CircleSub((0, 0, 1)))


# ---------------------------------------------------------------------------
# embeddings


def test_embeddings_in_full_are_canonical_only():
    assert embeddings_of_class_in(TETRA, FullSub()) == [canonical_rep(TETRA)]


def test_embeddings_precondition():
    with pytest.raises(NotSubconjugate):
        embeddings_of_class_in(dihedral(3), canonical_rep(cyclic(6)))


def test_embeddings_in_circle():
    embs = embeddings_of_class_in(cyclic(4), CircleSub((0, 0, 1)))
    assert len(embs) == 1
    assert g_class_of(embs[0]) == cyclic(4)
    assert embeddings_of_class_in(CIRCLE, CircleSub((0, 0, 1))) == [
        CircleSub((0, 0, 1))
    ]


def test_embeddings_in_orth_circle():
    H = OrthCircleSub((0.0, 0.0, 1.0))
    c2 = embeddings_of_class_in(cyclic(2), H)
    assert len(c2) == 3  # axial, marked flip, off-marked flip
    kinds = [g_class_of(E) for E in c2]
    assert kinds == [cyclic(2)] * 3
    d3 = embeddings_of_class_in(dihedral(3), H)
    assert len(d3) == 2
    assert all(g_class_of(E) == dihedral(3) for E in d3)
    # the marked flip really is at the marked direction
    marked = in_plane_direction(H.axis, 0.0)
    flip = [r for r in c2[1] if not r.is_identity()][0]
    from isolat.rotation import axis_angle_of

    assert abs(abs(sum(a * b for a, b in zip(axis_angle_of(flip).axis, marked))) - 1) < 1e-9


def test_embeddings_counts_in_d100():
    D100 = canonical_rep(dihedral(100))
    assert len(embeddings_of_class_in(cyclic(2), D100)) == 101
    assert len(embeddings_of_class_in(dihedral(4), D100)) == 25
    assert len(embeddings_of_class_in(dihedral(2), D100)) == 50
    assert len(embeddings_of_class_in(cyclic(100), D100)) == 1
    assert len(embeddings_of_class_in(dihedral(100), D100)) == 1


def test_embeddings_match_enumeration_for_small_dihedral():
    # the closed forms used for large parents agree with brute enumeration
    for n in range(2, 9):
        P = canonical_rep(dihedral(n))
        by_class = {}
        for S in subgroups_of(P):
            by_class.setdefault(classify_finite(S), set()).add(S.key_set)
        for t, want in by_class.items():
            if t == TRIVIAL:
                continue
            got = {E.key_set for E in embeddings_of_class_in(t, P)}
            assert got == want, (n, t.short())


def test_embeddings_match_enumeration_for_cyclic_parents():
    for n in (4, 6, 12):
        P = canonical_rep(cyclic(n))
        by_class = {}
        for S in subgroups_of(P):
            by_class.setdefault(classify_finite(S), set()).add(S.key_set)
        for t, want in by_class.items():
            if t == TRIVIAL:
                continue
            got = {E.key_set for E in embeddings_of_class_in(t, P)}
            assert got == want


def test_embeddings_in_octa():
    octa = canonical_rep(OCTA)
    assert len(embeddings_of_class_in(cyclic(4), octa)) == 3
    assert len(embeddings_of_class_in(dihedral(3), octa)) == 4
    assert len(embeddings_of_class_in(TETRA, octa)) == 1
    for E in embeddings_of_class_in(dihedral(2), octa):
        for r in E:
            assert octa.contains(r)


# Finite parents of order at most SUBGROUPS_ORDER_CAP whose C and D
# positions come from the line table rather than from subgroups_of.
LINE_TABLE_PARENTS = [TETRA, OCTA, ICOSA, *map(cyclic, range(2, 25)), *map(dihedral, range(2, 25))]


def test_line_table_positions_match_the_subgroup_enumeration():
    pairs = 0
    for p in LINE_TABLE_PARENTS:
        P = canonical_rep(p)
        subs = subgroups_of(P)
        for t in _catalog_tags():
            if t.kind not in ("C", "D") or not is_subconjugate(t, p):
                continue
            want = [S.key_set for S in subs if classify_finite(S) == t]
            got = [E.key_set for E in embeddings_of_class_in(t, P)]
            assert got == want, (p.short(), t.short())
            pairs += 1
    assert pairs == 206


def test_subgroups_of_orders_each_class_by_the_line_key_of_its_principal_line():
    for p in LINE_TABLE_PARENTS:
        subs = subgroups_of(canonical_rep(p))
        for a, b in zip(subs, subs[1:]):
            if len(a) == len(b) and classify_finite(a) == classify_finite(b):
                assert line_key(principal_axis(a)) <= line_key(principal_axis(b)), p.short()


def test_a_position_that_fills_its_parent_is_the_parent():
    for n in (2, 5, 12):
        for p in (cyclic(n), dihedral(n)):
            P = canonical_rep(p)
            assert embeddings_of_class_in(p, P)[0] is P


def test_trivial_embedding():
    embs = embeddings_of_class_in(TRIVIAL, canonical_rep(OCTA))
    assert len(embs) == 1
    assert subgroup_equal(embs[0], canonical_rep(TRIVIAL))


# ---------------------------------------------------------------------------
# misc geometry helpers


def test_principal_axis():
    assert principal_axis(canonical_rep(cyclic(6))) == (0.0, 0.0, 1.0)
    assert principal_axis(canonical_rep(dihedral(4))) == (0.0, 0.0, 1.0)
    assert principal_axis(canonical_rep(TRIVIAL)) == (0.0, 0.0, 0.0)


def test_cyclic_group_constructor_about_tilted_axis():
    F = cyclic_group(5, (1.0, 1.0, 0.0))
    assert classify_finite(F) == cyclic(5)
    F2 = dihedral_group(3, (1.0, 0.0, 1.0), 0.4)
    assert classify_finite(F2) == dihedral(3)


def _old_finite_intersect(A, B):
    """The former finite branch of intersect: always a from_elements copy."""
    small, other = (A, B) if len(A) <= len(B) else (B, A)
    kept = [r for r in small if subgroup_contains(other, r)]
    return small, FiniteRotationGroup.from_elements(kept)


SMALL_FINITE = (
    [TRIVIAL]
    + [cyclic(n) for n in range(2, 25)]
    + [dihedral(n) for n in range(2, 25)]
    + [TETRA, OCTA, ICOSA]
)


def _finite_pairs():
    reps = [canonical_rep(t) for t in SMALL_FINITE]
    for A in reps:
        for B in reps:
            yield A, B
    for h in SMALL_FINITE:
        P = canonical_rep(h)
        for t in SMALL_FINITE:
            if is_subconjugate(t, h):
                for E in embeddings_of_class_in(t, P):
                    yield E, P
                    yield P, E


def test_intersect_returns_a_contained_operand_itself():
    contained = copied = 0
    for A, B in _finite_pairs():
        got = intersect(A, B)
        small, old = _old_finite_intersect(A, B)
        if len(old) == len(small):
            assert got is small
            contained += 1
        else:
            assert got.key_set == old.key_set
            assert g_class_of(got) == g_class_of(old)
            copied += 1
    assert contained > 1000 and copied > 1000


def _lookup_path(A, B):
    """intersect's finite branch without its id_set shortcut, as a reference:
    every element of the smaller operand is looked up in the other."""
    small, other = (A, B) if len(A) <= len(B) else (B, A)
    kept = [r for r in small if subgroup_contains(other, r)]
    if len(kept) == len(small):
        return small
    return FiniteRotationGroup.from_elements(kept)


def _twins(S):
    """Copies of S whose elements are new Rotation objects equal to S's.

    One holds field-for-field copies; the other conjugates by a rotation so
    close to the identity that each element moves well inside the tolerance.
    """
    copies = [copy.copy(r) for r in S]
    nudge = Rotation.from_axis_angle((0.3, -0.5, 0.8), 1e-13)
    moved = [compose(nudge, compose(r, nudge.inverse())) for r in S]
    return [FiniteRotationGroup.from_elements(els) for els in (copies, moved)]


def test_equal_elements_of_distinct_objects_take_the_lookup_path_and_agree_with_it():
    pairs = list(_finite_pairs())
    for t in SMALL_FINITE:
        P = canonical_rep(t)
        subs = [embeddings_of_class_in(s, P)[0] for s in SMALL_FINITE if is_subconjugate(s, t)]
        for twin in _twins(P):
            assert all(eq(a, b) for a, b in zip(twin, P))
            # from_elements puts the one shared identity into every group, so
            # only the other elements are new objects
            assert all(a is not b for a, b in zip(twin, P) if not b.is_identity())
            pairs += [(S, twin) for S in subs] + [(twin, S) for S in subs]
    shared = 0
    for A, B in pairs:
        got, want = intersect(A, B), _lookup_path(A, B)
        if want is A or want is B:
            assert got is want
        else:
            assert got.elements == want.elements
        shared += any(a is not b and eq(a, b) for a in A for b in B)
    assert shared > 1000


def _own_copy(S, P):
    """S rebuilt from P's own element objects (S lies in P)."""
    els = P.elements
    return FiniteRotationGroup.from_elements(els[P.index_of(r)] for r in S)


def _mixed_copy(S, P):
    """S rebuilt from P's own objects and new copies, alternately."""
    own = _own_copy(S, P).elements
    return FiniteRotationGroup.from_elements(
        r if i % 2 else copy.copy(r) for i, r in enumerate(own)
    )


def _check_against_the_reference(A, B):
    got, want = intersect(A, B), _lookup_path(A, B)
    if want is A or want is B:
        assert got is want
    else:
        assert got.elements == want.elements


def test_intersect_returns_an_operand_made_of_the_others_objects():
    fired = 0
    for t in SMALL_FINITE:
        P = canonical_rep(t)
        own = [_own_copy(E, P) for s in SMALL_FINITE if is_subconjugate(s, t)
               for E in embeddings_of_class_in(s, P)]
        for S in own:
            assert S.id_set <= P.id_set
            assert intersect(S, P) is S
            if len(S) < len(P):  # of equal sizes, A is returned
                assert intersect(P, S) is S
            _check_against_the_reference(S, P)
            _check_against_the_reference(P, S)
            fired += 1
        # own-object subgroups of one P: contained pairs share objects, the
        # rest go through the bucket loop
        for A in own[:12]:
            for B in own[:12]:
                _check_against_the_reference(A, B)
    assert fired > 500


def test_copies_mixed_with_own_objects_take_the_bucket_loop():
    checked = 0
    for t in SMALL_FINITE:
        P = canonical_rep(t)
        twin = _twins(P)[0]
        embs = [E for s in SMALL_FINITE if is_subconjugate(s, t)
                for E in embeddings_of_class_in(s, P)]
        mixed = [_mixed_copy(E, P) for E in embs]
        own = [_own_copy(E, P) for E in embs]
        for M, S in zip(mixed, own):
            if len(M) > 2:  # a copy among its non-identity elements
                assert not M.id_set <= P.id_set
            for A, B in [(M, P), (P, M), (S, twin), (twin, S), (M, twin)]:
                _check_against_the_reference(A, B)
            assert intersect(M, P) is M and intersect(S, twin) is S
            checked += 1
        # mixed and own copies of different embeddings share some objects,
        # the identity at least, while their intersection is often proper
        for A in mixed[:12]:
            for B in own[:12]:
                _check_against_the_reference(A, B)
                _check_against_the_reference(B, A)
    assert checked > 500


def test_a_join_off_its_parent_position_is_unclassifiable(monkeypatch):
    # one element of the first join moves by about 5e-8: the same rounded key
    # as its position in the parent, but outside TOLERANCE of it
    P, real = canonical_rep(OCTA), catalog.close_group
    nudge = Rotation.from_axis_angle((0.6, 0.0, 0.8), 1e-7)
    moved = []

    def nudged(gens, **kw):
        J = real(gens, **kw)
        for i, r in enumerate(J.elements):
            s = compose(r, nudge)
            if not moved and not r.is_identity() and s.key() == r.key() and not eq(s, r):
                moved.append(s)
                return FiniteRotationGroup.from_elements(J.elements[:i] + (s,) + J.elements[i + 1:])
        return J

    monkeypatch.setattr(catalog, "close_group", nudged)
    with pytest.raises(UnclassifiableGroup):
        subgroups_of(P)
    assert moved and P.index_of(moved[0]) is None


@pytest.mark.parametrize("t", [TETRA, OCTA, ICOSA], ids=lambda t: t.short())
def test_enumerated_subgroups_of_the_exceptional_groups_meet_by_identity(t):
    P = canonical_rep(t)
    members = subgroups_of(P)
    entries = isotropy_on_ann(P)
    for S in members:
        assert S.id_set <= P.id_set
        assert intersect(S, P) is S
        for X in [P, *entries, *members]:
            _check_against_the_reference(S, X)
            _check_against_the_reference(X, S)


def test_an_enumerated_subgroup_keeps_its_parent_alive():
    # a parent of new objects; its enumeration is stored on it alone
    P = FiniteRotationGroup.from_elements(copy.copy(r) for r in canonical_rep(ICOSA))
    members = subgroups_of(P)
    parent = weakref.ref(P)
    del P
    gc.collect()
    assert parent() is not None
    # new objects may now take any id that was freed
    others = [_twins(canonical_rep(s))[0] for s in (TETRA, dihedral(5), cyclic(3))]
    for S in members:
        for X in [parent(), canonical_rep(ICOSA), *others, *members[::7]]:
            _check_against_the_reference(S, X)
            _check_against_the_reference(X, S)


@pytest.mark.parametrize("t", [TETRA, OCTA, ICOSA], ids=lambda t: t.short())
def test_a_twin_parent_enumerates_its_own_subgroups(t):
    # equal to canonical_rep(t) but made of other objects: its subgroups are
    # equal to the canonical ones, and hold the twin's ids, not P's
    P = canonical_rep(t)
    twin = _twins(P)[0]
    own, theirs = subgroups_of(P), subgroups_of(twin)
    assert theirs == own and theirs is not own
    for S in theirs:
        assert S.id_set <= twin.id_set and not S.id_set & (P.id_set - twin.id_set)
        assert intersect(S, twin) is S


def test_copies_of_an_enumerated_subgroup_hold_their_own_ids():
    P = canonical_rep(OCTA)
    S = next(S for S in subgroups_of(P) if len(S) == 8)
    for clone in (copy.copy(S), copy.deepcopy(S), pickle.loads(pickle.dumps(S))):
        assert clone == S and clone.id_set == frozenset(map(id, clone.elements))
        _check_against_the_reference(clone, P)
        _check_against_the_reference(clone, S)


def test_every_group_shares_the_one_identity():
    ident = Rotation.identity()
    assert ident is Rotation.identity()
    fresh = FiniteRotationGroup.from_elements([Rotation(1.0, 0.0, 0.0, 0.0)])
    assert len(fresh) == 1 and fresh.elements[0] is ident
    for t in SMALL_FINITE:
        P = canonical_rep(t)
        groups = [P] + [E for s in SMALL_FINITE if is_subconjugate(s, t)
                              for E in embeddings_of_class_in(s, P)]
        for F in groups:
            found = [r for r in F if r.is_identity()]
            assert len(found) == 1 and found[0] is ident


# ---------------------------------------------------------------------------
# the subconjugation order as one closed-form predicate


def _catalog_tags():
    return [
        TRIVIAL,
        *map(cyclic, range(2, N_CAP + 1)),
        *map(dihedral, range(2, N_CAP + 1)),
        TETRA, OCTA, ICOSA, CIRCLE, ORTH_CIRCLE, FULL,
    ]


_OLD_EXC_CYCLIC = {"T": (2, 3), "O": (2, 3, 4), "I": (2, 3, 5)}
_OLD_EXC_DIHEDRAL = {"T": (2,), "O": (2, 3, 4), "I": (2, 3, 5)}


def _old_is_subconjugate(a, b):
    """The former rule chain of is_subconjugate, kept here as a reference."""
    if a == b:
        return True
    if a.kind == "1" or b.kind == "SO3":
        return True
    if b.kind == "1":
        return False
    if a.kind == "C":
        if b.kind == "C":
            return b.n % a.n == 0
        if b.kind == "D":
            return b.n % a.n == 0 or a.n == 2
        if b.kind in _OLD_EXC_CYCLIC:
            return a.n in _OLD_EXC_CYCLIC[b.kind]
        return b.kind in ("SO2", "O2")
    if a.kind == "D":
        if b.kind == "D":
            return b.n % a.n == 0
        if b.kind in _OLD_EXC_DIHEDRAL:
            return a.n in _OLD_EXC_DIHEDRAL[b.kind]
        return b.kind == "O2"
    if a.kind == "T":
        return b.kind in ("O", "I")
    if a.kind == "SO2":
        return b.kind == "O2"
    return False


def test_is_subconjugate_matches_the_old_rule_on_every_catalog_pair():
    tags = _catalog_tags()
    assert len(tags) == 205
    for b in tags:
        for a in tags:
            assert is_subconjugate(a, b) is _old_is_subconjugate(a, b), (a, b)


def test_every_class_below_sorts_before_it():
    # the lattice layer relies on tag_sort_key growing along every strict
    # pair; N_CAP bounds every tag, so these pairs are all there are
    tags = _catalog_tags()
    for b in tags:
        for a in tags:
            if a is not b and is_subconjugate(a, b):
                assert tag_sort_key(a) < tag_sort_key(b), (a, b)


def test_tag_positions_follow_tag_sort_key():
    # a lattice numbers its own classes; over the whole catalog that numbering
    # is tag_sort_key order, whatever order the tags come in
    tags = _catalog_tags()
    shuffled = list(reversed(tags))
    L = build_lattice(shuffled, require_unique_min=False)
    assert list(L.classes) == sorted(tags, key=tag_sort_key)
    assert [L.index_of(t) for t in L.classes] == list(range(len(tags)))


def test_below_mask_is_strictly_below_as_position_bits():
    tags = _catalog_tags()
    L = build_lattice(tags, require_unique_min=False)
    n = len(L.classes)
    strict = {(i, j) for j, b in enumerate(L.classes) for i, a in enumerate(L.classes)
              if a is not b and is_subconjugate(a, b)}
    bits = {(i, j) for j, mask in enumerate(_down_sets(L.classes)) for i in range(n) if mask >> i & 1}
    assert bits == strict
    assert all(i < j for i, j in strict)  # every bit lies below its class's own position
    assert L.less == strict


def _old_klein_embeddings(H):
    """The former closed form for D2 inside D_n, n > 2, kept here as a reference.

    Every copy is the main half turn plus a perpendicular pair of flips.
    """
    n = classify_finite(H).n
    if n % 2 != 0:
        return []
    lines = catalog.axis_lines(H)
    main = next(d for d, k in lines if k == n)
    main_flip = Rotation.from_axis_angle(main, math.pi)
    out = []
    for d, k in lines:
        if k != 2 or catalog._same_line(d, main):
            continue
        other = canon_direction(cross(main, d))
        K = FiniteRotationGroup.from_elements(
            [main_flip, Rotation.from_axis_angle(d, math.pi), Rotation.from_axis_angle(other, math.pi)]
        )
        if all(H.contains(r) for r in K) and K.key_set not in (S.key_set for S in out):
            out.append(K)
    return [K.key_set for K in sorted(out, key=catalog._subgroup_sort_key)]


def test_klein_embeddings_match_the_former_closed_form():
    for n in range(4, N_CAP + 1, 2):
        H = canonical_rep(dihedral(n))
        got = [S.key_set for S in embeddings_of_class_in(dihedral(2), H)]
        assert got == _old_klein_embeddings(H), n
        assert len(got) == n // 2, n  # the main half turn and each perpendicular flip pair
    for n in range(3, N_CAP + 1, 2):
        H = canonical_rep(dihedral(n))
        assert catalog._finite_dihedral_embeddings(H, 2) == [], n
