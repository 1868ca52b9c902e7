import copy
import itertools
import random

import pytest

from isolat import adjoint, catalog, lift, rotation
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
    FullSub,
    OrthCircleSub,
    canonical_rep,
    cyclic,
    dihedral,
    g_class_of,
    parse_tag,
    subgroup_equal,
)
from isolat.errors import NoUniqueMinimum, NotRealizableInG
from isolat.lift import (
    LiftWitness,
    ambient_class,
    lift_witness_check,
    lifted_classes,
    lifted_lattice,
)
from isolat.momentum import mu_lattice, relative_equilibria_lattice, zero_level_lattice
from isolat.poset import IsotropyLattice, build_lattice
from isolat.rotation import FiniteRotationGroup


def replaced(value, **changes):
    """A LiftWitness or LiftResult rebuilt from its fields, some of them changed."""
    fields = {name: getattr(value, name) for name in type(value)._fields}
    return type(value)(**{**fields, **changes})


def tags(names):
    return [parse_tag(s) for s in names]


def lattice(names):
    return build_lattice(tags(names))


def shorts(lat):
    return [t.short() for t in lat.classes]


@pytest.mark.parametrize(
    "base,expected",
    [
        (["SO2", "SO3"], ["1", "SO2", "SO3"]),
        (["SO2"], ["1", "SO2"]),
        (["C2", "O2"], ["1", "C2", "O2"]),
        (["SO2", "O2"], ["1", "C2", "SO2", "O2"]),
        (["C3", "D3"], ["1", "C2", "C3", "D3"]),
        (["D3", "O2"], ["1", "C2", "C3", "D3", "O2"]),
        (["1", "C2", "C3", "C4", "O"], ["1", "C2", "C3", "C4", "O"]),
        (["C4", "D4", "O2"], ["1", "C2", "C4", "D4", "O2"]),
        (["D2", "T", "O"], ["1", "C2", "C3", "C4", "D2", "T", "O"]),
        (["C2", "C4", "SO2", "O2", "SO3"], ["1", "C2", "C4", "SO2", "O2", "SO3"]),
    ],
)
def test_so3_lifts(base, expected):
    b = lattice(base)
    res = lifted_lattice(canonical_rep(FULL), b)
    assert shorts(res.lifted) == expected
    assert res.lifted.unique_min
    assert lift_witness_check(canonical_rep(FULL), b, res)


def test_base_classes_survive():
    b = lattice(["C3", "D3", "O2"])
    res = lifted_lattice(canonical_rep(FULL), b)
    assert set(b.classes) <= set(res.lifted.classes)


def _lattice_or_none(classes):
    try:
        return build_lattice(classes)
    except NoUniqueMinimum:
        return None


def test_the_lift_of_a_lift_is_the_lift_but_over_o2():
    # every 1-3 class base over the small tags, and seeded draws of 1 and up
    # to six other classes from the whole catalog; a class set without a
    # unique minimum is no base
    small = tags(["1", "T", "O", "I", "SO2", "O2", "SO3"])
    small += [kind(n) for kind in (cyclic, dihedral) for n in range(2, 13)]
    others = [TETRA, OCTA, ICOSA, CIRCLE, ORTH_CIRCLE, FULL]
    others += [kind(n) for kind in (cyclic, dihedral) for n in range(2, N_CAP + 1)]
    rng = random.Random(13)
    draws = [[TRIVIAL, *rng.sample(others, rng.randint(1, 6))] for _ in range(3000)]
    subsets = [c for r in (1, 2, 3) for c in itertools.combinations(small, r)]
    bases = [b for b in map(_lattice_or_none, [*subsets, *draws]) if b is not None]
    assert len(bases) > 4000
    grown = {}
    for base in bases:
        once = lifted_classes(canonical_rep(FULL), base)
        twice = lifted_classes(canonical_rep(FULL), once)
        assert set(once.classes) <= set(twice.classes)
        if twice.classes != once.classes:
            grown[frozenset(base.classes)] = set(twice.classes) - set(once.classes)
    # the lift of O(2) adds its flip C2, and on T(TM) that flip acts on so(3)
    # by a half turn, so it fixes no generic tangent vector: a second lift of
    # {O2} or {O2, SO3} adds 1.  {SO3} lifts to itself, and every other base
    # holds a class whose lift holds 1 already
    assert grown == {
        frozenset([ORTH_CIRCLE]): {TRIVIAL},
        frozenset([ORTH_CIRCLE, FULL]): {TRIVIAL},
    }


def test_circle_fast_path():
    b = lattice(["C2", "C4", "SO2"])
    res = lifted_lattice(canonical_rep(CIRCLE), b)
    assert shorts(res.lifted) == ["C2", "C4", "SO2"]
    assert res.lifted.less == b.less
    assert lift_witness_check(canonical_rep(CIRCLE), b, res)


def test_finite_fast_path():
    G = canonical_rep(TETRA)
    b = lattice(["1", "C2", "C3", "T"])
    res = lifted_lattice(G, b)
    assert shorts(res.lifted) == ["1", "C2", "C3", "T"]
    assert lift_witness_check(G, b, res)


def test_witness_check_rejects_a_lift_over_another_ambient():
    # the finite T ambient gives the base back, SO(3) adds C2 and C3: each
    # result has valid witnesses, but not the classes of the other ambient
    G, so3 = canonical_rep(TETRA), canonical_rep(FULL)
    b = lattice(["1", "T"])
    over_so3, over_g = lifted_lattice(so3, b), lifted_lattice(G, b)
    assert shorts(over_so3.lifted) == ["1", "C2", "C3", "T"]
    assert shorts(over_g.lifted) == ["1", "T"]
    assert lift_witness_check(so3, b, over_so3) and lift_witness_check(G, b, over_g)
    assert not lift_witness_check(G, b, over_so3)
    assert not lift_witness_check(so3, b, over_g)


@pytest.mark.parametrize("ambient", [TETRA, CIRCLE], ids=lambda t: t.short())
def test_witness_check_rejects_an_so3_only_witness_over_another_ambient(ambient):
    # (1, h, h, 1) holds over SO(3), where the trivial group is an entry of
    # h's annihilator isotropy; over the finite T or the circle, h's one
    # entry is h itself, so the recheck must refuse it in place of (1, 1, 1, 1)
    G, so3, b = canonical_rep(ambient), canonical_rep(FULL), lattice(["1", ambient.short()])
    K = next(K for K in isotropy_on_ann(G) if g_class_of(K) is TRIVIAL)
    so3_only = LiftWitness(TRIVIAL, ambient, ambient, TRIVIAL, G, K)

    def swapped(res):
        ws = tuple(so3_only if w.lifted_class is TRIVIAL else w for w in res.witnesses)
        return replaced(res, witnesses=ws)

    over_so3, over_g = lifted_lattice(so3, b), lifted_lattice(G, b)
    assert lift_witness_check(so3, b, swapped(over_so3))
    assert lift_witness_check(G, b, over_g)
    assert not lift_witness_check(G, b, swapped(over_g))


def test_finite_fast_path_keeps_order():
    G = canonical_rep(parse_tag("D6"))
    b = lattice(["1", "C2", "C3", "D6"])
    res = lifted_lattice(G, b)
    assert res.lifted.hasse == b.hasse


def test_witnesses_cover_every_class():
    b = lattice(["D3", "O2"])
    res = lifted_lattice(canonical_rep(FULL), b)
    assert [w.lifted_class for w in res.witnesses] == list(res.lifted.classes)
    for w in res.witnesses:
        assert w.h1 in b.classes and w.h2 in b.classes


def test_witness_embeddings_classify_back():
    b = lattice(["C3", "D3", "O2"])
    res = lifted_lattice(canonical_rep(FULL), b)
    for w in res.witnesses:
        assert g_class_of(w.embedding) == w.h1


def test_tampered_class_fails_recheck():
    b = lattice(["SO2", "SO3"])
    res = lifted_lattice(canonical_rep(FULL), b)
    bad_w = list(res.witnesses)
    bad_w[0] = replaced(bad_w[0], lifted_class=parse_tag("C5"))
    bad = replaced(res, witnesses=tuple(bad_w))
    assert not lift_witness_check(canonical_rep(FULL), b, bad)


def test_missing_witness_fails_recheck():
    b = lattice(["SO2", "SO3"])
    res = lifted_lattice(canonical_rep(FULL), b)
    bad = replaced(res, witnesses=res.witnesses[1:])
    assert not lift_witness_check(canonical_rep(FULL), b, bad)


def test_foreign_base_pair_fails_recheck():
    b = lattice(["SO2", "SO3"])
    res = lifted_lattice(canonical_rep(FULL), b)
    bad_w = list(res.witnesses)
    bad_w[0] = replaced(bad_w[0], h1=parse_tag("D7"))
    bad = replaced(res, witnesses=tuple(bad_w))
    assert not lift_witness_check(canonical_rep(FULL), b, bad)


def test_unrealizable_base_rejected():
    b = lattice(["1", "C2", "C3", "T"])
    with pytest.raises(NotRealizableInG):
        lifted_lattice(canonical_rep(CIRCLE), b)


def test_unrealizable_in_finite_ambient():
    G = canonical_rep(TETRA)
    with pytest.raises(NotRealizableInG):
        lifted_lattice(G, lattice(["1", "C4"]))


@pytest.mark.parametrize(
    "ambient, names, message",
    [
        (CIRCLE, ["1", "C2", "C3", "D3", "T"], "D3 is not a subgroup class of the ambient SO2"),
        (dihedral(4), ["1", "C2", "C3", "C4", "D3", "O"], "C3 is not a subgroup class of the ambient D4"),
    ],
)
def test_an_unrealizable_base_names_its_lowest_class_outside_the_ambient(ambient, names, message):
    G, b = canonical_rep(ambient), lattice(names)
    for compute in (lifted_lattice, relative_equilibria_lattice, zero_level_lattice):
        with pytest.raises(NotRealizableInG) as e:
            compute(G, b)
        assert str(e.value) == message
    with pytest.raises(NotRealizableInG) as e:
        mu_lattice(G, b, 0)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "fn",
    [lifted_classes, lifted_lattice, relative_equilibria_lattice, zero_level_lattice, mu_lattice],
    ids=lambda fn: fn.__name__,
)
def test_an_orth_circle_is_not_an_ambient(fn):
    # O(2) is a closed subgroup of SO(3), but no lift over it is supported
    mu = (0.0,) if fn is mu_lattice else ()
    with pytest.raises(ValueError, match="not a supported ambient"):
        fn(canonical_rep(ORTH_CIRCLE), lattice(["C2", "SO2", "O2"]), *mu)


def test_witness_check_refuses_an_orth_circle_ambient():
    b = lattice(["1", "SO2"])
    res = lifted_lattice(canonical_rep(FULL), b)
    with pytest.raises(ValueError, match="not a supported ambient"):
        lift_witness_check(canonical_rep(ORTH_CIRCLE), b, res)


@pytest.mark.parametrize(
    "names", [["1", "T"], ["1", "O"], ["1", "I"], ["1", "C2", "D2", "T", "O", "I", "SO3"]],
    ids=",".join,
)
def test_warm_witness_check_looks_up_no_element(names, monkeypatch, fresh_lattices):
    # every witness pair of a lift meets by object identity, T, O and I too
    # (fresh_lattices: no witness tuple stored on a shared base lattice)
    lift._diagonal_witnesses.cache_clear()
    G, b = canonical_rep(FULL), lattice(names)
    res = lifted_lattice(G, b)
    assert lift_witness_check(G, b, res)
    calls = []
    real = rotation.eq
    monkeypatch.setattr(rotation, "eq", lambda a, b: calls.append(1) or real(a, b))
    assert lift_witness_check(G, b, res)
    assert calls == []


def test_ambient_class_labels():
    assert ambient_class(canonical_rep(FULL)) == FULL
    assert ambient_class(canonical_rep(CIRCLE)).short() == "SO2"
    G = canonical_rep(parse_tag("D4"))
    assert ambient_class(G).short() == "D4"


def test_full_witness_uses_zero_annihilator():
    b = lattice(["SO2", "SO3"])
    res = lifted_lattice(canonical_rep(FULL), b)
    w = {x.lifted_class.short(): x for x in res.witnesses}["SO3"]
    assert w.h2 == FULL and w.k == FULL


def test_determinism():
    b = lattice(["D3", "O2", "SO3"])
    r1 = lifted_lattice(canonical_rep(FULL), b)
    r2 = lifted_lattice(canonical_rep(FULL), b)
    assert r1.lifted == r2.lifted
    assert r1.witnesses == r2.witnesses


def test_witness_reps_are_concrete():
    b = lattice(["C3", "D3"])
    res = lifted_lattice(canonical_rep(FULL), b)
    for w in res.witnesses:
        if isinstance(w.embedding, FiniteRotationGroup) and isinstance(w.k_rep, FiniteRotationGroup):
            inter = [g for g in w.embedding if w.k_rep.contains(g)]
            assert len(inter) >= 1


def test_rebuilt_witness_passes():
    # a hand-built witness list equivalent to the engine's should also verify
    b = lattice(["SO2"])
    res = lifted_lattice(canonical_rep(FULL), b)
    rebuilt = tuple(
        LiftWitness(w.lifted_class, w.h1, w.h2, w.k, w.embedding, w.k_rep)
        for w in res.witnesses
    )
    assert lift_witness_check(canonical_rep(FULL), b, replaced(res, witnesses=rebuilt))


def test_witness_k_rep_matches_label():
    for names in (["C2", "O2"], ["1", "C2", "D4", "T", "O", "I", "SO2", "O2", "SO3"]):
        res = lifted_lattice(canonical_rep(FULL), lattice(names))
        for w in res.witnesses:
            assert w.k is w.lifted_class is g_class_of(w.k_rep)
            assert any(subgroup_equal(K, w.k_rep) for K in isotropy_on_ann(canonical_rep(w.h2)))


CATALOG = (
    [TRIVIAL]
    + [cyclic(n) for n in range(2, 101)]
    + [dihedral(n) for n in range(2, 101)]
    + [TETRA, OCTA, ICOSA, CIRCLE, ORTH_CIRCLE, FULL]
)


def new_instance(H):
    """A new group object over the same data as H, with nothing stored on it."""
    if isinstance(H, FiniteRotationGroup):
        return FiniteRotationGroup(H.elements)
    if isinstance(H, CircleSub):
        return CircleSub(H.axis)
    if isinstance(H, OrthCircleSub):
        return OrthCircleSub(H.axis)
    return FullSub()


def test_stored_ann_equals_fresh_isotropy_for_every_catalog_tag():
    for t in CATALOG:
        # isotropy_on_ann stores its value on the group: an independent build
        # needs a new instance
        H = canonical_rep(t)
        cached, fresh = isotropy_on_ann(H), isotropy_on_ann(new_instance(H))
        assert cached is isotropy_on_ann(canonical_rep(t)) and fresh is not cached
        assert list(map(g_class_of, cached)) == list(map(g_class_of, fresh))
        assert len(cached) == len(fresh)
        assert all(subgroup_equal(a, b) for a, b in zip(cached, fresh))


def test_witness_check_rebuilds_ann_once_per_h2(monkeypatch):
    # a warm check reads the annihilator isotropy stored on each h2's group
    b = lattice(["C2", "C4", "D2", "D4", "T", "O", "SO2", "O2", "SO3"])
    res = lifted_lattice(canonical_rep(FULL), b)
    assert lift_witness_check(canonical_rep(FULL), b, res)
    built = []
    real = adjoint._isotropy_on_ann
    monkeypatch.setattr(adjoint, "_isotropy_on_ann", lambda H: built.append(H) or real(H))
    assert lift_witness_check(canonical_rep(FULL), b, res)
    assert built == []


def _d4_tampered_results():
    """A passing SO(3) lift of {1, C3, D4, SO3}, two other passing results
    and six tampered copies of it.

    The lift's k_rep is an entry of ann(D4) itself, and the recheck finds it
    by identity: the "k" tamper names another entry's class for that object.
    An equal copy of the entry takes the recheck's comparison by value.  C3
    and D4 are incomparable: the "h1" tamper is a witness of C3 inside D4,
    whole in every other respect.
    """
    from isolat.adjoint import axis_line_orbits
    from isolat.catalog import cyclic_group
    from isolat.rotation import apply, canon_direction, line_key

    b = lattice(["1", "C3", "D4", "SO3"])
    res = lifted_lattice(canonical_rep(FULL), b)
    ws = list(res.witnesses)
    i = next(n for n, w in enumerate(ws) if w.lifted_class == cyclic(2))
    w = ws[i]
    assert w.h2 == dihedral(4)

    def swap(**changes):
        tampered = list(ws)
        tampered[i] = replaced(w, **changes)
        return replaced(res, witnesses=tuple(tampered))

    # another line of the orbit whose representative is w.k_rep: same label,
    # same class for E meet K, but not an isotropy representative of D4
    F = canonical_rep(dihedral(4))
    rep = next(d for d, k, axial in axis_line_orbits(F) if axial == w.k_rep)
    moved = next(
        canon_direction(apply(g, rep))
        for g in F
        if line_key(canon_direction(apply(g, rep))) != line_key(rep)
    )
    entries = isotropy_on_ann(F)
    assert any(K is w.k_rep for K in entries)
    # an extra witness whose k and class are those of another entry, so the
    # classes witnessed stay the lattice's: only the entry's own class is off
    k = next(g_class_of(K) for K in entries if g_class_of(K) is not w.k)
    extra = replaced(w, lifted_class=k, k=k)
    # a C3 embedding meets the D4 entry of ann(D4) in the trivial group
    origin = next(K for K in entries if g_class_of(K) is dihedral(4))
    outside = LiftWitness(TRIVIAL, cyclic(3), dihedral(4), dihedral(4), canonical_rep(cyclic(3)), origin)
    tampered = {
        "lifted_class": swap(lifted_class=cyclic(4)),
        "k_rep": swap(k_rep=cyclic_group(2, moved)),
        "embedding": swap(embedding=canonical_rep(cyclic(4))),
        "dropped": replaced(res, witnesses=tuple(ws[:i] + ws[i + 1:])),
        "k": replaced(res, witnesses=res.witnesses + (extra,)),
        "h1": replaced(res, witnesses=res.witnesses + (outside,)),
    }
    # the other C2 orbit's representative is a genuine entry of ann(D4)
    other = next(
        K for K in entries if g_class_of(K) is cyclic(2) and not subgroup_equal(K, w.k_rep)
    )
    copied = copy.deepcopy(w.k_rep)
    assert copied == w.k_rep and all(K is not copied for K in entries)
    also_valid = {"other orbit": swap(k_rep=other), "equal copy": swap(k_rep=copied)}
    return b, res, also_valid, tampered


def test_tampered_witnesses_fail_on_every_call():
    b, res, also_valid, tampered = _d4_tampered_results()
    for _ in range(3):
        assert lift_witness_check(canonical_rep(FULL), b, res)
        for name, good in also_valid.items():
            assert lift_witness_check(canonical_rep(FULL), b, good), name
        for name, bad in tampered.items():
            assert not lift_witness_check(canonical_rep(FULL), b, bad), name
    # the lift still hands out the same, untouched witness objects
    assert all(x is y for x, y in zip(lifted_lattice(canonical_rep(FULL), b).witnesses, res.witnesses))


def test_a_second_lift_of_one_base_returns_the_stored_witness_tuple():
    b = lattice(["C2", "C4", "D2", "D4", "T", "O", "SO2", "O2", "SO3"])
    first = lifted_lattice(canonical_rep(FULL), b)
    assert lifted_lattice(canonical_rep(FULL), b).witnesses is first.witnesses
    # a new instance over the same classes builds its own, equal tuple
    other = IsotropyLattice(b.classes, b.hasse, b.unique_min)
    assert other is not b
    again = lifted_lattice(canonical_rep(FULL), other)
    assert again.witnesses is not first.witnesses and again.witnesses == first.witnesses
    assert lift_witness_check(canonical_rep(FULL), b, first)
    assert lift_witness_check(canonical_rep(FULL), other, again)


def test_a_warm_witness_check_intersects_every_witness_on_every_call(monkeypatch):
    b = lattice(["C2", "C4", "D2", "D4", "T", "O", "SO2", "O2", "SO3"])
    res = lifted_lattice(canonical_rep(FULL), b)
    assert lift_witness_check(canonical_rep(FULL), b, res)
    calls = []

    def counted(a, k):
        calls.append((a, k))
        return catalog.intersect(a, k)

    monkeypatch.setattr(lift, "intersect", counted)
    for n in range(1, 4):
        assert lift_witness_check(canonical_rep(FULL), b, lifted_lattice(canonical_rep(FULL), b))
        assert calls == [(w.embedding, w.k_rep) for w in res.witnesses] * n


def test_tampered_witnesses_fail_after_a_warm_lift_of_their_base():
    b, res, also_valid, tampered = _d4_tampered_results()
    warm = lifted_lattice(canonical_rep(FULL), b)
    assert warm.witnesses is res.witnesses
    assert lift_witness_check(canonical_rep(FULL), b, warm)
    for name, bad in tampered.items():
        assert not lift_witness_check(canonical_rep(FULL), b, bad), name


@pytest.mark.parametrize("ambient", [FULL, CIRCLE, dihedral(4)], ids=lambda t: t.short())
def test_a_repeated_lift_returns_the_stored_result(ambient):
    G, b = canonical_rep(ambient), lattice(["1", "C2", "C4"])
    first = lifted_lattice(G, b)
    assert lifted_lattice(G, b) is first
    # a tampered copy fails, on every call, and leaves the stored result as it was
    ws = first.witnesses
    tampered = {
        "dropped": replaced(first, witnesses=ws[1:]),
        "class": replaced(first, witnesses=(replaced(ws[0], lifted_class=cyclic(4)),) + ws[1:]),
    }
    for _ in range(2):
        assert lift_witness_check(G, b, first)
        for name, bad in tampered.items():
            assert not lift_witness_check(G, b, bad), name
    assert lifted_lattice(G, b) is first and first.witnesses is ws


def test_the_stored_results_are_one_per_rule_and_realizability_is_checked_on_every_call():
    b = lattice(["1", "C4", "D4"])
    so3, d4, octa = (canonical_rep(t) for t in (FULL, dihedral(4), OCTA))
    over_so3, over_d4 = lifted_lattice(so3, b), lifted_lattice(d4, b)
    assert shorts(over_so3.lifted) == ["1", "C2", "C4", "D4"]
    assert shorts(over_d4.lifted) == ["1", "C4", "D4"]
    # every finite G (and the circle) takes the rule that gives the base back
    assert lifted_lattice(octa, b) is over_d4
    for ambient in (CIRCLE, TETRA):
        with pytest.raises(NotRealizableInG):
            lifted_lattice(canonical_rep(ambient), b)
    assert lifted_lattice(so3, b) is over_so3 and lifted_lattice(d4, b) is over_d4
