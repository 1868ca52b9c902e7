import pytest

from isolat import catalog, lift, rotation
from isolat.adjoint import isotropy_on_ann
from isolat.catalog import (
    CIRCLE,
    FULL,
    ICOSA,
    OCTA,
    ORTH_CIRCLE,
    TETRA,
    TRIVIAL,
    canonical_rep,
    cyclic,
    dihedral,
    parse_tag,
    subgroup_equal,
)
from isolat.errors import NotRealizableInG
from isolat.lift import (
    LiftWitness,
    ambient_class,
    ann_of,
    cotangent_lifted_lattice,
    lift_witness_check,
    lifted_classes,
    lifted_lattice,
)
from isolat.momentum import mu_lattice, relative_equilibria_lattice, zero_level_lattice
from isolat.poset import build_lattice
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


def test_finite_fast_path_keeps_order():
    G = canonical_rep(parse_tag("D6"))
    b = lattice(["1", "C2", "C3", "D6"])
    res = lifted_lattice(G, b)
    assert res.lifted.hasse == b.hasse


def test_cotangent_is_tangent():
    b = lattice(["SO2", "O2"])
    t = lifted_lattice(canonical_rep(FULL), b)
    ct = cotangent_lifted_lattice(canonical_rep(FULL), b)
    assert t.lifted == ct.lifted
    assert t.witnesses == ct.witnesses


def test_witnesses_cover_every_class():
    b = lattice(["D3", "O2"])
    res = lifted_lattice(canonical_rep(FULL), b)
    assert [w.lifted_class for w in res.witnesses] == list(res.lifted.classes)
    for w in res.witnesses:
        assert w.h1 in b.classes and w.h2 in b.classes


def test_witness_embeddings_classify_back():
    from isolat.catalog import g_class_of

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
def test_warm_witness_check_looks_up_no_element(names, monkeypatch, fresh_subgroups):
    # every witness pair of a lift meets by object identity, T, O and I too
    lift._diagonal_witnesses.cache_clear()
    G, b = canonical_rep(FULL), lattice(names)
    res = lifted_lattice(G, b)
    assert lift_witness_check(G, b, res)
    calls = []
    for module in (catalog, rotation):
        real = module.eq
        monkeypatch.setattr(module, "eq", lambda a, b, real=real: calls.append(1) or real(a, b))
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
    from isolat.adjoint import isotropy_on_ann

    b = lattice(["C2", "O2"])
    res = lifted_lattice(canonical_rep(FULL), b)
    for w in res.witnesses:
        ann = isotropy_on_ann(canonical_rep(w.h2))
        assert any(
            e.label == w.k and subgroup_equal(e.representative, w.k_rep)
            for e in ann.classes
        )


CATALOG = (
    [TRIVIAL]
    + [cyclic(n) for n in range(2, 101)]
    + [dihedral(n) for n in range(2, 101)]
    + [TETRA, OCTA, ICOSA, CIRCLE, ORTH_CIRCLE, FULL]
)


def test_ann_of_equals_fresh_isotropy_for_every_catalog_tag():
    for t in CATALOG:
        cached, fresh = ann_of(t), isotropy_on_ann(canonical_rep(t))
        assert cached is ann_of(t)
        assert [e.label for e in cached.classes] == [e.label for e in fresh.classes]
        assert all(
            subgroup_equal(a.representative, b.representative)
            for a, b in zip(cached.classes, fresh.classes)
        )


def test_witness_check_rebuilds_ann_once_per_h2(monkeypatch):
    b = lattice(["C2", "C4", "D2", "D4", "T", "O", "SO2", "O2", "SO3"])
    res = lifted_lattice(canonical_rep(FULL), b)
    built = []

    def counted(H):
        built.append(H)
        return isotropy_on_ann(H)

    def forbidden(h2):
        raise AssertionError("the witness check read the lift's ann_of cache")

    monkeypatch.setattr(lift, "isotropy_on_ann", counted)
    monkeypatch.setattr(lift, "ann_of", forbidden)
    assert lift_witness_check(canonical_rep(FULL), b, res)
    h2s = {w.h2 for w in res.witnesses}
    assert len(built) == len(h2s) < len(res.witnesses)


def _d4_tampered_results():
    """A passing SO(3) lift of {D4, SO3} and four tampered copies of it."""
    from isolat.adjoint import axis_line_orbits
    from isolat.catalog import cyclic_group
    from isolat.rotation import apply, canon_direction, line_key

    b = lattice(["D4", "SO3"])
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
    tampered = {
        "lifted_class": swap(lifted_class=cyclic(4)),
        "k_rep": swap(k_rep=cyclic_group(2, moved)),
        "embedding": swap(embedding=canonical_rep(cyclic(4))),
        "dropped": replaced(res, witnesses=tuple(ws[:i] + ws[i + 1:])),
    }
    # the other C2 orbit's representative is a genuine entry of ann(D4)
    other = next(
        e.representative
        for e in isotropy_on_ann(canonical_rep(dihedral(4))).classes
        if e.label == cyclic(2) and not subgroup_equal(e.representative, w.k_rep)
    )
    return b, res, swap(k_rep=other), tampered


def test_tampered_witnesses_fail_on_every_call():
    b, res, also_valid, tampered = _d4_tampered_results()
    for _ in range(3):
        assert lift_witness_check(canonical_rep(FULL), b, res)
        assert lift_witness_check(canonical_rep(FULL), b, also_valid)
        for name, bad in tampered.items():
            assert not lift_witness_check(canonical_rep(FULL), b, bad), name
    # the lift still hands out the same, untouched witness objects
    assert all(x is y for x, y in zip(lifted_lattice(canonical_rep(FULL), b).witnesses, res.witnesses))
