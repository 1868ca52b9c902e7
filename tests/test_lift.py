import dataclasses

import pytest

from isolat import lift
from isolat.adjoint import isotropy_on_ann
from isolat.catalog import (
    CIRCLE,
    FULL,
    ICOSA,
    OCTA,
    ORTH_CIRCLE,
    TETRA,
    TRIVIAL,
    FiniteSub,
    canonical_rep,
    cyclic,
    dihedral,
    parse_tag,
    subgroup_equal,
)
from isolat.errors import NotRealizableInG
from isolat.lift import (
    AMBIENT_CIRCLE,
    AMBIENT_SO3,
    FiniteAmbient,
    LiftWitness,
    ambient_class,
    ann_of,
    cotangent_lifted_lattice,
    lift_witness_check,
    lifted_lattice,
)
from isolat.poset import build_lattice


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
    res = lifted_lattice(AMBIENT_SO3, b)
    assert shorts(res.lifted) == expected
    assert res.lifted.unique_min
    assert lift_witness_check(AMBIENT_SO3, b, res)


def test_base_classes_survive():
    b = lattice(["C3", "D3", "O2"])
    res = lifted_lattice(AMBIENT_SO3, b)
    assert set(b.classes) <= set(res.lifted.classes)


def test_circle_fast_path():
    b = lattice(["C2", "C4", "SO2"])
    res = lifted_lattice(AMBIENT_CIRCLE, b)
    assert shorts(res.lifted) == ["C2", "C4", "SO2"]
    assert res.lifted.less == b.less
    assert lift_witness_check(AMBIENT_CIRCLE, b, res)


def test_finite_fast_path():
    G = FiniteAmbient(canonical_rep(TETRA).group)
    b = lattice(["1", "C2", "C3", "T"])
    res = lifted_lattice(G, b)
    assert shorts(res.lifted) == ["1", "C2", "C3", "T"]
    assert lift_witness_check(G, b, res)


def test_finite_fast_path_keeps_order():
    G = FiniteAmbient(canonical_rep(parse_tag("D6")).group)
    b = lattice(["1", "C2", "C3", "D6"])
    res = lifted_lattice(G, b)
    assert res.lifted.hasse == b.hasse


def test_cotangent_is_tangent():
    b = lattice(["SO2", "O2"])
    t = lifted_lattice(AMBIENT_SO3, b)
    ct = cotangent_lifted_lattice(AMBIENT_SO3, b)
    assert t.lifted == ct.lifted
    assert t.witnesses == ct.witnesses


def test_witnesses_cover_every_class():
    b = lattice(["D3", "O2"])
    res = lifted_lattice(AMBIENT_SO3, b)
    assert [w.lifted_class for w in res.witnesses] == list(res.lifted.classes)
    for w in res.witnesses:
        assert w.h1 in b.classes and w.h2 in b.classes


def test_witness_embeddings_classify_back():
    from isolat.catalog import g_class_of

    b = lattice(["C3", "D3", "O2"])
    res = lifted_lattice(AMBIENT_SO3, b)
    for w in res.witnesses:
        assert g_class_of(w.embedding) == w.h1


def test_tampered_class_fails_recheck():
    b = lattice(["SO2", "SO3"])
    res = lifted_lattice(AMBIENT_SO3, b)
    bad_w = list(res.witnesses)
    bad_w[0] = dataclasses.replace(bad_w[0], lifted_class=parse_tag("C5"))
    bad = dataclasses.replace(res, witnesses=tuple(bad_w))
    assert not lift_witness_check(AMBIENT_SO3, b, bad)


def test_missing_witness_fails_recheck():
    b = lattice(["SO2", "SO3"])
    res = lifted_lattice(AMBIENT_SO3, b)
    bad = dataclasses.replace(res, witnesses=res.witnesses[1:])
    assert not lift_witness_check(AMBIENT_SO3, b, bad)


def test_foreign_base_pair_fails_recheck():
    b = lattice(["SO2", "SO3"])
    res = lifted_lattice(AMBIENT_SO3, b)
    bad_w = list(res.witnesses)
    bad_w[0] = dataclasses.replace(bad_w[0], h1=parse_tag("D7"))
    bad = dataclasses.replace(res, witnesses=tuple(bad_w))
    assert not lift_witness_check(AMBIENT_SO3, b, bad)


def test_unrealizable_base_rejected():
    b = lattice(["1", "C2", "C3", "T"])
    with pytest.raises(NotRealizableInG):
        lifted_lattice(AMBIENT_CIRCLE, b)


def test_unrealizable_in_finite_ambient():
    G = FiniteAmbient(canonical_rep(TETRA).group)
    with pytest.raises(NotRealizableInG):
        lifted_lattice(G, lattice(["1", "C4"]))


def test_ambient_class_labels():
    assert ambient_class(AMBIENT_SO3) == FULL
    assert ambient_class(AMBIENT_CIRCLE).short() == "SO2"
    G = FiniteAmbient(canonical_rep(parse_tag("D4")).group)
    assert ambient_class(G).short() == "D4"


def test_full_witness_uses_zero_annihilator():
    b = lattice(["SO2", "SO3"])
    res = lifted_lattice(AMBIENT_SO3, b)
    w = {x.lifted_class.short(): x for x in res.witnesses}["SO3"]
    assert w.h2 == FULL and w.k == FULL


def test_determinism():
    b = lattice(["D3", "O2", "SO3"])
    r1 = lifted_lattice(AMBIENT_SO3, b)
    r2 = lifted_lattice(AMBIENT_SO3, b)
    assert r1.lifted == r2.lifted
    assert r1.witnesses == r2.witnesses


def test_witness_reps_are_concrete():
    b = lattice(["C3", "D3"])
    res = lifted_lattice(AMBIENT_SO3, b)
    for w in res.witnesses:
        if isinstance(w.embedding, FiniteSub) and isinstance(w.k_rep, FiniteSub):
            inter = [g for g in w.embedding.group if w.k_rep.group.contains(g)]
            assert len(inter) >= 1


def test_rebuilt_witness_passes():
    # a hand-built witness list equivalent to the engine's should also verify
    b = lattice(["SO2"])
    res = lifted_lattice(AMBIENT_SO3, b)
    rebuilt = tuple(
        LiftWitness(w.lifted_class, w.h1, w.h2, w.k, w.embedding, w.k_rep)
        for w in res.witnesses
    )
    assert lift_witness_check(AMBIENT_SO3, b, dataclasses.replace(res, witnesses=rebuilt))


def test_witness_k_rep_matches_label():
    from isolat.adjoint import isotropy_on_ann

    b = lattice(["C2", "O2"])
    res = lifted_lattice(AMBIENT_SO3, b)
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
    res = lifted_lattice(AMBIENT_SO3, b)
    built = []

    def counted(H):
        built.append(H)
        return isotropy_on_ann(H)

    def forbidden(h2):
        raise AssertionError("the witness check read the lift's ann_of cache")

    monkeypatch.setattr(lift, "isotropy_on_ann", counted)
    monkeypatch.setattr(lift, "ann_of", forbidden)
    assert lift_witness_check(AMBIENT_SO3, b, res)
    h2s = {w.h2 for w in res.witnesses}
    assert len(built) == len(h2s) < len(res.witnesses)


def _d4_tampered_results():
    """A passing SO(3) lift of {D4, SO3} and four tampered copies of it."""
    from isolat.adjoint import axis_line_orbits
    from isolat.catalog import cyclic_group
    from isolat.rotation import apply, canon_direction, line_key

    b = lattice(["D4", "SO3"])
    res = lifted_lattice(AMBIENT_SO3, b)
    ws = list(res.witnesses)
    i = next(n for n, w in enumerate(ws) if w.lifted_class == cyclic(2))
    w = ws[i]
    assert w.h2 == dihedral(4)

    def swap(**changes):
        tampered = list(ws)
        tampered[i] = dataclasses.replace(w, **changes)
        return dataclasses.replace(res, witnesses=tuple(tampered))

    # another line of the orbit whose representative is w.k_rep: same label,
    # same class for E meet K, but not an isotropy representative of D4
    F = canonical_rep(dihedral(4)).group
    rep = next(d for d, k, axial in axis_line_orbits(F) if axial == w.k_rep.group)
    moved = next(
        canon_direction(apply(g, rep))
        for g in F
        if line_key(canon_direction(apply(g, rep))) != line_key(rep)
    )
    tampered = {
        "lifted_class": swap(lifted_class=cyclic(4)),
        "k_rep": swap(k_rep=cyclic_group(2, moved)),
        "embedding": swap(embedding=canonical_rep(cyclic(4))),
        "dropped": dataclasses.replace(res, witnesses=tuple(ws[:i] + ws[i + 1:])),
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
        assert lift_witness_check(AMBIENT_SO3, b, res)
        assert lift_witness_check(AMBIENT_SO3, b, also_valid)
        for name, bad in tampered.items():
            assert not lift_witness_check(AMBIENT_SO3, b, bad), name
    # the lift still hands out the same, untouched witness objects
    assert all(x is y for x, y in zip(lifted_lattice(AMBIENT_SO3, b).witnesses, res.witnesses))
