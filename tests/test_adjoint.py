import random

import pytest

from isolat.adjoint import axis_line_orbits, isotropy_on_ann
from isolat.catalog import (
    CIRCLE,
    FULL,
    ICOSA,
    OCTA,
    ORTH_CIRCLE,
    TETRA,
    TRIVIAL,
    CircleSub,
    FullSub,
    OrthCircleSub,
    axis_lines,
    canonical_rep,
    cyclic,
    dihedral,
    g_class_of,
    in_plane_direction,
    parse_tag,
    subgroup_equal,
)
from isolat.cli import adjoint_to_json
from isolat.rotation import (
    FiniteRotationGroup,
    Rotation,
    apply,
    axis_angle_of,
    canon_direction,
    compose,
    line_key,
    norm,
    vsub,
)


def brute_stabilizer(F, v):
    kept = [g for g in F if norm(vsub(apply(g, v), v)) <= 1e-8 * max(1.0, norm(v))]
    return FiniteRotationGroup.from_elements(kept)


def labels(H):
    return [g_class_of(K) for K in isotropy_on_ann(H)]


def test_ann_subspaces():
    # the annihilator of H's algebra follows from H's type alone
    def subspace(H):
        return adjoint_to_json(g_class_of(H), H)["subspace"]

    assert subspace(FullSub()) == {"type": "zero"}
    assert subspace(CircleSub((0, 0, 1))) == {"type": "plane", "normal": [0.0, 0.0, 1.0]}
    assert subspace(OrthCircleSub((-1, 0, 0))) == {"type": "plane", "normal": [1.0, 0.0, 0.0]}
    assert subspace(canonical_rep(TETRA)) == {"type": "all"}


def test_full_entry():
    assert labels(FullSub()) == [FULL]


def test_circle_entries():
    assert labels(CircleSub((0, 0, 1))) == [TRIVIAL, CIRCLE]


def test_orth_circle_entries_mark_the_flip():
    H = OrthCircleSub((0.0, 0.0, 1.0))
    assert labels(H) == [cyclic(2), ORTH_CIRCLE]
    flip = isotropy_on_ann(H)[0]
    axis = axis_angle_of([r for r in flip if not r.is_identity()][0]).axis
    marked = in_plane_direction(H.axis, 0.0)
    assert abs(abs(sum(a * b for a, b in zip(axis, marked))) - 1) < 1e-9
    # no trivial class: every covector in the plane keeps its own flip
    assert TRIVIAL not in labels(H)


def test_cyclic_merges_axis_with_origin():
    assert labels(canonical_rep(cyclic(4))) == [TRIVIAL, cyclic(4)]


def test_d4_entries():
    H = canonical_rep(dihedral(4))
    assert [t.short() for t in labels(H)] == ["1", "C2", "C2", "C4", "D4"]
    # two distinct flip orbits: coordinate flips and diagonal flips
    axes = set()
    for K in isotropy_on_ann(H)[1:3]:
        r = [g for g in K if not g.is_identity()][0]
        d = axis_angle_of(r).axis
        axes.add(tuple(round(c, 3) for c in d))
    assert axes == {(0.707, 0.707, 0.0), (1.0, 0.0, 0.0)}


def test_d2_has_three_axis_entries():
    assert [t.short() for t in labels(canonical_rep(dihedral(2)))] == ["1", "C2", "C2", "C2", "D2"]


def test_tetra_entries():
    assert [t.short() for t in labels(canonical_rep(TETRA))] == ["1", "C2", "C3", "T"]


def test_octa_entries():
    # edge axes form a single orbit, so exactly one C2 entry
    assert [t.short() for t in labels(canonical_rep(OCTA))] == ["1", "C2", "C3", "C4", "O"]


def test_icosa_entries():
    assert [t.short() for t in labels(canonical_rep(ICOSA))] == ["1", "C2", "C3", "C5", "I"]


def test_entries_are_subgroups_of_h():
    for s in ("C4", "D4", "T", "O"):
        H = canonical_rep(parse_tag(s))
        for K in isotropy_on_ann(H):
            for r in K:
                assert H.contains(r)
    # the last entry is H itself, the stabilizer of the origin
    for H in (FullSub(), CircleSub((0, 0, 1)), OrthCircleSub((0, 0, 1)), canonical_rep(OCTA)):
        assert isotropy_on_ann(H)[-1] is H


@pytest.mark.parametrize(
    "tag", ["C2", "C3", "C4", "D2", "D3", "D4", "D6", "T", "O", "I"]
)
def test_labels_match_brute_force(tag):
    F = canonical_rep(parse_tag(tag))
    want = {t.short() for t in labels(F)}
    rng = random.Random(7)
    vecs = [(0.0, 0.0, 0.0)]
    for d, _ in axis_lines(F):
        vecs.append(d)
        vecs.append(tuple(0.37 * c for c in d))
    for _ in range(1500):
        vecs.append((rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)))
    emp = set()
    for v in vecs:
        if norm(v) <= 1e-12:
            emp.add(g_class_of(F).short())
        else:
            emp.add(g_class_of(brute_stabilizer(F, v)).short())
    assert want == emp


@pytest.mark.parametrize("tag", ["C4", "D3", "D4", "T", "O"])
def test_orbit_representatives_have_exact_stabilizers(tag):
    F = canonical_rep(parse_tag(tag))
    for rep, k, axial in axis_line_orbits(F):
        assert brute_stabilizer(F, rep) == axial
        assert len(axial) == k


def test_orbits_cover_all_lines():
    F = canonical_rep(OCTA)

    def line_key(d):
        return tuple(round(c, 6) for c in canon_direction(d))

    all_lines = {line_key(d) for d, _ in axis_lines(F)}
    covered = set()
    for rep, _, _ in axis_line_orbits(F):
        for g in F:
            covered.add(line_key(apply(g, rep)))
    # 3 + 4 + 6 axis lines in three orbits
    assert len(axis_line_orbits(F)) == 3
    assert covered == all_lines


def test_entry_labels_stable_under_conjugation():
    rng = random.Random(31)
    for s in ("D4", "T"):
        H = canonical_rep(parse_tag(s))
        want = labels(H)
        for _ in range(5):
            q = [rng.gauss(0, 1) for _ in range(4)]
            if sum(c * c for c in q) < 0.3:
                continue
            h = Rotation(*q)
            moved = FiniteRotationGroup.from_elements(compose(h, compose(r, h.inverse())) for r in H)
            assert labels(moved) == want


def test_trivial_group_entry():
    (K,) = isotropy_on_ann(canonical_rep(TRIVIAL))
    assert g_class_of(K) is TRIVIAL
    assert subgroup_equal(K, canonical_rep(TRIVIAL))


FINITE_CATALOG = (
    [TRIVIAL]
    + [cyclic(n) for n in range(2, 101)]
    + [dihedral(n) for n in range(2, 101)]
    + [TETRA, OCTA, ICOSA]
)


def _orbit_keys(orbits):
    return [(rep, k, axial.key_set) for rep, k, axial in orbits]


def test_axis_line_orbits_are_the_same_on_every_call_and_instance():
    # the orbits are not stored themselves: isotropy_on_ann, their reader, is
    for t in FINITE_CATALOG:
        F = canonical_rep(t)
        orbits = _orbit_keys(axis_line_orbits(F))
        assert _orbit_keys(axis_line_orbits(F)) == orbits, t.short()
        # a new instance over the same elements sweeps the same orbits
        assert _orbit_keys(axis_line_orbits(FiniteRotationGroup(F.elements))) == orbits, t.short()


def _full_sweep_orbits(F):
    """The former sweep of all of F over each new line, kept as a reference."""
    seen, orbits = set(), []
    for key, (d, on_line) in F.lines.items():
        if key in seen:
            continue
        members = {key: d}
        for g in F:
            gd = canon_direction(apply(g, d))
            members.setdefault(line_key(gd), gd)
        seen.update(members)
        rep = max(members.values())
        orbits.append((rep, len(on_line) + 1, F.lines[line_key(rep)]))
    return sorted(orbits, key=lambda item: (item[1], item[0]))


def test_the_shortened_sweep_finds_the_full_sweeps_orbits():
    for t in FINITE_CATALOG:
        F = FiniteRotationGroup(canonical_rep(t).elements)  # a new instance sweeps afresh
        got, want = axis_line_orbits(F), _full_sweep_orbits(F)
        assert [(rep, k) for rep, k, _ in got] == [(rep, k) for rep, k, _ in want], t.short()
        for (_, _, axial), (_, _, entry) in zip(got, want):
            # the axial group holds its parent's line entry, which its own scan gives
            assert list(axial.lines.values()) == [entry], t.short()
            assert axial.lines == FiniteRotationGroup(axial.elements).lines, t.short()


def _entry_keys(entries):
    return [(g_class_of(K), K.key_set) for K in entries[:-1]]


def test_isotropy_on_ann_reuses_the_stored_axial_groups():
    for t in FINITE_CATALOG:
        H = canonical_rep(t)
        axial = {a.key_set for _, _, a in axis_line_orbits(H)}
        first, again = isotropy_on_ann(H), isotropy_on_ann(H)
        # the whole value is stored on the group
        assert first is again, t.short()
        for K in first[:-1]:
            if g_class_of(K) is not TRIVIAL:
                assert K.key_set in axial, t.short()
        # a new instance over the same elements builds its own, equal entries
        fresh = isotropy_on_ann(FiniteRotationGroup(H.elements))
        assert fresh == first, t.short()
        # the trivial group is one shared instance; every other entry is new
        assert not any(a is b for a, b in zip(first, fresh) if len(a) > 1), t.short()
        assert _entry_keys(fresh) == _entry_keys(first), t.short()


def test_isotropy_on_ann_stores_the_flip_of_o2():
    H = canonical_rep(ORTH_CIRCLE)
    first, again = isotropy_on_ann(H), isotropy_on_ann(H)
    assert first is again
    fresh = isotropy_on_ann(OrthCircleSub(H.axis))
    assert fresh == first and fresh[0] is not first[0]
    assert _entry_keys(fresh) == _entry_keys(first)
