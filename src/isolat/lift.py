"""Isotropy lattices of tangent-lifted actions.

Given the isotropy lattice of a proper action of G on M, the lattice of the
lifted action on TM consists of the classes (E meet K) over base pairs
(h1) <= (h2), E a position of h1 in H2 and K an isotropy subgroup of H2 on
the annihilator of its algebra.  The diagonal h1 = h2 suffices: h1 lies in
h2, so ann(h2) lies in ann(h1), and E meet (H2)_xi = E_xi is already a class
of h1 on its own annihilator (the slice picture T_xM = g/h + N).  On the
diagonal E meet K = K, so the lifted classes are the labels of ann_of(h)
over the base classes h.  Those labels follow from the class alone (the
rule table catalog.ann_mask), so lifted_classes reads the lattice off the
table and builds no group; lifted_lattice adds a witness (h, h, K) per
class, from ann_of(h).  On the diagonal the position E of h in H2 is H2 =
canonical_rep(h) itself, so no position is searched for (T, O and I still
take an enumerated twin, see _diagonal_witnesses); the witnesses depend on
h alone and are built once per tag.  The cotangent lift and relative
equilibria (momentum.py) realize the same lattice.

A finite ambient group has zero Lie algebra, so every annihilator is the
zero space; the circle is abelian, so stabilizers act trivially on their
annihilators.  Either way the linear isotropy on the annihilator is the
whole stabilizer and the lifted lattice equals the base lattice, so those
ambients take a fast path that never touches geometry.
"""

from __future__ import annotations

from functools import lru_cache

from .adjoint import AnnIsotropy, isotropy_on_ann
from .catalog import (
    ClassTag,
    ConcreteSubgroup,
    FullSub,
    OrthCircleSub,
    ann_mask,
    canonical_rep,
    embeddings_of_class_in,
    g_class_of,
    intersect,
    is_subconjugate,
    subgroup_equal,
)
from .errors import NotRealizableInG
from .poset import IsotropyLattice, compute_depths, lattice_of_mask, mask_of
from .rotation import Value

# bench/tracing.py reads the SO(3) ambient's type under this name
SO3Ambient = FullSub


def ambient_class(G: ConcreteSubgroup) -> ClassTag:
    """The class of the ambient G: SO(3), a circle or a finite group, never O(2)."""
    if isinstance(G, OrthCircleSub):
        raise ValueError("O(2) is not a supported ambient group")
    return g_class_of(G)


class LiftWitness(Value):
    """One realization of a lifted class: h1 meet k inside h2.

    embedding is a concrete position of h1 inside the canonical h2
    representative; k_rep is the concrete linear-isotropy subgroup whose
    intersection with the embedding lands in lifted_class.  Over SO(3),
    lifted_lattice returns the same witness objects on every call (one tuple
    per base tag), so data derived from one (the cli's JSON text) may be
    stored on the instance.
    """

    lifted_class: ClassTag
    h1: ClassTag
    h2: ClassTag
    k: ClassTag
    embedding: ConcreteSubgroup
    k_rep: ConcreteSubgroup


class LiftResult(Value):
    lifted: IsotropyLattice
    witnesses: tuple[LiftWitness, ...]


def _validate_realizable(G: ConcreteSubgroup, tags) -> None:
    amb = ambient_class(G)
    for t in tags:
        if not is_subconjugate(t, amb):
            raise NotRealizableInG(
                f"{t.short()} is not a subgroup class of the ambient {amb.short()}"
            )


def _table_mask(G: ConcreteSubgroup, base: IsotropyLattice) -> int:
    """The lifted classes as position bits, from the rule table alone.

    Over SO(3) they are the union of ann_mask(h) over the base classes h; a
    finite or circle ambient gives the base classes back.
    """
    if not isinstance(G, FullSub):
        return mask_of(base.classes)
    mask = 0
    for h in base.classes:
        mask |= ann_mask(h)
    return mask


def lifted_classes(G: ConcreteSubgroup, base: IsotropyLattice) -> IsotropyLattice:
    """The lifted lattice from the rule table alone: no group is built."""
    _validate_realizable(G, base.classes)
    return lattice_of_mask(_table_mask(G, base))


def lifted_lattice(G: ConcreteSubgroup, base: IsotropyLattice) -> LiftResult:
    """Isotropy lattice of the lifted action on TM from the base lattice.

    The lattice comes from lifted_classes; each class's witness is the first
    diagonal witness with that label, over the base classes in depth order.
    """
    lifted = lifted_classes(G, base)
    if not isinstance(G, FullSub):
        witnesses = tuple(
            LiftWitness(t, t, t, t, canonical_rep(t), canonical_rep(t))
            for t in lifted.classes
        )
        return LiftResult(lifted, witnesses)

    depths = compute_depths(base)
    found: dict[ClassTag, LiftWitness] = {}
    for h in sorted(base.classes, key=depths.__getitem__):  # stable: ties keep classes' order
        for w in _diagonal_witnesses(h):
            found.setdefault(w.lifted_class, w)
    # a table class without a witness, or a witnessed class the table lacks
    # (listed last), fails lift_witness_check
    witnesses = tuple(found.pop(t) for t in lifted.classes if t in found)
    return LiftResult(lifted, witnesses + tuple(found.values()))


@lru_cache(maxsize=None)
def ann_of(h: ClassTag) -> AnnIsotropy:
    """Isotropy of the canonical h representative on its annihilator.

    K depends on h alone, so it is built once per class; the cache holds at
    most one entry per catalog tag.
    """
    return isotropy_on_ann(canonical_rep(h))


@lru_cache(maxsize=None)
def _diagonal_witnesses(h: ClassTag) -> tuple[LiftWitness, ...]:
    """The witnesses (K, h, h, K) of h over the entries K of ann_of(h).

    The embedding is canonical_rep(h) itself, except for T, O and I: their
    enumerated position is the same set (and id_set) with other float bits,
    which their witness bytes carry.  One tuple per catalog tag, so every
    lift returns the same objects.
    """
    E = canonical_rep(h)
    if h.kind in ("T", "O", "I"):  # ROADMAP item 1 deletes this branch
        E = embeddings_of_class_in(h, E)[0]
    return tuple(
        LiftWitness(e.label, h, h, e.label, E, e.representative) for e in ann_of(h).classes
    )


def cotangent_lifted_lattice(G: ConcreteSubgroup, base: IsotropyLattice) -> LiftResult:
    """Lattice of the lifted action on T*M; identical to the tangent one."""
    return lifted_lattice(G, base)


def lift_witness_check(G: ConcreteSubgroup, base: IsotropyLattice, result: LiftResult) -> bool:
    """Recheck every witness of a lift result.

    Verifies that each witness uses a valid base pair, that its k entry
    matches an isotropy class on the annihilator of its h2, that the claimed
    intersection lands in the claimed class, and that the witnessed classes
    are exactly the classes of the lifted lattice, which are in turn the
    rule-table classes of the lift of base over G.  Every witness is compared
    on every call and no verdict is stored.  The lattice comes from the rule
    table and the witnesses from geometry, so the last test catches any
    disagreement between the two.  The check rebuilds its own annihilator
    isotropy, once per h2 within a call, and never reads the lift's ann_of
    cache; what it reuses is data stored on the immutable groups themselves
    (classes, line tables, axis-line orbits, the annihilator entries that
    depend on the group alone), and intersect hands back a contained
    operand instead of copying it.  A lift's finite k_rep is made of
    canonical_rep(h2)'s own element objects, and so is its finite
    embedding, except for T, O and I, where the embedding is a subgroup
    enumerated from canonical_rep(h2) whose id_set holds the ids of the
    canonical objects it matches.  So intersect proves each finite
    containment by object identity and looks up no element; a witness
    built elsewhere takes the element lookup.  An O(2) ambient raises
    ValueError, as in lifted_lattice.
    """
    ambient_class(G)  # refuses an O(2) ambient
    anns: dict[ClassTag, AnnIsotropy] = {}
    base_classes = set(base.classes)
    witnessed = set()
    for w in result.witnesses:
        if w.h1 not in base_classes or w.h2 not in base_classes:
            return False
        if not is_subconjugate(w.h1, w.h2):
            return False
        if w.h2 not in anns:
            anns[w.h2] = isotropy_on_ann(canonical_rep(w.h2))
        if not any(
            entry.label == w.k and subgroup_equal(entry.representative, w.k_rep)
            for entry in anns[w.h2].classes
        ):
            return False
        if g_class_of(w.embedding) != w.h1:
            return False
        if g_class_of(intersect(w.embedding, w.k_rep)) != w.lifted_class:
            return False
        witnessed.add(w.lifted_class)
    classes = result.lifted.classes
    return witnessed == set(classes) and mask_of(classes) == _table_mask(G, base)
