"""Isotropy lattices of tangent-lifted actions.

Given the isotropy lattice of a proper action of G on M, the lattice of the
lifted action on TM consists of the classes (E meet K) over base pairs
(h1) <= (h2), E a position of h1 in H2 and K an isotropy subgroup of H2 on
the annihilator of its algebra.  The diagonal h1 = h2 suffices: h1 lies in
h2, so ann(h2) lies in ann(h1), and E meet (H2)_xi = E_xi is already a class
of h1 on its own annihilator (the slice picture T_xM = g/h + N).  On the
diagonal E meet K = K, so lifted_lattice takes the labels of ann_of(h) over
the base classes h, with witness (h, h, K); those witnesses depend on h
alone and are built once per tag.  The cotangent lift and relative
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
    FULL,
    ClassTag,
    ConcreteSubgroup,
    canonical_rep,
    classify_finite,
    embeddings_of_class_in,
    g_class_of,
    intersect,
    is_subconjugate,
    subgroup_equal,
)
from .errors import NotRealizableInG
from .poset import IsotropyLattice, build_lattice, compute_depths
from .rotation import FiniteRotationGroup, Value


class SO3Ambient(Value):
    pass


class FiniteAmbient(Value):
    """A finite symmetry group, realized as a rotation group for cataloging."""

    group: FiniteRotationGroup


class CircleAmbient(Value):
    pass


AmbientGroup = SO3Ambient | FiniteAmbient | CircleAmbient

AMBIENT_SO3 = SO3Ambient()
AMBIENT_CIRCLE = CircleAmbient()


def ambient_class(G: AmbientGroup) -> ClassTag:
    if isinstance(G, SO3Ambient):
        return FULL
    if isinstance(G, CircleAmbient):
        return ClassTag("SO2")
    return classify_finite(G.group)


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


def _validate_realizable(G: AmbientGroup, tags) -> None:
    amb = ambient_class(G)
    for t in tags:
        if not is_subconjugate(t, amb):
            raise NotRealizableInG(
                f"{t.short()} is not a subgroup class of the ambient {amb.short()}"
            )


def lifted_lattice(G: AmbientGroup, base: IsotropyLattice) -> LiftResult:
    """Isotropy lattice of the lifted action on TM from the base lattice."""
    _validate_realizable(G, base.classes)
    if isinstance(G, (FiniteAmbient, CircleAmbient)):
        lifted = build_lattice(base.classes)
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
    lifted = build_lattice(found.keys())
    witnesses = tuple(found[t] for t in lifted.classes)
    return LiftResult(lifted, witnesses)


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

    The embedding is h's position inside its own canonical representative:
    equal to canonical_rep(h) as a set, but for T, O and I not bit for bit.
    One tuple per catalog tag, so every lift returns the same objects.
    """
    E = embeddings_of_class_in(h, canonical_rep(h))[0]
    return tuple(
        LiftWitness(e.label, h, h, e.label, E, e.representative) for e in ann_of(h).classes
    )


def cotangent_lifted_lattice(G: AmbientGroup, base: IsotropyLattice) -> LiftResult:
    """Lattice of the lifted action on T*M; identical to the tangent one."""
    return lifted_lattice(G, base)


def lift_witness_check(G: AmbientGroup, base: IsotropyLattice, result: LiftResult) -> bool:
    """Recheck every witness of a lift result.

    Verifies that each witness uses a valid base pair, that its k entry
    matches an isotropy class on the annihilator of its h2, that the claimed
    intersection lands in the claimed class, and that the witnessed classes
    are exactly the classes of the lifted lattice.  Every witness is compared
    on every call and no verdict is stored.  The check rebuilds its own
    annihilator isotropy, once per h2 within a call, and never reads the
    lift's ann_of cache; what it reuses is data stored on the immutable
    groups themselves (classes, line tables, axis-line orbits), and
    intersect hands back a contained operand instead of copying it.
    """
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
    return witnessed == set(result.lifted.classes)
