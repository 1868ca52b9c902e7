"""Isotropy lattices of tangent-lifted actions.

Given the isotropy lattice of a proper action of G on M, the lattice of the
lifted action on TM consists of the classes (E meet K) over base pairs
(h1) <= (h2), E a position of h1 in H2 and K an isotropy subgroup of H2 on
the annihilator of its algebra in g*.  The diagonal h1 = h2 suffices: h1
lies in h2, so ann(h2) lies in ann(h1), and E meet (H2)_xi = E_xi is already
a class of h1 on its own annihilator (the slice picture T_xM = g/h + N).  On
the diagonal E meet K = K, so the lifted classes are the classes of the
entries K over the base classes h.  Only the rule giving those entries
depends on the ambient (_entries): SO(3) moves the annihilator
(isotropy_on_ann); a finite G has zero algebra and the circle is abelian,
so there the one entry is H itself and the lift gives the base back.  The
classes follow from h's class and the ambient's alone (over SO(3) the rule
table catalog.ann_classes), so lifted_classes takes the union of the
table's class sets over the base classes, as a set of tags, and builds no
group; lifted_lattice adds a witness (h, h, K) per class, one path for
every ambient.  On the diagonal the position E of h in H2 is
H2 = canonical_rep(h) itself, so no position is searched for (over SO(3),
T, O and I still take an enumerated twin, see _diagonal_witnesses); the
witnesses depend on h and the rule alone and are built once per tag.  The
cotangent lift and relative equilibria (momentum.py) realize the same
lattice.
"""

from __future__ import annotations

from functools import lru_cache

from .adjoint import isotropy_on_ann
from .catalog import (
    FULL,
    ClassTag,
    ConcreteSubgroup,
    FullSub,
    OrthCircleSub,
    ann_classes,
    canonical_rep,
    embeddings_of_class_in,
    g_class_of,
    intersect,
    is_subconjugate,
    subgroup_equal,
)
from .errors import NotRealizableInG
from .poset import IsotropyLattice, build_lattice, compute_depths
from .rotation import Value, stored

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
    intersection with the embedding lands in lifted_class.
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


def _validate_realizable(G: ConcreteSubgroup, base: IsotropyLattice) -> ClassTag:
    """The ambient's class; refuse a base class that is not a subgroup class of it,
    naming the first in the lattice's order (parse_spec asks the same of each class)."""
    amb = ambient_class(G)
    for t in base.classes:
        if not is_subconjugate(t, amb):
            raise NotRealizableInG(f"{t.short()} is not a subgroup class of the ambient {amb.short()}")
    return amb


def _entries(so3: bool):
    """The rule H -> H's stabilizers on the annihilator of its algebra in g*: SO(3)
    moves it; a finite G has zero algebra and the circle is abelian, so H fixes it."""
    return isotropy_on_ann if so3 else lambda H: (H,)


def _table(so3: bool, base: IsotropyLattice) -> frozenset:
    """The lifted classes from the rule table alone: over SO(3) the union of
    ann_classes(h) over the base classes h, else the base's own classes."""
    return frozenset().union(*map(ann_classes, base.classes)) if so3 else frozenset(base.classes)


def lifted_classes(G: ConcreteSubgroup, base: IsotropyLattice) -> IsotropyLattice:
    """The lifted lattice from the rule table alone: no group is built.

    Over SO(3) the lattice is stored on the base, as its witnesses are;
    elsewhere it is the base's own class set.
    """
    if _validate_realizable(G, base) is not FULL:
        return build_lattice(base.classes)
    return stored(base, "_so3_lifted", lambda b: build_lattice(_table(True, b)))


def lifted_lattice(G: ConcreteSubgroup, base: IsotropyLattice) -> LiftResult:
    """Isotropy lattice of the lifted action on TM from the base lattice.

    The lattice comes from lifted_classes; each class's witness is the first
    diagonal witness with that label, over the base classes in depth order.
    """
    lifted = lifted_classes(G, base)
    so3 = ambient_class(G) is FULL
    key = "_so3_witnesses" if so3 else "_own_witnesses"  # build_lattice shares a base
    return LiftResult(lifted, stored(base, key, lambda b: _witnesses(b, lifted, so3)))


def _witnesses(base: IsotropyLattice, lifted: IsotropyLattice, so3: bool) -> tuple[LiftWitness, ...]:
    depths = compute_depths(base)
    found: dict[ClassTag, LiftWitness] = {}
    for h in sorted(base.classes, key=depths.__getitem__):  # stable: ties keep classes' order
        for w in _diagonal_witnesses(h, so3):
            found.setdefault(w.lifted_class, w)
    # a table class without a witness, or a witnessed class the table lacks
    # (listed last), fails lift_witness_check
    return tuple(found.pop(t) for t in lifted.classes if t in found) + tuple(found.values())


@lru_cache(maxsize=None)
def _diagonal_witnesses(h: ClassTag, so3: bool) -> tuple[LiftWitness, ...]:
    """The witnesses (k, h, h, k) of h, one per entry K of h (_entries), k its class.

    The embedding is canonical_rep(h) itself, except for T, O and I over
    SO(3): their enumerated position is the same set (and id_set) with other
    float bits, which their witness bytes carry.  One tuple per catalog tag
    and rule, so every lift returns the same objects.
    """
    H = E = canonical_rep(h)
    if so3 and h.kind in ("T", "O", "I"):  # ROADMAP item 1 deletes this branch
        E = embeddings_of_class_in(h, E)[0]
    return tuple(LiftWitness(g_class_of(K), h, h, g_class_of(K), E, K) for K in _entries(so3)(H))


def lift_witness_check(G: ConcreteSubgroup, base: IsotropyLattice, result: LiftResult) -> bool:
    """Recheck every witness of a lift result.

    Verifies that each witness uses a valid base pair, that its k_rep is an
    entry of its h2 under G's rule (_entries) and k that entry's class,
    that the claimed intersection lands in the claimed class, and that the
    witnessed classes are exactly the classes of the lifted lattice, which
    are in turn the rule-table classes of the lift of base over G.  Every
    witness is compared on every call and no verdict is stored.  The lattice
    comes from the rule table and the witnesses from geometry, so the last
    test catches any disagreement between the two.  One path for every
    ambient: the check reads G's own entries, so an SO(3) witness fails
    over a finite or circle G.  A lift's finite k_rep is made of
    canonical_rep(h2)'s own element objects, and so is its finite
    embedding, except for T, O and I over SO(3), where the embedding is a
    subgroup enumerated from canonical_rep(h2) whose id_set holds the ids
    of the canonical objects it matches.  So intersect proves each finite
    containment by object identity and looks up no element; a witness built
    elsewhere takes the element lookup.  A lift's k_rep is one of the entry
    objects themselves, so the entry is met by identity first and only its
    class is read; a k_rep that is no entry object (an equal copy, say) takes
    the scan for an entry of class k equal to it (subgroup_equal).  When
    intersect returns that entry object itself, the meet's class is k, already
    checked; any other meet is classified.  An O(2) ambient raises
    ValueError, as in lifted_lattice.
    """
    amb = ambient_class(G)  # refuses an O(2) ambient
    entries = _entries(amb is FULL)
    base_classes = set(base.classes)
    witnessed = set()
    for w in result.witnesses:
        if w.h1 not in base_classes or w.h2 not in base_classes:
            return False
        if not is_subconjugate(w.h1, w.h2):
            return False
        ks = entries(canonical_rep(w.h2))
        if any(K is w.k_rep for K in ks):
            if g_class_of(w.k_rep) is not w.k:
                return False
            known = w.k_rep  # an entry of class k
        elif any(g_class_of(K) is w.k and subgroup_equal(K, w.k_rep) for K in ks):
            known = None
        else:
            return False
        if g_class_of(w.embedding) != w.h1:
            return False
        meet = intersect(w.embedding, w.k_rep)
        if (w.k if meet is known else g_class_of(meet)) != w.lifted_class:
            return False
        witnessed.add(w.lifted_class)
    # the table is recomputed, not read from the lattice stored on base
    return witnessed == set(result.lifted.classes) == _table(amb is FULL, base)
