"""Linear isotropy of the coadjoint action restricted to annihilators.

For a closed subgroup H of SO(3), identify the dual of the Lie algebra with
R^3 carrying the standard rotation action.  The annihilator of the algebra
of H is then: the zero subspace for H = SO(3), the plane orthogonal to the
axis for the circle groups, and all of R^3 for finite H.

isotropy_on_ann computes the isotropy classes of H acting on that subspace,
together with one concrete stabilizer subgroup per class.  These pairs drive
the lifted-lattice construction and the symplectic corollaries.
"""

from __future__ import annotations

from collections import Counter

from .catalog import (
    CIRCLE,
    FULL,
    ORTH_CIRCLE,
    TRIVIAL,
    CircleSub,
    ClassTag,
    ConcreteSubgroup,
    FullSub,
    OrthCircleSub,
    classify_finite,
    cyclic,
    cyclic_group,
    g_class_of,
    in_plane_direction,
    trivial_group,
)
from .rotation import (
    FiniteRotationGroup,
    Value,
    Vec3,
    apply,
    canon_direction,
    line_key,
    stored,
)


class Zero(Value):
    pass


class Plane(Value):
    """Plane through the origin orthogonal to axis."""

    axis: Vec3

    def __post_init__(self):
        self.__dict__["axis"] = canon_direction(self.axis)


class Full3(Value):
    pass


AnnSubspace = Zero | Plane | Full3


class AnnClass(Value):
    """One isotropy class on the annihilator with a concrete witness."""

    label: ClassTag
    representative: ConcreteSubgroup


class AnnIsotropy(Value):
    subspace: AnnSubspace
    classes: tuple[AnnClass, ...]


_ZERO = Zero()
_FULL3 = Full3()


def ann_h(H: ConcreteSubgroup) -> AnnSubspace:
    if isinstance(H, FullSub):
        return _ZERO
    if isinstance(H, (CircleSub, OrthCircleSub)):
        return Plane(H.axis)
    return _FULL3


def axis_line_orbits(F: FiniteRotationGroup) -> tuple[tuple[Vec3, int, FiniteRotationGroup], ...]:
    """Orbits of F on its own rotation-axis lines.

    Each orbit yields (representative direction, axial order k, axial
    subgroup at the representative).  The representative is the
    lexicographically largest canonical direction in the orbit.  Orbits are
    sorted by (k, representative).
    """
    # F is a group, so one pass of F over a line already sweeps out the
    # line's whole orbit.  The lines of one orbit share their axial order k,
    # and an orbit holds at most |F|/k lines, so the pass stops once it has
    # that many, or as many as there are unseen lines of order k.
    table = F.lines
    unseen = Counter(len(on_line) + 1 for _, on_line in table.values())
    seen: set[tuple] = set()
    orbits: list[tuple[Vec3, int, FiniteRotationGroup]] = []
    for key, (d, on_line) in table.items():
        if key in seen:
            continue
        k = len(on_line) + 1
        size = min(len(F) // k, unseen[k])
        members: dict[tuple, Vec3] = {key: d}
        for g in F:
            if len(members) == size:
                break
            gd = canon_direction(apply(g, d))
            members.setdefault(line_key(gd), gd)
        seen.update(members)
        unseen[k] -= len(members)
        rep = max(members.values())
        rep_key = line_key(rep)
        axial = FiniteRotationGroup.from_elements([r for r, _ in table[rep_key][1]])
        # its one line is this entry: the same elements, in the same (key) order
        axial.__dict__["lines"] = {rep_key: table[rep_key]}
        orbits.append((rep, k, axial))
    orbits.sort(key=lambda item: (item[1], item[0]))
    return tuple(orbits)


def isotropy_on_ann(H: ConcreteSubgroup) -> AnnIsotropy:
    """Isotropy classes of H on the annihilator of its own algebra.

    Class labels are conjugacy classes in the ambient SO(3); representatives
    are actual subgroups of H, one per class, at a fixed position.
    """
    return stored(H, "_ann", _isotropy_on_ann)


def _isotropy_on_ann(H: ConcreteSubgroup) -> AnnIsotropy:
    sub = ann_h(H)
    if isinstance(H, FullSub):
        return AnnIsotropy(sub, (AnnClass(FULL, FullSub()),))
    if isinstance(H, CircleSub):
        # the circle rotates its orthogonal plane freely off the origin
        return AnnIsotropy(sub, (AnnClass(TRIVIAL, trivial_group()), AnnClass(CIRCLE, H)))
    if isinstance(H, OrthCircleSub):
        # a nonzero covector in the plane is fixed exactly by the half turn
        # about its own line; the marked flip is the representative position
        flip = cyclic_group(2, in_plane_direction(H.axis, H.flip_phase))
        return AnnIsotropy(sub, (AnnClass(cyclic(2), flip), AnnClass(ORTH_CIRCLE, H)))
    return AnnIsotropy(sub, (*_finite_entries(H), AnnClass(g_class_of(H), H)))


def _finite_entries(F: FiniteRotationGroup) -> tuple[AnnClass, ...]:
    entries: list[AnnClass] = []
    if len(F) > 1:
        entries.append(AnnClass(TRIVIAL, trivial_group()))
    for _, k, axial in axis_line_orbits(F):
        # an axial group of order |F| is F itself (it lies inside F): it
        # merges with the origin class (cyclic H fixing its own axis)
        if k < len(F):
            entries.append(AnnClass(classify_finite(axial), axial))
    return tuple(entries)
