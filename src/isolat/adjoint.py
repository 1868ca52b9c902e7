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

from .catalog import (
    CIRCLE,
    FULL,
    ORTH_CIRCLE,
    TRIVIAL,
    CircleSub,
    ClassTag,
    ConcreteSubgroup,
    FiniteSub,
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
    Rotation,
    Value,
    Vec3,
    apply,
    canon_direction,
    line_key,
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


def ann_h(H: ConcreteSubgroup) -> AnnSubspace:
    if isinstance(H, FullSub):
        return Zero()
    if isinstance(H, (CircleSub, OrthCircleSub)):
        return Plane(H.axis)
    return Full3()


def axis_line_orbits(
    F: FiniteRotationGroup,
) -> tuple[tuple[Vec3, int, FiniteRotationGroup], ...]:
    """Orbits of F on its own rotation-axis lines.

    Each orbit yields (representative direction, axial order k, axial
    subgroup at the representative).  The representative is the
    lexicographically largest canonical direction in the orbit.  Orbits are
    sorted by (k, representative).  The tuple is stored on F itself (groups
    are immutable), as classify_finite stores its tag, so each instance is
    swept once and keeps the same axial group objects; nothing is shared
    between instances.
    """
    orbits = F.__dict__.get("_line_orbits")
    if orbits is None:
        orbits = F.__dict__["_line_orbits"] = _line_orbits(F)
    return orbits


def _line_orbits(F: FiniteRotationGroup) -> tuple[tuple[Vec3, int, FiniteRotationGroup], ...]:
    # F is a group, so one pass of F over a line already sweeps out the
    # line's whole orbit
    table = F.lines
    seen: set[tuple] = set()
    orbits: list[tuple[Vec3, int, FiniteRotationGroup]] = []
    for key, (d, on_line) in table.items():
        if key in seen:
            continue
        members: dict[tuple, Vec3] = {key: d}
        for g in F:
            gd = canon_direction(apply(g, d))
            members.setdefault(line_key(gd), gd)
        seen.update(members)
        rep = max(members.values())
        axial = [Rotation.identity()] + [r for r, _ in table[line_key(rep)][1]]
        orbits.append((rep, len(on_line) + 1, FiniteRotationGroup.from_elements(axial)))
    orbits.sort(key=lambda item: (item[1], item[0]))
    return tuple(orbits)


def isotropy_on_ann(H: ConcreteSubgroup) -> AnnIsotropy:
    """Isotropy classes of H on the annihilator of its own algebra.

    Class labels are conjugacy classes in the ambient SO(3); representatives
    are actual subgroups of H, one per class, at a fixed position.
    """
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
    F = H.group
    entries: list[AnnClass] = []
    if len(F) > 1:
        entries.append(AnnClass(TRIVIAL, trivial_group()))
    for rep, k, axial in axis_line_orbits(F):
        stab = FiniteSub(axial)
        if stab.group == F:
            # axial stabilizer equal to the whole group merges with the
            # origin class below (cyclic H fixing its own axis)
            continue
        entries.append(AnnClass(classify_finite(axial), stab))
    entries.append(AnnClass(g_class_of(H), H))
    return AnnIsotropy(sub, tuple(entries))
