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


_ZERO = Zero()
_FULL3 = Full3()


def ann_h(H: ConcreteSubgroup) -> AnnSubspace:
    if isinstance(H, FullSub):
        return _ZERO
    if isinstance(H, (CircleSub, OrthCircleSub)):
        return Plane(H.axis)
    return _FULL3


def _stored(owner: object, key: str, build):
    """owner.__dict__[key], built as build(owner) on first read.

    For data that depends on an immutable group alone, stored on the group
    instance as classify_finite stores its tag; nothing is shared between
    instances.
    """
    value = owner.__dict__.get(key)
    if value is None:
        value = owner.__dict__[key] = build(owner)
    return value


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
    return _stored(F, "_line_orbits", _line_orbits)


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
    are actual subgroups of H, one per class, at a fixed position.  The
    entries that depend on the group alone (a finite group's trivial and
    axial entries, the marked flip of O(2)) are built once and stored on the
    group instance; each call returns a new AnnIsotropy whose last entry,
    the class of H itself, is built on that call.
    """
    sub = ann_h(H)
    if isinstance(H, FullSub):
        return AnnIsotropy(sub, (AnnClass(FULL, FullSub()),))
    if isinstance(H, CircleSub):
        # the circle rotates its orthogonal plane freely off the origin
        return AnnIsotropy(sub, (AnnClass(TRIVIAL, trivial_group()), AnnClass(CIRCLE, H)))
    if isinstance(H, OrthCircleSub):
        return AnnIsotropy(sub, (_stored(H, "_ann_flip", _flip_entry), AnnClass(ORTH_CIRCLE, H)))
    entries = _stored(H.group, "_ann_entries", _finite_entries)
    return AnnIsotropy(sub, (*entries, AnnClass(g_class_of(H), H)))


def _flip_entry(H: OrthCircleSub) -> AnnClass:
    # a nonzero covector in the plane is fixed exactly by the half turn
    # about its own line; the marked flip is the representative position
    return AnnClass(cyclic(2), cyclic_group(2, in_plane_direction(H.axis, H.flip_phase)))


def _finite_entries(F: FiniteRotationGroup) -> tuple[AnnClass, ...]:
    entries: list[AnnClass] = []
    if len(F) > 1:
        entries.append(AnnClass(TRIVIAL, trivial_group()))
    for _, k, axial in axis_line_orbits(F):
        # an axial group of order |F| is F itself (it lies inside F): it
        # merges with the origin class (cyclic H fixing its own axis)
        if k < len(F):
            entries.append(AnnClass(classify_finite(axial), FiniteSub(axial)))
    return tuple(entries)
