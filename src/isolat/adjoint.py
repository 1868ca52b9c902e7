"""Linear isotropy of the coadjoint action restricted to annihilators.

For a closed subgroup H of SO(3), identify the dual of the Lie algebra with
R^3 carrying the standard rotation action.  The annihilator of the algebra
of H is then: the zero subspace for H = SO(3), the plane orthogonal to the
axis for the circle groups, and all of R^3 for finite H.

isotropy_on_ann computes one concrete stabilizer subgroup of H per isotropy
class on that subspace.  These subgroups drive the lifted-lattice
construction and the symplectic corollaries.
"""

from __future__ import annotations

from collections import Counter

from .catalog import (
    CircleSub,
    ConcreteSubgroup,
    FullSub,
    OrthCircleSub,
    cyclic_group,
    in_plane_direction,
    trivial_group,
)
from .rotation import (
    FiniteRotationGroup,
    Vec3,
    apply,
    canon_direction,
    line_key,
    stored,
)


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
        on_rep = {id(r) for r, _ in table[rep_key][1]}
        axial = F.where(lambda r: id(r) in on_rep)
        # its one line is this entry: the same elements, in the same order
        stored(axial, "lines", lambda _: {rep_key: table[rep_key]})
        orbits.append((rep, k, axial))
    orbits.sort(key=lambda item: (item[1], item[0]))
    return tuple(orbits)


def isotropy_on_ann(H: ConcreteSubgroup) -> tuple[ConcreteSubgroup, ...]:
    """Stabilizer subgroups of H on the annihilator of its own algebra.

    Actual subgroups of H at fixed positions, one per orbit type, the last
    being H itself (the stabilizer of the origin); a class may repeat at
    another position (D4 has two orbits of C2 axes).  An entry's class in
    the ambient SO(3) is g_class_of of the entry.
    """
    return stored(H, "_ann", _isotropy_on_ann)


def _isotropy_on_ann(H: ConcreteSubgroup) -> tuple[ConcreteSubgroup, ...]:
    if isinstance(H, FullSub):
        return (H,)
    if isinstance(H, CircleSub):
        # the circle rotates its orthogonal plane freely off the origin
        return (trivial_group(), H)
    if isinstance(H, OrthCircleSub):
        # a nonzero covector in the plane is fixed exactly by the half turn
        # about its own line; the flip at phase 0 is the marked position
        return (cyclic_group(2, in_plane_direction(H.axis, 0.0)), H)
    entries: list[FiniteRotationGroup] = [trivial_group()] if len(H) > 1 else []
    for _, k, axial in axis_line_orbits(H):
        # an axial group of order |H| is H itself (it lies inside H): it
        # merges with the origin class (cyclic H fixing its own axis)
        if k < len(H):
            entries.append(axial)
    return (*entries, H)
