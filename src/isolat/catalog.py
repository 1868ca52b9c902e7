"""Catalog of closed subgroups of SO(3) up to conjugacy.

Conjugacy classes are named by a ClassTag with nine kinds: the trivial group,
cyclic C_n and dihedral D_n families, the three exceptional rotation groups
(tetrahedral, octahedral, icosahedral), the circle SO(2), the half-turn
extension O(2), and SO(3) itself.  A ConcreteSubgroup is a FiniteRotationGroup,
CircleSub, OrthCircleSub or FullSub, with the geometry to intersect exactly.

The subconjugation partial order on tags is one closed-form predicate
(is_subconjugate), and the lift's rule one table of per-tag class sets
(ann_classes); the lattice layers read them.  No numbering of the tags
is kept here: a lattice numbers its own classes (poset.py).  Everything
geometric (classification, canonical representatives, subgroup enumeration,
intersections, embeddings) lives here too so that the lattice layers never
touch raw quaternions.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

from .errors import GroupTooLarge, NotSubconjugate, UnclassifiableGroup
from .rotation import (
    CLOSURE_CAP,
    TOLERANCE,
    FiniteRotationGroup,
    Rotation,
    Value,
    Vec3,
    axis_angle_of,
    canon_direction,
    close_group,
    compose,
    cross,
    dot,
    line_key,
    normalize,
    stored,
)

# Largest n admitted for C_n and D_n tags.
N_CAP = 100

_KINDS = ("1", "C", "D", "T", "O", "I", "SO2", "O2", "SO3")
_KIND_RANK = {k: i for i, k in enumerate(_KINDS)}

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

_Z: Vec3 = (0.0, 0.0, 1.0)

# Named tolerances of the geometric tests below.  Like rotation.TOLERANCE they
# are fixed constants, and their values decide output bytes.

# Slack on dot products of two unit axes in the same-line, perpendicular and
# membership tests: catalog axes come from exact constructions, so these dot
# products sit within a few ulps of 0 or +-1.
AXIS_DOT_TOL = 1e-9
# Slack on the perpendicularity of the axes of a group being classified:
# those axes are extracted from composed quaternions by sqrt and atan2, which
# lose digits near half turns, so the test is looser than AXIS_DOT_TOL.
CLASSIFY_PERP_TOL = 1e-7
# perp_frame starts from the x axis unless x lies this close to the given
# axis; any cut-off well above roundoff keeps the frame well conditioned.
FRAME_PIVOT_MIN = 1e-6


class ClassTag(Value):
    """Conjugacy class of a closed subgroup of SO(3), interned: one instance per (kind, n)."""

    kind: str
    n: int | None = None
    _interned = {}  # keyed on type(n) too, or 2.0 would find C2

    def __new__(cls, kind: str, n: int | None = None):
        key = (kind, n.__class__, n)
        tag = cls._interned.get(key)
        if tag is None:
            tag = super().__new__(cls)
            Value.__init__(tag, kind, n)
            tag = cls._interned.setdefault(key, tag)
        return tag

    __init__ = object.__init__  # __new__ built the instance
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        return ClassTag, (self.kind, self.n)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown subgroup kind {self.kind!r}")
        if self.kind in ("C", "D"):
            if not isinstance(self.n, int) or isinstance(self.n, bool):
                raise ValueError(f"{self.kind} tag needs an integer index")
            if self.n < 2 or self.n > N_CAP:
                raise ValueError(f"{self.kind} index must lie in 2..{N_CAP}, got {self.n}")
        elif self.n is not None:
            raise ValueError(f"{self.kind} tag takes no index")

    def display(self) -> str:
        if self.kind in ("C", "D"):
            return f"{self.kind}{self.n}"
        return {"1": "1", "T": "T", "O": "O", "I": "I",
                "SO2": "SO(2)", "O2": "O(2)", "SO3": "SO(3)"}[self.kind]

    def short(self) -> str:
        if self.kind in ("C", "D"):
            return f"{self.kind}{self.n}"
        return self.kind

    def min_order(self) -> int | None:
        """Group order for finite kinds, None for the continuous ones."""
        if self.kind == "1":
            return 1
        if self.kind == "C":
            return self.n
        if self.kind == "D":
            return 2 * self.n
        if self.kind == "T":
            return 12
        if self.kind == "O":
            return 24
        if self.kind == "I":
            return 60
        return None


TRIVIAL = ClassTag("1")
TETRA = ClassTag("T")
OCTA = ClassTag("O")
ICOSA = ClassTag("I")
CIRCLE = ClassTag("SO2")
ORTH_CIRCLE = ClassTag("O2")
FULL = ClassTag("SO3")


def cyclic(n: int) -> ClassTag:
    return ClassTag("C", n)


def dihedral(n: int) -> ClassTag:
    return ClassTag("D", n)


def tag_sort_key(t: ClassTag):
    """Total order: by group order, infinite kinds last, ties by kind then n.

    Every lattice sorts its classes by it (poset.build_lattice); a warm
    command reads its lattices from stores and sorts nothing.
    """
    mo = t.min_order()
    rank = _KIND_RANK[t.kind]
    return (mo if mo is not None else 10**6 + rank, rank, t.n or 0)


# An indexed tag: C or D, then an index in ASCII decimal without leading zeros
# ([0-9] matches no other script's digits, unlike str.isdigit).
_INDEXED_TAG = re.compile(r"([CD])(0|[1-9][0-9]*)")


def parse_tag(s: str) -> ClassTag:
    """Short-form parser: '1', 'C4', 'D6', 'T', 'O', 'I', 'SO2', 'O2', 'SO3'.

    Every catalog tag has exactly one accepted text (no leading zeros), and
    the tag it returns is the interned one.
    """
    if s in ("1", "T", "O", "I", "SO2", "O2", "SO3"):
        return ClassTag(s)
    m = _INDEXED_TAG.fullmatch(s)
    if m is None:
        raise ValueError(f"cannot parse class tag {s!r}")
    kind, digits = m.groups()
    if len(digits) > len(str(N_CAP)):
        # past N_CAP, and int() refuses strings of thousands of digits
        raise ValueError(f"{kind} index must lie in 2..{N_CAP}, got {digits}")
    return ClassTag(kind, int(digits))


# ---------------------------------------------------------------------------
# Concrete subgroups


class CircleSub(Value):
    """All rotations about a fixed axis (axis sign is quotiented away)."""

    axis: Vec3

    def __post_init__(self):
        self.__dict__["axis"] = canon_direction(self.axis)


class OrthCircleSub(Value):
    """Rotations about the axis plus half turns about every orthogonal axis.

    The half turn about in_plane_direction(axis, 0.0) is the marked flip:
    the position used when the group arises as the linear isotropy of a
    covector, and the reference of its embedded positions.
    """

    axis: Vec3

    def __post_init__(self):
        self.__dict__["axis"] = canon_direction(self.axis)


class FullSub(Value):
    pass


ConcreteSubgroup = FiniteRotationGroup | CircleSub | OrthCircleSub | FullSub


def vec_reject(v: Vec3, unit: Vec3) -> Vec3:
    d = dot(v, unit)
    return (v[0] - d * unit[0], v[1] - d * unit[1], v[2] - d * unit[2])


def perp_frame(axis: Vec3) -> tuple[Vec3, Vec3]:
    """Right-handed orthonormal pair (u, v) spanning the plane orthogonal to axis."""
    a = normalize(axis)
    u = vec_reject((1.0, 0.0, 0.0), a)
    if math.sqrt(dot(u, u)) <= FRAME_PIVOT_MIN:
        u = vec_reject((0.0, 1.0, 0.0), a)
    u = normalize(u)
    return (u, cross(a, u))


def in_plane_direction(axis: Vec3, phase: float) -> Vec3:
    u, v = perp_frame(axis)
    c, s = math.cos(phase), math.sin(phase)
    return (
        c * u[0] + s * v[0],
        c * u[1] + s * v[1],
        c * u[2] + s * v[2],
    )


def cyclic_group(n: int, axis: Vec3 = _Z) -> FiniteRotationGroup:
    els = [Rotation.from_axis_angle(axis, 2.0 * math.pi * k / n) for k in range(1, n)]
    return FiniteRotationGroup.from_elements(els)


def dihedral_group(n: int, axis: Vec3 = _Z, phase: float = 0.0) -> FiniteRotationGroup:
    els = [Rotation.from_axis_angle(axis, 2.0 * math.pi * k / n) for k in range(1, n)]
    for k in range(n):
        flip_dir = in_plane_direction(axis, phase + math.pi * k / n)
        els.append(Rotation.from_axis_angle(flip_dir, math.pi))
    return FiniteRotationGroup.from_elements(els)


# ---------------------------------------------------------------------------
# Classification of finite rotation groups


def axis_lines(F: FiniteRotationGroup) -> list[tuple[Vec3, int]]:
    """Rotation axes of F as lines, each with the order of its axial subgroup.

    Returns (canonical direction, k) pairs sorted descending by k, where k-1
    is the number of non-identity elements of F fixing the line.
    """
    lines: list[tuple[Vec3, int]] = []
    for d, members in F.lines.values():
        k = len(members) + 1
        if max((o for _, o in members if o is not None), default=0) != k:
            raise UnclassifiableGroup(
                "axial subgroup is not cyclic of the expected order"
            )
        lines.append((d, k))
    lines.sort(key=lambda item: (-item[1], tuple(-c for c in item[0])))
    return lines


def classify_finite(F: FiniteRotationGroup) -> ClassTag:
    """Conjugacy class of a finite rotation group.

    The multiset of rotation-axis lines separates the finite subgroups of
    SO(3) completely, so classification only inspects that.  The class is
    the one g_class_of reads: stored on F as "_class_tag" by the same
    builder, so F is classified once, whichever of the two asks first.
    """
    return stored(F, "_class_tag", _classify)


def g_class_of(S: ConcreteSubgroup) -> ClassTag:
    """Conjugacy class of a concrete subgroup of any type.

    One stored read: the class is kept on S as "_class_tag", built once by
    _classify, the builder classify_finite shares.
    """
    return stored(S, "_class_tag", _classify)


def _classify(S: ConcreteSubgroup) -> ClassTag:
    if isinstance(S, CircleSub):
        return CIRCLE
    if isinstance(S, OrthCircleSub):
        return ORTH_CIRCLE
    if isinstance(S, FullSub):
        return FULL
    n = len(S)  # a finite group
    if n == 1:
        return TRIVIAL
    lines = axis_lines(S)
    if len(lines) == 1:
        d, k = lines[0]
        if k != n:
            raise UnclassifiableGroup("single-axis group of inconsistent order")
        if n > N_CAP:
            raise UnclassifiableGroup(f"cyclic order {n} exceeds cap {N_CAP}")
        return cyclic(n)
    if n % 2 == 0:
        m = n // 2
        if m == 2:
            if len(lines) == 3 and all(k == 2 for _, k in lines) and _mutually_perp(
                [d for d, _ in lines]
            ):
                return dihedral(2)
        elif m >= 3:
            tops = [(d, k) for d, k in lines if k == m]
            twos = [(d, k) for d, k in lines if k == 2]
            if (
                len(tops) == 1
                and len(twos) == m
                and len(lines) == m + 1
                and all(abs(dot(tops[0][0], d)) <= CLASSIFY_PERP_TOL for d, _ in twos)
            ):
                if m > N_CAP:
                    raise UnclassifiableGroup(f"dihedral index {m} exceeds cap {N_CAP}")
                return dihedral(m)
    profile = sorted(k for _, k in lines)
    if n == 12 and profile == [2, 2, 2, 3, 3, 3, 3]:
        return TETRA
    if n == 24 and profile == [2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4]:
        return OCTA
    if n == 60 and profile == [2] * 15 + [3] * 10 + [5] * 6:
        return ICOSA
    raise UnclassifiableGroup(f"order-{n} group matches no catalog family")


def _mutually_perp(dirs: list[Vec3]) -> bool:
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            if abs(dot(dirs[i], dirs[j])) > CLASSIFY_PERP_TOL:
                return False
    return True


# ---------------------------------------------------------------------------
# Canonical representatives


def _tetra_elements() -> list[Rotation]:
    els = [
        Rotation.from_axis_angle((1.0, 0.0, 0.0), math.pi),
        Rotation.from_axis_angle((0.0, 1.0, 0.0), math.pi),
        Rotation.from_axis_angle((0.0, 0.0, 1.0), math.pi),
    ]
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            d = (sx, sy, 1.0)
            els.append(Rotation.from_axis_angle(d, 2.0 * math.pi / 3.0))
            els.append(Rotation.from_axis_angle(d, -2.0 * math.pi / 3.0))
    return els


def _octa_elements() -> list[Rotation]:
    els: list[Rotation] = []
    for ax in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        for ang in (math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0):
            els.append(Rotation.from_axis_angle(ax, ang))
    for d in (
        (1.0, 1.0, 0.0),
        (1.0, -1.0, 0.0),
        (1.0, 0.0, 1.0),
        (1.0, 0.0, -1.0),
        (0.0, 1.0, 1.0),
        (0.0, 1.0, -1.0),
    ):
        els.append(Rotation.from_axis_angle(d, math.pi))
    return els + _tetra_elements()[3:]  # the eight 3-fold rotations of T


@lru_cache(maxsize=None)
def canonical_rep(t: ClassTag) -> ConcreteSubgroup:
    """Fixed concrete representative of a class, oriented about the z axis.

    One shared instance per class (groups are immutable): canonical_rep(TRIVIAL)
    is also the trivial group every intersection and isotropy rule returns.
    """
    if t.kind == "1":
        return FiniteRotationGroup.from_elements([])
    if t.kind == "C":
        return cyclic_group(t.n)
    if t.kind == "D":
        return dihedral_group(t.n)
    if t.kind == "T":
        return FiniteRotationGroup.from_elements(_tetra_elements())
    if t.kind == "O":
        return FiniteRotationGroup.from_elements(_octa_elements())
    if t.kind == "I":
        five = Rotation.from_axis_angle((GOLDEN, 0.0, 1.0), 2.0 * math.pi / 5.0)
        two = Rotation.from_axis_angle(_Z, math.pi)
        F = close_group([five, two])
        if len(F) != 60:
            raise UnclassifiableGroup("icosahedral generators failed to close at 60")
        return F
    if t.kind == "SO2":
        return CircleSub(_Z)
    if t.kind == "O2":
        return OrthCircleSub(_Z)
    return FullSub()


# ---------------------------------------------------------------------------
# Subconjugation partial order on tags

# Indices of the cyclic and dihedral subgroup classes of T, O and I
# (Golubitsky-Stewart-Schaeffer II, ch. XIII).
_EXC_CYCLIC = {"T": (2, 3), "O": (2, 3, 4), "I": (2, 3, 5)}
_EXC_DIHEDRAL = {"T": (2,), "O": (2, 3, 4), "I": (2, 3, 5)}


def is_subconjugate(a: ClassTag, b: ClassTag) -> bool:
    """True when some conjugate of a representative of a lies inside b's.

    The subconjugation order in closed form (Golubitsky-Stewart-Schaeffer
    II, ch. XIII): C_d and D_d lie in C_n and D_n when d divides n, and C2
    in every D_n; T, O and I hold the classes of _EXC_CYCLIC and
    _EXC_DIHEDRAL, and T lies in O and I; SO(2) holds every C_n, O(2) every
    C_n, every D_n and SO(2), and SO(3) every class.  The lattice layer
    relies on tag_sort_key growing along every strict pair, which a tier-1
    test checks on every pair of catalog tags.
    """
    if a is b or b is FULL:
        return True
    ka, kb = a.kind, b.kind
    if ka == "1" or kb == "O2":  # 1 lies in every class, O(2) holds 1, C_n, D_n and SO(2)
        return ka in ("1", "C", "D", "SO2")
    if kb == "SO2":
        return ka == "C"
    if ka == "C":
        if kb in ("C", "D"):
            return b.n % a.n == 0 or (kb == "D" and a.n == 2)
        return a.n in _EXC_CYCLIC.get(kb, ())
    if ka == "D":
        if kb == "D":
            return b.n % a.n == 0
        return a.n in _EXC_DIHEDRAL.get(kb, ())
    return ka == "T" and kb in ("O", "I")


@lru_cache(maxsize=None)
def ann_classes(h: ClassTag) -> frozenset:
    """The isotropy classes of h on the annihilator of its algebra.

    The rule table of the lift, by kind alone: h itself (the origin) and the
    trivial class, plus C2 and Cn for Dn, the axial classes of T, O and I;
    O(2) takes C2 in place of the trivial class, SO(3) only itself.  It reads
    no geometry; tests/test_diagonal_lift.py checks it against isotropy_on_ann
    on every catalog tag.  The cache holds one entry per catalog tag.
    """
    if h.kind == "SO3":
        return frozenset([h])
    if h.kind == "O2":
        return frozenset([h, cyclic(2)])
    if h.kind == "D":
        return frozenset([h, TRIVIAL, cyclic(2), cyclic(h.n)])
    return frozenset([h, TRIVIAL, *map(cyclic, _EXC_CYCLIC.get(h.kind, ()))])


# ---------------------------------------------------------------------------
# Subgroup enumeration for small finite groups

SUBGROUPS_ORDER_CAP = 120


def _cyclic_closure(r: Rotation) -> FiniteRotationGroup:
    els = [r]
    cur = r
    while not cur.is_identity():
        cur = compose(cur, r)
        els.append(cur)
        if len(els) > CLOSURE_CAP:
            raise GroupTooLarge("element order exceeds the closure cap")
    return FiniteRotationGroup.from_elements(els)


def principal_axis(F: FiniteRotationGroup) -> Vec3:
    """Distinguished axis line of a finite group (zero for the trivial one).

    The line of largest line_key among the highest-order lines: the rotation
    line of C_n and the order-n line of D_n, n >= 3.  D2 and the exceptional
    groups have no single distinguished line, and the rule fixes one.
    """
    if len(F) == 1:
        return (0.0, 0.0, 0.0)
    lines = axis_lines(F)
    return max((d for d, k in lines if k == lines[0][1]), key=line_key)


def _subgroup_sort_key(F: FiniteRotationGroup):
    return (
        len(F),
        tag_sort_key(classify_finite(F)),
        line_key(principal_axis(F)),
        tuple(sorted(F.key_set)),
    )


def _index_in(F: FiniteRotationGroup, r: Rotation) -> int:
    """Position of r among F's elements; r must be a product of F's elements."""
    k = F.index_of(r)
    if k is None:
        raise UnclassifiableGroup("a product escaped the parent group")
    return k


def _enumerate_subgroups(F: FiniteRotationGroup) -> tuple[FiniteRotationGroup, ...]:
    """Cyclic closures of F's elements, then one pass of their pairwise joins.

    Every finite subgroup of SO(3) is generated by at most two cyclic
    subgroups (C_n by one, D_n by C_n and a half turn, T and I by a C2 and
    a C3, O by a C3 and a C4), so one pass finds every subgroup of F.
    Subgroups are sets of positions in F.elements; a join's set is the
    closure of its generator positions over F's Cayley table, whose products
    are looked up on first read.  A parent that is not a group still raises
    UnclassifiableGroup: a power that escapes F does in its cyclic closure,
    and if a product g·h escapes F while <g> and <h> lie in F, neither of
    them contains the other, so the closure of their pair reaches g·h and
    its lookup raises.  close_group runs once per new set, and its result
    (whose floats decide the sort) must sit at distinct positions of F that
    are exactly the set.  Each group keeps F and, as its id_set,
    the ids of F's objects at those positions, so intersect meets F's own
    groups by identity.
    """
    elements = F.elements
    mult: list[list[int | None]] = [[None] * len(F) for _ in F]
    ident = F.index_of(Rotation.identity())

    def closure(gens: tuple[int, ...]) -> frozenset:
        seen, stack, uniq = {ident}, [ident], set(gens)
        while stack:
            i = stack.pop()
            for g in uniq:
                k = mult[g][i]
                if k is None:
                    k = mult[g][i] = _index_in(F, compose(elements[g], elements[i]))
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        return frozenset(seen)

    def checked(S: FiniteRotationGroup, positions: frozenset) -> FiniteRotationGroup:
        at = [F.index_of(r) for r in S]
        if len(at) != len(positions) or set(at) != positions:
            raise UnclassifiableGroup("closure disagrees with the parent's Cayley table")
        stored(S, "_parent", lambda _: F)  # keeps the ids below valid
        stored(S, "id_set", lambda _: frozenset(id(elements[i]) for i in at))
        return S

    trivial = frozenset([ident])
    found = {trivial: checked(FiniteRotationGroup.from_elements([]), trivial)}
    gen_of: dict[frozenset, int] = {}  # nontrivial cyclic positions -> index of a generator
    for i, r in enumerate(elements):
        if r.is_identity():
            continue
        positions = closure((i,))
        if positions not in found:
            found[positions] = checked(_cyclic_closure(r), positions)
            gen_of[positions] = i

    cyclics = sorted(gen_of, key=lambda a: (len(found[a]), tuple(sorted(found[a].key_set))))
    for i, a in enumerate(cyclics):
        for b in cyclics[i + 1:]:
            if a <= b or b <= a:  # one contains the other
                continue
            gens = (gen_of[a], gen_of[b])
            positions = closure(gens)
            if positions not in found:
                found[positions] = checked(close_group([elements[k] for k in gens]), positions)

    # every product met lay in F, so F is a group, made of at most two cyclic subgroups
    assert frozenset(range(len(F))) in found
    return tuple(sorted(found.values(), key=_subgroup_sort_key))


def subgroups_of(F: FiniteRotationGroup) -> tuple[FiniteRotationGroup, ...]:
    """All subgroups of F, deterministically ordered.

    The cyclic closures and one pass of their pairwise joins, on F's Cayley
    table as sets of positions (see _enumerate_subgroups).
    """
    if len(F) > SUBGROUPS_ORDER_CAP:
        raise ValueError(
            f"subgroup enumeration is limited to order {SUBGROUPS_ORDER_CAP}"
        )
    return _enumerate_subgroups(F)


# ---------------------------------------------------------------------------
# Membership, intersection, equality


def subgroup_contains(S: ConcreteSubgroup, r: Rotation) -> bool:
    if isinstance(S, FullSub):
        return True
    if isinstance(S, FiniteRotationGroup):
        return S.contains(r)
    aa = axis_angle_of(r)
    if aa is None:
        return True
    along = abs(dot(aa.axis, S.axis)) >= 1.0 - AXIS_DOT_TOL
    if isinstance(S, CircleSub):
        return along
    if along:
        return True
    return abs(aa.angle - math.pi) <= TOLERANCE and abs(dot(aa.axis, S.axis)) <= AXIS_DOT_TOL


def _same_line(a: Vec3, b: Vec3) -> bool:
    return abs(abs(dot(a, b)) - 1.0) <= AXIS_DOT_TOL


def _perp(a: Vec3, b: Vec3) -> bool:
    return abs(dot(a, b)) <= AXIS_DOT_TOL


def intersect(A: ConcreteSubgroup, B: ConcreteSubgroup) -> ConcreteSubgroup:
    """Exact intersection of two concrete subgroups.

    When the intersection is a whole operand, that operand itself is
    returned (its stored class and line table come with it), not a copy.
    Two finite operands are first compared by identity: when the smaller
    one's id_set lies in the other's (every element matched by one of the
    other's own objects), the smaller one is the intersection and no
    element is looked up.  Otherwise a finite intersection is the smaller
    finite operand's where() selection of the elements the other contains:
    its own objects, in its order, so the result meets it by identity.
    """
    if A is B or isinstance(A, FullSub):
        return B
    if isinstance(B, FullSub):
        return A
    if isinstance(A, FiniteRotationGroup) or isinstance(B, FiniteRotationGroup):
        a_len = len(A) if isinstance(A, FiniteRotationGroup) else math.inf
        b_len = len(B) if isinstance(B, FiniteRotationGroup) else math.inf
        small, other = (A, B) if a_len <= b_len else (B, A)
        if isinstance(other, FiniteRotationGroup) and small.id_set <= other.id_set:
            return small  # each element is one of other's own objects
        return small.where(lambda r: subgroup_contains(other, r))
    if isinstance(A, CircleSub) and isinstance(B, CircleSub):
        return A if _same_line(A.axis, B.axis) else canonical_rep(TRIVIAL)
    if isinstance(A, OrthCircleSub) and isinstance(B, OrthCircleSub):
        if _same_line(A.axis, B.axis):
            return A
        # Rotations shared by distinct-axis copies are half turns about axes
        # orthogonal to both.  a x b always qualifies; for perpendicular a, b
        # the two axes themselves do as well, giving a Klein group.
        common = canon_direction(cross(A.axis, B.axis))
        if _perp(A.axis, B.axis):
            els = [
                Rotation.from_axis_angle(A.axis, math.pi),
                Rotation.from_axis_angle(B.axis, math.pi),
                Rotation.from_axis_angle(common, math.pi),
            ]
            return FiniteRotationGroup.from_elements(els)
        return cyclic_group(2, common)
    circ, orth = (A, B) if isinstance(A, CircleSub) else (B, A)
    if _same_line(circ.axis, orth.axis):
        return CircleSub(circ.axis)
    if _perp(circ.axis, orth.axis):
        return cyclic_group(2, circ.axis)
    return canonical_rep(TRIVIAL)


def subgroup_equal(A: ConcreteSubgroup, B: ConcreteSubgroup) -> bool:
    if A is B:
        return True
    if isinstance(A, FiniteRotationGroup) and isinstance(B, FiniteRotationGroup):
        return A == B
    if isinstance(A, (CircleSub, OrthCircleSub)) and type(A) is type(B):
        return _same_line(A.axis, B.axis)
    if isinstance(A, FullSub) and isinstance(B, FullSub):
        return True
    return False


# ---------------------------------------------------------------------------
# Embeddings of a class into a concrete subgroup


def _cyclic_part_about(members, m: int) -> list[Rotation] | None:
    """The order-m cyclic subgroup on one line of a group's line table.

    members are the line's (element, order) pairs; None if the axial
    subgroup has no subgroup of order m.
    """
    els = [Rotation.identity()] + [r for r, o in members if o is not None and m % o == 0]
    return els if len(els) == m else None


def _position(H: FiniteRotationGroup, els: list[Rotation]) -> FiniteRotationGroup:
    """The subgroup of H on els, H's own elements: H itself when they fill it."""
    ids = set(map(id, els))
    return H.where(lambda r: id(r) in ids)


def _finite_cyclic_embeddings(H: FiniteRotationGroup, m: int) -> list[FiniteRotationGroup]:
    out = []
    for _, members in H.lines.values():
        els = _cyclic_part_about(members, m)
        if els is not None:
            out.append(_position(H, els))
    return out


def _finite_dihedral_embeddings(H: FiniteRotationGroup, m: int) -> list[FiniteRotationGroup]:
    """Dihedral subgroups D_m of a finite group, from its line table.

    A D_m is an order-m axial part C plus the coset fC of a half turn f about
    a line perpendicular to C's axis (Golubitsky-Stewart-Schaeffer II,
    ch. XIII), so each coset of H's perpendicular half turns is one copy.
    The products are looked up among H's own elements.  The three lines of a
    D2 are all axes; each D2 is listed from its principal line alone.
    """
    halves = [(key, d, r) for key, (d, on_line) in H.lines.items() for r, o in on_line if o == 2]
    line_of = {id(r): key for key, _, r in halves}
    out = []
    for key, (d, members) in H.lines.items():
        axial = _cyclic_part_about(members, m)
        if axial is None:
            continue
        taken: set[int] = set()
        for _, fd, f in halves:
            if id(f) in taken or not _perp(fd, d):
                continue
            coset = [H.elements[_index_in(H, compose(f, c))] for c in axial]
            taken.update(map(id, coset))
            if m > 2 or all(line_of[id(r)] < key for r in coset):
                out.append(_position(H, axial + coset))
    return out


def embeddings_of_class_in(t: ClassTag, H2: ConcreteSubgroup):
    """Subgroups of H2 lying in class t, listed position by position.

    Returns a deterministic list of concrete subgroups of H2.  When H2 is
    all of SO(3) every position is conjugate inside H2, so the list is just
    the canonical representative of t.

    Why ranging over these positions is enough when intersecting against a
    fixed family: both the embedding set of t in H2 and the isotropy
    representatives on the annihilator are closed under conjugation by
    elements h of H2, and class(hEh^-1 meet K) equals class(E meet h^-1Kh).
    Fixing one K per class and letting E run over every embedding of t in H2
    therefore reaches every intersection class any pair of positions could
    produce.  For the continuous parents the finitely many listed positions
    realize all distinct relative configurations for the same reason.
    """
    h2 = g_class_of(H2)
    if not is_subconjugate(t, h2):
        raise NotSubconjugate(f"{t.short()} is not subconjugate to {h2.short()}")
    if isinstance(H2, FullSub) or t.kind == "1":
        return [canonical_rep(t)]
    if isinstance(H2, CircleSub):
        if t.kind == "SO2":
            return [CircleSub(H2.axis)]
        return [cyclic_group(t.n, H2.axis)]
    if isinstance(H2, OrthCircleSub):
        a = H2.axis
        if t.kind == "O2":
            return [H2]
        if t.kind == "SO2":
            return [CircleSub(a)]
        if t.kind == "C":
            if t.n >= 3:
                return [cyclic_group(t.n, a)]
            # order-2 positions: the axial half turn, a flip on the marked
            # direction, and a flip in generic position relative to the mark
            return [
                cyclic_group(2, a),
                cyclic_group(2, in_plane_direction(a, 0.0)),
                cyclic_group(2, in_plane_direction(a, math.pi / 4.0)),
            ]
        # D_m positions in O(2): flip set aligned with the mark or not
        m = t.n
        return [
            dihedral_group(m, a, 0.0),
            dihedral_group(m, a, math.pi / (2.0 * m)),
        ]
    if t.kind == "C":
        subs = _finite_cyclic_embeddings(H2, t.n)
    elif t.kind == "D":
        subs = _finite_dihedral_embeddings(H2, t.n)
    else:  # T, O and I: the only classes still enumerated
        return [S for S in subgroups_of(H2) if classify_finite(S) == t]
    return sorted(subs, key=_subgroup_sort_key)
