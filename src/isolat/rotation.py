"""Tolerance-controlled quaternion arithmetic for rotations of R^3.

A rotation is stored as a unit quaternion [w, x, y, z] in a canonical sign:
the first component whose magnitude exceeds the tolerance is positive, so q
and -q collapse to a single representation.  All types here are immutable
records on tags.Value and every operation is a pure function, so values can
be shared freely across threads.

The tolerance tau is the fixed constant TOLERANCE = 1e-9.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from .errors import GroupTooLarge
from .tags import Value, stored

Vec3 = tuple[float, float, float]

TOLERANCE = 1e-9

# Cap on multiplicative closures, and so on element orders (an element of
# order k generates k distinct elements).  The largest catalog group that
# has to fit is Dihedral(100) with 200 elements.
CLOSURE_CAP = 240

# Digits kept by the rounded-coordinate lookups that dedupe group elements and
# axis lines.  Catalog groups keep pairwise quaternion distances far above
# 1e-6, so a bucket probe followed by eq() confirmation is exact in practice.
_KEY_DIGITS = 6


def round12(x: float) -> float:
    """Clamp to 12 significant digits; the precision of all emitted floats."""
    return float(f"{x:.12g}") + 0.0


def dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(v: Vec3) -> float:
    return math.sqrt(dot(v, v))


def vsub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def normalize(v: Vec3) -> Vec3:
    n = norm(v)
    if math.isinf(n):
        # the squared norm overflowed: divide by the largest magnitude first.
        # Only here, so every other vector keeps its bits.
        m = max(map(abs, v))
        v = (v[0] / m, v[1] / m, v[2] / m)
        n = norm(v)
    if n <= TOLERANCE:
        raise ValueError("cannot normalize a near-zero vector")
    return (v[0] / n, v[1] / n, v[2] / n)


def canon_direction(v: Vec3) -> Vec3:
    """Unit vector with canonical sign: first above-tolerance component > 0."""
    u = normalize(v)
    for c in u:
        if c > TOLERANCE:
            return u
        if c < -TOLERANCE:
            return (-u[0], -u[1], -u[2])
    return u


def line_key(d: Vec3) -> tuple[float, float, float]:
    """Rounded lookup key of a canonical direction, shared by all axis lines."""
    return tuple(round(c, _KEY_DIGITS) for c in d)


class Rotation(Value):
    """Unit quaternion in canonical sign; construction normalizes the input."""

    w: float
    x: float
    y: float
    z: float

    def __init__(self, w: float, x: float, y: float, z: float):
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if n < 0.5:
            raise ValueError("quaternion magnitude too small to normalize")
        w, x, y, z = w / n, x / n, y / n, z / n
        for c in (w, x, y, z):
            if c > TOLERANCE:
                break
            if c < -TOLERANCE:
                w, x, y, z = -w, -x, -y, -z
                break
        self.__dict__.update(w=w, x=x, y=y, z=z)

    @staticmethod
    def identity() -> "Rotation":
        """The identity rotation, one immutable instance shared by all callers."""
        return _IDENTITY

    @classmethod
    def from_axis_angle(cls, axis: Vec3, angle: float) -> "Rotation":
        u = normalize(axis)
        h = 0.5 * angle
        s = math.sin(h)
        return cls(math.cos(h), s * u[0], s * u[1], s * u[2])

    def inverse(self) -> "Rotation":
        return Rotation(self.w, -self.x, -self.y, -self.z)

    def key(self) -> tuple[float, float, float, float]:
        """Rounded lookup key."""
        return stored(self, "_key", _rounded_key)

    def is_identity(self) -> bool:
        return (
            abs(self.x) <= TOLERANCE
            and abs(self.y) <= TOLERANCE
            and abs(self.z) <= TOLERANCE
        )


def _rounded_key(r: Rotation) -> tuple[float, float, float, float]:
    d = _KEY_DIGITS
    return (round(r.w, d), round(r.x, d), round(r.y, d), round(r.z, d))


_IDENTITY = Rotation(1.0, 0.0, 0.0, 0.0)


def compose(a: Rotation, b: Rotation) -> Rotation:
    """Rotation doing b first, then a (Hamilton product a*b)."""
    return Rotation(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def apply(r: Rotation, v: Vec3) -> Vec3:
    """Rotate a 3-vector.  Preserves the Euclidean norm up to roundoff."""
    vx, vy, vz = v
    qw, qx, qy, qz = r.w, r.x, r.y, r.z
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return (
        vx + qw * tx + qy * tz - qz * ty,
        vy + qw * ty + qz * tx - qx * tz,
        vz + qw * tz + qx * ty - qy * tx,
    )


def eq(a: Rotation, b: Rotation) -> bool:
    """Same rotation within tolerance.

    Both arguments are already sign-canonical, but canonicalization is
    discontinuous where the leading component sits within tau of zero, so the
    flipped comparison is checked as well.
    """
    t = TOLERANCE
    if (
        abs(a.w - b.w) <= t
        and abs(a.x - b.x) <= t
        and abs(a.y - b.y) <= t
        and abs(a.z - b.z) <= t
    ):
        return True
    return (
        abs(a.w + b.w) <= t
        and abs(a.x + b.x) <= t
        and abs(a.y + b.y) <= t
        and abs(a.z + b.z) <= t
    )


class AxisAngle(Value):
    """Canonical axis-angle form: unit axis, angle in (0, pi].

    For a half turn the axis sign is free and is canonicalized; for smaller
    angles the axis direction is determined by the rotation itself.  order is
    the smallest k with rotation^k = identity, or None when no k <= CLOSURE_CAP
    works (an "infinite" order within the resolution of the tolerance).
    """

    axis: Vec3
    angle: float
    order: int | None


@lru_cache(maxsize=4096)
def _order_of_angle(angle: float) -> int | None:
    # Memoised on the angle float: catalog groups repeat a few hundred
    # distinct angles, each otherwise rescanned up to CLOSURE_CAP steps.  A
    # nearest-rational test (Fraction.limit_denominator) gives the same
    # orders but costs about twice the scan, so the scan stays.
    turns = angle / (2.0 * math.pi)
    for k in range(1, CLOSURE_CAP + 1):
        f = k * turns
        if abs(f - round(f)) <= TOLERANCE * k and round(f) >= 1:
            return k
    return None


def axis_angle_of(r: Rotation) -> AxisAngle | None:
    """Axis-angle form of a rotation, or None for the identity."""
    w, x, y, z = r.w, r.x, r.y, r.z
    if w < 0.0:
        # extraction is quaternion-sign agnostic; force angle into (0, pi]
        w, x, y, z = -w, -x, -y, -z
    vn = math.sqrt(x * x + y * y + z * z)
    if vn <= TOLERANCE:
        return None
    angle = 2.0 * math.atan2(vn, w)
    axis = (x / vn, y / vn, z / vn)
    if abs(angle - math.pi) <= TOLERANCE:
        axis = canon_direction(axis)
    return AxisAngle(axis, angle, _order_of_angle(angle))


class FiniteRotationGroup(Value):
    """Immutable finite set of rotations, sorted deterministically.

    Closure is a construction-time guarantee (use close_group), not something
    rechecked on every instance; tests recheck it explicitly.
    """

    elements: tuple[Rotation, ...]

    @classmethod
    def from_elements(cls, elements) -> "FiniteRotationGroup":
        """The distinct elements (the first object of each) and
        Rotation.identity(), sorted by descending key (see _distinct)."""
        found, add = _distinct()
        for r in elements:
            add(r)
        return _sorted_group(found)

    @cached_property
    def _buckets(self) -> dict[tuple, list[int]]:
        table: dict[tuple, list[int]] = {}
        for i, r in enumerate(self.elements):
            table.setdefault(r.key(), []).append(i)
        return table

    @cached_property
    def key_set(self) -> frozenset:
        return frozenset(self._buckets)

    @cached_property
    def id_set(self) -> frozenset:
        """The id()s of objects equal to the elements, for containment by identity.

        Those of the element objects themselves, unless catalog.subgroups_of
        stores the ids of its parent's objects first (see
        _enumerate_subgroups).  A where() selection holds its parent's own
        objects, so its ids are theirs.
        """
        return frozenset(map(id, self.elements))

    @cached_property
    def lines(self) -> dict[tuple, tuple[Vec3, list[tuple[Rotation, int | None]]]]:
        """Rotation-axis lines of the group, from one scan of its elements.

        Maps each line's line_key to its canonical direction (as found on the
        first element about it) and to the non-identity elements on the line
        with their orders, both in element order.
        """
        table: dict[tuple, tuple[Vec3, list[tuple[Rotation, int | None]]]] = {}
        for r in self.elements:
            aa = axis_angle_of(r)
            if aa is None:
                continue
            d = canon_direction(aa.axis)
            table.setdefault(line_key(d), (d, []))[1].append((r, aa.order))
        return table

    def index_of(self, r: Rotation) -> int | None:
        """Position of r in elements, or None when r is not in the group."""
        for i in self._buckets.get(r.key(), ()):
            if eq(self.elements[i], r):
                return i
        return None

    def contains(self, r: Rotation) -> bool:
        return self.index_of(r) is not None

    def where(self, keep) -> "FiniteRotationGroup":
        """The subgroup on the elements that keep accepts, and the identity.

        keep must pick a subgroup.  It holds this group's own element objects,
        its identity included, in this order (so they are not deduplicated or
        sorted again), and is this group itself when all are kept."""
        kept = tuple(r for r in self.elements if keep(r) or r.is_identity())
        return self if len(kept) == len(self.elements) else FiniteRotationGroup(kept)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteRotationGroup):
            return NotImplemented
        return self.key_set == other.key_set

    def __hash__(self) -> int:
        return hash(self.key_set)

    def __reduce__(self):
        # a copy rebuilds what it derives: ids do not carry over
        return type(self), (self.elements,)


def _distinct():
    """A list of distinct rotations, the identity first, and its add(r).

    add appends r unless an equal element is in already (a rounded-key probe
    confirmed by eq), says whether r was new, and raises GroupTooLarge when
    the list would exceed CLOSURE_CAP."""
    found = [Rotation.identity()]
    buckets: dict[tuple, list[Rotation]] = {found[0].key(): [found[0]]}

    def add(r: Rotation) -> bool:
        hits = buckets.setdefault(r.key(), [])
        if any(eq(s, r) for s in hits):
            return False
        if len(found) >= CLOSURE_CAP:
            raise GroupTooLarge(f"group order exceeds cap {CLOSURE_CAP}")
        hits.append(r)
        found.append(r)
        return True

    return found, add


def _sorted_group(found: list[Rotation]) -> FiniteRotationGroup:
    # descending keys; a stable sort keeps equal keys in the order found
    return FiniteRotationGroup(tuple(sorted(found, key=Rotation.key, reverse=True)))


def close_group(generators) -> FiniteRotationGroup:
    """Multiplicative closure of the generators plus the identity.

    Breadth-first boundary multiplication over from_elements' distinct set,
    so GroupTooLarge is also how generators of effectively infinite order
    surface."""
    found, add = _distinct()
    gens = [g for g in generators if add(g)]
    frontier = gens
    while frontier:
        frontier = [c for a in gens for b in frontier if add(c := compose(a, b))]
    return _sorted_group(found)


def rotation_to_json(r: Rotation) -> dict:
    """Axis-angle record with angle in degrees, 12 significant digits."""
    aa = axis_angle_of(r)
    if aa is None:
        return {"axis": [0.0, 0.0, 1.0], "angle_deg": 0.0}
    return {
        "axis": [round12(c) for c in aa.axis],
        "angle_deg": round12(math.degrees(aa.angle)),
    }


def is_finite_number(c) -> bool:
    """A JSON number that converts to a finite float (no NaN, inf or overflow)."""
    try:
        return isinstance(c, (int, float)) and not isinstance(c, bool) and math.isfinite(c)
    except OverflowError:
        return False


def rotation_from_json(obj) -> Rotation:
    if not isinstance(obj, dict):
        raise ValueError("rotation record must be an object")
    extra = set(obj) - {"axis", "angle_deg"}
    if extra:
        raise ValueError(f"unknown rotation field {sorted(extra)[0]!r}")
    axis = obj.get("axis")
    angle = obj.get("angle_deg")
    if (
        not isinstance(axis, (list, tuple))
        or len(axis) != 3
        or not all(is_finite_number(c) for c in axis)
    ):
        raise ValueError("axis must be a list of three finite numbers")
    if not is_finite_number(angle):
        raise ValueError("angle_deg must be a finite number")
    a = math.radians(float(angle))
    if abs(a) <= TOLERANCE:
        return Rotation.identity()
    return Rotation.from_axis_angle((float(axis[0]), float(axis[1]), float(axis[2])), a)
