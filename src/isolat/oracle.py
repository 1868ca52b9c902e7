"""Brute-force stabilizer oracles on concrete actions.

These compute isotropy classes directly from points and tangent vectors of
explicit G-spaces, with no reference to the lattice machinery, so that the
two sides can be compared: from the package they import only catalog (the
concrete subgroups, classify_finite and the canonical representatives),
errors and rotation.  An action is an ambient G, the canonical
representative of its class, rotating a space: R3, the unit sphere S2 or
the plane R2 (z = 0).  Supported actions:

  SO3_on_R3         rotations of R^3
  SO3_on_S2         rotations of the unit sphere
  Finite_on_R3:T    a finite catalog group acting on R^3 (tag after colon)
  Finite_on_S2:T    the same on the sphere
  Circle_on_R2      the circle about the z axis acting on the plane

Every action shares one formula each: G_x keeps the elements of G fixing x,
the lifted stabilizer G_(x,v) is (G_x)_v, the momentum J(x, v) is x × v on
G's algebra, and the trajectory t -> exp(t xi) x has velocity xi × x.  One
walk of strata seeds plus seeded random draws fills the base, lifted,
zero-level and relative-equilibria class sets, so they are reproducible.
"""

from __future__ import annotations

import random

from .catalog import (
    CIRCLE,
    FULL,
    TRIVIAL,
    CircleSub,
    ClassTag,
    ConcreteSubgroup,
    FullSub,
    axis_lines,
    canonical_rep,
    g_class_of,
    parse_tag,
    perp_frame,
)
from .errors import NotTangent
from .rotation import (
    TOLERANCE,
    FiniteRotationGroup,
    Value,
    Vec3,
    apply,
    cross,
    dot,
    norm,
    normalize,
    vsub,
)

# Slack of the sample tests (fixed, tangent, parallel, zero momentum): fixing moves x by ulps.
SAMPLE_TOL = 1e-8
# Sphere draws this near the origin are skipped: normalising them would magnify rounding.
SPHERE_DRAW_MIN_NORM = 1e-3
# Random draws of a walk besides the strata seeds; the relative-equilibria
# row reads the seeds and the first REQUILIBRIA_DRAWS draws only.
DEFAULT_SAMPLES = 4000
REQUILIBRIA_DRAWS = 2000


class ConcreteAction(Value):
    name: str
    space: str  # R3 | S2 | R2
    ambient: ConcreteSubgroup


# The continuous actions: the space acted on and the class of the ambient.
_CONTINUOUS = {"SO3_on_R3": ("R3", FULL), "SO3_on_S2": ("S2", FULL), "Circle_on_R2": ("R2", CIRCLE)}


def make_action(name: str) -> ConcreteAction:
    if name in _CONTINUOUS:
        space, tag = _CONTINUOUS[name]
        return ConcreteAction(name, space, canonical_rep(tag))
    prefix, colon, text = name.partition(":")
    if colon and prefix in ("Finite_on_R3", "Finite_on_S2"):
        tag = parse_tag(text)
        if tag.kind not in ("C", "D", "T", "O", "I"):
            raise ValueError(f"finite action needs a finite nontrivial tag, got {tag.short()}")
        return ConcreteAction(name, prefix[-2:], canonical_rep(tag))
    raise ValueError(f"unknown action {name!r}")


# ---------------------------------------------------------------------------
# Stabilizers


def _fixing(S: ConcreteSubgroup, p: Vec3) -> ConcreteSubgroup:
    """The elements of the concrete subgroup S that fix the vector p."""
    if isinstance(S, FiniteRotationGroup) and len(S) == 1:
        return S  # the identity fixes every vector
    n = norm(p)
    if n <= TOLERANCE:
        return S
    if isinstance(S, CircleSub):
        # a circle fixes the points of its axis and moves every other one
        return S if norm(cross(S.axis, p)) <= SAMPLE_TOL * n else canonical_rep(TRIVIAL)
    if isinstance(S, FullSub):
        return CircleSub(p)
    tol = SAMPLE_TOL * max(1.0, n)
    return S.where(lambda g: norm(vsub(apply(g, p), p)) <= tol)


def stabilizer_of_point(action: ConcreteAction, x: Vec3) -> ConcreteSubgroup:
    """The isotropy G_x of the point x."""
    if action.space == "S2" and abs(norm(x) - 1.0) > SAMPLE_TOL:
        raise NotTangent("sphere points must have unit length")
    if action.space == "R2" and abs(x[2]) > SAMPLE_TOL:
        raise NotTangent("plane points must have z = 0")
    return _fixing(action.ambient, x)


def _tangent_isotropy(
    action: ConcreteAction, x: Vec3, Gx: ConcreteSubgroup, v: Vec3
) -> ConcreteSubgroup:
    """(G_x)_v: the elements of the point stabilizer Gx of x that fix v."""
    if action.space == "S2" and abs(dot(x, v)) > SAMPLE_TOL:
        raise NotTangent("tangent vectors to the sphere are orthogonal to the point")
    if action.space == "R2" and abs(v[2]) > SAMPLE_TOL:
        raise NotTangent("tangent vectors to the plane must have z = 0")
    return _fixing(Gx, v)


def stabilizer_of_tangent(action: ConcreteAction, x: Vec3, v: Vec3) -> ConcreteSubgroup:
    """Stabilizer G_(x,v) of (x, v) in the lifted action, as (G_x)_v."""
    return _tangent_isotropy(action, x, stabilizer_of_point(action, x), v)


def _on_algebra(G: ConcreteSubgroup, w: Vec3) -> Vec3:
    """w in R^3 = so(3) projected on the algebra of the ambient G: all of it
    for SO(3), the axis for a circle, zero for a finite group."""
    if isinstance(G, FullSub):
        return w
    if isinstance(G, CircleSub):
        s = dot(w, G.axis)
        return (s * G.axis[0], s * G.axis[1], s * G.axis[2])
    return (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Sampling

_O: Vec3 = (0.0, 0.0, 0.0)
_X: Vec3 = (1.0, 0.0, 0.0)
_Z: Vec3 = (0.0, 0.0, 1.0)

# Hand-placed pairs (x, v) of the continuous actions, one per stratum, by space.
_CONTINUOUS_SEEDS: dict[str, tuple[tuple[Vec3, Vec3], ...]] = {
    "R3": ((_O, _O), (_Z, _O), (_Z, (0.0, 0.0, 2.0)), (_Z, _X), (_O, _X)),
    "S2": ((_Z, _O), (_Z, _X), (_X, (0.0, 1.0, 0.5))),
    "R2": ((_O, _O), (_O, (1.0, 2.0, 0.0)), (_X, _O), ((1.0, 2.0, 0.0), (-2.0, 1.0, 0.0))),
}


def strata_seeds(action: ConcreteAction) -> tuple[tuple[Vec3, Vec3], ...]:
    """Deterministic pairs (x, v) hitting every stratum; a finite G's sit on its axes."""
    if not isinstance(action.ambient, FiniteRotationGroup):
        return _CONTINUOUS_SEEDS[action.space]
    on_sphere = action.space == "S2"
    seeds: list[tuple[Vec3, Vec3]] = [] if on_sphere else [(_O, _O)]
    for d, _ in axis_lines(action.ambient):
        seeds.append((d, _O))
        if on_sphere:
            seeds.append((d, perp_frame(d)[0]))
        else:
            seeds += [(d, d), (_O, d)]
    generic = normalize((0.31, 0.45, 0.83)) if on_sphere else (0.31, 0.45, 0.83)
    seeds.append((generic, perp_frame(generic)[0] if on_sphere else (0.2, -0.7, 0.1)))
    return tuple(seeds)


def _walk(action: ConcreteAction, rng_seed: int, n_random: int):
    """The strata seeds, then one pair per seeded random draw, each with
    whether the relative-equilibria row reads it (a skipped draw counts)."""
    for x, v in strata_seeds(action):
        yield x, v, True
    rng = random.Random(rng_seed)
    for i in range(n_random):
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        if action.space == "S2":
            if norm(x) <= SPHERE_DRAW_MIN_NORM:
                continue
            x = normalize(x)
            d = dot(v, x)
            v = (v[0] - d * x[0], v[1] - d * x[1], v[2] - d * x[2])
        elif action.space == "R2":
            x = (x[0], x[1], 0.0)
            v = (v[0], v[1], 0.0)
        yield x, v, i < REQUILIBRIA_DRAWS


def empirical_lattices(
    action: ConcreteAction, rng_seed: int = 0, n_random: int = DEFAULT_SAMPLES
) -> tuple[set[ClassTag], set[ClassTag], set[ClassTag], set[ClassTag]]:
    """Base, lifted, zero-level and relative-equilibria classes from one walk.

    Each pair (x, v) costs one point stabilizer G_x: its class goes to the
    base, and the class of (G_x)_v to the lifted set, and to the zero level
    when J(x, v) = 0.  At the pairs the walk marks, each algebra direction
    xi adds the class of (G_x)_(xi × x) to the relative equilibria; equal
    projections are walked once, so a finite G walks xi = 0 alone.
    """
    G = action.ambient
    rng = random.Random(rng_seed + 1)
    xis: list[Vec3] = [_O, _Z, _X, (0.3, -1.2, 0.7)]
    xis += [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
    directions = {_on_algebra(G, xi) for xi in xis}
    base, lifted, zero_level, requilibria = set(), set(), set(), set()
    for x, v, moved in _walk(action, rng_seed, n_random):
        Gx = stabilizer_of_point(action, x)
        base.add(g_class_of(Gx))
        tag = g_class_of(_tangent_isotropy(action, x, Gx, v))
        lifted.add(tag)
        if norm(_on_algebra(G, cross(x, v))) <= SAMPLE_TOL:
            zero_level.add(tag)
        if moved:
            for xi in directions:
                requilibria.add(g_class_of(_tangent_isotropy(action, x, Gx, cross(xi, x))))
    return base, lifted, zero_level, requilibria


def empirical_requilibria_lattice(
    action: ConcreteAction, rng_seed: int = 0, n_random: int = DEFAULT_SAMPLES
) -> set[ClassTag]:
    """The relative-equilibria row of empirical_lattices; G must be continuous."""
    if isinstance(action.ambient, FiniteRotationGroup):
        raise ValueError("relative equilibria need a continuous ambient group")
    return empirical_lattices(action, rng_seed, n_random)[3]
