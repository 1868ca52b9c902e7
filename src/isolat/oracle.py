"""Brute-force stabilizer oracles on concrete actions.

These compute isotropy classes directly from points and tangent vectors of
explicit G-spaces, with no reference to the lattice machinery, so that the
two sides can be compared.  Supported actions:

  SO3_on_R3         rotations of R^3
  SO3_on_S2         rotations of the unit sphere
  Finite_on_R3:T    a finite catalog group acting on R^3 (tag after colon)
  Finite_on_S2:T    the same on the sphere
  Circle_on_R2      the circle acting by rotation on the plane, modeled as
                    rotations about the z axis restricted to z = 0

Point stabilizers are closed-form; tangent stabilizers intersect the point
stabilizer with the direction constraint.  Sampling walks a deterministic
plan of hand-placed strata seeds plus seeded random draws, so empirical
lattices are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .catalog import (
    CircleSub,
    ClassTag,
    ConcreteSubgroup,
    FiniteSub,
    FullSub,
    axis_lines,
    canonical_rep,
    g_class_of,
    parse_tag,
    trivial_group,
)
from .errors import NotTangent
from .lift import (
    AMBIENT_CIRCLE,
    AMBIENT_SO3,
    AmbientGroup,
    FiniteAmbient,
)
from .rotation import (
    TOLERANCE,
    FiniteRotationGroup,
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
# _any_perp leaves the x axis below this; any cut-off far above roundoff is well conditioned.
PERP_PIVOT_MIN = 1e-6
# Sphere draws this near the origin are skipped: normalising them would magnify rounding.
SPHERE_DRAW_MIN_NORM = 1e-3


@dataclass(frozen=True)
class ConcreteAction:
    name: str
    kind: str  # so3_r3 | so3_s2 | finite_r3 | finite_s2 | circle_r2
    ambient: AmbientGroup
    tag: ClassTag | None = None


def make_action(name: str) -> ConcreteAction:
    if name == "SO3_on_R3":
        return ConcreteAction(name, "so3_r3", AMBIENT_SO3)
    if name == "SO3_on_S2":
        return ConcreteAction(name, "so3_s2", AMBIENT_SO3)
    if name == "Circle_on_R2":
        return ConcreteAction(name, "circle_r2", AMBIENT_CIRCLE)
    for prefix, kind in (("Finite_on_R3:", "finite_r3"), ("Finite_on_S2:", "finite_s2")):
        if name.startswith(prefix):
            tag = parse_tag(name[len(prefix):])
            if tag.kind not in ("C", "D", "T", "O", "I"):
                raise ValueError(f"finite action needs a finite nontrivial tag, got {tag.short()}")
            rep = canonical_rep(tag)
            return ConcreteAction(name, kind, FiniteAmbient(rep.group), tag)
    raise ValueError(f"unknown action {name!r}")


# ---------------------------------------------------------------------------
# Stabilizers


def stabilizer_of_point(action: ConcreteAction, x: Vec3) -> ConcreteSubgroup:
    if action.kind == "so3_r3":
        if norm(x) <= TOLERANCE:
            return FullSub()
        return CircleSub(x)
    if action.kind == "so3_s2":
        return CircleSub(x)
    if action.kind == "circle_r2":
        if abs(x[0]) <= TOLERANCE and abs(x[1]) <= TOLERANCE:
            return CircleSub((0.0, 0.0, 1.0))
        return trivial_group()
    F = action.ambient.group
    if action.kind == "finite_r3" and norm(x) <= TOLERANCE:
        return FiniteSub(F)
    kept = [g for g in F if norm(vsub(apply(g, x), x)) <= SAMPLE_TOL * max(1.0, norm(x))]
    return FiniteSub(FiniteRotationGroup.from_elements(kept))


def stabilizer_of_tangent(action: ConcreteAction, x: Vec3, v: Vec3) -> ConcreteSubgroup:
    """Stabilizer of (x, v) in the lifted action."""
    if action.kind in ("so3_s2", "finite_s2"):
        if abs(norm(x) - 1.0) > SAMPLE_TOL:
            raise NotTangent("sphere points must have unit length")
        if abs(dot(x, v)) > SAMPLE_TOL:
            raise NotTangent("tangent vectors to the sphere are orthogonal to the point")
    if action.kind == "so3_r3":
        nx, nv = norm(x), norm(v)
        if nx <= TOLERANCE and nv <= TOLERANCE:
            return FullSub()
        if nx <= TOLERANCE:
            return CircleSub(v)
        if nv <= TOLERANCE:
            return CircleSub(x)
        if norm(cross(x, v)) <= SAMPLE_TOL * nx * nv:
            return CircleSub(x)
        return trivial_group()
    if action.kind == "so3_s2":
        if norm(v) <= TOLERANCE:
            return CircleSub(x)
        return trivial_group()
    if action.kind == "circle_r2":
        planar_x = abs(x[0]) <= TOLERANCE and abs(x[1]) <= TOLERANCE
        planar_v = abs(v[0]) <= TOLERANCE and abs(v[1]) <= TOLERANCE
        if planar_x and planar_v:
            return CircleSub((0.0, 0.0, 1.0))
        return trivial_group()
    F = action.ambient.group
    sx = max(1.0, norm(x))
    sv = max(1.0, norm(v))
    kept = [
        g
        for g in F
        if norm(vsub(apply(g, x), x)) <= SAMPLE_TOL * sx
        and norm(vsub(apply(g, v), v)) <= SAMPLE_TOL * sv
    ]
    return FiniteSub(FiniteRotationGroup.from_elements(kept))


# ---------------------------------------------------------------------------
# Sampling plans


@dataclass(frozen=True)
class SamplePlan:
    rng_seed: int
    n_random: int
    stratum_seeds: tuple[tuple[Vec3, Vec3], ...]


def default_plan(action: ConcreteAction, rng_seed: int = 0, n_random: int = 10000) -> SamplePlan:
    """Deterministic seeds hitting every stratum, plus random bulk."""
    z: Vec3 = (0.0, 0.0, 1.0)
    x1: Vec3 = (1.0, 0.0, 0.0)
    seeds: list[tuple[Vec3, Vec3]] = []
    if action.kind == "so3_r3":
        seeds += [
            ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            (z, (0.0, 0.0, 0.0)),
            (z, (0.0, 0.0, 2.0)),
            (z, x1),
            ((0.0, 0.0, 0.0), x1),
        ]
    elif action.kind == "so3_s2":
        seeds += [
            (z, (0.0, 0.0, 0.0)),
            (z, x1),
            (x1, (0.0, 1.0, 0.5)),
        ]
    elif action.kind == "circle_r2":
        seeds += [
            ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            ((0.0, 0.0, 0.0), (1.0, 2.0, 0.0)),
            ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            ((1.0, 2.0, 0.0), (-2.0, 1.0, 0.0)),
        ]
    else:
        F = action.ambient.group
        lines = axis_lines(F)
        on_sphere = action.kind == "finite_s2"
        if not on_sphere:
            seeds.append(((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
        for d, _ in lines:
            seeds.append((d, (0.0, 0.0, 0.0)))
            if not on_sphere:
                seeds.append((d, d))
                seeds.append(((0.0, 0.0, 0.0), d))
            else:
                u = _any_perp(d)
                seeds.append((d, u))
        generic = normalize((0.31, 0.45, 0.83)) if on_sphere else (0.31, 0.45, 0.83)
        seeds.append((generic, _any_perp(generic) if on_sphere else (0.2, -0.7, 0.1)))
    return SamplePlan(rng_seed, n_random, tuple(seeds))


def _any_perp(d: Vec3) -> Vec3:
    u = cross(d, (1.0, 0.0, 0.0))
    if norm(u) <= PERP_PIVOT_MIN:
        u = cross(d, (0.0, 1.0, 0.0))
    return normalize(u)


def _iter_pairs(action: ConcreteAction, plan: SamplePlan):
    for x, v in plan.stratum_seeds:
        yield x, v
    rng = random.Random(plan.rng_seed)
    for _ in range(plan.n_random):
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        if action.kind in ("so3_s2", "finite_s2"):
            if norm(x) <= SPHERE_DRAW_MIN_NORM:
                continue
            x = normalize(x)
            d = dot(v, x)
            v = (v[0] - d * x[0], v[1] - d * x[1], v[2] - d * x[2])
        if action.kind == "circle_r2":
            x = (x[0], x[1], 0.0)
            v = (v[0], v[1], 0.0)
        yield x, v


def empirical_base_lattice(
    action: ConcreteAction, rng_seed: int = 0, n_random: int = 10000
) -> set[ClassTag]:
    plan = default_plan(action, rng_seed, n_random)
    out: set[ClassTag] = set()
    for x, _ in _iter_pairs(action, plan):
        out.add(g_class_of(stabilizer_of_point(action, x)))
    return out


def empirical_lifted_lattice(
    action: ConcreteAction, rng_seed: int = 0, n_random: int = 10000
) -> set[ClassTag]:
    plan = default_plan(action, rng_seed, n_random)
    out: set[ClassTag] = set()
    for x, v in _iter_pairs(action, plan):
        out.add(g_class_of(stabilizer_of_tangent(action, x, v)))
    return out


def empirical_zero_momentum_lattice(
    action: ConcreteAction, rng_seed: int = 0, n_random: int = 10000
) -> set[ClassTag]:
    """Tangent isotropy classes over the zero level of the momentum map.

    A covector at x pairs to zero with every algebra generator exactly when
    its vector presentation is radial for the rotation actions (and anything
    at the origin), tangentially zero for the restricted sphere and circle
    cases.  Pairs off the level set are skipped.
    """
    plan = default_plan(action, rng_seed, n_random)
    out: set[ClassTag] = set()
    for x, v in _iter_pairs(action, plan):
        if action.kind == "so3_r3":
            # J((x, v)) = x x v; zero iff v is radial or x = 0
            if norm(cross(x, v)) > SAMPLE_TOL:
                continue
        elif action.kind == "so3_s2":
            # tangentially constrained: x x v = 0 with v _|_ x forces v = 0
            if norm(v) > SAMPLE_TOL:
                continue
        elif action.kind == "circle_r2":
            if abs(x[0] * v[1] - x[1] * v[0]) > SAMPLE_TOL:
                continue
        # finite ambients: the dual is zero, every pair sits on the level set
        out.add(g_class_of(stabilizer_of_tangent(action, x, v)))
    return out


def empirical_requilibria_lattice(
    action: ConcreteAction, rng_seed: int = 0, n_random: int = 2000
) -> set[ClassTag]:
    """Isotropy classes of group-orbit trajectories t -> exp(t xi) . x.

    The tangent vector of such a trajectory at x is the infinitesimal action
    of xi, so this samples (x, xi_M(x)) pairs.  Only defined for ambients
    with a nonzero algebra.
    """
    if isinstance(action.ambient, FiniteAmbient):
        raise ValueError("relative equilibria need a continuous ambient group")
    plan = default_plan(action, rng_seed, n_random)
    rng = random.Random(plan.rng_seed + 1)
    out: set[ClassTag] = set()
    xis: list[Vec3] = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.3, -1.2, 0.7)]
    for _ in range(40):
        xis.append((rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)))
    for x, _ in _iter_pairs(action, plan):
        for xi in xis:
            if action.kind == "circle_r2":
                v = (-xi[2] * x[1], xi[2] * x[0], 0.0)
            else:
                v = cross(xi, x)
            out.add(g_class_of(stabilizer_of_tangent(action, x, v)))
    return out
