"""Brute-force stabilizer oracles on concrete actions.

These compute isotropy classes directly from points and tangent vectors of
explicit G-spaces, with no reference to the lattice machinery, so that the
two sides can be compared: from the package they import only catalog (the
concrete subgroups, classify_finite and the canonical representatives),
errors and rotation.  An action's ambient is the canonical representative
of its group's class.  Supported actions:

  SO3_on_R3         rotations of R^3
  SO3_on_S2         rotations of the unit sphere
  Finite_on_R3:T    a finite catalog group acting on R^3 (tag after colon)
  Finite_on_S2:T    the same on the sphere
  Circle_on_R2      the circle acting by rotation on the plane, modeled as
                    rotations about the z axis restricted to z = 0

The lifted stabilizer G_(x,v) = {g : gx = x, gv = v} is computed as (G_x)_v,
the isotropy of v under the point stabilizer G_x, with one helper that keeps
the elements of a concrete subgroup fixing a vector.  Sampling walks a
deterministic plan of hand-placed strata seeds plus seeded random draws, once
for the base, lifted and zero-level lattices together, so empirical lattices
are reproducible.
"""

from __future__ import annotations

import random

from .catalog import (
    CIRCLE,
    FULL,
    CircleSub,
    ClassTag,
    ConcreteSubgroup,
    FullSub,
    axis_lines,
    canonical_rep,
    g_class_of,
    parse_tag,
    perp_frame,
    trivial_group,
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


class ConcreteAction(Value):
    name: str
    kind: str  # so3_r3 | so3_s2 | finite_r3 | finite_s2 | circle_r2
    ambient: ConcreteSubgroup
    tag: ClassTag | None = None


def make_action(name: str) -> ConcreteAction:
    if name == "SO3_on_R3":
        return ConcreteAction(name, "so3_r3", canonical_rep(FULL))
    if name == "SO3_on_S2":
        return ConcreteAction(name, "so3_s2", canonical_rep(FULL))
    if name == "Circle_on_R2":
        return ConcreteAction(name, "circle_r2", canonical_rep(CIRCLE))
    for prefix, kind in (("Finite_on_R3:", "finite_r3"), ("Finite_on_S2:", "finite_s2")):
        if name.startswith(prefix):
            tag = parse_tag(name[len(prefix):])
            if tag.kind not in ("C", "D", "T", "O", "I"):
                raise ValueError(f"finite action needs a finite nontrivial tag, got {tag.short()}")
            return ConcreteAction(name, kind, canonical_rep(tag), tag)
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
        return S if norm(cross(S.axis, p)) <= SAMPLE_TOL * n else trivial_group()
    if isinstance(S, FullSub):
        return CircleSub(p)
    tol = SAMPLE_TOL * max(1.0, n)
    kept = [g for g in S if norm(vsub(apply(g, p), p)) <= tol]
    if len(kept) == len(S):
        return S
    return FiniteRotationGroup.from_elements(kept)


def stabilizer_of_point(action: ConcreteAction, x: Vec3) -> ConcreteSubgroup:
    """The isotropy G_x of the point x."""
    if action.kind in ("so3_s2", "finite_s2") and abs(norm(x) - 1.0) > SAMPLE_TOL:
        raise NotTangent("sphere points must have unit length")
    if action.kind == "circle_r2":
        if abs(x[0]) <= TOLERANCE and abs(x[1]) <= TOLERANCE:
            return action.ambient  # the circle about z
        return trivial_group()
    return _fixing(action.ambient, x)


def _tangent_isotropy(
    action: ConcreteAction, x: Vec3, Gx: ConcreteSubgroup, v: Vec3
) -> ConcreteSubgroup:
    """(G_x)_v: the elements of the point stabilizer Gx of x that fix v."""
    if action.kind in ("so3_s2", "finite_s2") and abs(dot(x, v)) > SAMPLE_TOL:
        raise NotTangent("tangent vectors to the sphere are orthogonal to the point")
    return _fixing(Gx, v)


def stabilizer_of_tangent(action: ConcreteAction, x: Vec3, v: Vec3) -> ConcreteSubgroup:
    """Stabilizer G_(x,v) of (x, v) in the lifted action, as (G_x)_v."""
    return _tangent_isotropy(action, x, stabilizer_of_point(action, x), v)


# ---------------------------------------------------------------------------
# Sampling plans


class SamplePlan(Value):
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
        lines = axis_lines(action.ambient)
        on_sphere = action.kind == "finite_s2"
        if not on_sphere:
            seeds.append(((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
        for d, _ in lines:
            seeds.append((d, (0.0, 0.0, 0.0)))
            if not on_sphere:
                seeds.append((d, d))
                seeds.append(((0.0, 0.0, 0.0), d))
            else:
                u = perp_frame(d)[0]
                seeds.append((d, u))
        generic = normalize((0.31, 0.45, 0.83)) if on_sphere else (0.31, 0.45, 0.83)
        seeds.append((generic, perp_frame(generic)[0] if on_sphere else (0.2, -0.7, 0.1)))
    return SamplePlan(rng_seed, n_random, tuple(seeds))


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


def _on_zero_level(action: ConcreteAction, x: Vec3, v: Vec3) -> bool:
    """Whether (x, v) lies on the zero level of the momentum map.

    A covector at x pairs to zero with every algebra generator exactly when
    its vector presentation is radial for the rotation actions (and anything
    at the origin), tangentially zero for the restricted sphere and circle
    cases.
    """
    if action.kind == "so3_r3":
        # J((x, v)) = x x v; zero iff v is radial or x = 0
        return norm(cross(x, v)) <= SAMPLE_TOL
    if action.kind == "so3_s2":
        # tangentially constrained: x x v = 0 with v _|_ x forces v = 0
        return norm(v) <= SAMPLE_TOL
    if action.kind == "circle_r2":
        return abs(x[0] * v[1] - x[1] * v[0]) <= SAMPLE_TOL
    # finite ambients: the dual is zero, every pair sits on the level set
    return True


def empirical_lattices(
    action: ConcreteAction, rng_seed: int = 0, n_random: int = 10000
) -> tuple[set[ClassTag], set[ClassTag], set[ClassTag]]:
    """Base, lifted and zero-level isotropy classes from one walk of the plan.

    Each pair (x, v) costs one point stabilizer G_x: its class goes to the
    base, and the class of (G_x)_v to the lifted set, and to the zero level
    when the pair lies on it.
    """
    base, lifted, zero_level = set(), set(), set()
    for x, v in _iter_pairs(action, default_plan(action, rng_seed, n_random)):
        Gx = stabilizer_of_point(action, x)
        base.add(g_class_of(Gx))
        tag = g_class_of(_tangent_isotropy(action, x, Gx, v))
        lifted.add(tag)
        if _on_zero_level(action, x, v):
            zero_level.add(tag)
    return base, lifted, zero_level


def empirical_requilibria_lattice(
    action: ConcreteAction, rng_seed: int = 0, n_random: int = 2000
) -> set[ClassTag]:
    """Isotropy classes of group-orbit trajectories t -> exp(t xi) . x.

    The tangent vector of such a trajectory at x is the infinitesimal action
    of xi, so this samples (x, xi_M(x)) pairs.  Only defined for ambients
    with a nonzero algebra.
    """
    if isinstance(action.ambient, FiniteRotationGroup):
        raise ValueError("relative equilibria need a continuous ambient group")
    rng = random.Random(rng_seed + 1)
    out: set[ClassTag] = set()
    xis: list[Vec3] = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.3, -1.2, 0.7)]
    xis += [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
    for x, _ in _iter_pairs(action, default_plan(action, rng_seed, n_random)):
        Gx = stabilizer_of_point(action, x)
        for xi in xis:
            if action.kind == "circle_r2":
                v = (-xi[2] * x[1], xi[2] * x[0], 0.0)
            else:
                v = cross(xi, x)
            out.add(g_class_of(_tangent_isotropy(action, x, Gx, v)))
    return out
