"""Symplectic corollaries: momentum level sets and relative equilibria.

For the cotangent lift of an action of G on M with its standard momentum
map, the zero level set meets every isotropy class of the base action and
no others, so its lattice is the base lattice.  For a totally isotropic
momentum value mu, a base class (H) survives on the level set exactly when
mu annihilates the algebra of H; the result can lose the unique minimum,
which its unique_min records.

The isotropy classes of relative equilibria are the classes (H meet K) with
(H) a base class and (K) a linear isotropy class of H on the annihilator of
its own algebra: the diagonal pairs h1 = h2 of the lift construction.  The
off-diagonal pairs add nothing (for h1 in h2, ann(h2) lies in ann(h1), so
E meet (H2)_xi = E_xi is already a class of h1 on its own annihilator), so
relative_equilibria_lattice is lift.lifted_classes(G, base): the lattice
from the rule table, with no witness and no group built.
"""

from __future__ import annotations

from .catalog import CircleSub, ConcreteSubgroup
from .errors import NotTotallyIsotropic
from .lift import _validate_realizable, lifted_classes
from .poset import IsotropyLattice, build_lattice
from .rotation import TOLERANCE, Vec3


def is_totally_isotropic(G: ConcreteSubgroup, mu) -> bool:
    """Whether the coadjoint orbit of mu is an isotropic submanifold.

    For SO(3) only the origin qualifies.  The circle's coadjoint orbits are
    points, so every value does.  A finite group has a zero dual, so zero is
    the only momentum value there is.
    """
    if isinstance(G, CircleSub):
        return True
    return _mu_is_zero(mu)


def _as_vec3(mu) -> Vec3:
    if isinstance(mu, (int, float)):
        return (0.0, 0.0, float(mu))
    t = tuple(float(c) for c in mu)
    if len(t) != 3:
        raise ValueError("a momentum value for SO(3) needs three components")
    return t


def _mu_is_zero(mu) -> bool:
    return max(abs(c) for c in _as_vec3(mu)) <= TOLERANCE


def zero_level_lattice(G: ConcreteSubgroup, base: IsotropyLattice) -> IsotropyLattice:
    """Isotropy lattice on the zero momentum level set: the base lattice."""
    _validate_realizable(G, base.classes)
    return build_lattice(base.classes)


def mu_lattice(G: ConcreteSubgroup, base: IsotropyLattice, mu) -> IsotropyLattice:
    """Isotropy classes on the mu level set, for totally isotropic mu.

    A class survives iff mu annihilates the algebra of its representatives.
    Finite classes always survive (zero algebra); circle classes need mu in
    the plane orthogonal to some axis position, which for a totally
    isotropic value is automatic only when mu is zero.  The lattice's
    unique_min says whether a single minimal class is left.
    """
    _validate_realizable(G, base.classes)
    if not is_totally_isotropic(G, mu):
        raise NotTotallyIsotropic(
            "the level-set description applies to totally isotropic momentum "
            "values only"
        )
    if _mu_is_zero(mu):
        return build_lattice(base.classes, require_unique_min=False)
    # nonzero totally isotropic mu exists only for the circle ambient, where
    # the algebra of the circle itself is not annihilated
    kept = [t for t in base.classes if t.kind in ("1", "C")]
    if not kept:
        raise NotTotallyIsotropic(
            "no base class has an algebra annihilated by this momentum value"
        )
    return build_lattice(kept, require_unique_min=False)


def relative_equilibria_lattice(G: ConcreteSubgroup, base: IsotropyLattice) -> IsotropyLattice:
    """Isotropy classes realized by relative equilibria of invariant systems.

    Every base class (H) contributes the classes of H meet K for each linear
    isotropy class K of H on the annihilator of its algebra: the diagonal
    pairs of the lift rule, which already give the whole lifted lattice.
    """
    return lifted_classes(G, base)
