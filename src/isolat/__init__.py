"""Isotropy lattices of lifted proper group actions.

The package computes, for an action of SO(3), the circle, or a finite
rotation group with a known isotropy lattice, the lattice of the tangent or
cotangent lifted action, together with symplectic corollaries: lattices of
momentum level sets and the classes realized by relative equilibria.  A
brute-force oracle over concrete actions cross-checks the predictions.

Each public name is imported from the module that defines it, for example
``from isolat.lift import lifted_lattice``; importing the package itself
loads none of its modules.
"""

__version__ = "0.1.0"
