"""Finite posets of conjugacy classes under subconjugation."""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import ClassTag, is_subconjugate, tag_sort_key
from .errors import ClassNotInLattice, NoUniqueMinimum


@dataclass(frozen=True)
class IsotropyLattice:
    """Classes sorted by tag_sort_key, order relation, and Hasse diagram.

    less holds strict pairs (i, j) of indices with classes[i] < classes[j];
    hasse is its transitive reduction (covering pairs).  unique_min records
    whether a single minimum exists.
    """

    classes: tuple[ClassTag, ...]
    less: frozenset
    hasse: tuple
    unique_min: bool

    def index_of(self, t: ClassTag) -> int:
        try:
            return self.classes.index(t)
        except ValueError:
            raise ClassNotInLattice(f"{t.short()} is not a class of this lattice")

    def leq(self, a: ClassTag, b: ClassTag) -> bool:
        i, j = self.index_of(a), self.index_of(b)
        return i == j or (i, j) in self.less


def build_lattice(classes, require_unique_min: bool = True) -> IsotropyLattice:
    """Order a set of class tags by subconjugation.

    Duplicates collapse.  With require_unique_min the poset must have exactly
    one minimal element, which is what a connected action guarantees for its
    isotropy classes.
    """
    tags = sorted(set(classes), key=tag_sort_key)
    if not tags:
        raise ValueError("a lattice needs at least one class")
    n = len(tags)
    less = set()
    # above[i] holds the j with i < j, below[j] the i with i < j
    above: list[set[int]] = [set() for _ in range(n)]
    below: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and is_subconjugate(tags[i], tags[j]):
                less.add((i, j))
                above[i].add(j)
                below[j].add(i)
    for i, j in less:
        if (j, i) in less:
            raise ValueError(
                f"distinct classes {tags[i].short()} and {tags[j].short()} "
                "are mutually subconjugate"
            )
    minimal = [i for i in range(n) if not below[i]]
    unique_min = len(minimal) == 1
    if require_unique_min and not unique_min:
        names = ", ".join(tags[i].short() for i in minimal)
        raise NoUniqueMinimum(f"minimal classes are {names}, expected exactly one")
    # (i, j) is a cover when no k lies strictly between them
    hasse = tuple(sorted((i, j) for (i, j) in less if above[i].isdisjoint(below[j])))
    return IsotropyLattice(tuple(tags), frozenset(less), hasse, unique_min)


def compute_depths(L: IsotropyLattice) -> dict[ClassTag, int]:
    """Longest-chain depth of each class; minimal classes sit at depth 0."""
    n = len(L.classes)
    depth = [0] * n
    order = sorted(range(n), key=lambda i: sum(1 for j in range(n) if (j, i) in L.less))
    for i in order:
        covers = [a for (a, b) in L.hasse if b == i]
        if covers:
            depth[i] = 1 + max(depth[a] for a in covers)
    return {L.classes[i]: depth[i] for i in range(n)}


def up_set(L: IsotropyLattice, t: ClassTag) -> tuple[ClassTag, ...]:
    """All classes greater than or equal to t within L, sorted."""
    i = L.index_of(t)
    keep = [j for j in range(len(L.classes)) if j == i or (i, j) in L.less]
    return tuple(L.classes[j] for j in keep)
