"""Finite posets of conjugacy classes under subconjugation."""

from __future__ import annotations

from .catalog import ClassTag, strictly_below, tag_sort_key
from .errors import ClassNotInLattice, NoUniqueMinimum
from .rotation import Value


class IsotropyLattice(Value):
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
    index = {t: i for i, t in enumerate(tags)}
    present = frozenset(tags)
    # below[j] holds the i with i < j, read off j's down-set; above[i] the j
    below = [{index[t] for t in strictly_below(b) & present} for b in tags]
    above: list[set[int]] = [set() for _ in range(n)]
    less = set()
    for j, down in enumerate(below):
        for i in down:
            above[i].add(j)
            less.add((i, j))
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
    """Longest-chain depth of each class; minimal classes sit at depth 0.

    tag_sort_key grows along every strict pair, so a cover (a, b) has a < b
    and the sorted hasse lists every cover into a before any cover out of a:
    one pass in that order finishes each depth before it is read.
    """
    depth = [0] * len(L.classes)
    for a, b in L.hasse:
        depth[b] = max(depth[b], depth[a] + 1)
    return dict(zip(L.classes, depth))


def up_set(L: IsotropyLattice, t: ClassTag) -> tuple[ClassTag, ...]:
    """All classes greater than or equal to t within L, sorted."""
    i = L.index_of(t)
    keep = [j for j in range(len(L.classes)) if j == i or (i, j) in L.less]
    return tuple(L.classes[j] for j in keep)
