"""Finite posets of conjugacy classes under subconjugation."""

from __future__ import annotations

from .catalog import ClassTag, below_mask, tag_positions
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
    pos = tag_positions()
    tags = sorted(set(classes), key=pos.__getitem__)
    if not tags:
        raise ValueError("a lattice needs at least one class")
    at = {pos[t]: i for i, t in enumerate(tags)}  # catalog position -> index
    present = sum(1 << p for p in at)
    # down[j]: the position bits of the classes below tags[j], all below its own
    down = [below_mask(t) & present for t in tags]
    less, hasse = [], []
    for j, m in enumerate(down):
        # highest bit first: every class between i and j sits above i, so its
        # down-set is in covered when i is reached; (i, j) is a cover iff i is not
        covered = 0
        while m:
            p = m.bit_length() - 1
            m ^= 1 << p
            i = at[p]
            less.append((i, j))
            if not covered >> p & 1:
                hasse.append((i, j))
            covered |= down[i]
    minimal = [i for i, m in enumerate(down) if not m]
    unique_min = len(minimal) == 1
    if require_unique_min and not unique_min:
        names = ", ".join(tags[i].short() for i in minimal)
        raise NoUniqueMinimum(f"minimal classes are {names}, expected exactly one")
    hasse.sort()
    return IsotropyLattice(tuple(tags), frozenset(less), tuple(hasse), unique_min)


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
