"""Finite posets of conjugacy classes under subconjugation."""

from __future__ import annotations

from functools import cached_property, lru_cache

from .catalog import ClassTag, below, tag_sort_key
from .errors import ClassNotInLattice, NoUniqueMinimum
from .rotation import Value


class IsotropyLattice(Value):
    """Classes sorted by tag_sort_key, Hasse diagram, and unique minimum.

    hasse holds the covering pairs (i, j) of indices, sorted; unique_min
    records whether a single minimum exists.  less, the strict pairs (i, j)
    with classes[i] < classes[j], is derived on first read and stored on the
    instance, so it takes no part in equality or hashing.  build_lattice
    hands back one instance per class set, so data derived from a lattice
    alone (less, the lifted lattice and witnesses of a lift, the cli's JSON
    text) is derived once per class set and process.
    """

    classes: tuple[ClassTag, ...]
    hasse: tuple
    unique_min: bool

    @cached_property
    def less(self) -> frozenset:
        at = {t: i for i, t in enumerate(self.classes)}
        return frozenset((at[a], at[t]) for t in self.classes for a in below(t).intersection(at))

    def index_of(self, t: ClassTag) -> int:
        try:
            return self.classes.index(t)
        except ValueError:
            raise ClassNotInLattice(f"{t.short()} is not a class of this lattice")


def _down_sets(classes: tuple) -> list[int]:
    """Each class's down-set within classes, as bits of the indices below it.

    The bits are local to this class tuple: bit i of down[j] is set when
    classes[i] is strictly below classes[j].  classes is sorted by
    tag_sort_key, which grows along every strict pair, so every bit of
    down[j] lies below j.
    """
    at = {t: i for i, t in enumerate(classes)}
    down = []
    for t in classes:
        m = 0
        for a in below(t).intersection(at):
            m |= 1 << at[a]
        down.append(m)
    return down


def build_lattice(classes, require_unique_min: bool = True) -> IsotropyLattice:
    """Order a set of class tags by subconjugation.

    Duplicates collapse.  With require_unique_min the poset must have exactly
    one minimal element, which is what a connected action guarantees for its
    isotropy classes.  The lattice is a function of the class set alone, so
    the last LATTICE_CACHE_SIZE lattices are kept, keyed by the sorted class
    tuple: a class set seen again, with or without require_unique_min, gets
    the same immutable instance back, and what is stored on it is reused.
    The unique-minimum check runs on every call, so a lattice without one
    raises on every call.
    """
    L = _lattice(tuple(sorted(set(classes), key=tag_sort_key)))
    if require_unique_min and not L.unique_min:
        covered = {j for _, j in L.hasse}
        names = ", ".join(t.short() for j, t in enumerate(L.classes) if j not in covered)
        raise NoUniqueMinimum(f"minimal classes are {names}, expected exactly one")
    return L


# Lattices kept by build_lattice.  A constant, not an option: it holds the
# base and lifted lattices of a few hundred bases (the 401 bases of the bench
# pool make 667 class sets).  By tracemalloc (Python 3.11), an entry of such
# a base costs about 1.2 KiB with its cli text; the 205-class lattice of the
# whole catalog costs 37 KiB, and 260 KiB once its less is read.
LATTICE_CACHE_SIZE = 1024


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _lattice(classes: tuple) -> IsotropyLattice:
    if not classes:
        raise ValueError("a lattice needs at least one class")
    down = _down_sets(classes)
    hasse = []
    for j, m in enumerate(down):
        # the highest index left is maximal (classes follow tag_sort_key and
        # every down-set is full), so (i, j) is a cover; clearing i and its
        # down-set leaves the classes not under it
        while m:
            i = m.bit_length() - 1
            hasse.append((i, j))
            m &= ~(down[i] | 1 << i)
    hasse.sort()
    unique_min = sum(not m for m in down) == 1
    return IsotropyLattice(classes, tuple(hasse), unique_min)


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
