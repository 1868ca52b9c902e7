"""Finite posets of conjugacy classes under subconjugation."""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress

from .catalog import ClassTag, below_mask, position_tags, tag_positions
from .errors import ClassNotInLattice, NoUniqueMinimum
from .rotation import Value


class IsotropyLattice(Value):
    """Classes sorted by tag_sort_key, Hasse diagram, and unique minimum.

    hasse holds the covering pairs (i, j) of indices, sorted; unique_min
    records whether a single minimum exists.  mask (mask_of(classes)) and
    less, the strict pairs (i, j) with classes[i] < classes[j], are derived
    on first read and stored on the instance, so they take no part in
    equality or hashing.  build_lattice hands back one instance per class set
    (see lattice_of_mask), so data derived from a lattice alone (mask, less,
    the SO(3) lift's witnesses, the cli's JSON text) is derived once per
    class set and process.
    """

    classes: tuple[ClassTag, ...]
    hasse: tuple
    unique_min: bool

    @cached_property
    def mask(self) -> int:
        return mask_of(self.classes)

    @cached_property
    def less(self) -> frozenset:
        _, at, down = _down_sets(self.mask)
        pairs = []
        for j, m in enumerate(down):
            while m:
                p = m.bit_length() - 1
                m ^= 1 << p
                pairs.append((at[p], j))
        return frozenset(pairs)

    def index_of(self, t: ClassTag) -> int:
        try:
            return self.classes.index(t)
        except ValueError:
            raise ClassNotInLattice(f"{t.short()} is not a class of this lattice")

    def leq(self, a: ClassTag, b: ClassTag) -> bool:
        i, j = self.index_of(a), self.index_of(b)
        return i == j or (i, j) in self.less


def mask_of(classes) -> int:
    """The catalog positions of classes, as the bits of one int."""
    pos = tag_positions()
    mask = 0
    for t in classes:
        mask |= 1 << pos[t]
    return mask


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _down_sets(mask: int):
    """The tags at mask's bits, each bit's index among them, and their down-sets.

    The tags come in position order, read off the set bits from the lowest
    up (itertools.compress over the binary digits), so nothing is sorted.
    down[j] holds the position bits of the tags strictly below tags[j]; every
    bit lies below tags[j]'s own position.
    """
    by_pos = position_tags()
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)  # bits[p] is bit p, as 0 or 1
    ps = list(compress(range(len(bits)), bits))
    tags = [by_pos[p] for p in ps]
    return tags, dict(zip(ps, range(len(ps)))), [below_mask(t) & mask for t in tags]


def build_lattice(classes, require_unique_min: bool = True) -> IsotropyLattice:
    """Order a set of class tags by subconjugation.

    Duplicates collapse.  With require_unique_min the poset must have exactly
    one minimal element, which is what a connected action guarantees for its
    isotropy classes.  Equal class sets give the same instance: see
    lattice_of_mask.
    """
    return lattice_of_mask(mask_of(classes), require_unique_min)


# Lattices kept by lattice_of_mask.  A constant, not an option: it holds the
# base and lifted lattices of a few hundred bases (the 401 bases of the bench
# pool make 667 masks).  An entry of such a base costs about 1.5 KiB with its
# cli text; the 205-class lattice of the whole catalog costs 56 KiB, and
# 280 KiB once its less is read.
LATTICE_CACHE_SIZE = 1024


def lattice_of_mask(mask: int, require_unique_min: bool = True) -> IsotropyLattice:
    """build_lattice for the classes at the set bits of mask (see mask_of).

    The lattice is a function of mask alone, so the last LATTICE_CACHE_SIZE
    lattices are kept: a class set seen again, with or without
    require_unique_min, gets the same immutable instance back, and what is
    stored on it (less, the cli's text) is reused.  The unique-minimum check
    runs on every call, so a lattice without one raises on every call.
    """
    L = _lattice_of_mask(mask)
    if require_unique_min and not L.unique_min:
        covered = {j for _, j in L.hasse}
        names = ", ".join(t.short() for j, t in enumerate(L.classes) if j not in covered)
        raise NoUniqueMinimum(f"minimal classes are {names}, expected exactly one")
    return L


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _lattice_of_mask(mask: int) -> IsotropyLattice:
    if not mask:
        raise ValueError("a lattice needs at least one class")
    tags, at, down = _down_sets(mask)
    hasse = []
    for j, m in enumerate(down):
        # the highest position left is maximal (positions follow tag_sort_key
        # and every down-set is full), so (at[p], j) is a cover; clearing p
        # and its down-set leaves the classes not under it
        while m:
            p = m.bit_length() - 1
            i = at[p]
            hasse.append((i, j))
            m &= ~(down[i] | 1 << p)
    hasse.sort()
    unique_min = sum(not m for m in down) == 1
    return IsotropyLattice(tuple(tags), tuple(hasse), unique_min)


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
