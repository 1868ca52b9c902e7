import itertools
import random

import pytest

from isolat import catalog
from isolat.catalog import (
    CIRCLE,
    FULL,
    ICOSA,
    N_CAP,
    OCTA,
    ORTH_CIRCLE,
    TETRA,
    TRIVIAL,
    below,
    cyclic,
    dihedral,
    parse_tag,
)
from isolat.errors import ClassNotInLattice, NoUniqueMinimum
from isolat import poset
from isolat.poset import IsotropyLattice, build_lattice, compute_depths, up_set


def tags(*names):
    return [parse_tag(s) for s in names]


def catalog_tags():
    """The 205 catalog classes, not in tag_sort_key order."""
    indexed = [kind(n) for n in range(2, N_CAP + 1) for kind in (dihedral, cyclic)]
    return [FULL, ORTH_CIRCLE, CIRCLE, ICOSA, OCTA, TETRA, *indexed, TRIVIAL]


def test_chain():
    L = build_lattice(tags("1", "C2", "C4"))
    assert L.classes == (TRIVIAL, cyclic(2), cyclic(4))
    assert L.hasse == ((0, 1), (1, 2))
    assert L.unique_min


def test_diamond_depths():
    L = build_lattice(tags("1", "C2", "C3", "D6"))
    d = compute_depths(L)
    assert d == {TRIVIAL: 0, cyclic(2): 1, cyclic(3): 1, dihedral(6): 2}
    # covering edges skip nothing: C2 and C3 both cover 1, D6 covers both
    assert set(L.hasse) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_up_set():
    L = build_lattice(tags("1", "C2", "C3", "D6"))
    assert up_set(L, cyclic(2)) == (cyclic(2), dihedral(6))
    assert up_set(L, TRIVIAL) == L.classes
    with pytest.raises(ClassNotInLattice):
        up_set(L, cyclic(5))


def test_no_unique_minimum_raises():
    with pytest.raises(NoUniqueMinimum):
        build_lattice(tags("C2", "C3"))


def test_a_set_without_a_unique_minimum_raises_on_every_call():
    relaxed = build_lattice(tags("C2", "C3"), require_unique_min=False)
    for _ in range(3):
        with pytest.raises(NoUniqueMinimum, match="^minimal classes are C2, C3, expected exactly one$"):
            build_lattice(tags("C3", "C2"))
    assert build_lattice(tags("C2", "C3"), require_unique_min=False) is relaxed


def test_equal_class_sets_share_one_lattice():
    pool = tags("1", "C2", "C4", "D4", "SO2", "O2", "SO3")
    L = build_lattice(pool)
    assert build_lattice(pool) is L
    assert build_lattice(pool[::-1] + pool[:2], require_unique_min=False) is L
    assert build_lattice(iter(set(pool))) is L


def test_the_lattice_cache_is_bounded():
    size = poset.LATTICE_CACHE_SIZE
    assert poset._lattice.cache_info().maxsize == size
    first = build_lattice([TRIVIAL])
    assert build_lattice([TRIVIAL]) is first
    others = itertools.islice(itertools.combinations(catalog_tags(), 2), size + 1)
    for pair in others:  # size + 1 other class sets
        build_lattice(pair, require_unique_min=False)
    assert poset._lattice.cache_info().currsize == size
    again = build_lattice([TRIVIAL])  # the oldest entry went first
    assert again is not first and again == first


def test_relaxed_minimum():
    L = build_lattice(tags("C2", "C3"), require_unique_min=False)
    assert not L.unique_min
    assert L.classes == (cyclic(2), cyclic(3))
    assert L.hasse == ()


def test_empty_rejected():
    with pytest.raises(ValueError):
        build_lattice([])


def test_duplicates_collapse():
    L = build_lattice(tags("1", "C2", "C2"))
    assert L.classes == (TRIVIAL, cyclic(2))


def test_singleton():
    L = build_lattice([CIRCLE])
    assert L.classes == (CIRCLE,)
    assert L.hasse == ()
    assert compute_depths(L) == {CIRCLE: 0}


def test_transitive_reduction_recovers_order():
    pool = tags("1", "C2", "C3", "C6", "D2", "D3", "D6", "SO2", "O2", "SO3")
    L = build_lattice(pool)
    # closing the hasse edges transitively gives back the full strict order
    n = len(L.classes)
    reach = {(i, j) for (i, j) in L.hasse}
    changed = True
    while changed:
        changed = False
        for i, j in list(reach):
            for j2, k in list(reach):
                if j2 == j and (i, k) not in reach:
                    reach.add((i, k))
                    changed = True
    assert reach == set(L.less)
    # and no hasse edge admits an intermediate class
    for i, j in L.hasse:
        for k in range(n):
            assert not ((i, k) in L.less and (k, j) in L.less)


def test_deterministic_under_shuffling():
    pool = tags("1", "C2", "C3", "C4", "D2", "D4", "T", "O", "SO2", "O2", "SO3")
    L0 = build_lattice(pool)
    rng = random.Random(9)
    for _ in range(10):
        shuffled = pool[:]
        rng.shuffle(shuffled)
        L = build_lattice(shuffled)
        assert L == L0


def test_a_rule_against_tag_sort_key_is_rejected(monkeypatch):
    # C13 is larger than T, so no rule may put it below T
    monkeypatch.setitem(catalog._EXC_CYCLIC, "T", (2, 3, 13))
    below.cache_clear()
    try:
        with pytest.raises(
            ValueError, match="C13 is put below T but does not sort before it in tag_sort_key"
        ):
            build_lattice(tags("1", "C13", "T"))
    finally:
        below.cache_clear()  # drop the down-sets read off the patched rule


def test_full_is_unique_maximum():
    L = build_lattice(tags("1", "C2", "SO2", "SO3"))
    top = L.classes.index(FULL)
    for i in range(len(L.classes)):
        if i != top:
            assert (i, top) in L.less


def _old_build_lattice(tags_in):
    """The former triple-loop Hasse reduction, kept here as a reference."""
    from isolat.catalog import is_subconjugate, tag_sort_key

    ts = sorted(set(tags_in), key=tag_sort_key)
    n = len(ts)
    less = {(i, j) for i in range(n) for j in range(n) if i != j and is_subconjugate(ts[i], ts[j])}
    minimal = [i for i in range(n) if not any((j, i) in less for j in range(n))]
    hasse = tuple(
        sorted(
            (i, j)
            for (i, j) in less
            if not any((i, k) in less and (k, j) in less for k in range(n))
        )
    )
    return tuple(ts), frozenset(less), hasse, len(minimal) == 1


def _fields(L):
    return L.classes, L.less, L.hasse, L.unique_min


def test_build_lattice_matches_the_triple_loop():
    big = tags("1", *[f"C{n}" for n in range(2, 49)], *[f"D{n}" for n in range(2, 49)],
               "SO2", "O2", "SO3")
    assert len(big) == 98
    assert _fields(build_lattice(big)) == _old_build_lattice(big)
    everything = catalog_tags()
    assert len(everything) == 205
    assert _fields(build_lattice(everything)) == _old_build_lattice(everything)
    pool = tags(*[f"C{n}" for n in range(2, 25)], *[f"D{n}" for n in range(2, 25)],
                "1", "T", "O", "I", "SO2", "O2", "SO3")
    rng = random.Random(20261018)
    seen_multi_min = False
    for _ in range(300):
        drawn = rng.sample(pool, rng.randint(1, 14))
        want = _old_build_lattice(drawn)
        assert _fields(build_lattice(drawn, require_unique_min=False)) == want
        if want[3]:
            assert _fields(build_lattice(drawn)) == want
        else:
            seen_multi_min = True
            with pytest.raises(NoUniqueMinimum):
                build_lattice(drawn)
    assert seen_multi_min


def test_less_is_derived_on_first_read():
    pool = tags("1", "C2", "C3", "C6", "D2", "D3", "D6", "T", "SO2", "O2", "SO3")
    L = build_lattice(pool)
    fresh = IsotropyLattice(L.classes, L.hasse, L.unique_min)
    assert "less" not in L.__dict__ and "less" not in fresh.__dict__
    assert up_set(L, TRIVIAL) == L.classes
    assert "less" in L.__dict__ and "less" not in fresh.__dict__
    assert L.less is L.less
    # less is a function of classes: reading it changes neither == nor hash
    assert L == fresh and hash(L) == hash(fresh)
    assert L._values() == (L.classes, L.hasse, L.unique_min)


def _old_compute_depths(L):
    """The former count-sort and per-class hasse scan, kept as a reference."""
    n = len(L.classes)
    depth = [0] * n
    order = sorted(range(n), key=lambda i: sum(1 for j in range(n) if (j, i) in L.less))
    for i in order:
        covers = [a for (a, b) in L.hasse if b == i]
        if covers:
            depth[i] = 1 + max(depth[a] for a in covers)
    return {L.classes[i]: depth[i] for i in range(n)}


def test_compute_depths_matches_the_count_sort():
    big = build_lattice(tags("1", *[f"C{n}" for n in range(2, 49)],
                             *[f"D{n}" for n in range(2, 49)], "SO2", "O2", "SO3"))
    assert list(compute_depths(big).items()) == list(_old_compute_depths(big).items())
    pool = tags(*[f"C{n}" for n in range(2, 25)], *[f"D{n}" for n in range(2, 25)],
                "1", "T", "O", "I", "SO2", "O2", "SO3")
    rng = random.Random(20261019)
    for _ in range(300):
        L = build_lattice(rng.sample(pool, rng.randint(1, 14)), require_unique_min=False)
        assert list(compute_depths(L).items()) == list(_old_compute_depths(L).items())
