"""The immutable value types of isolat and the interned class tags.

Every record type is a plain class on rotation.Value: built from its fields,
compared and hashed by them within one class, and frozen.  ClassTag is
interned, so tags compare by identity.
"""

import copy
import math
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from isolat.catalog import (
    FULL,
    TRIVIAL,
    ClassTag,
    CircleSub,
    FullSub,
    OrthCircleSub,
    canonical_rep,
    cyclic,
    parse_tag,
)
from isolat.cli import ProblemSpec
from isolat.lift import LiftResult, LiftWitness
from isolat.oracle import ConcreteAction
from isolat.poset import IsotropyLattice, build_lattice
from isolat.rotation import AxisAngle, FiniteRotationGroup, Rotation, close_group

SRC = Path(__file__).resolve().parent.parent / "src"
Z = (0.0, 0.0, 1.0)


def examples():
    """One argument tuple per former dataclass, the fields in declared order."""
    d3 = canonical_rep(parse_tag("D3"))
    lat = build_lattice([parse_tag("C2"), parse_tag("SO3")])
    c2 = parse_tag("C2")
    witness = (c2, c2, c2, c2, canonical_rep(c2), canonical_rep(c2))
    return [
        (Rotation, (1.0, 0.0, 0.0, 0.0)),
        (AxisAngle, (Z, math.pi, 2)),
        (FiniteRotationGroup, (d3.elements,)),
        (ClassTag, ("C", 3)),
        (CircleSub, (Z,)),
        (OrthCircleSub, ((1.0, 0.0, 0.0),)),
        (FullSub, ()),
        (LiftWitness, witness),
        (LiftResult, (lat, (LiftWitness(*witness),))),
        (ConcreteAction, ("SO3_on_R3", "R3", canonical_rep(FULL))),
        (IsotropyLattice, (lat.classes, lat.hasse, lat.unique_min)),
        (ProblemSpec, (canonical_rep(FULL), lat, None)),
    ]


EXAMPLES = examples()
IDS = [cls.__name__ for cls, _ in EXAMPLES]


def test_every_former_dataclass_is_covered():
    # 18 former dataclasses, less the five annihilator wrappers since deleted
    # (isotropy_on_ann returns the stabilizer subgroups themselves) and the
    # oracle's sample plan (empirical_lattices walks strata_seeds directly)
    assert len(EXAMPLES) == 12 and len(set(IDS)) == 12


@pytest.mark.parametrize("cls,args", EXAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args):
    value = cls(*args)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, f) for f in cls._fields) == cls(*args)._values()


@pytest.mark.parametrize("cls,args", EXAMPLES, ids=IDS)
def test_equal_fields_give_equal_values(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == b and hash(a) == hash(b)
    assert not a != b
    assert cls(**dict(zip(cls._fields, args))) == a


@pytest.mark.parametrize("cls,args", EXAMPLES, ids=IDS)
def test_values_of_different_classes_are_never_equal(cls, args):
    value = cls(*args)
    for other_cls, other_args in EXAMPLES:
        if other_cls is not cls:
            assert value != other_cls(*other_args)
    assert value != tuple(args)


def test_field_free_and_same_field_classes_stay_apart():
    assert len({CircleSub(Z), OrthCircleSub(Z), FullSub()}) == 3
    assert CircleSub(Z) != OrthCircleSub(Z)


def test_unequal_fields_give_unequal_values():
    assert CircleSub(Z) != CircleSub((1.0, 0.0, 0.0))
    assert OrthCircleSub(Z) != OrthCircleSub((1.0, 0.0, 0.0))
    assert Rotation.from_axis_angle(Z, 0.5) != Rotation.identity()


def test_defaults_and_keywords():
    assert ClassTag("T").n is None
    assert OrthCircleSub(axis=Z) == OrthCircleSub(Z)
    so3 = canonical_rep(FULL)
    action = ConcreteAction("SO3_on_R3", "R3", so3)
    assert ConcreteAction(name="SO3_on_R3", space="R3", ambient=so3) == action
    assert Rotation(w=2.0, x=0.0, y=0.0, z=0.0) == Rotation.identity()


@pytest.mark.parametrize(
    "build",
    [
        lambda: CircleSub(),
        lambda: CircleSub(Z, 1.0),
        lambda: CircleSub(Z, axis=Z),
        lambda: CircleSub(direction=Z),
        lambda: OrthCircleSub(Z, phase=1.0),
        lambda: OrthCircleSub(Z, 0.0),
        lambda: FullSub(1),
    ],
)
def test_wrong_fields_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_axis_types_still_canonicalize():
    flipped = (0.0, 0.0, -2.0)
    assert CircleSub(flipped) == CircleSub(Z) and CircleSub(flipped).axis == Z
    assert OrthCircleSub(flipped) == OrthCircleSub(Z) and OrthCircleSub(flipped).axis == Z


def test_rotation_normalizes_once_in_init():
    r = Rotation(-2.0, 0.0, 0.0, 0.0)
    assert (r.w, r.x, r.y, r.z) == (1.0, 0.0, 0.0, 0.0)
    assert set(r.__dict__) == {"w", "x", "y", "z"}
    with pytest.raises(ValueError):
        Rotation(0.0, 0.0, 0.0, 0.0)


def test_finite_groups_keep_their_own_equality_and_caches():
    # FiniteRotationGroup compares by its element key set, not by the field
    # tuple: the same elements in another order make an equal group
    a = close_group([Rotation.from_axis_angle(Z, math.pi / 2)])
    b = FiniteRotationGroup(a.elements[::-1])
    assert a is not b and a.elements != b.elements
    assert a == b and hash(a) == hash(b)
    assert a != FiniteRotationGroup.from_elements([])
    # derived data is cached per instance, beside the frozen field
    assert a.lines
    assert "lines" in a.__dict__ and "lines" not in b.__dict__


def test_trivial_group_is_one_shared_instance():
    assert canonical_rep(TRIVIAL) is canonical_rep(TRIVIAL)
    assert canonical_rep(TRIVIAL) == FiniteRotationGroup.from_elements([])


# ---------------------------------------------------------------------------
# Interned class tags


def test_tags_are_interned():
    assert parse_tag("C4") is cyclic(4) is ClassTag("C", 4) is ClassTag(kind="C", n=4)
    assert parse_tag("T") is ClassTag("T") is ClassTag("T", None)
    assert parse_tag("C4") is not parse_tag("D4")


@pytest.mark.parametrize("name", ["1", "C4", "D7", "T", "SO2", "O2", "SO3"])
def test_copies_and_pickles_return_the_same_tag(name):
    t = parse_tag(name)
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert copy.deepcopy([t, {t: t}])[0] is t
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(t, protocol)) is t


def test_values_holding_tags_copy_to_the_interned_tags():
    c2 = cyclic(2)
    value = LiftWitness(c2, c2, c2, c2, canonical_rep(c2), canonical_rep(c2))
    for clone in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and clone.lifted_class is c2 and clone.k is c2


@pytest.mark.parametrize(
    "kind,n,message",
    [
        ("C", 2.0, "C tag needs an integer index"),
        ("C", True, "C tag needs an integer index"),
        ("D", 1, "D index must lie in 2..100, got 1"),
        ("T", 0, "T tag takes no index"),
        ("X", None, "unknown subgroup kind 'X'"),
    ],
)
def test_invalid_tags_still_raise(kind, n, message):
    cyclic(2)  # the interned C2 exists, and 2.0 == 2 must not find it
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            ClassTag(kind, n)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# Cold import


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "isolat").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(from|import) dataclasses\b", source, re.M), path.name


def test_cold_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks (.pth files) can import these modules on their own
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import isolat.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)); "
        # the per-tag tables are built on first use, never at import
        "from isolat import catalog, poset; print([f.__name__ for f in ("
        "catalog.ann_classes, catalog.canonical_rep, poset._lattice) if f.cache_info().currsize])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n[]\n"
