"""The exact class layer: conjugacy classes of closed subgroups of SO(3).

A ClassTag names a class by kind: the trivial group, the cyclic C_n and
dihedral D_n families, the tetrahedral, octahedral and icosahedral groups,
the circle SO(2), its half-turn extension O(2), and SO(3) itself.
is_subconjugate is their subconjugation order in closed form; a lattice
numbers its own classes (poset.py).  Value, the base of every record type,
and stored live here too.  Nothing here reads a float or imports from the
package, so the lattice layer loads no geometry.
"""

from __future__ import annotations

import re


class Value:
    """Immutable record of the fields its subclass annotates, in that order.

    Built from the fields by position or keyword (class attributes are the
    defaults), then __post_init__ may canonicalize them through __dict__.
    Derived data is kept there too, through stored or a cached_property.
    Values of one class with equal fields are equal and hash alike.
    Assignment and deletion raise AttributeError.
    """

    _fields = ()  # the field names, set per subclass

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls, d = type(self), self.__dict__
        d.update(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name in kwargs:
                d[name] = kwargs.pop(name)
            elif hasattr(cls, name):
                d[name] = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__name__} needs field {name!r}")
        if kwargs or len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}{self._values()!r}"


def stored(owner: object, key: str, build):
    """owner.__dict__[key], built as build(owner) on first read.

    The one way data derived from an immutable instance (a rotation, a group,
    a lattice, a witness) is kept, other than a class's own cached_property:
    the value is stored on that instance and read back from it.  Nothing is
    shared between instances, not even equal ones: two equal groups may hold
    other element objects, and two equal witnesses other float bits, so each
    instance derives its own.  This is safe because the instance cannot
    change, so the value cannot go stale, and stored data takes no part in
    equality or hashing.  build must not return None.
    """
    value = owner.__dict__.get(key)
    if value is None:
        value = owner.__dict__[key] = build(owner)
    return value


# Largest n admitted for C_n and D_n tags.
N_CAP = 100

_KINDS = ("1", "C", "D", "T", "O", "I", "SO2", "O2", "SO3")
_KIND_RANK = {k: i for i, k in enumerate(_KINDS)}


class ClassTag(Value):
    """Conjugacy class of a closed subgroup of SO(3), interned: one instance per (kind, n)."""

    kind: str
    n: int | None = None
    _interned = {}  # keyed on type(n) too, or 2.0 would find C2

    def __new__(cls, kind: str, n: int | None = None):
        key = (kind, n.__class__, n)
        tag = cls._interned.get(key)
        if tag is None:
            tag = super().__new__(cls)
            Value.__init__(tag, kind, n)
            tag = cls._interned.setdefault(key, tag)
        return tag

    __init__ = object.__init__  # __new__ built the instance
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        return ClassTag, (self.kind, self.n)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown subgroup kind {self.kind!r}")
        if self.kind in ("C", "D"):
            if not isinstance(self.n, int) or isinstance(self.n, bool):
                raise ValueError(f"{self.kind} tag needs an integer index")
            if self.n < 2 or self.n > N_CAP:
                raise ValueError(f"{self.kind} index must lie in 2..{N_CAP}, got {self.n}")
        elif self.n is not None:
            raise ValueError(f"{self.kind} tag takes no index")

    def display(self) -> str:
        if self.kind in ("C", "D"):
            return f"{self.kind}{self.n}"
        return {"1": "1", "T": "T", "O": "O", "I": "I",
                "SO2": "SO(2)", "O2": "O(2)", "SO3": "SO(3)"}[self.kind]

    def short(self) -> str:
        if self.kind in ("C", "D"):
            return f"{self.kind}{self.n}"
        return self.kind

    def min_order(self) -> int | None:
        """Group order for finite kinds, None for the continuous ones."""
        if self.kind == "1":
            return 1
        if self.kind == "C":
            return self.n
        if self.kind == "D":
            return 2 * self.n
        if self.kind == "T":
            return 12
        if self.kind == "O":
            return 24
        if self.kind == "I":
            return 60
        return None


TRIVIAL = ClassTag("1")
TETRA = ClassTag("T")
OCTA = ClassTag("O")
ICOSA = ClassTag("I")
CIRCLE = ClassTag("SO2")
ORTH_CIRCLE = ClassTag("O2")
FULL = ClassTag("SO3")


def cyclic(n: int) -> ClassTag:
    return ClassTag("C", n)


def dihedral(n: int) -> ClassTag:
    return ClassTag("D", n)


def tag_sort_key(t: ClassTag):
    """Total order: by group order, infinite kinds last, ties by kind then n.

    Every lattice sorts its classes by it (poset.build_lattice); a warm
    command reads its lattices from stores and sorts nothing.
    """
    mo = t.min_order()
    rank = _KIND_RANK[t.kind]
    return (mo if mo is not None else 10**6 + rank, rank, t.n or 0)


# An indexed tag: C or D, then an index in ASCII decimal without leading zeros
# ([0-9] matches no other script's digits, unlike str.isdigit).
_INDEXED_TAG = re.compile(r"([CD])(0|[1-9][0-9]*)")


def parse_tag(s: str) -> ClassTag:
    """Short-form parser: '1', 'C4', 'D6', 'T', 'O', 'I', 'SO2', 'O2', 'SO3'.

    Every catalog tag has exactly one accepted text (no leading zeros), and
    the tag it returns is the interned one.
    """
    if s in ("1", "T", "O", "I", "SO2", "O2", "SO3"):
        return ClassTag(s)
    m = _INDEXED_TAG.fullmatch(s)
    if m is None:
        raise ValueError(f"cannot parse class tag {s!r}")
    kind, digits = m.groups()
    if len(digits) > len(str(N_CAP)):
        # past N_CAP, and int() refuses strings of thousands of digits
        raise ValueError(f"{kind} index must lie in 2..{N_CAP}, got {digits}")
    return ClassTag(kind, int(digits))


# Indices of the cyclic and dihedral subgroup classes of T, O and I
# (Golubitsky-Stewart-Schaeffer II, ch. XIII).
_EXC_CYCLIC = {"T": (2, 3), "O": (2, 3, 4), "I": (2, 3, 5)}
_EXC_DIHEDRAL = {"T": (2,), "O": (2, 3, 4), "I": (2, 3, 5)}


def is_subconjugate(a: ClassTag, b: ClassTag) -> bool:
    """True when some conjugate of a representative of a lies inside b's.

    The subconjugation order in closed form (Golubitsky-Stewart-Schaeffer
    II, ch. XIII): C_d and D_d lie in C_n and D_n when d divides n, and C2
    in every D_n; T, O and I hold the classes of _EXC_CYCLIC and
    _EXC_DIHEDRAL, and T lies in O and I; SO(2) holds every C_n, O(2) every
    C_n, every D_n and SO(2), and SO(3) every class.  The lattice layer
    relies on tag_sort_key growing along every strict pair, which a tier-1
    test checks on every pair of catalog tags.
    """
    if a is b or b is FULL:
        return True
    ka, kb = a.kind, b.kind
    if ka == "1" or kb == "O2":  # 1 lies in every class, O(2) holds 1, C_n, D_n and SO(2)
        return ka in ("1", "C", "D", "SO2")
    if kb == "SO2":
        return ka == "C"
    if ka == "C":
        if kb in ("C", "D"):
            return b.n % a.n == 0 or (kb == "D" and a.n == 2)
        return a.n in _EXC_CYCLIC.get(kb, ())
    if ka == "D":
        if kb == "D":
            return b.n % a.n == 0
        return a.n in _EXC_DIHEDRAL.get(kb, ())
    return ka == "T" and kb in ("O", "I")
