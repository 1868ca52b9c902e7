"""Output checks that share no code with isolat.

Everything here works from the printed JSON or text alone: quaternions are
rebuilt from the printed axis/angle records, intersections are recomputed
with plain tuple arithmetic, and the subconjugation order is written out
from the standard subgroup tables of SO(3).  A check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

TOL = 1e-7  # printed floats carry 12 significant digits

# Finite subgroup classes of the exceptional groups, up to conjugacy.
_EXC_SUBS = {
    "T": {"1", "C2", "C3", "D2", "T"},
    "O": {"1", "C2", "C3", "C4", "D2", "D3", "D4", "T", "O"},
    "I": {"1", "C2", "C3", "C5", "D2", "D3", "D5", "T", "I"},
}
_ORDER = {"1": 1, "T": 12, "O": 24, "I": 60}


def split_tag(t: str):
    if t[0] in "CD" and t[1:].isdigit():
        return t[0], int(t[1:])
    return t, None


def tag_order(t: str):
    kind, n = split_tag(t)
    if kind == "C":
        return n
    if kind == "D":
        return 2 * n
    return _ORDER.get(kind)


def leq(a: str, b: str) -> bool:
    """Whether class a is subconjugate to class b in SO(3)."""
    if a == b or a == "1" or b == "SO3":
        return True
    ka, na = split_tag(a)
    kb, nb = split_tag(b)
    if kb == "C":
        return ka == "C" and nb % na == 0
    if kb == "D":
        return (ka == "C" and (nb % na == 0 or na == 2)) or (ka == "D" and nb % na == 0)
    if kb in _EXC_SUBS:
        return a in _EXC_SUBS[kb]
    if kb == "SO2":
        return ka == "C"
    if kb == "O2":
        return ka in ("C", "D") or a == "SO2"
    return False


# ---------------------------------------------------------------------------
# Quaternions and concrete subgroups rebuilt from printed records


def quat(rec) -> tuple:
    ax = rec["axis"]
    n = math.sqrt(sum(c * c for c in ax))
    h = math.radians(rec["angle_deg"]) / 2.0
    if n == 0.0 or abs(h) < 1e-12:
        return (1.0, 0.0, 0.0, 0.0)
    s = math.sin(h) / n
    return (math.cos(h), ax[0] * s, ax[1] * s, ax[2] * s)


def same_rotation(p, q) -> bool:
    return all(abs(a - b) <= TOL for a, b in zip(p, q)) or all(
        abs(a + b) <= TOL for a, b in zip(p, q)
    )


_GRID = 1e4  # bucket width 1e-4, far above the print precision


def _bucket(q) -> tuple:
    return tuple(math.floor(c * _GRID + 0.5) for c in q)


def _buckets_near(q):
    """Every bucket q could fall in under roundoff: near a bucket edge, both."""
    options = []
    for c in q:
        x = c * _GRID + 0.5
        r = math.floor(x)
        f = x - r
        options.append((r, r - 1) if f < 1e-3 else (r, r + 1) if f > 1 - 1e-3 else (r,))
    keys = [()]
    for opt in options:
        keys = [k + (r,) for k in keys for r in opt]
    return keys


def _index(els) -> dict:
    table: dict = {}
    for q in els:
        for s in (q, tuple(-c for c in q)):
            table.setdefault(_bucket(s), []).append(q)
    return table


def _member(p, table) -> bool:
    return any(same_rotation(p, q) for k in _buckets_near(p) for q in table.get(k, ()))


def _axis(q):
    """Unit axis of a non-identity rotation, or None for the identity."""
    v = q[1:]
    n = math.sqrt(sum(c * c for c in v))
    if n <= TOL:
        return None
    return tuple(c / n for c in v)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _unit(v):
    n = math.sqrt(_dot(v, v))
    return tuple(c / n for c in v)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _half_turn(q) -> bool:
    return abs(q[0]) <= TOL


def _parallel(a, b) -> bool:
    return abs(abs(_dot(a, b)) - 1.0) <= TOL


def _perp(a, b) -> bool:
    return abs(_dot(a, b)) <= TOL


def subgroup(rec):
    """('finite', [quats]) | ('so2', axis) | ('o2', axis) | ('so3',)."""
    t = rec["type"]
    if t == "finite":
        return ("finite", [quat(r) for r in rec["elements"]])
    if t in ("so2", "o2"):
        return (t, _unit(rec["axis"]))
    return ("so3",)


def _half_turn_about(axis):
    return ("finite", [(1.0, 0.0, 0.0, 0.0), (0.0,) + tuple(axis)])


def _in_continuous(q, kind, axis) -> bool:
    a = _axis(q)
    if a is None or _parallel(a, axis):
        return True
    return kind == "o2" and _half_turn(q) and _perp(a, axis)


def intersect(A, B):
    if A[0] == "so3":
        return B
    if B[0] == "so3":
        return A
    if A[0] != "finite" and B[0] == "finite":
        A, B = B, A
    if A[0] == "finite":
        if B[0] == "finite":
            table = _index(B[1])
            return ("finite", [p for p in A[1] if _member(p, table)])
        return ("finite", [p for p in A[1] if _in_continuous(p, B[0], B[1])])
    if _parallel(A[1], B[1]):
        return ("so2", A[1]) if "so2" in (A[0], B[0]) else A
    if A[0] == B[0] == "so2":
        return ("finite", [(1.0, 0.0, 0.0, 0.0)])
    if A[0] == B[0] == "o2":
        if _perp(A[1], B[1]):
            c = _unit(_cross(A[1], B[1]))
            return ("finite", [(1.0, 0.0, 0.0, 0.0)] + [(0.0,) + v for v in (A[1], B[1], c)])
        return _half_turn_about(_unit(_cross(A[1], B[1])))
    circle = A if A[0] == "so2" else B
    orth = B if circle is A else A
    if _perp(circle[1], orth[1]):
        return _half_turn_about(circle[1])
    return ("finite", [(1.0, 0.0, 0.0, 0.0)])


def finite_kind(els) -> str:
    """'1', 'C', 'D' or, for anything else, the order, from the axis geometry."""
    n = len(els)
    if n == 1:
        return "1"
    rot = [(q, a) for q, a in ((q, _axis(q)) for q in els) if a is not None]
    if all(_parallel(a, rot[0][1]) for _, a in rot):
        return "C"
    if n % 2 == 0:
        # the main axis of D_m, m >= 3, is the only one carrying a rotation
        # other than a half turn; for D2 any axis serves
        line = next((a for q, a in rot if not _half_turn(q)), rot[0][1])
        about = [a for _, a in rot if _parallel(a, line)]
        flips = [(q, a) for q, a in rot if not _parallel(a, line)]
        if (
            len(about) == n // 2 - 1
            and len(flips) == n // 2
            and all(_half_turn(q) and _perp(a, line) for q, a in flips)
        ):
            return "D"
    return str(n)


def group_matches(S, tag: str) -> bool:
    """Whether a rebuilt subgroup has the order and kind of a class tag."""
    kind, _ = split_tag(tag)
    if kind in ("SO2", "O2", "SO3"):
        return S[0] == kind.lower()
    if S[0] != "finite" or len(S[1]) != tag_order(tag):
        return False
    fk = finite_kind(S[1])
    if kind in ("1", "C", "D"):
        return fk == kind
    return fk == str(tag_order(tag))


# ---------------------------------------------------------------------------
# Command outputs


def _load(text: str, problems: list):
    try:
        return json.loads(text)
    except ValueError as e:
        problems.append(f"stdout is not JSON: {e}")
        return None


def check_lift(text: str, base: list, ambient: str) -> list:
    """Properties of a lift output plus a replay of every witness."""
    problems: list = []
    doc = _load(text, problems)
    if doc is None:
        return problems
    classes = doc["classes"]
    if not set(base) <= set(classes):
        problems.append("base is not contained in the lifted lattice")
    heads = {j for _, j in doc["hasse"]}
    if len([i for i in range(len(classes)) if i not in heads]) != 1:
        problems.append("lifted lattice has no unique minimum")
    for t in classes:
        if not any(leq(t, b) for b in base):
            problems.append(f"lifted class {t} lies below no base class")
    if ambient in ("finite", "circle") and set(classes) != set(base):
        problems.append(f"{ambient} ambient lifted to something other than its base")
    witnesses = doc.get("witnesses")
    if witnesses is not None:
        if [w["class"] for w in witnesses] != classes:
            problems.append("witnesses do not follow the class list")
        for w in witnesses:
            problems += replay_witness(w, base)
    return problems


def replay_witness(w: dict, base: list) -> list:
    label = f"witness for {w['class']}"
    if w["h1"] not in base or w["h2"] not in base or not leq(w["h1"], w["h2"]):
        return [f"{label}: {w['h1']} <= {w['h2']} is not a base pair"]
    E = subgroup(w["embedding"])
    if not group_matches(E, w["h1"]):
        return [f"{label}: the embedding is not a copy of {w['h1']}"]
    if not group_matches(intersect(E, subgroup(w["k_rep"])), w["class"]):
        return [f"{label}: embedding meet k_rep is not of class {w['class']}"]
    return []


def check_requilibria(text: str, lifted: list) -> list:
    problems: list = []
    doc = _load(text, problems)
    if doc is not None and not set(doc["classes"]) <= set(lifted):
        problems.append("relative equilibria are not contained in the lifted lattice")
    return problems


def check_mu(text: str, base: list, mu) -> list:
    problems: list = []
    doc = _load(text, problems)
    if doc is None:
        return problems
    zero = mu == 0 or mu == [0, 0, 0]
    want = base if zero else [t for t in base if split_tag(t)[0] in ("1", "C")]
    if set(doc["classes"]) != set(want):
        problems.append(f"mu={mu} kept {doc['classes']}, expected {sorted(want)}")
    return problems


def check_cotangent(text: str, tangent_text: str) -> list:
    a, b = json.loads(text), json.loads(tangent_text)
    if a.pop("bundle") != "T*M" or b.pop("bundle") != "TM" or a != b:
        return ["cotangent output differs from the tangent output beyond 'bundle'"]
    return []


def check_catalog(text: str) -> list:
    problems: list = []
    doc = _load(text, problems)
    if doc is None:
        return problems
    pairs = {tuple(p) for p in doc["subconjugate"]}
    cyc = [t for t in doc["classes"] if split_tag(t)[0] == "C"]
    for a in cyc:
        for b in cyc:
            if a != b and ((a, b) in pairs) != (split_tag(b)[1] % split_tag(a)[1] == 0):
                problems.append(f"catalog gets {a} <= {b} wrong")
    for a, b in pairs:
        if not leq(a, b):
            problems.append(f"catalog lists {a} <= {b}, which does not hold")
    return problems


def check_adjoint(text: str, tag: str) -> list:
    problems: list = []
    doc = _load(text, problems)
    if doc is not None and tag == "I":
        got = {e["class"] for e in doc["entries"]}
        if got != {"1", "C2", "C3", "C5", "I"}:
            problems.append(f"adjoint I gives {sorted(got)}")
    return problems


def check_match(text: str) -> list:
    lines = text.strip().splitlines()
    if not lines or lines[-1] != "MATCH":
        return ["check did not end in MATCH"]
    return []


def check_closed_form(text: str, expected: list) -> list:
    doc = json.loads(text)
    if doc["classes"] != expected:
        return [f"lifted {doc['classes']}, the closed form is {expected}"]
    return []
