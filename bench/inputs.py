"""Inputs of the workloads, made from the seed alone.

Specs are written as JSON files, the only thing isolat receives.  Finite
groups are given by their own generators and every base lattice is written
down from the standard isotropy tables, not taken from isolat.
"""

from __future__ import annotations

import json
import math
import os
import random

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def rot(axis, deg):
    return {"axis": list(axis), "angle_deg": deg}


def generators(tag: str) -> list:
    if tag == "T":
        return [rot((0, 0, 1), 180), rot((1, 1, 1), 120)]
    if tag == "O":
        return [rot((0, 0, 1), 90), rot((1, 1, 1), 120)]
    if tag == "I":
        return [rot((GOLDEN, 0, 1), 72), rot((0, 0, 1), 180)]
    n = int(tag[1:])
    gens = [rot((0, 0, 1), 360.0 / n)]
    if tag[0] == "D":
        gens.append(rot((1, 0, 0), 180))
    return gens


def axial_classes(tag: str) -> list:
    """Stabilizer classes of points on the rotation axes of a finite group."""
    if tag == "T":
        return ["C2", "C3"]
    if tag == "O":
        return ["C2", "C3", "C4"]
    if tag == "I":
        return ["C2", "C3", "C5"]
    n = int(tag[1:])
    if tag[0] == "C":
        return [tag]
    return sorted({"C2", f"C{n}"})


def finite_action_spec(space: str, tag: str) -> dict:
    """Spec of Finite_on_<space>:<tag> with its base lattice."""
    base = ["1"] + axial_classes(tag)
    if space == "R3" and tag not in base:
        base.append(tag)  # the origin
    return {
        "group": {"kind": "finite", "generators": generators(tag)},
        "base_lattice": base,
        "action": f"Finite_on_{space}:{tag}",
    }


def so3(base, action=None) -> dict:
    doc = {"group": {"kind": "SO3"}, "base_lattice": base}
    if action:
        doc["action"] = action
    return doc


def circle(base, action=None) -> dict:
    doc = {"group": {"kind": "circle"}, "base_lattice": base}
    if action:
        doc["action"] = action
    return doc


def write_specs(directory: str, specs: dict) -> dict:
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, doc in specs.items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[name] = path
    return paths


def ambient_of(doc: dict) -> str:
    return {"SO3": "so3", "circle": "circle", "finite": "finite"}[doc["group"]["kind"]]


# ---------------------------------------------------------------------------
# cli_cold: a fixed suite of fresh-process commands

CLI_SPECS = {
    "so3_r3": so3(["SO2", "SO3"], "SO3_on_R3"),
    "so3_s2": so3(["SO2"], "SO3_on_S2"),
    "exc": so3(["1", "C2", "D2", "T", "O", "I", "SO3"]),
    "so3_dih": so3(["1", "C2", "C4", "D2", "D4", "O2", "SO3"]),
    "so3_cyc": so3(["1", "C2", "C3", "C6", "SO2", "O2"]),
    "so3_oct": so3(["1", "C2", "C3", "C4", "D2", "D3", "D4", "T", "O"]),
    "so3_tet": so3(["1", "C2", "C3", "D2", "T"]),
    "so3_mix": so3(["1", "C2", "C5", "D5", "SO2", "O2", "SO3"]),
    "so3_d12": so3(["1", "C2", "C3", "C4", "C6", "C12", "D2", "D3", "D4", "D6", "D12"]),
    "circle": circle(["1", "SO2"], "Circle_on_R2"),
    "circle_cyc": circle(["1", "C2", "C4", "C12", "SO2"]),
    "circle_c9": circle(["1", "C3", "C9", "SO2"]),
    "fin_I_r3": finite_action_spec("R3", "I"),
    "fin_O_s2": finite_action_spec("S2", "O"),
    "fin_T_r3": finite_action_spec("R3", "T"),
    "fin_D6_r3": finite_action_spec("R3", "D6"),
    "fin_C5_s2": finite_action_spec("S2", "C5"),
    "fin_D4_s2": finite_action_spec("S2", "D4"),
}

# The lift rule in closed form for the two rotation actions.
CLOSED_FORMS = {"so3_r3": ["1", "SO2", "SO3"], "so3_s2": ["1", "SO2"]}

CHECK_SAMPLES = "60"


def cli_suite() -> list:
    """Every command of the suite; "{name}" stands for the path of spec name."""
    cmds = []
    for name in CLI_SPECS:
        cmds.append(["lift", "{%s}" % name])
        # requilibria would pay the cold T/O/I subgroup fixpoint once more
        if name not in ("exc", "so3_oct"):
            cmds.append(["requilibria", "{%s}" % name])
    for name in ("exc", "so3_dih", "circle_cyc"):
        cmds.append(["lift", "{%s}" % name, "--cotangent"])
    for name in ("so3_d12", "fin_I_r3"):
        cmds.append(["lift", "{%s}" % name, "--no-witnesses"])
    cmds.append(["lift", "{so3_dih}", "--dot", "{dot}"])
    for name, mu in (
        ("circle", "0"), ("circle", "1.5"), ("circle", "-2"),
        ("circle_cyc", "0"), ("circle_cyc", "0.75"), ("circle_c9", "4"),
        ("so3_r3", "0"), ("so3_r3", "[0,0,0]"), ("so3_mix", "[0,0,0]"),
        ("fin_T_r3", "0"), ("fin_D6_r3", "0"), ("fin_I_r3", "[0,0,0]"),
    ):
        cmds.append(["mu", "{%s}" % name, "--mu", mu])
    cmds.append(["mu", "{circle_cyc}", "--mu", "3", "--closure", "C4"])
    cmds.append(["mu", "{so3_dih}", "--mu", "0", "--closure", "D2"])
    for name in CLI_SPECS:
        if "action" in CLI_SPECS[name]:
            cmds.append(["check", "{%s}" % name, "--samples", CHECK_SAMPLES])
    for tag in (
        ["1"] + [f"C{n}" for n in range(2, 13)] + [f"D{n}" for n in range(2, 13)]
        + ["T", "O", "I", "SO2", "O2", "SO3"]
    ):
        cmds.append(["adjoint", tag])
    cmds.append(["catalog"])
    for n in (2, 4, 8, 12, 16, 24, 32, 48):
        cmds.append(["catalog", "--max-n", str(n)])
    return cmds


def cli_key(cmd: list) -> str:
    return " ".join(a.strip("{}") for a in cmd)


# ---------------------------------------------------------------------------
# lift_warm: seeded random SO(3) bases drawn slot by slot from a fixed pool

POOL_SLOTS = 50
POOL_VARIANTS = 8
POOL_N_MAX = 12
POOL_SIZES = (5, 6, 7, 8)  # classes per base, the trivial class included

BIG_BASE = (
    ["1"] + [f"C{n}" for n in range(2, 49)] + [f"D{n}" for n in range(2, 49)]
    + ["SO2", "O2", "SO3"]
)


def _slot_template(slot: int):
    """Shape of a slot: which big classes it holds, and its C/D tags as
    (kind, central index) pairs; variants stay within one of each centre,
    so all variants of a slot cost about the same."""
    rng = random.Random(f"lift-slot-{slot}")
    size = POOL_SIZES[slot % len(POOL_SIZES)]
    big = [t for t in ("T", "O", "I", "SO2", "O2", "SO3") if rng.random() < 0.25]
    big = big[: size - 2]
    small = [(rng.choice("CD"), rng.randint(3, POOL_N_MAX - 1)) for _ in range(size - 1 - len(big))]
    return big, small


def pool_base(slot: int, variant: int) -> list:
    big, small = _slot_template(slot)
    rng = random.Random(f"lift-slot-{slot}-variant-{variant}")
    tags: list = []
    for kind, centre in small:
        width = 1
        while True:
            lo, hi = max(2, centre - width), min(POOL_N_MAX, centre + width)
            free = [f"{kind}{n}" for n in range(lo, hi + 1) if f"{kind}{n}" not in tags]
            if free:
                tags.append(rng.choice(free))
                break
            width += 1
    return ["1"] + tags + big


def lift_bases(seed: int) -> list:
    """The run's bases: one pool variant per slot, and the 98-class base."""
    rng = random.Random(seed)
    bases = [pool_base(s, rng.randrange(POOL_VARIANTS)) for s in range(POOL_SLOTS)]
    bases.append(BIG_BASE)
    rng.shuffle(bases)
    return bases


def all_pool_bases() -> list:
    return [pool_base(s, v) for s in range(POOL_SLOTS) for v in range(POOL_VARIANTS)] + [BIG_BASE]


def lift_key(base: list) -> str:
    return "lift+requilibria " + ",".join(base)
