"""Command line interface.

Problem specs are JSON documents:

    {
      "group": {"kind": "SO3"}
               | {"kind": "circle"}
               | {"kind": "finite", "generators": [{"axis": [0,0,1], "angle_deg": 90}, ...]},
      "base_lattice": ["SO2", "SO3"],
      "order": [["SO2", "SO3"]],        // optional, must list every strict pair
      "action": "SO3_on_R3"             // optional, default for the check command
    }

Subcommands: lift, mu, requilibria, check, adjoint, catalog.  Results go to
stdout as JSON (check prints a plain-text report); errors go to stderr as a
single {"error": {code, path, message}} record, except two kinds: no command
or an unknown one prints the top-level usage, and a command line argparse
refuses (an extra argument, a missing --mu, --samples x) prints argparse's
usage and error lines.  Exit codes: 0 success, 1 no or unknown command,
2 invalid input or a refused command line, 3 semantic failure
(unclassifiable group, witness recheck failure, or a check mismatch), 141
stdout closed before the output was all written (128 + SIGPIPE, the status a
shell gives a writer ended by a closed pipe).

argparse parses every command line but a plain one: the command's operands
alone, none starting with '-', for a command with no required option (every
command but mu).  A plain line's namespace is the parser's own defaults plus
the operands (_plain_args), so the two routes give equal namespaces.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from functools import lru_cache

from .adjoint import isotropy_on_ann
from .catalog import (
    CircleSub,
    ConcreteSubgroup,
    FullSub,
    OrthCircleSub,
    canonical_rep,
    g_class_of,
)
from .errors import (
    ClassNotInLattice,
    GroupTooLarge,
    IsolatError,
    NoUniqueMinimum,
    NotTotallyIsotropic,
    SchemaError,
    UnclassifiableGroup,
    ValidationError,
)
from .lift import (
    LiftWitness,
    ambient_class,
    lift_witness_check,
    lifted_classes,
    lifted_lattice,
)
from .momentum import mu_lattice, relative_equilibria_lattice, zero_level_lattice
from .oracle import DEFAULT_SAMPLES, ConcreteAction, empirical_lattices, make_action
from .poset import IsotropyLattice, build_lattice, up_set
from .rotation import (
    FiniteRotationGroup,
    close_group,
    is_finite_number,
    rotation_from_json,
    rotation_to_json,
    round12,
)
from .tags import (
    CIRCLE,
    FULL,
    N_CAP,
    ClassTag,
    Value,
    is_subconjugate,
    parse_tag,
    stored,
    tag_sort_key,
)

_USAGE = """usage: isolat COMMAND ...

commands:
  lift SPECFILE [--cotangent] [--dot FILE] [--no-witnesses]
  mu SPECFILE --mu VALUE [--closure TAG]
  requilibria SPECFILE [--dot FILE]
  check SPECFILE [--action NAME] [--seed N] [--samples N]
  adjoint TAG
  catalog [--max-n N]

run 'isolat COMMAND --help' for details on one command
"""


class ProblemSpec(Value):
    """A validated spec: its ambient group, its base lattice, and the
    concrete action it names, or None."""

    ambient: ConcreteSubgroup
    base: IsotropyLattice
    action: ConcreteAction | None


_TOP_KEYS = {"group", "base_lattice", "order", "action"}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated key is a schema error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise SchemaError(f"repeated key {key!r}", "")
    return obj


# Spec texts whose ProblemSpec parse_spec keeps.  A constant, not an option:
# a warm lift and its requilibria read one text twice, and the bench pool's
# round of 51 texts fits.  By tracemalloc (Python 3.11), an entry of an SO(3)
# pool base costs about 1.4 KiB with its base lattice (the one build_lattice
# keeps); a finite one keeps its closed group, 143-158 KiB for D90-D100, so a
# full cache of such specs holds about 20 MiB.
SPEC_CACHE_SIZE = 128


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def parse_spec(text: str) -> ProblemSpec:
    """The validated spec of a JSON text; a fault raises a coded IsolatError.

    The spec is a function of the text alone, so the last SPEC_CACHE_SIZE
    parsed texts are kept: a text seen again gets the same immutable
    ProblemSpec back, its ambient group, base lattice and action included.
    A refused text is stored nowhere, and is parsed and refused again on
    every call.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise SchemaError(f"input is not valid JSON: {e}", "") from None
    except RecursionError:
        raise SchemaError("input is nested too deeply to parse", "") from None
    if not isinstance(doc, dict):
        raise SchemaError("the top level must be an object", "")
    for key in doc:
        if key not in _TOP_KEYS:
            raise SchemaError(f"unknown field {key!r}", key)

    group = doc.get("group")
    if not isinstance(group, dict):
        raise SchemaError("a 'group' object is required", "group")
    kind = group.get("kind")
    if kind not in ("SO3", "circle", "finite"):
        raise SchemaError("group.kind must be 'SO3', 'circle' or 'finite'", "group.kind")
    if kind == "finite":
        raw = group.get("generators")
        if not isinstance(raw, list) or not raw:
            raise SchemaError(
                "a finite group needs a non-empty 'generators' list", "group.generators"
            )
        gens = []
        for i, rec in enumerate(raw):
            try:
                gens.append(rotation_from_json(rec))
            except ValueError as e:
                raise SchemaError(str(e), f"group.generators[{i}]") from None
        try:
            ambient: ConcreteSubgroup = close_group(gens)
        except GroupTooLarge as e:
            raise GroupTooLarge(str(e), "group.generators") from None
    else:
        ambient = canonical_rep(CIRCLE if kind == "circle" else FULL)
    extra = set(group) - {"kind", "generators"}
    if extra:
        raise SchemaError(f"unknown group field {sorted(extra)[0]!r}", "group")
    if kind != "finite" and "generators" in group:
        raise SchemaError("only finite groups take generators", "group.generators")

    raw_tags = doc.get("base_lattice")
    if not isinstance(raw_tags, list) or not raw_tags:
        raise SchemaError("a non-empty 'base_lattice' list is required", "base_lattice")
    try:
        amb = ambient_class(ambient)
    except UnclassifiableGroup as e:  # only a finite group can fail here
        raise UnclassifiableGroup(str(e), "group.generators") from None
    tags: dict[ClassTag, None] = {}  # an insertion-ordered set
    for i, s in enumerate(raw_tags):
        if not isinstance(s, str):
            raise SchemaError("class tags are strings", f"base_lattice[{i}]")
        try:
            t = parse_tag(s)
        except ValueError as e:
            raise ValidationError(str(e), f"base_lattice[{i}]") from None
        if t in tags:
            raise ValidationError(f"duplicate class {t.short()}", f"base_lattice[{i}]")
        if not is_subconjugate(t, amb):
            raise ValidationError(
                f"{t.short()} is not a subgroup class of the ambient {amb.short()}",
                f"base_lattice[{i}]",
            )
        tags[t] = None

    if "order" in doc:
        raw_order = doc["order"]
        if not isinstance(raw_order, list):
            raise SchemaError("'order' must be a list of [low, high] pairs", "order")
        pairs = []
        for i, item in enumerate(raw_order):
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(s, str) for s in item)
            ):
                raise SchemaError("each order entry is a [low, high] pair", f"order[{i}]")
            try:
                a, b = parse_tag(item[0]), parse_tag(item[1])
            except ValueError as e:
                raise ValidationError(str(e), f"order[{i}]") from None
            for t in (a, b):
                if t not in tags:
                    raise ValidationError(
                        f"{t.short()} does not appear in base_lattice", f"order[{i}]"
                    )
            pairs.append((a, b))
        L = build_lattice(tags, require_unique_min=False)
        at = {t: i for i, t in enumerate(L.classes)}  # index pairs sort as tag_sort_key pairs
        declared = {(at[a], at[b]) for a, b in pairs}
        for wrong, text in (
            (L.less - declared, "declared order is missing the pair {} < {}"),
            (declared - L.less, "declared pair {} < {} does not hold"),
        ):
            if wrong:
                i, j = min(wrong)
                raise ValidationError(text.format(L.classes[i].short(), L.classes[j].short()), "order")
    try:
        base = build_lattice(tags)
    except NoUniqueMinimum as e:
        raise NoUniqueMinimum(str(e), "base_lattice") from None

    action = doc.get("action")
    if action is not None:
        if not isinstance(action, str):
            raise SchemaError("'action' must be a string", "action")
        action = _resolve_action(action, ambient, "action")

    return ProblemSpec(ambient, base, action)


def _resolve_action(name: str, ambient: ConcreteSubgroup, path: str) -> ConcreteAction:
    """The named concrete action; its ambient must be the spec's group."""
    try:
        action = make_action(name)
    except ValueError as e:
        raise ValidationError(str(e), path) from None
    have, want = ambient_class(action.ambient), ambient_class(ambient)
    if have != want:
        raise ValidationError(
            f"action {name} has ambient {have.short()}, the spec group is {want.short()}",
            path,
        )
    return action


# ---------------------------------------------------------------------------
# Serialization


def subgroup_to_json(S: ConcreteSubgroup) -> dict:
    if isinstance(S, FiniteRotationGroup):
        return {
            "type": "finite",
            "order": len(S),
            "elements": [rotation_to_json(r) for r in S],
        }
    if isinstance(S, CircleSub):
        return {"type": "so2", "axis": [round12(c) for c in S.axis]}
    if isinstance(S, OrthCircleSub):
        return {
            "type": "o2",
            "axis": [round12(c) for c in S.axis],
            "flip_phase_deg": 0.0,  # the marked flip's (catalog.OrthCircleSub)
        }
    return {"type": "so3"}


def lattice_to_json(L: IsotropyLattice) -> dict:
    return {
        "classes": [t.short() for t in L.classes],
        "hasse": [[i, j] for (i, j) in L.hasse],
    }


def _lattice_text(L: IsotropyLattice) -> str:
    """The "classes" and "hasse" members of an indent=2 JSON object holding L.

    Byte for byte what json.dumps gives lattice_to_json(L), from per-tag
    fragments.
    """
    return stored(L, "_json_text", _render_lattice)


def _render_lattice(L: IsotropyLattice) -> str:
    classes = ",\n    ".join(f'"{t.short()}"' for t in L.classes)  # never empty: see build_lattice
    hasse = ",\n    ".join(f"[\n      {i},\n      {j}\n    ]" for i, j in L.hasse)
    hasse = f"[\n    {hasse}\n  ]" if hasse else "[]"
    return f'"classes": [\n    {classes}\n  ],\n  "hasse": {hasse}'


def _member(key: str, value) -> str:
    """One member of an indent=2 JSON object, rendered by json.dumps."""
    return json.dumps(key) + ": " + json.dumps(value, indent=2).replace("\n", "\n  ")


def _document(members: list) -> str:
    """The indent=2 JSON object made of the given rendered members."""
    return "{\n  " + ",\n  ".join(members) + "\n}"


def lattice_to_dot(L: IsotropyLattice) -> str:
    lines = ["digraph isotropy {", "  rankdir=BT;"]
    for i, t in enumerate(L.classes):
        lines.append(f'  n{i} [label="{t.display()}"];')
    for i, j in L.hasse:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def witness_to_json(w: LiftWitness) -> dict:
    return {
        "class": w.lifted_class.short(),
        "h1": w.h1.short(),
        "h2": w.h2.short(),
        "k": w.k.short(),
        "embedding": subgroup_to_json(w.embedding),
        "k_rep": subgroup_to_json(w.k_rep),
    }


# Witness text is rendered from the fields, as _lattice_text renders lattices:
# the bytes json.dumps gives witness_to_json(w) with indent=2, at a witness's
# depth in the lift document (an item of a list at four spaces).  Every float
# is a round12 value, and json.dumps prints a finite float as its repr.


def _floats_text(values, pad: str) -> str:
    """A JSON list of floats whose closing bracket sits at indent pad."""
    items = f",\n{pad}  ".join(map(repr, values))
    return f"[\n{pad}  {items}\n{pad}]"


def _rotation_text(rec: dict) -> str:
    """A rotation_to_json record as an element of a witness group."""
    axis = _floats_text(rec["axis"], "            ")
    return f'{{\n            "axis": {axis},\n            "angle_deg": {rec["angle_deg"]!r}\n          }}'


def _group_text(S: ConcreteSubgroup) -> str:
    """subgroup_to_json(S) as the value of a witness's embedding or k_rep."""
    members = []
    for key, value in subgroup_to_json(S).items():
        if key == "elements":
            value = "[\n          " + ",\n          ".join(map(_rotation_text, value)) + "\n        ]"
        elif key == "axis":
            value = _floats_text(value, "        ")
        elif isinstance(value, str):
            value = f'"{value}"'
        else:  # the order, or the flip phase
            value = repr(value)
        members.append(f'"{key}": {value}')
    return "{\n        " + ",\n        ".join(members) + "\n      }"


def _witness_texts(witnesses) -> list[str]:
    """Each witness as JSON at its depth in the lift document.

    A group that several witnesses of the call hold, as an embedding or as a
    k_rep, is rendered once per call; its text is not kept after the call.
    """
    groups: dict[int, str] = {}  # id of a group the witnesses keep alive -> its text

    def group(S: ConcreteSubgroup) -> str:
        if id(S) not in groups:
            groups[id(S)] = _group_text(S)
        return groups[id(S)]

    def render(w: LiftWitness) -> str:
        return (
            f'{{\n      "class": "{w.lifted_class.short()}",\n      "h1": "{w.h1.short()}",\n'
            f'      "h2": "{w.h2.short()}",\n      "k": "{w.k.short()}",\n'
            f'      "embedding": {group(w.embedding)},\n      "k_rep": {group(w.k_rep)}\n    }}'
        )

    return [stored(w, "_json_text", render) for w in witnesses]


def _subspace_to_json(H: ConcreteSubgroup) -> dict:
    """The annihilator of H's algebra, which H's type fixes."""
    if isinstance(H, FullSub):
        return {"type": "zero"}
    if isinstance(H, (CircleSub, OrthCircleSub)):
        return {"type": "plane", "normal": [round12(c) for c in H.axis]}
    return {"type": "all"}


def adjoint_to_json(t: ClassTag, H: ConcreteSubgroup) -> dict:
    return {
        "class": t.short(),
        "subspace": _subspace_to_json(H),
        "entries": [
            {"class": g_class_of(K).short(), "subgroup": subgroup_to_json(K)}
            for K in isotropy_on_ann(H)
        ],
    }


# ---------------------------------------------------------------------------
# Commands


# Bytes asked of each os.read of a spec file: a typical spec comes whole in
# one read, and a larger file takes more, until a read returns nothing.
_READ_SIZE = 65536


def _read_spec_file(path: str) -> str:
    """The file's text and error messages as text mode gives them (UTF-8,
    universal newlines), from raw reads of the file's bytes and one decode.

    The bytes come from os.read on a descriptor of its own, without the
    buffered-IO objects open() builds.  os.open accepts a directory, so one
    is refused with the IsADirectoryError that open() raises.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            chunks = []
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
        finally:
            os.close(fd)
        text = b"".join(chunks).decode("utf-8")
        return text.replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read spec file: {e}", "specfile") from None


def _check_dot_path(path: str | None) -> None:
    """Refuse an empty --dot path, which would otherwise write nothing."""
    if path == "":
        raise ValidationError("--dot needs a file name", "dot")


def _write_dot(path: str, L: IsotropyLattice) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(lattice_to_dot(L))
    except OSError as e:
        raise ValidationError(f"cannot write DOT file: {e}", "dot") from None


# Each command's parser is built once per process; parse_args leaves it as
# it was, so one call's options never reach the next.


@lru_cache(maxsize=None)
def _plain_form(parser: argparse.ArgumentParser) -> tuple[tuple[str, ...], dict] | None:
    """The positional names and the other namespace values of a command line
    that gives the positionals alone, or None if no such line parses.

    Derived once per parser, by argparse itself from placeholder operands, so
    the defaults are the parser's own.  None when an option is required, or
    when a positional takes other than one plain string.
    """
    actions = parser._actions
    positionals = [a for a in actions if not a.option_strings]
    if any(a.required and a.option_strings for a in actions) or any(
        (a.nargs, a.type, a.choices) != (None, None, None) for a in positionals
    ):
        return None
    defaults = vars(parser.parse_args(["x"] * len(positionals)))
    names = tuple(a.dest for a in positionals)
    for name in names:
        del defaults[name]
    return names, defaults


def _plain_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """argv's namespace, built without argparse, when argv is the positionals
    alone (no argument starts with '-'); else None."""
    if any(s.startswith("-") for s in argv):
        return None
    form = _plain_form(parser)
    if form is None or len(argv) != len(form[0]):
        return None
    names, defaults = form
    return argparse.Namespace(**defaults, **dict(zip(names, argv)))


@lru_cache(maxsize=None)
def _lift_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isolat lift",
        description="Isotropy lattice of the tangent or cotangent lifted action.",
    )
    p.add_argument("specfile")
    p.add_argument(
        "--cotangent",
        action="store_true",
        help="label the result as the cotangent bundle (the lattice is the same)",
    )
    p.add_argument("--dot", metavar="FILE", help="write a DOT rendering as well")
    p.add_argument(
        "--no-witnesses", action="store_true", help="omit witnesses from the output"
    )
    return p


def _cmd_lift(a: argparse.Namespace) -> int:
    _check_dot_path(a.dot)
    spec = parse_spec(_read_spec_file(a.specfile))
    result = lifted_lattice(spec.ambient, spec.base)
    if not lift_witness_check(spec.ambient, spec.base, result):
        _emit_error("witness-check", "", "internal witness recheck failed")
        return 3
    if a.dot is not None:
        _write_dot(a.dot, result.lifted)
    members = ['"bundle": "T*M"' if a.cotangent else '"bundle": "TM"', _lattice_text(result.lifted)]
    parts = [_document(members)]
    if not a.no_witnesses:
        # reopen the object (cut its "\n}") and print the witness list as joined:
        # it runs to megabytes on large bases and is never copied into one string
        witnesses = ",\n    ".join(_witness_texts(result.witnesses))
        parts = [parts[0][:-2], ',\n  "witnesses": [\n    ', witnesses, "\n  ]\n}"]
    print(*parts, sep="")
    return 0


def _parse_mu(raw: str):
    try:
        mu = json.loads(raw)
    except (json.JSONDecodeError, RecursionError):  # RecursionError: nested too deeply
        raise ValidationError(
            "mu must be a finite JSON number or a list of three finite numbers", "mu"
        ) from None
    if is_finite_number(mu):
        return mu
    if isinstance(mu, list) and len(mu) == 3 and all(is_finite_number(c) for c in mu):
        return tuple(float(c) for c in mu)
    raise ValidationError(
        "mu must be a finite JSON number or a list of three finite numbers", "mu"
    )


@lru_cache(maxsize=None)
def _mu_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isolat mu",
        description="Isotropy classes on a totally isotropic momentum level set.",
    )
    p.add_argument("specfile")
    p.add_argument("--mu", required=True, help="momentum value, e.g. '0' or '[0,0,0]'")
    p.add_argument(
        "--closure", metavar="TAG", help="also report the level-set closure of TAG"
    )
    return p


def _cmd_mu(a: argparse.Namespace) -> int:
    mu = _parse_mu(a.mu)
    spec = parse_spec(_read_spec_file(a.specfile))
    try:
        level = mu_lattice(spec.ambient, spec.base, mu)
    except NotTotallyIsotropic as e:
        raise NotTotallyIsotropic(str(e), "mu") from None
    members = [_member("mu", mu), _lattice_text(level)]  # a tuple renders as a list
    if a.closure is not None:  # an empty tag fails to parse below
        try:
            t = parse_tag(a.closure)
        except ValueError as e:
            raise ValidationError(str(e), "closure") from None
        try:
            classes = up_set(level, t)
        except ClassNotInLattice as e:
            raise ClassNotInLattice(str(e), "closure") from None
        closure = {"class": t.short(), "classes": [x.short() for x in classes]}
        members.append(_member("closure", closure))
    print(_document(members))
    return 0


@lru_cache(maxsize=None)
def _requilibria_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isolat requilibria",
        description="Isotropy classes realized by relative equilibria.",
    )
    p.add_argument("specfile")
    p.add_argument("--dot", metavar="FILE", help="write a DOT rendering as well")
    return p


def _cmd_requilibria(a: argparse.Namespace) -> int:
    _check_dot_path(a.dot)
    spec = parse_spec(_read_spec_file(a.specfile))
    L = relative_equilibria_lattice(spec.ambient, spec.base)
    if a.dot is not None:
        _write_dot(a.dot, L)
    print(_document([_lattice_text(L)]))
    return 0


def _fmt_tags(tags) -> str:
    return ",".join(t.short() for t in sorted(tags, key=tag_sort_key))


@lru_cache(maxsize=None)
def _check_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isolat check",
        description="Compare predicted lattices against brute-force sampling of a concrete action.",
    )
    p.add_argument("specfile")
    p.add_argument("--action", help="action name; defaults to the spec's 'action' field")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--samples",
        type=int,
        default=DEFAULT_SAMPLES,
        help="random draws per lattice besides the strata seeds; 0 uses the seeds only",
    )
    return p


def _cmd_check(a: argparse.Namespace) -> int:
    if a.samples < 0:
        raise ValidationError(f"--samples must be 0 or more, got {a.samples}", "samples")
    spec = parse_spec(_read_spec_file(a.specfile))
    action = _resolve_action(a.action, spec.ambient, "action") if a.action else spec.action
    if action is None:
        raise ValidationError(
            "no action given on the command line or in the spec", "action"
        )
    base = spec.base
    lifted = set(lifted_classes(spec.ambient, base).classes)
    zero = set(zero_level_lattice(spec.ambient, base).classes)
    labels = ("base", "lifted", "zero-level", "requilibria")
    # relative equilibria realize exactly the lifted lattice
    predictions = (set(base.classes), lifted, zero, lifted)
    rows = list(zip(labels, predictions, empirical_lattices(action, a.seed, a.samples)))
    if ambient_class(spec.ambient) not in (FULL, CIRCLE):
        del rows[3]  # a finite group moves no point along a trajectory
    ok = True
    for label, predicted, empirical in rows:
        good = predicted == empirical
        ok = ok and good
        print(
            f"{label:<12} predicted={_fmt_tags(predicted):<24} "
            f"empirical={_fmt_tags(empirical):<24} {'ok' if good else 'MISMATCH'}"
        )
    print("MATCH" if ok else "MISMATCH")
    return 0 if ok else 3


@lru_cache(maxsize=None)
def _adjoint_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isolat adjoint",
        description="Isotropy classes of a catalog subgroup on the annihilator of its algebra.",
    )
    p.add_argument("tag")
    return p


def _cmd_adjoint(a: argparse.Namespace) -> int:
    try:
        t = parse_tag(a.tag)
    except ValueError as e:
        raise ValidationError(str(e), "tag") from None
    print(json.dumps(adjoint_to_json(t, canonical_rep(t)), indent=2))
    return 0


@lru_cache(maxsize=None)
def _catalog_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isolat catalog",
        description="Subconjugation table over the catalog classes.",
    )
    p.add_argument(
        "--max-n", type=int, default=6, help="largest cyclic/dihedral index to include"
    )
    return p


def _cmd_catalog(a: argparse.Namespace) -> int:
    if a.max_n < 2 or a.max_n > N_CAP:
        raise ValidationError(f"--max-n must lie in 2..{N_CAP}", "max-n")
    tags = [ClassTag(kind) for kind in ("1", "T", "O", "I", "SO2", "O2", "SO3")]
    tags += [ClassTag(kind, n) for kind in ("C", "D") for n in range(2, a.max_n + 1)]
    L = build_lattice(tags)
    out = {
        "classes": [t.short() for t in L.classes],
        "orders": {t.short(): t.min_order() for t in L.classes},
        "subconjugate": [[L.classes[i].short(), L.classes[j].short()] for i, j in sorted(L.less)],
    }
    print(json.dumps(out, indent=2))
    return 0


# ---------------------------------------------------------------------------
# Dispatch


def _emit_error(code: str, path: str, message: str) -> None:
    rec = {"error": {"code": code, "path": path, "message": message}}
    print(json.dumps(rec, indent=2), file=sys.stderr)


# each command's parser and its handler, which takes the parsed namespace
_COMMANDS = {
    "lift": (_lift_parser, _cmd_lift),
    "mu": (_mu_parser, _cmd_mu),
    "requilibria": (_requilibria_parser, _cmd_requilibria),
    "check": (_check_parser, _cmd_check),
    "adjoint": (_adjoint_parser, _cmd_adjoint),
    "catalog": (_catalog_parser, _cmd_catalog),
}

# errors that mean the computation itself failed rather than the input
_SEMANTIC_CODES = {"unclassifiable-group"}


def run_command(argv) -> int:
    if not argv:
        print(_USAGE, file=sys.stderr)
        return 1
    if argv[0] in ("-h", "--help"):
        print(_USAGE)
        return 0
    command = _COMMANDS.get(argv[0])
    if command is None:
        print(f"unknown command {argv[0]!r}", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
        return 1
    make_parser, handler = command
    parser = make_parser()
    try:
        a = _plain_args(parser, argv[1:])  # a plain line skips argparse
        return handler(parser.parse_args(argv[1:]) if a is None else a)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 0
        return 0 if code == 0 else 2
    except IsolatError as e:
        _emit_error(e.code, e.path, str(e))
        return 3 if e.code in _SEMANTIC_CODES else 2
    except ValueError as e:
        _emit_error("validation", "", str(e))
        return 2


# Exit code when the reader closes stdout before the output is all written.
EXIT_CLOSED_STDOUT = 141


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()  # a closed reader shows here, not in the exit-time flush
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    sys.exit(code)


if __name__ == "__main__":
    main()
