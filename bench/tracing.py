"""Spans and counts recorded around isolat's public functions, from outside.

A Tracer replaces each listed function in every isolat module namespace
that holds it (a function imported by name lives in several), records one
span (name, start, end, parent) per call in flat arrays, and counts calls
where a span would cost more than the call itself.  Nothing here runs
unless a traced run installs it; uninstall() puts the originals back.
"""

from __future__ import annotations

import gzip
import json
import sys
import types
from array import array
from time import perf_counter

SPAN, COUNT = "span", "count"

# (home module, attribute, metric name, mode); several functions may share
# one metric name, e.g. everything the cli does to turn results into text.
TARGETS = [
    ("cli", "parse_spec", "cli.parse_spec", SPAN),
    ("cli", "lattice_to_json", "cli.serialise", SPAN),
    ("cli", "witness_to_json", "cli.serialise", SPAN),
    ("cli", "adjoint_to_json", "cli.serialise", SPAN),
    ("cli", "lattice_to_dot", "cli.serialise", SPAN),
    ("lift", "lifted_lattice", "lift.lifted_lattice", SPAN),
    ("lift", "lift_witness_check", "lift.lift_witness_check", SPAN),
    ("momentum", "relative_equilibria_lattice", "momentum.relative_equilibria_lattice", SPAN),
    ("momentum", "mu_lattice", "momentum.mu_lattice", SPAN),
    ("adjoint", "isotropy_on_ann", "adjoint.isotropy_on_ann", SPAN),
    ("adjoint", "axis_line_orbits", "adjoint.axis_line_orbits", SPAN),
    ("catalog", "subgroups_of", "catalog.subgroups_of", SPAN),
    ("catalog", "embeddings_of_class_in", "catalog.embeddings_of_class_in", SPAN),
    ("catalog", "intersect", "catalog.intersect", SPAN),
    ("catalog", "classify_finite", "catalog.classify_finite", SPAN),
    ("catalog", "axis_lines", "catalog.axis_lines", SPAN),
    ("catalog", "g_class_of", "catalog.g_class_of", COUNT),
    ("poset", "build_lattice", "poset.build_lattice", SPAN),
    ("rotation", "axis_angle_of", "rotation.axis_angle_of", COUNT),
    ("rotation", "close_group", "rotation.close_group", SPAN),
    ("oracle", "stabilizer_of_tangent", "oracle.stabilizer_of_tangent", SPAN),
    ("oracle", "stabilizer_of_point", "oracle.stabilizer_of_point", COUNT),
    ("oracle", "empirical_requilibria_lattice", "oracle.empirical_requilibria_lattice", SPAN),
]

# Functions whose argument is remembered so repeated calls can be counted.
REPEAT_TRACKED = ("adjoint.isotropy_on_ann", "catalog.classify_finite")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span; a negative name id marks a span nested inside
        # another span of the same name, so inclusive totals skip it
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names) + 1
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span_wrapper(self, metric: str, fn, before=None, after=None):
        nid = self._id(metric)
        stack, name, parent, start, end = self._stack, self.name, self.parent, self.start, self.end
        active = self._active
        active.setdefault(nid, 0)

        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(-nid if active[nid] else nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            active[nid] += 1
            if before is not None:
                before(args)
            start[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                active[nid] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, metric: str, fn):
        key = metric + ".calls"
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that count work a span alone does not show

    def _repeat_hook(self, metric: str):
        seen: set = set()

        def before(args):
            if args[0] in seen:
                self.count(metric + ".repeats")
            else:
                seen.add(args[0])

        return before

    def _pairs_hook(self, so3_type):
        seen: set = set()

        def before(args):
            G, base = args[0], args[1]
            if not isinstance(G, so3_type):
                return  # finite and circle ambients take the pair-free fast path
            pairs = [(t, t) for t in base.classes]
            pairs += [(base.classes[i], base.classes[j]) for i, j in base.less]
            self.count("lift.pairs", len(pairs))
            self.count("lift.pair_repeats", sum(p in seen for p in pairs))
            seen.update(pairs)

        return before

    def _subgroups_hooks(self):
        # joins are the close_group calls made while subgroups_of computes
        joins_at_entry: list[float] = []

        def before(args):
            joins_at_entry.append(self.counts.get("joins", 0))

        def after(args, result):
            joins = self.counts.get("joins", 0) - joins_at_entry.pop()
            if joins:  # computed here, not served from the cache
                self.count("catalog.subgroups.joins", joins)
                self.count("catalog.subgroups.found", len(result))

        return before, after

    def _embeddings_after(self, args, result):
        self.count("catalog.embeddings.count", len(result) if isinstance(result, list) else 1)

    # -- installation

    def install(self) -> None:
        mods = {
            name: m
            for name, m in sys.modules.items()
            if m is not None and (name == "isolat" or name.startswith("isolat."))
        }
        lift = mods["isolat.lift"]
        sub_before, sub_after = self._subgroups_hooks()
        for home, attr, metric, mode in TARGETS:
            orig = getattr(mods["isolat." + home], attr)
            if mode == COUNT:
                w = self.count_wrapper(metric, orig)
            else:
                before = after = None
                if metric in REPEAT_TRACKED:
                    before = self._repeat_hook(metric)
                elif metric == "lift.lifted_lattice":
                    before = self._pairs_hook(lift.SO3Ambient)
                elif metric == "catalog.subgroups_of":
                    before, after = sub_before, sub_after
                elif metric == "catalog.embeddings_of_class_in":
                    after = self._embeddings_after
                elif metric == "rotation.close_group":
                    before = lambda args: self.count("joins")  # noqa: E731
                w = self.span_wrapper(metric, orig, before, after)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, w)
        frg = mods["isolat.rotation"].FiniteRotationGroup
        orig_from = frg.__dict__["from_elements"]
        inner = self.span_wrapper("rotation.from_elements", orig_from.__func__)
        self._patch(frg, "from_elements", classmethod(inner), orig_from)
        # the cli turns results into text with json.dumps; give the cli
        # module its own json namespace so only its calls are timed
        cli = mods["isolat.cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(cli.json))
        proxy.dumps = self.span_wrapper("cli.serialise", cli.json.dumps)
        self._patch(cli, "json", proxy)
        self._canonical_rep = mods["isolat.catalog"].canonical_rep

    def _patch(self, owner, key, value, old=None) -> None:
        self._restore.append((owner, key, getattr(owner, key) if old is None else old))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        info = self._canonical_rep.cache_info()
        self.count("catalog.canonical_rep.hits", info.hits)
        self.count("catalog.canonical_rep.misses", info.misses)
        for owner, key, old in reversed(self._restore):
            setattr(owner, key, old)
        self._restore.clear()

    # -- output

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "counts": self.counts,
        }


def summarize(record: dict) -> dict:
    """Per-name calls, inclusive ms and self ms from one process's spans."""
    names, name, parent = record["names"], record["name"], record["parent"]
    start, end = record["start"], record["end"]
    n = len(name)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict = {}
    for i in range(n):
        nid = name[i]
        key = names[abs(nid) - 1]
        row = out.setdefault(key, [0, 0.0, 0.0])
        dur = end[i] - start[i]
        row[0] += 1
        if nid > 0:
            row[1] += dur * 1e3
        row[2] += (dur - child[i]) * 1e3
    return out


def per_layer(records: list[dict]) -> dict:
    """The per-layer metrics over one or more traced processes."""
    spans: dict = {}
    counts: dict = {}
    for rec in records:
        for key, (calls, ms, self_ms) in summarize(rec).items():
            row = spans.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += ms
            row[2] += self_ms
        for key, v in rec["counts"].items():
            counts[key] = counts.get(key, 0) + v

    def calls(k):
        return spans.get(k, [0])[0]

    def ms(k):
        return spans.get(k, [0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    c = counts.get
    return {
        "cli.import_ms": (c("cli.import_ms", 0.0), "ms"),
        "cli.parse_spec.ms": (ms("cli.parse_spec"), "ms"),
        "cli.serialise.ms": (ms("cli.serialise"), "ms"),
        "lift.lifted_lattice.ms": (ms("lift.lifted_lattice"), "ms"),
        "lift.lifted_lattice.self_ms": (spans.get("lift.lifted_lattice", [0, 0.0, 0.0])[2], "ms"),
        "lift.lift_witness_check.ms": (ms("lift.lift_witness_check"), "ms"),
        "lift.pairs": (c("lift.pairs", 0), "count"),
        "lift.pair_repeat_ratio": (ratio(c("lift.pair_repeats", 0), c("lift.pairs", 0)), "ratio"),
        "momentum.relative_equilibria_lattice.ms": (ms("momentum.relative_equilibria_lattice"), "ms"),
        "momentum.mu_lattice.ms": (ms("momentum.mu_lattice"), "ms"),
        "adjoint.isotropy_on_ann.calls": (calls("adjoint.isotropy_on_ann"), "count"),
        "adjoint.isotropy_on_ann.ms": (ms("adjoint.isotropy_on_ann"), "ms"),
        "adjoint.isotropy_on_ann.repeat_ratio": (
            ratio(c("adjoint.isotropy_on_ann.repeats", 0), calls("adjoint.isotropy_on_ann")),
            "ratio",
        ),
        "adjoint.axis_line_orbits.ms": (ms("adjoint.axis_line_orbits"), "ms"),
        "catalog.subgroups_of.ms": (ms("catalog.subgroups_of"), "ms"),
        "catalog.close_group_per_subgroup": (
            ratio(c("catalog.subgroups.joins", 0), c("catalog.subgroups.found", 0)),
            "ratio",
        ),
        "catalog.canonical_rep.hit_ratio": (
            ratio(
                c("catalog.canonical_rep.hits", 0),
                c("catalog.canonical_rep.hits", 0) + c("catalog.canonical_rep.misses", 0),
            ),
            "ratio",
        ),
        "catalog.embeddings_of_class_in.calls": (calls("catalog.embeddings_of_class_in"), "count"),
        "catalog.embeddings_of_class_in.ms": (ms("catalog.embeddings_of_class_in"), "ms"),
        "catalog.embeddings.count": (c("catalog.embeddings.count", 0), "count"),
        "catalog.intersect.calls": (calls("catalog.intersect"), "count"),
        "catalog.intersect.ms": (ms("catalog.intersect"), "ms"),
        "catalog.classify_finite.calls": (calls("catalog.classify_finite"), "count"),
        "catalog.classify_finite.ms": (ms("catalog.classify_finite"), "ms"),
        "catalog.classify_finite.repeat_ratio": (
            ratio(c("catalog.classify_finite.repeats", 0), calls("catalog.classify_finite")),
            "ratio",
        ),
        "catalog.axis_lines.calls": (calls("catalog.axis_lines"), "count"),
        "catalog.axis_lines.ms": (ms("catalog.axis_lines"), "ms"),
        "catalog.g_class_of.calls": (c("catalog.g_class_of.calls", 0), "count"),
        "poset.build_lattice.calls": (calls("poset.build_lattice"), "count"),
        "poset.build_lattice.ms": (ms("poset.build_lattice"), "ms"),
        "rotation.axis_angle_of.calls": (c("rotation.axis_angle_of.calls", 0), "count"),
        "rotation.close_group.calls": (calls("rotation.close_group"), "count"),
        "rotation.close_group.ms": (ms("rotation.close_group"), "ms"),
        "rotation.from_elements.calls": (calls("rotation.from_elements"), "count"),
        "rotation.from_elements.ms": (ms("rotation.from_elements"), "ms"),
        "oracle.samples": (
            calls("oracle.stabilizer_of_tangent") + c("oracle.stabilizer_of_point.calls", 0),
            "count",
        ),
        "oracle.stabilizer_of_tangent.calls": (calls("oracle.stabilizer_of_tangent"), "count"),
        "oracle.stabilizer_of_tangent.ms": (ms("oracle.stabilizer_of_tangent"), "ms"),
        "oracle.empirical_requilibria_lattice.ms": (ms("oracle.empirical_requilibria_lattice"), "ms"),
    }


def write_spans(path: str, records: list[dict]) -> None:
    """One gzip'd JSON line per traced process: its names, spans and counts."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
