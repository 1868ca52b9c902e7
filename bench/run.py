"""Benchmark of isolat: two workloads, six end-to-end metrics, a traced run.

    python3 bench/run.py --workload cli_cold|lift_warm|all \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --regen-reference

Run from anywhere; isolat is loaded from the checkout's src/.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  bench/README.md describes the workloads, the
metrics and the output checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RUNNER = os.path.join(HERE, "cli_runner.py")
REFERENCE = os.path.join(HERE, "reference.json")

# Set-ups per run; setup_s is their median.  Warm set-ups repeat the full
# pass in fresh processes, so they are fewer.
SETUPS = {"cli_cold": 9, "lift_warm": 3}
# Timed rounds continue until --seconds have been measured and at least this
# many operations timed, so op_p90_ms has ten operations above it.
MIN_OPS = 100
CHILD_TIMEOUT = 170


def cpu_now() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Op:
    def __init__(self, key: str, argvs: list, info=None):
        self.key = key  # names the op in digests and reports
        self.argvs = argvs  # isolat commands the op runs, in order
        self.info = info


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    warm = True

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.cli = None  # isolat.cli, once a warm set-up imported it


class CliCold(Workload):
    """A fixed suite of commands, each in a fresh isolat process."""

    name, warm = "cli_cold", False
    trace_dir = None  # set during the traced round

    def prepare(self, seed: int) -> list:
        paths = inputs.write_specs(os.path.join(self.workdir, "specs"), inputs.CLI_SPECS)
        paths["dot"] = os.path.join(self.workdir, "lift.dot")
        rng = random.Random(seed)
        ops = []
        for cmd in inputs.cli_suite():
            argv = [paths[a[1:-1]] if a.startswith("{") else a for a in cmd]
            if cmd[0] == "check":
                argv += ["--seed", str(rng.randrange(10**6))]
            ops.append(Op(inputs.cli_key(cmd), [argv], cmd))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        argv = [sys.executable, RUNNER]
        if self.trace_dir is not None:
            argv += ["--trace", os.path.join(self.trace_dir, f"{len(os.listdir(self.trace_dir))}.json")]
        try:
            p = subprocess.run(
                argv + op.argvs[0], cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return "timeout", [""]
        return p.returncode, [p.stdout]

    def check(self, op: Op, texts: list, stdout_of) -> list:
        cmd, out = op.info, texts[0]
        name = cmd[1][1:-1] if len(cmd) > 1 and cmd[1].startswith("{") else None
        doc = inputs.CLI_SPECS.get(name)
        if cmd[0] == "lift":
            probs = checks.check_lift(out, doc["base_lattice"], inputs.ambient_of(doc))
            if name in inputs.CLOSED_FORMS:
                probs += checks.check_closed_form(out, inputs.CLOSED_FORMS[name])
            if "--cotangent" in cmd:
                tangent = stdout_of(f"lift {name}")
                probs += ["no tangent output to compare"] if tangent is None else checks.check_cotangent(out, tangent)
            if "--dot" in cmd:
                with open(os.path.join(self.workdir, "lift.dot"), encoding="utf-8") as fh:
                    if not fh.read().startswith("digraph isotropy {"):
                        probs.append("--dot wrote no DOT graph")
            return probs
        if cmd[0] == "requilibria":
            lifted = stdout_of(f"lift {name}")
            if lifted is None:
                return ["no lift output to compare"]
            return checks.check_requilibria(out, json.loads(lifted)["classes"])
        if cmd[0] == "mu":
            return checks.check_mu(out, doc["base_lattice"], json.loads(cmd[3]))
        if cmd[0] == "check":
            return checks.check_match(out)
        if cmd[0] == "adjoint":
            return checks.check_adjoint(out, cmd[1])
        return checks.check_catalog(out)


class LiftWarm(Workload):
    """lift (with its witness recheck) and requilibria on seeded SO(3) bases."""

    name = "lift_warm"

    def run(self, op: Op):
        """(exit code, stdout of each command) of one operation."""
        texts, rc = [], 0
        for argv in op.argvs:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.run_command(argv)
            except Exception as e:  # a traceback is a failed op, not a dead run
                code = f"{type(e).__name__}: {e}"
            rc = rc or code
            texts.append(buf.getvalue())
        return rc, texts

    def prepare(self, seed: int, bases=None) -> list:
        bases = inputs.lift_bases(seed) if bases is None else bases
        specs = {f"b{i:03d}": inputs.so3(b) for i, b in enumerate(bases)}
        paths = inputs.write_specs(os.path.join(self.workdir, "specs"), specs)
        return [
            Op(inputs.lift_key(b), [["lift", paths[n]], ["requilibria", paths[n]]], b)
            for n, b in zip(specs, bases)
        ]

    def check(self, op: Op, texts: list, stdout_of) -> list:
        probs = checks.check_lift(texts[0], op.info, "so3")
        if not probs:
            probs = checks.check_requilibria(texts[1], json.loads(texts[0])["classes"])
        return probs


CLASSES = {"cli_cold": CliCold, "lift_warm": LiftWarm}
WORKLOADS = tuple(CLASSES)


# ---------------------------------------------------------------------------
# Set-up, timed rounds, verification


def load_isolat():
    sys.path.insert(0, SRC)
    cli = importlib.import_module("isolat.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"isolat was not loaded from {SRC}")
    return cli


def setup_once(w: Workload, seed: int, tracer=None):
    """Import, input generation and, for a warm workload, one full pass."""
    t0 = perf_counter()
    if w.warm:
        w.cli = load_isolat()
        if tracer is not None:
            tracer.count("cli.import_ms", (perf_counter() - t0) * 1e3)
            tracer.install()
        ops = w.prepare(seed)
        for op in ops:
            w.run(op)
    else:
        ops = w.prepare(seed)
        probe = subprocess.run([sys.executable, RUNNER, "--import-only"], cwd=ROOT, timeout=CHILD_TIMEOUT)
        if probe.returncode != 0:
            sys.exit("the isolat import probe failed")
    return perf_counter() - t0, ops


def setup_in_child(workload: str, seed: int) -> float:
    p = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if p.returncode != 0:
        sys.exit(f"set-up in a fresh process failed:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])["setup_s"]


class Verifier:
    """Digests and output checks.

    Outputs are recorded while ops run and checked after the timed phase, so
    checking adds nothing to the measured time.  Each distinct output is
    written to disk once, however often it repeats, so keeping it adds
    nothing to the measured memory either.
    """

    def __init__(self, w: Workload, reference: dict | None):
        self.w = w
        # None while the reference itself is being made
        self.reference = None if reference is None else reference.get(w.name, {})
        self.dir = os.path.join(w.workdir, "outputs")
        os.makedirs(self.dir, exist_ok=True)
        self.outputs: dict = {}  # (key, digest) -> [op, rc, times seen]
        self.digests: dict = {}  # key -> digest of its latest output
        self.problems: dict = {}

    def record(self, op: Op, result) -> None:
        rc, texts = result
        digest = sha256("\0".join(texts))
        self.digests[op.key] = digest
        entry = self.outputs.get((op.key, digest))
        if entry is None:
            with open(os.path.join(self.dir, digest), "w", encoding="utf-8") as fh:
                json.dump(texts, fh)
            entry = self.outputs[op.key, digest] = [op, rc, 0]
        entry[2] += 1

    def texts(self, digest: str) -> list:
        with open(os.path.join(self.dir, digest), encoding="utf-8") as fh:
            return json.load(fh)

    def stdout_of(self, key: str):
        """Stdout of the op named key, or None if it has not run cleanly."""
        digest = self.digests.get(key)
        entry = self.outputs.get((key, digest))
        return self.texts(digest)[0] if entry is not None and entry[1] == 0 else None

    def verify(self) -> int:
        """Check every distinct output; return the number of failed ops."""
        failed = 0
        for (key, digest), (op, rc, seen) in self.outputs.items():
            texts = self.texts(digest)
            probs = []
            if rc != 0:
                probs.append(f"exit code {rc}")
            if not any(t.strip() for t in texts):
                probs.append("empty stdout")
            if self.reference is not None and self.reference.get(key) != digest:
                probs.append("digest differs from the reference")
            if not probs:
                probs = self.w.check(op, texts, self.stdout_of)
            if probs:
                failed += seen
                self.problems[key] = probs
        self.outputs.clear()
        return failed

    def suite_digest(self) -> str:
        return sha256("".join(f"{k} {d}\n" for k, d in sorted(self.digests.items())))


def timed(w: Workload, ops: list, verifier: Verifier, seconds: float, min_ops: int,
          max_rounds=None, between=None):
    """Whole rounds of ops until `seconds` are timed and `min_ops` done.

    between(n), if given, runs untimed after the n-th op.
    """
    times, wall, cpu, rounds = [], 0.0, 0.0, 0
    while True:
        for op in ops:
            c0, t0 = cpu_now(), perf_counter()
            result = w.run(op)
            dt = perf_counter() - t0
            cpu += cpu_now() - c0
            times.append(dt)
            wall += dt
            verifier.record(op, result)
            if between is not None:
                between(len(times))
        rounds += 1
        if rounds == max_rounds or (wall >= seconds and len(times) >= min_ops):
            return {"times": times, "wall": wall, "cpu": cpu, "rounds": rounds}


def peak_rss_mb(w: Workload) -> float:
    who = resource.RUSAGE_SELF if w.warm else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def report_digest(w: Workload, verifier: Verifier, reference: dict) -> None:
    suite = verifier.suite_digest()
    line = f"digest {w.name} {suite}"
    if w.name == "cli_cold":
        ok = reference.get("cli_cold_suite") == suite
        line += " matches the reference" if ok else " differs from the reference"
    print(line)
    for key, probs in sorted(verifier.problems.items()):
        if "digest differs from the reference" in probs:
            print(f"digest mismatch: {key}")


def run_untraced(w: Workload, seed: int, seconds: float) -> dict:
    reference = load_reference()
    verifier = Verifier(w, reference)
    r = {"times": [], "wall": 0.0, "cpu": 0.0, "rounds": 0}
    # The set-ups after the first are spread over the timed phase, so they
    # and the timed operations both sample the host's speed, which drifts by
    # tens of percent over seconds, across the whole run.
    secs, ops = setup_once(w, seed)
    samples = [secs]
    parts = SETUPS[w.name]
    if w.warm:
        # one segment of whole rounds per set-up, fresh-process set-ups between
        for i in range(parts):
            if i:
                samples.append(setup_in_child(w.name, seed))
            part = timed(w, ops, verifier, seconds / parts, -(-MIN_OPS // parts))
            for key in r:
                r[key] += part[key]
    else:
        at = {len(ops) * j // parts for j in range(1, parts)}

        def between(n):
            if n in at:
                samples.append(setup_once(w, seed)[0])

        r = timed(w, ops, verifier, seconds, MIN_OPS, between=between)
    rss = peak_rss_mb(w)
    failed = verifier.verify()
    times_ms = [t * 1e3 for t in r["times"]]
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "ops_per_s": (len(times_ms) / r["wall"], "1/s"),
        "cpu_s": (r["cpu"] / r["rounds"], "s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(times_ms, n=10)[8], "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }
    print(f"{w.name} seed {seed}: {len(times_ms)} ops in {r['rounds']} round(s), "
          f"{failed} failed; set-ups {', '.join(f'{s:.3f}' for s in samples)} s")
    report_digest(w, verifier, reference)
    return finish(verifier, len(times_ms), failed, metrics)


def run_traced(w: Workload, seed: int) -> dict:
    import tracing

    records = []
    if w.warm:
        tracer = tracing.Tracer()
        _, ops = setup_once(w, seed, tracer)
    else:
        _, ops = setup_once(w, seed)
        w.trace_dir = os.path.join(w.workdir, "trace")
        os.makedirs(w.trace_dir)
    verifier = Verifier(w, load_reference())
    traced = timed(w, ops, verifier, 0, 0, max_rounds=1)
    if w.warm:
        tracer.uninstall()
        records.append(tracer.dump())
    else:
        for name in sorted(os.listdir(w.trace_dir), key=lambda s: int(s.split(".")[0])):
            with open(os.path.join(w.trace_dir, name), encoding="utf-8") as fh:
                records.append(json.load(fh))
        w.trace_dir = None
    plain = timed(w, ops, verifier, 0, 0, max_rounds=1)
    metrics = tracing.per_layer(records)
    metrics["trace.overhead_ratio"] = (traced["wall"] / plain["wall"], "ratio")
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{w.name}-seed{seed}.jsonl.gz")
    tracing.write_spans(spans, records)
    print(f"{w.name} seed {seed}: traced round {traced['wall']:.2f} s, untraced round "
          f"{plain['wall']:.2f} s; spans in {os.path.relpath(spans, ROOT)}")
    return finish(verifier, 2 * len(ops), verifier.verify(), metrics)


def finish(verifier: Verifier, attempted: int, failed: int, metrics: dict) -> dict:
    for key, probs in sorted(verifier.problems.items()):
        print(f"FAILED {key}: {'; '.join(probs)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")
    return {
        "correct": not verifier.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# Entry points


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"{name} failed:\n{p.stderr}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
    return total


def regen_reference() -> None:
    """Rewrite reference.json from the current program's outputs."""
    ref = {}
    for cls in (CliCold, LiftWarm):
        w = cls(os.path.join(OUT, f"{cls.name}-{os.getpid()}"))
        try:
            if w.warm:
                w.cli = load_isolat()
                ops = w.prepare(0, inputs.all_pool_bases())
                ops = list({op.key: op for op in ops}.values())
            else:
                ops = w.prepare(0)
            verifier = Verifier(w, None)
            for op in ops:
                verifier.record(op, w.run(op))
            verifier.verify()
        finally:
            shutil.rmtree(w.workdir, ignore_errors=True)
        if verifier.problems:
            for key, probs in sorted(verifier.problems.items()):
                print(f"FAILED {key}: {'; '.join(probs)}")
            sys.exit("outputs failed their checks; reference.json left unchanged")
        ref[w.name] = dict(sorted(verifier.digests.items()))
        if w.name == "cli_cold":
            ref["cli_cold_suite"] = verifier.suite_digest()
        print(f"{w.name}: {len(ops)} outputs")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=14.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--regen-reference", action="store_true", help=regen_reference.__doc__)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "isolat", "cli.py")):
        sys.exit(f"no isolat sources under {SRC}")
    if args.regen_reference:
        regen_reference()
        return
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return
    w = CLASSES[args.workload](os.path.join(OUT, f"{args.workload}-{os.getpid()}"))
    try:
        if args.setup_probe:
            secs, _ = setup_once(w, args.seed)
            print(json.dumps({"setup_s": secs}))
            return
        result = run_traced(w, args.seed) if args.trace else run_untraced(w, args.seed, args.seconds)
    finally:
        shutil.rmtree(w.workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
