"""Every lift_warm and cli_cold output matches the benchmark's reference digest.

bench/reference.json holds one sha256 per lift_warm base: of the lift stdout
and the requilibria stdout joined by a NUL, as bench/run.py's Verifier takes
it; and one per cli_cold command: of its stdout.  Here every base of the
fixed pool and every command of the cold suite is replayed in process
through cli.run_command and its digest compared with the reference.  The
tests only read bench/: inputs.py is executed from its source, so no
bytecode cache is written there, and the spec and DOT files go to a
temporary directory.
"""

import contextlib
import hashlib
import io
import json
import types
from pathlib import Path

from isolat.cli import run_command

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_inputs() -> types.ModuleType:
    path = BENCH / "inputs.py"
    module = types.ModuleType("bench_inputs")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def stdout_of(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert run_command(argv) == 0, argv
    return buf.getvalue()


def test_every_pool_base_matches_its_lift_warm_digest(tmp_path):
    inputs = bench_inputs()
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["lift_warm"]
    bases = inputs.all_pool_bases()
    checked = set()
    for i, base in enumerate(bases):
        path = tmp_path / f"b{i:03d}.json"
        path.write_text(json.dumps(inputs.so3(base)), encoding="utf-8")
        texts = [stdout_of(["lift", str(path)]), stdout_of(["requilibria", str(path)])]
        key = inputs.lift_key(base)
        digest = hashlib.sha256("\0".join(texts).encode("utf-8")).hexdigest()
        assert digest == reference[key], key
        checked.add(key)
    assert len(bases) == 401
    assert checked == set(reference) and len(checked) == 358


def test_every_cli_suite_command_matches_its_cli_cold_digest(tmp_path):
    inputs = bench_inputs()
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["cli_cold"]
    paths = inputs.write_specs(str(tmp_path / "specs"), inputs.CLI_SPECS)
    paths["dot"] = str(tmp_path / "lift.dot")
    checked = set()
    for cmd in inputs.cli_suite():
        argv = [paths[a[1:-1]] if a.startswith("{") else a for a in cmd]
        if cmd[0] == "check":
            argv += ["--seed", "7"]
        key = inputs.cli_key(cmd)
        digest = hashlib.sha256(stdout_of(argv).encode("utf-8")).hexdigest()
        assert digest == reference[key], key
        checked.add(key)
    assert checked == set(reference) and len(checked) == 101
    assert Path(paths["dot"]).read_text(encoding="utf-8").startswith("digraph isotropy {")
