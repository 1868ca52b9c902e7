"""One fresh isolat CLI process, as a user starts it, for the cli_cold workload.

    python3 bench/cli_runner.py [--trace FILE] COMMAND ARGS...
    python3 bench/cli_runner.py --import-only

Loads isolat from the checkout's src/ and calls isolat.cli.main.  With
--trace it first installs the benchmark's wrappers and, on exit, writes this
process's spans and counts to FILE.  --import-only stops after the import.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> None:
    args = sys.argv[1:]
    trace_file = None
    if args[:1] == ["--trace"]:
        trace_file, args = args[1], args[2:]
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import isolat.cli

    import_ms = (perf_counter() - t0) * 1e3
    if not os.path.abspath(isolat.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"isolat was not loaded from {SRC}")
    if args == ["--import-only"]:
        return
    if trace_file is None:
        sys.argv = ["isolat"] + args
        isolat.cli.main()
    sys.path.insert(0, HERE)
    import json

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.count("cli.import_ms", import_ms)
    sys.argv = ["isolat"] + args
    try:
        isolat.cli.main()
    finally:
        tracer.uninstall()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    main()
