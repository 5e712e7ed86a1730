"""One crbkit CLI invocation in a fresh interpreter, as a user runs it.

Usage (``run.py`` spawns it; the arguments after TRACE go to the CLI)::

    python3 perfbench/invoke.py T0 TRACE verb --config CFG --out DIR ...

``T0`` is the parent's ``CLOCK_MONOTONIC`` reading just before the spawn.
``TRACE`` is ``-`` for an untraced invocation, or the path of a JSONL file
that receives the spans and counters. The last line of standard output is
a JSON object: ``setup_s`` (spawn to crbkit imported and config loaded),
``wall_s`` (``cli.main`` call to return), ``cpu_s`` (process CPU time over
the same interval, all threads), ``code`` (the CLI's exit code) and
``peak_rss_mb`` (peak resident memory of this process).
"""

import json
import resource
import sys
import time

t0 = float(sys.argv[1])
trace_path = sys.argv[2]
cli_args = sys.argv[3:]

import crbkit.cli  # noqa: E402

with open(cli_args[cli_args.index("--config") + 1], encoding="utf-8") as fh:
    json.load(fh)
setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0

tracer = None
if trace_path != "-":
    from tracer import Tracer
    tracer = Tracer()
    tracer.install(crbkit)

cpu0 = time.process_time()
start = time.perf_counter()
code = crbkit.cli.main(cli_args)
wall_s = time.perf_counter() - start
cpu_s = time.process_time() - cpu0

if tracer is not None:
    tracer.uninstall()
    tracer.write_jsonl(trace_path)

print(json.dumps({
    "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "code": code,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "crbkit": crbkit.__file__,
}))
