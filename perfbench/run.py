"""crbkit benchmark: end-to-end and per-layer metrics for four workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload mc-slit --seed 1 --seconds 20 --trace 0

Each run builds its inputs from ``--seed`` and drives the program the way a
user does: a fresh interpreter per invocation (``invoke.py``) calls
``crbkit.cli.main`` with a config generated from ``--seed`` and a
temporary ``--out`` directory, both under ``.perfbench/`` in the checkout.
Invocations repeat for ``--seconds`` seconds; every output row is checked,
and one JSON result is printed as the last line of standard output.

``--trace 0`` reports the end-to-end metrics: the wall time of
``cli.main`` and the set-up time of the fresh interpreter, each the mean
over the run's invocations, and the highest peak resident memory of any
invocation. ``--trace 1`` alternates untraced and traced invocations, checks
that their outputs are byte-identical, reports the per-layer metrics of
the traced ones and the tracing overhead, and writes the spans to
``.perfbench/trace-<workload>-<seed>.jsonl``.

The program is imported from ``src/`` of the checkout; the run fails
without printing a result when it is missing. See README.md beside this
file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Span, self_times
from workloads import WORKLOADS, load_reference, output_rows, sub_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 150

# per-layer time metric -> span name; a layer's time is the self time of
# its spans (span time minus the time its traced children cover)
LAYER_SELF_TIME = {
    "models.table_s": "models.table",
    "fisher.fim_s": "fisher.fim",
    "fisher.axis_s": "fisher.axis",
    "regularize.self_s": "regularize",
    "shrink.s": "shrink",
    "estimators.sample_s": "estimators.sample",
    "estimators.ls_s": "estimators.ls",
    "estimators.mle_s": "estimators.mle",
    "estimators.bayes_s": "estimators.bayes",
    "optimize.s": "optimize",
    "scan.self_s": "scan.run",
    "cli.write_s": "cli.write",
}
LAYER_COUNTERS = (
    "models.table_builds", "numerics.quad_calls", "models.signal_rows",
    "models.jacobian_rows", "fisher.fim_calls", "fisher.axis_probes",
    "regularize.axes_searched", "regularize.axes_lifted",
    "shrink.iterations", "estimators.sample_draws", "estimators.ls_rows",
    "optimize.rows", "scan.inf_points",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


MACHINE_PROBE = """\
import ctypes, json, pathlib, platform, numpy, scipy, crbkit.cli
try:
    b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']
    blas = f"{b.get('name')} {b.get('version')}"
except (KeyError, TypeError, AttributeError):
    blas = 'unknown'
threads = None
libs = pathlib.Path(numpy.__file__).resolve().parent.parent / 'numpy.libs'
for lib in sorted(libs.glob('*openblas*')):
    dll = ctypes.CDLL(str(lib))
    for sym in ('scipy_openblas_get_num_threads64_',
                'openblas_get_num_threads64_', 'openblas_get_num_threads'):
        fn = getattr(dll, sym, None)
        if fn is not None and threads is None:
            fn.restype = ctypes.c_int
            threads = fn()
print(json.dumps({'python': platform.python_version(),
                  'numpy': numpy.__version__, 'scipy': scipy.__version__,
                  'blas': blas, 'blas_threads': threads}))
"""


def machine_block(args) -> dict:
    """Host, library versions, BLAS and its thread count, commit and seed.

    The libraries are probed in a child like the invocations, so the BLAS
    thread count is the one they run with; it is recorded, never pinned.
    The child also imports crbkit, so byte-compiling the sources is not
    charged to the first invocation's set-up time.
    """
    libs = json.loads(subprocess.run(
        [sys.executable, "-c", MACHINE_PROBE], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, check=True,
        timeout=60).stdout.splitlines()[-1])
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), **libs, "commit": commit,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class Runner:
    """Spawns invocations of one workload and checks their outputs."""

    def __init__(self, work, reference, workdir: Path):
        self.work = work
        self.reference = reference
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def invoke(self, config: dict, tag: str, trace_path: Path | None = None):
        """One CLI invocation in a fresh interpreter.

        Returns the child's report (see ``invoke.py``), or None when the
        invocation failed, and the output directory.
        """
        cfg_path = self.workdir / f"config-{tag}.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out = self.workdir / f"out-{tag}"
        argv = [sys.executable, str(HERE / "invoke.py"),
                repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
                str(trace_path) if trace_path else "-",
                self.work.verb, "--config", str(cfg_path), "--out", str(out),
                "--threads", str(self.work.threads)]
        rows = output_rows(config)
        self.attempted += rows
        done = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S)
        report = None
        if done.returncode == 0:
            report = json.loads(done.stdout.strip().splitlines()[-1])
            if (Path(report["crbkit"]).resolve().parent
                    != (SRC / "crbkit").resolve()):
                raise SystemExit(f"crbkit imported from {report['crbkit']}")
        if report is None or report["code"] != 0:
            sys.stderr.write(done.stderr[-4000:])
            self.failed += rows
            return None, out
        try:
            verdicts = self.work.check(out, self.reference)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            print(f"output check error: {exc!r}", file=sys.stderr)
            verdicts = [False] * rows
        self.failed += verdicts.count(False)
        return report, out


def same_outputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def read_trace(path: Path):
    """Spans and counters written by ``Tracer.write_jsonl``."""
    spans, counters = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if "counters" in doc:
                counters = doc["counters"]
            else:
                spans.append(Span(**doc))
    return spans, counters


def layer_metrics(spans, counters, cpu_s: float, bytes_out: int) -> dict:
    """Per-layer values of one traced invocation."""
    out = {name: 0.0 for name in LAYER_SELF_TIME}
    span_metric = {v: k for k, v in LAYER_SELF_TIME.items()}
    self_time = self_times(spans)
    for s in spans:
        metric = span_metric.get(s.name)
        if metric is not None:
            out[metric] += self_time[s.id]
    for name in LAYER_COUNTERS:
        out[name] = float(counters.get(name, 0.0))
    samples = counters.get("estimators.ls_samples", 0.0)
    out["estimators.ls_unique_frac"] = (
        counters.get("estimators.ls_unique", 0.0) / samples if samples else 0.0)
    points = [s.end - s.start for s in spans if s.name == "scan.point"]
    out["scan.point_s_p50"] = percentile(points, 50)
    out["scan.point_s_max"] = max(points, default=0.0)
    out["scan.cpu_s"] = cpu_s
    out["cli.bytes_out"] = float(bytes_out)
    return out


def keep_going(elapsed: list, start: float, seconds: float) -> bool:
    """Start another invocation while one more is expected to end in time."""
    if len(elapsed) < MIN_INVOCATIONS:
        return True
    return time.perf_counter() - start + statistics.median(elapsed) <= seconds


def untraced_loop(args, work, runner) -> dict:
    """Repeat invocations; report mean times and the highest peak memory.

    On a shared host the speed drifts over tens of seconds, so the mean
    over the whole run varies least from run to run, less than the median
    or the fastest invocation. The peak memory of some workloads depends
    on rare Monte-Carlo outcomes, which the highest peak over the run's
    invocations nearly always includes.
    """
    reports, elapsed = [], []
    start = time.perf_counter()
    while keep_going(elapsed, start, args.seconds):
        k = len(elapsed)
        t0 = time.perf_counter()
        report, out = runner.invoke(work.make_config(sub_seed(args.seed, k)),
                                    str(k))
        elapsed.append(time.perf_counter() - t0)
        shutil.rmtree(out, ignore_errors=True)
        if report is not None:
            reports.append(report)
            print(f"invocation {k}: " + " ".join(
                f"{name}={report[name]:.6g}"
                for name in ("wall_s", "setup_s", "peak_rss_mb")),
                file=sys.stderr)
    if not reports:
        raise SystemExit("every invocation failed")
    return {
        "wall_s": {"value": statistics.fmean(r["wall_s"] for r in reports),
                   "unit": "s"},
        "setup_s": {"value": statistics.fmean(r["setup_s"] for r in reports),
                    "unit": "s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in reports),
                        "unit": "MB"},
    }


def traced_loop(args, work, runner, workdir: Path):
    """Alternate untraced and traced invocations of the same config.

    Probe failures make the CLI exit non-zero, so they are read from the
    traces of failed invocations too and summed over the run.
    """
    plain_walls, traced_walls, per_call, elapsed = [], [], [], []
    probe_failures = 0.0
    identical = True
    trace_out = WORK_ROOT / f"trace-{args.workload}-{args.seed}.jsonl"
    start = time.perf_counter()
    with open(trace_out, "w", encoding="utf-8") as sink:
        while keep_going(elapsed, start, args.seconds):
            k = len(elapsed)
            t0 = time.perf_counter()
            config = work.make_config(sub_seed(args.seed, k))
            plain, plain_out = runner.invoke(config, f"{k}-plain")
            trace_path = workdir / f"trace-{k}.jsonl"
            traced, traced_out = runner.invoke(config, f"{k}-traced",
                                               trace_path)
            elapsed.append(time.perf_counter() - t0)
            spans, counters = (read_trace(trace_path) if trace_path.exists()
                               else ([], {}))
            probe_failures += counters.get("estimators.probe_failures", 0.0)
            if plain is None or traced is None:
                identical = False
                continue
            identical = identical and same_outputs(plain_out, traced_out)
            plain_walls.append(plain["wall_s"])
            traced_walls.append(traced["wall_s"])
            bytes_out = sum(p.stat().st_size for p in traced_out.iterdir())
            per_call.append((layer_metrics(spans, counters, traced["cpu_s"],
                                           bytes_out), spans))
            for line in trace_path.read_text(encoding="utf-8").splitlines():
                sink.write(json.dumps({"invocation": k, **json.loads(line)})
                           + "\n")
            shutil.rmtree(plain_out, ignore_errors=True)
            shutil.rmtree(traced_out, ignore_errors=True)
    if not per_call:
        raise SystemExit("every traced invocation failed")

    metrics = {name: statistics.median(m[name] for m, _ in per_call)
               for name in per_call[0][0]}
    all_spans = [s for _, spans in per_call for s in spans]
    for metric, span in (("estimators.mle_ms", "estimators.mle"),
                         ("estimators.bayes_ms", "estimators.bayes")):
        ms = [1e3 * (s.end - s.start) for s in all_spans if s.name == span]
        metrics[f"{metric}_p50"] = percentile(ms, 50)
        metrics[f"{metric}_p99"] = percentile(ms, 99)
    metrics["estimators.probe_failures"] = probe_failures
    metrics["trace.overhead_s"] = (statistics.fmean(traced_walls)
                                   - statistics.fmean(plain_walls))
    metrics["trace.spans"] = len(all_spans) / len(per_call)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
             for m in doc["per_layer"]}, identical)


def run(args) -> int:
    if not (SRC / "crbkit" / "__init__.py").is_file():
        print(f"error: no crbkit sources under {SRC}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(work, load_reference(), workdir)
    try:
        print(json.dumps({"machine": machine_block(args)}), flush=True)
        if args.trace:
            metrics, correct = traced_loop(args, work, runner, workdir)
        else:
            metrics, correct = untraced_loop(args, work, runner), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = correct and runner.failed == 0
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac = "
          f"{runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted} rows)")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
