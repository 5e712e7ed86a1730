"""Outside-in tracer: spans and counters around crbkit's public entry points.

The tracer rebinds module attributes of an imported ``crbkit`` (the names
the library itself looks up at call time) with thin wrappers, and restores
the originals on :meth:`Tracer.uninstall`. Nothing under ``src/`` changes:
the wrappers only time the call, count work at the same boundary and pass
arguments and results through untouched.

A span records name, start, end, thread and parent. Parents come from a
stack per thread; a span opened on a thread whose stack is empty (a scan
pool worker) is parented to the open root span. Spans stay in memory until
:meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "thread": self.thread,
                "parent": self.parent}


class _Open:
    """Context manager for one span; closes it even if the call raises."""

    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        stack = tr._stack()
        with tr._lock:
            self.id = tr._next_id
            tr._next_id += 1
            if stack:
                self.parent = stack[-1]
            else:
                self.parent = tr._root
                if tr._root is None:
                    tr._root = self.id
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack().pop()
        span = Span(self.id, self.name, self.start, end,
                    threading.get_ident(), self.parent)
        with tr._lock:
            tr.spans.append(span)
            if tr._root == self.id:
                tr._root = None
        return False


class Tracer:
    """In-memory spans and counters; install/uninstall rebinding on crbkit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json()) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")

    # -- rebinding ---------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr: str, name: str | None, before=None,
              after=None, on_error=None) -> None:
        """Rebind ``owner.attr`` to a wrapper of the original.

        The call runs inside span ``name`` (no span when ``name`` is None,
        for calls too frequent or too small to time). ``before(args,
        kwargs)`` runs outside the span, so its cost is tracing overhead,
        not layer time; ``after(result, args, kwargs)`` sees the result;
        ``on_error(exc)`` sees an exception before it propagates.
        """
        orig = owner.__dict__[attr]

        @wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            try:
                if name is None:
                    result = orig(*args, **kwargs)
                else:
                    with self.span(name):
                        result = orig(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if after is not None:
                after(result, args, kwargs)
            return result

        self._rebind(owner, attr, wrapper)

    def _count_rows(self, owner, attr: str, counter: str) -> None:
        """Rebind a model method to count parameter points evaluated."""
        orig = owner.__dict__[attr]

        @wraps(orig)
        def wrapper(model, theta):
            shape = getattr(theta, "shape", None)
            self.count(counter, shape[0] if shape is not None
                       and len(shape) == 2 else 1)
            return orig(model, theta)

        self._rebind(owner, attr, wrapper)

    def install(self, crbkit) -> None:
        """Rebind the traced entry points of an imported ``crbkit`` package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        cli, scan = crbkit.cli, crbkit.scan
        estimators, models, svg = crbkit.estimators, crbkit.models, crbkit.svg
        regularize, fisher = crbkit.regularize, crbkit.fisher
        optimizer_failure = crbkit.errors.OptimizerFailure
        count = self.count

        # scan: the run_* drivers as cli.main looks them up, and scan points
        def after_scan(result, args, kwargs):
            table = result.get("table") if isinstance(result, dict) else None
            if isinstance(table, np.ndarray) and table.ndim == 2:
                count("scan.inf_points",
                      int(np.isinf(table[:, 1:3]).any(axis=1).sum()))

        for verb in ("run_error_curve", "run_scatter_2d",
                     "run_resolution_scan"):
            self._wrap(cli, verb, "scan.run",
                       after=after_scan if verb == "run_resolution_scan"
                       else None)
        self._wrap(scan, "_scan_point", "scan.point")

        # fisher: direct calls from scan and the fim_function closures
        self._wrap(scan, "fim_poisson", "fisher.fim",
                   before=lambda a, k: count("fisher.fim_calls"))
        self._wrap(fisher, "fim_poisson", "fisher.fim",
                   before=lambda a, k: count("fisher.fim_calls"))
        self._wrap(scan, "fim_axis_lambda", "fisher.axis",
                   before=lambda a, k: count(
                       "fisher.axis_probes",
                       len(a[3]) if len(a) > 3 else len(k["deltas"])))

        # regularize: both entry points; lifted axes counted per axis search
        self._wrap(scan, "regularize_fim", "regularize")
        self._wrap(scan, "regularize_1d", "regularize")

        def after_axis(result, args, kwargs):
            count("regularize.axes_searched")
            if result > args[4]:
                count("regularize.axes_lifted")

        self._wrap(regularize, "_axis_search", None, after=after_axis)

        # shrink
        self._wrap(scan, "correct_fim", "shrink",
                   after=lambda r, a, k: count("shrink.iterations",
                                               r[2].iterations))
        self._wrap(scan, "correct_fim_1d_closed", "shrink")

        # estimators
        def sample_draws(result, args, kwargs):
            count("estimators.sample_draws", result.outcomes.size)

        self._wrap(scan, "sample_signal", "estimators.sample",
                   after=sample_draws)

        def probe_failure(exc):
            if isinstance(exc, optimizer_failure):
                count("estimators.probe_failures")

        def ls_rows(args, kwargs):
            batch = args[1]
            n_starts = kwargs.get("n_starts", estimators.N_STARTS)
            unique = np.unique(batch.outcomes, axis=0).shape[0]
            count("estimators.ls_rows", unique * (n_starts + 1))
            count("estimators.ls_unique", unique)
            count("estimators.ls_samples", batch.outcomes.shape[0])

        self._wrap(scan, "ls_estimate_batch", "estimators.ls",
                   before=ls_rows, on_error=probe_failure)
        self._wrap(scan, "mle_constrained", "estimators.mle",
                   on_error=probe_failure)
        self._wrap(scan, "bayes_mean", "estimators.bayes")

        # optimize, reached from the multi-start MLE
        self._wrap(estimators, "minimize_box_batch", "optimize",
                   before=lambda a, k: count("optimize.rows",
                                             len(a[1]) if len(a) > 1
                                             else len(k["x0"])))

        # models: coefficient tables, quadrature calls, evaluated points
        self._wrap(models, "biphoton_g2_coeffs", "models.table",
                   before=lambda a, k: count("models.table_builds"))
        self._wrap(models, "adaptive_simpson", None,
                   before=lambda a, k: count("numerics.quad_calls"))
        slit = models.SlitArrayModel
        coeffs_get = slit.__dict__["coeffs"].fget

        def coeffs(model):
            if model._coeffs is not None:
                return coeffs_get(model)
            count("models.table_builds")
            with self.span("models.table"):
                return coeffs_get(model)

        self._rebind(slit, "coeffs", property(coeffs, doc=coeffs_get.__doc__))
        for cls in (models.Uniform1Model, models.TwoPixelModel,
                    models.SlitArrayModel, models.BiphotonG2Model):
            self._count_rows(cls, "signal", "models.signal_rows")
            self._count_rows(cls, "jacobian", "models.jacobian_rows")

        # output writing
        self._wrap(scan, "write_csv", "cli.write")
        self._wrap(scan, "_dump_json", "cli.write")
        self._wrap(svg.SvgPlot, "save", "cli.write")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []


# -- analysis -----------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may run on other threads and overlap each other; their
    intervals are merged and clipped to the parent before subtracting.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out
