"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They check that tracing changes nothing the program computes, that the
self-time arithmetic is right, and that the seed reaches every config.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import crbkit  # noqa: E402
import crbkit.cli  # noqa: E402
from crbkit import scan  # noqa: E402

import run  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import (WORKLOADS, _close, bound_values,  # noqa: E402
                       output_rows, sub_seed)


def small_config(name: str, seed: int) -> dict:
    """A workload's config shrunk to run in about a second."""
    cfg = WORKLOADS[name].make_config(seed)
    if name == "bounds-biphoton":
        cfg["model"]["params"]["M"] = 4
        cfg["amplitudes"] = [1, 0, 1, 1]
    elif name == "mc-slit":
        cfg["model"]["params"]["M"] = 3
        cfg["amplitudes"] = [1, 0, 1]
        cfg["mc_samples"] = 4
    elif name == "mc-scatter":
        # an interior point: a handful of samples near a box corner can give
        # a singular cloud covariance
        cfg["cases"] = [{"a": [0.5, 0.5]}]
        cfg["mc_samples"] = 6
    else:
        cfg["a_grid"] = [0.0, 0.5, 1.0]
        cfg["mc_samples"] = 200
    return cfg


def invoke(name: str, cfg: dict, out: Path) -> int:
    cfg_path = out.parent / f"{out.name}.json"
    cfg_path.write_text(json.dumps(cfg))
    work = WORKLOADS[name]
    return crbkit.cli.main([work.verb, "--config", str(cfg_path), "--out",
                            str(out), "--threads", str(work.threads)])


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install(crbkit)
    try:
        yield tr
    finally:
        tr.uninstall()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_identical_with_tracing(tmp_path, name):
    cfg = small_config(name, 5)
    assert invoke(name, cfg, tmp_path / "plain") == 0
    tr = Tracer()
    tr.install(crbkit)
    try:
        assert invoke(name, cfg, tmp_path / "traced") == 0
    finally:
        tr.uninstall()
    assert tr.spans and any(s.name == "scan.run" for s in tr.spans)
    assert run.same_outputs(tmp_path / "plain", tmp_path / "traced")


def test_spawned_invocations_identical_with_tracing(tmp_path):
    name = "mc-scatter"
    runner = run.Runner(WORKLOADS[name], run.load_reference(), tmp_path)
    cfg = small_config(name, 9)
    plain, plain_out = runner.invoke(cfg, "plain")
    traced, traced_out = runner.invoke(cfg, "traced", tmp_path / "t.jsonl")
    for report in (plain, traced):
        assert report["code"] == 0
        assert report["wall_s"] > 0 and report["setup_s"] > 0
        assert report["peak_rss_mb"] > 0
    assert run.same_outputs(plain_out, traced_out)
    spans, counters = run.read_trace(tmp_path / "t.jsonl")
    metrics = run.layer_metrics(spans, counters, traced["cpu_s"], 1)
    assert metrics["estimators.bayes_s"] > 0 and metrics["optimize.rows"] > 0
    assert metrics["models.table_s"] == 0.0


def test_probe_failure_is_counted_when_the_cli_fails(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise crbkit.errors.OptimizerFailure("probe beat the optimum")

    monkeypatch.setattr(scan, "ls_estimate_batch", fail)
    tr = Tracer()
    tr.install(crbkit)
    try:
        code = invoke("mc-slit", small_config("mc-slit", 2), tmp_path / "o")
    finally:
        tr.uninstall()
    assert code == 1
    assert tr.counters["estimators.probe_failures"] == 1


def error_curve_reference(out: Path) -> dict:
    """A reference that the small error-curve outputs in ``out`` pass."""
    bounds = bound_values("mc-error-curve", out)
    return {"tolerances": {"bound_rtol": 1e-6},
            "workloads": {"mc-error-curve": {
                "bounds": bounds,
                "bands": [[0.0, math.inf] for _ in bounds]}}}


def test_check_fails_exactly_the_rows_that_fail(tmp_path):
    work = WORKLOADS["mc-error-curve"]
    cfg = small_config("mc-error-curve", 4)
    out = tmp_path / "o"
    assert invoke("mc-error-curve", cfg, out) == 0
    ref = error_curve_reference(out)
    rows = output_rows(cfg)
    assert work.check(out, ref) == [True] * rows

    bounds = ref["workloads"]["mc-error-curve"]["bounds"]
    bounds[1][0] = bounds[1][0] * 1.01 + 1.0     # row 1 misses its bound
    verdicts = work.check(out, ref)
    assert verdicts == [i != 1 for i in range(rows)]
    assert verdicts.count(False) == 1

    # a band miss in another row fails that row, not row 1 twice
    ref["workloads"]["mc-error-curve"]["bands"][rows - 1] = [-2.0, -1.0]
    assert work.check(out, ref).count(False) == 2

    bounds.pop()                                  # reference lacks a row
    assert work.check(out, ref) == [False] * (rows - 1)


def test_wrapped_entry_points_return_identical_values(tracer):
    slit = crbkit.SlitArrayModel(N=1e4, M=3, d=0.5,
                                 reference=np.array([1.0, 0.0, 1.0]))
    two = crbkit.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
    bip = crbkit.BiphotonG2Model(N=1e5, M=3, d=0.8, sigma_c=0.4,
                                 reference=np.array([1.0, 0.0, 1.0]))
    theta3 = np.array([1.0, 0.0, 1.0])
    box = two.box()

    def calls():
        batch = scan.sample_signal(two, [0.5, 0.5], seed=3, count=4)
        slit_batch = scan.sample_signal(slit, theta3, seed=3, count=3)
        return [
            crbkit.SlitArrayModel(N=1e4, M=3, d=0.5,
                                  reference=theta3).coeffs,
            crbkit.models.biphoton_g2_coeffs(bip),
            slit.signal(np.vstack([theta3, theta3])), slit.jacobian(theta3),
            scan.fim_poisson(two, [0.5, 0.5]).matrix,
            crbkit.fisher.fim_poisson(slit, theta3).matrix,
            scan.fim_axis_lambda(bip, theta3, np.array([0.0, 1.0, 0.0]),
                                 np.array([0.1, 0.2])),
            scan.regularize_and_correct(slit, theta3)[2].matrix,
            scan.regularize_1d(lambda a: 4.0 * a * a, 0.0, (0.0, 1.0)),
            scan.correct_fim_1d_closed(50.0, 0.9),
            batch.outcomes,
            scan.mle_constrained(two, batch.outcomes[0], box),
            scan.bayes_mean(two, batch.outcomes[0], box),
            scan.ls_estimate_batch(slit, slit_batch, slit.box(), n_starts=2),
        ]

    traced = calls()
    tracer.uninstall()
    plain = calls()
    for got, want in zip(traced, plain):
        assert np.array_equal(np.asarray(got), np.asarray(want))
    names = {s.name for s in tracer.spans}
    assert {"models.table", "fisher.fim", "fisher.axis", "regularize",
            "shrink", "estimators.sample", "estimators.mle",
            "estimators.bayes", "estimators.ls", "optimize"} <= names
    # two fresh tables plus the lazy tables of `slit` and `bip`
    assert tracer.counters["models.table_builds"] == 4
    assert tracer.counters["numerics.quad_calls"] > 0
    assert tracer.counters["models.signal_rows"] >= 2


def test_uninstall_restores_originals():
    before = (crbkit.cli.run_scatter_2d, scan.fim_poisson,
              crbkit.models.SlitArrayModel.__dict__["coeffs"],
              crbkit.models.TwoPixelModel.signal)
    tr = Tracer()
    tr.install(crbkit)
    assert scan.fim_poisson is not before[1]
    tr.uninstall()
    after = (crbkit.cli.run_scatter_2d, scan.fim_poisson,
             crbkit.models.SlitArrayModel.__dict__["coeffs"],
             crbkit.models.TwoPixelModel.signal)
    assert all(a is b for a, b in zip(after, before))


def span(i, start, end, parent=None, name="x", thread=1):
    return Span(i, name, start, end, thread, parent)


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 3.0, parent=0),
        span(2, 2.0, 5.0, parent=0, thread=2),   # overlaps span 1
        span(3, 9.0, 12.0, parent=0),            # clipped to the parent
        span(4, 1.5, 2.5, parent=1),             # grandchild
        span(5, 20.0, 21.0),                     # unrelated root
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert st[1] == pytest.approx(2.0 - 1.0)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)
    assert st[5] == pytest.approx(1.0)


def test_worker_thread_spans_parent_to_the_open_root():
    tr = Tracer()
    with tr.span("root"):
        with tr.span("child"):
            pass
        worker = threading.Thread(target=lambda: tr.span("w").__enter__()
                                  .__exit__(None, None, None))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in tr.spans}
    root = by_name["root"].id
    assert by_name["root"].parent is None
    assert by_name["child"].parent == root
    assert by_name["w"].parent == root
    assert by_name["w"].thread != by_name["root"].thread


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reaches_every_config(name):
    work = WORKLOADS[name]
    seeds = {sub_seed(s, k) for s in (1, 2) for k in range(4)}
    assert len(seeds) == 8
    for s in seeds:
        cfg = work.make_config(s)
        assert cfg["seed"] == s
        other = work.make_config(s + 1)
        assert {k for k in cfg if cfg[k] != other[k]} == {"seed"}
        assert output_rows(cfg) > 0


def test_bound_comparison_tolerance_and_infinities():
    assert _close([math.inf, 1.0], [math.inf, 1.0 + 1e-9], 1e-6)
    assert _close([0.0], [0.0], 1e-6)
    assert not _close([1.0], [1.0 + 1e-5], 1e-6)
    assert not _close([math.inf], [-math.inf], 1e-6)
    assert not _close([math.inf], [1e300], 1e-6)
    assert not _close([math.nan], [1.0], 1e-6)
    assert not _close([1.0, 2.0], [1.0], 1e-6)


def test_per_layer_metrics_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in doc["per_layer"]}
    produced = set(run.layer_metrics([], {}, 0.0, 0)) | {
        "estimators.mle_ms_p50", "estimators.mle_ms_p99",
        "estimators.bayes_ms_p50", "estimators.bayes_ms_p99",
        "estimators.probe_failures", "trace.overhead_s", "trace.spans"}
    assert declared == produced
    assert doc["paths"] == ["perfbench"]
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
