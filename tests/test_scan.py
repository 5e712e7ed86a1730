"""Batch analyses and CLI: determinism, ellipses, reports, scan properties."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crbkit as ck
from crbkit.cli import main as cli_main
from crbkit.scan import (ellipse_from_quadratic_form, run_ellipse,
                         run_error_curve, run_fim_report,
                         run_resolution_scan, run_scatter_2d, write_csv)


@pytest.fixture
def groupings(monkeypatch):
    """Record every ``np.lexsort``, ``np.unique(..., axis=0)`` and
    counting-grouping call: one grouping of a Monte-Carlo batch into its
    unique outcome rows."""
    import crbkit.estimators as estimators
    calls = []
    real_lexsort, real_unique = np.lexsort, np.unique
    real_count = estimators._group_counts

    def group_counts(*args, **kwargs):
        calls.append(1)
        return real_count(*args, **kwargs)

    def lexsort(*args, **kwargs):
        calls.append(1)
        return real_lexsort(*args, **kwargs)

    def unique(*args, **kwargs):
        if kwargs.get("axis") == 0:
            calls.append(1)
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", lexsort)
    monkeypatch.setattr(np, "unique", unique)
    monkeypatch.setattr(estimators, "_group_counts", group_counts)
    return calls


class TestEllipse:
    def test_identity_circle(self):
        e = ellipse_from_quadratic_form(np.eye(2), [0.0, 0.0])
        r = math.sqrt(2.0 * math.log(2.0))
        assert np.allclose(e.semi_axes, [r, r])
        assert e.semi_axes[0] == pytest.approx(1.17741, abs=1e-5)

    def test_diagonal_axes(self):
        e = ellipse_from_quadratic_form(np.diag([4.0, 1.0]), [0.0, 0.0])
        r = math.sqrt(2.0 * math.log(2.0))
        assert sorted(e.semi_axes) == pytest.approx([r / 2.0, r], rel=1e-12)
        # each axis direction is a coordinate axis (eigen-order may differ)
        assert np.allclose(np.abs(e.directions).max(axis=1), 1.0)
        assert np.allclose(np.abs(e.directions).min(axis=1), 0.0)

    def test_orthonormal_directions(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2))
        kern = a @ a.T + 0.5 * np.eye(2)
        e = ellipse_from_quadratic_form(kern, [0.1, -0.2])
        assert np.allclose(e.directions @ e.directions.T, np.eye(2),
                           atol=1e-10)

    def test_half_mass_coverage(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2))
        kern = a @ a.T + 0.3 * np.eye(2)
        cov = np.linalg.inv(kern)
        center = np.array([0.4, 0.7])
        e = ellipse_from_quadratic_form(kern, center)
        draws = rng.multivariate_normal(center, cov, size=10_000)
        d = draws - center
        inside = np.einsum("bi,ij,bj->b", d, kern, d) <= 2.0 * math.log(2.0)
        assert inside.mean() == pytest.approx(0.5, abs=0.02)

    def test_singular_kernel(self):
        with pytest.raises(ck.SingularKernel):
            ellipse_from_quadratic_form(np.diag([1.0, 0.0]), [0, 0])


class TestCsv:
    def test_inf_sentinel_and_repr(self, tmp_path):
        path = tmp_path / "t.csv"
        text = write_csv(path, ["a", "b"], [[1.5, math.inf], [0.1, 2]])
        assert text.splitlines()[1] == "1.5,inf"
        assert path.read_text() == text


ERROR_CURVE_CFG = {
    "model": {"variant": "Uniform1", "params": {"N": 200, "eta": 0.7, "n": 2}},
    "a_grid": [0.0, 0.3, 0.6, 0.9],
    "mc_samples": 400,
    "seed": 5,
}


class TestErrorCurve:
    def test_structure_and_sentinels(self, tmp_path):
        res = run_error_curve(ERROR_CURVE_CFG, tmp_path)
        t = res["table"]
        assert math.isinf(t["Delta_std"][0])
        assert t["Delta_reg"][0] == pytest.approx(0.3178, abs=1e-3)
        assert np.isfinite(t["Delta_corr"][0])
        assert (tmp_path / "error_curve.csv").exists()
        assert (tmp_path / "error_curve.svg").exists()

    def test_csv_deterministic(self, tmp_path):
        r1 = run_error_curve(ERROR_CURVE_CFG, tmp_path / "a")
        r2 = run_error_curve(ERROR_CURVE_CFG, tmp_path / "b")
        assert r1["csv"] == r2["csv"]
        assert (tmp_path / "a" / "error_curve.csv").read_bytes() == \
            (tmp_path / "b" / "error_curve.csv").read_bytes()

    def test_bias_sign_near_upper_bound(self, tmp_path):
        cfg = dict(ERROR_CURVE_CFG, a_grid=[0.9, 0.95, 1.0], mc_samples=2000)
        res = run_error_curve(cfg, None)
        assert res["table"]["bias_MLE"][-1] < 0.0

    def test_one_fisher_matrix_per_grid_point(self, monkeypatch):
        # regularize_and_correct reads Uniform1's axis profile, so a grid
        # point evaluates the information once, not once per probe
        import crbkit.scan as scan
        calls = []
        real = scan.fim_poisson

        def counting(model, theta):
            calls.append(1)
            return real(model, theta)

        monkeypatch.setattr(scan, "fim_poisson", counting)
        run_error_curve(dict(ERROR_CURVE_CFG, mc_samples=20), None)
        assert len(calls) == len(ERROR_CURVE_CFG["a_grid"])

    def test_bounds_match_scalar_helpers(self):
        # the criterion-5 model and grid; the bound columns do not depend
        # on the Monte-Carlo part. Oracle: the scalar 1-D path on a
        # fim_poisson callable, then `correct_fim_1d_closed`.
        model = {"variant": "Uniform1", "params": {"N": 200, "eta": 0.7, "n": 2}}
        a_grid = [round(0.05 * i, 2) for i in range(21)]
        t = run_error_curve({"model": model, "a_grid": a_grid,
                             "mc_samples": 2, "seed": 2024}, None)["table"]
        spec = ck.model_from_json(model)
        fi = lambda a: ck.fim_poisson(spec, [a]).matrix[0, 0]
        for i, a in enumerate(a_grid):
            f_reg = ck.regularize_1d(fi, a, (0.0, 1.0))
            expected = (fi(a), f_reg, ck.correct_fim_1d_closed(f_reg, a))
            got = (t["F"][i], t["F_reg"][i], t["F_corr"][i])
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0), a

    @pytest.mark.parametrize("config, sharing", [
        # N = 1e-6: every sample of every point counts 0
        (dict(ERROR_CURVE_CFG, model={"variant": "Uniform1", "params": {
            "N": 1e-6, "eta": 0.7, "n": 2}}, mc_samples=50), "every"),
        (dict(ERROR_CURVE_CFG, mc_samples=200), "some"),
        # means 3969, 63504 and 321489: the points' counts never meet
        (dict(ERROR_CURVE_CFG, model={"variant": "Uniform1", "params": {
            "N": 1e6, "eta": 0.7, "n": 2}}, a_grid=[0.3, 0.6, 0.9],
            mc_samples=30), "none"),
    ], ids=["share-every-count", "share-some", "share-none"])
    def test_estimates_match_per_point_reference(self, monkeypatch, config,
                                                 sharing):
        # the curve estimates each distinct count once; a reference that
        # estimates every grid point's batch on its own (estimate_batch)
        # must give the same table, bit for bit
        import crbkit.scan as scan
        passed = {"mle_constrained": [], "bayes_mean": []}
        for name, calls in passed.items():
            def counting(model, y, _real=getattr(scan, name), _calls=calls):
                _calls.append([tuple(row) for row in y])
                return _real(model, y)

            monkeypatch.setattr(scan, name, counting)
        table = run_error_curve(config, None)["table"]

        model = ck.model_from_json(config["model"])
        a_grid = np.asarray(config["a_grid"], dtype=float)
        want, point_rows = {}, []
        for i, a in enumerate(a_grid):
            batch = ck.sample_signal(model, [a], seed=config["seed"] + 7919 * i,
                                     count=config["mc_samples"])
            point_rows.append({tuple(row) for row in batch.unique})
            for est, fn in (("MLE", ck.mle_constrained),
                            ("Bayes", ck.bayes_mean)):
                stats = ck.mc_stats(ck.estimate_batch(
                    batch, lambda y, fn=fn: fn(model, y)), [a])
                want.setdefault(f"Delta_{est}_mc", []).append(
                    math.sqrt(stats.total_mse))
                want.setdefault(f"bias_{est}", []).append(stats.bias[0])
        step = float(np.diff(a_grid).mean())
        for est in ("MLE", "Bayes"):
            want[f"Delta_{est}_biasedCRB"] = np.sqrt(ck.biased_crb_mse(
                table["F"], want[f"bias_{est}"], step))
        for name, column in want.items():
            assert np.array_equal(table[name], column), name

        distinct = set().union(*point_rows)
        assert {"every": len(distinct) == 1,
                "some": 1 < len(distinct) < sum(map(len, point_rows)),
                "none": len(distinct) == sum(map(len, point_rows)),
                }[sharing]
        # each estimator sees every distinct row once, in at most one call
        # per grid point, and no call without rows
        for calls in passed.values():
            assert len(calls) <= a_grid.size and all(calls)
            assert sorted(sum(calls, [])) == sorted(distinct)

    def test_one_grouping_per_batch(self, groupings):
        # the MLE and the posterior mean share the batch's one grouping
        run_error_curve(dict(ERROR_CURVE_CFG, mc_samples=50), None)
        assert len(groupings) == len(ERROR_CURVE_CFG["a_grid"])


SCATTER_CFG = {
    "model": {"variant": "TwoPixel",
              "params": {"N": 1000, "eta": 0.7, "h0": 1.0, "h1": 0.8}},
    "cases": [{"a": [0.5, 0.5]}, {"a": [0.9, 0.9], "N": 50}],
    "mc_samples": 150,
    "seed": 7,
}


class TestScatter2D:
    def test_cases_and_artifacts(self, tmp_path):
        res = run_scatter_2d(SCATTER_CFG, tmp_path)
        mid = res["cases"][0]
        dev = np.abs(mid["fim_corr"].matrix - mid["fim"].matrix).max()
        assert dev <= 1e-9 * np.abs(mid["fim"].matrix).max()
        edge = res["cases"][1]
        tv_std = np.trace(np.linalg.inv(edge["fim"].matrix))
        tv_corr = np.trace(np.linalg.inv(edge["fim_corr"].matrix))
        assert tv_corr < tv_std
        area_std = np.prod(edge["ellipses"]["standard"].semi_axes)
        area_corr = np.prod(edge["ellipses"]["corrected"].semi_axes)
        assert area_corr < area_std
        for tag in ("case0", "case1"):
            assert (tmp_path / f"scatter_{tag}.csv").exists()
            assert (tmp_path / f"scatter_{tag}.json").exists()
            assert (tmp_path / f"scatter_{tag}.svg").exists()

    def test_estimates_feasible(self):
        res = run_scatter_2d(SCATTER_CFG, None)
        for case in res["cases"]:
            for cloud in case["clouds"].values():
                assert np.all(cloud >= -1e-12)
                assert np.all(cloud <= 1.0 + 1e-12)

    def test_one_grouping_per_case(self, groupings):
        # the MLE and the posterior mean share each case's one grouping
        run_scatter_2d(dict(SCATTER_CFG, mc_samples=30), None)
        assert len(groupings) == len(SCATTER_CFG["cases"])


def slit_scan_config(amin=0.0, n_events=2000.0, mc=0, grid=(0.4, 0.6, 0.8)):
    pattern = [1, 1, amin, 1, amin]
    return {
        "model": {"variant": "SlitArray",
                  "params": {"N": n_events, "M": 5, "d": 0.5, "d_R": 1.0}},
        "amplitudes": pattern,
        "d_grid": list(grid),
        "threshold": 0.1,
        "mc_samples": mc,
        "ls_starts": 4,
        "seed": 3,
    }


def biphoton_scan_config(pattern, grid):
    return {
        "model": {"variant": "BiphotonG2",
                  "params": {"N": 1e4, "M": len(pattern), "d": 0.5,
                             "d_R": 1.0, "sigma_c": 0.3}},
        "amplitudes": list(pattern),
        "d_grid": list(grid),
        "threshold": 0.1,
        "mc_samples": 0,
        "seed": 1,
    }


class TestResolutionScan:
    def test_columns_and_sentinels(self, tmp_path):
        res = run_resolution_scan(slit_scan_config(), tmp_path)
        t = res["table"]
        assert np.all(np.isinf(t[:, 1]))          # dark pixels: singular FIM
        assert np.all(np.isfinite(t[:, 2]))
        csv_lines = res["csv"].splitlines()
        assert csv_lines[0].startswith("d_over_dR,")
        assert "inf" in csv_lines[1]
        summary = json.loads((tmp_path / "resolution_scan.json").read_text())
        assert summary["d_min_std"] == math.inf or summary["d_min_std"] > 0
        assert (tmp_path / "resolution_scan.svg").exists()

    def test_corrected_never_exceeds_standard(self):
        res = run_resolution_scan(slit_scan_config(amin=0.9), None)
        t = res["table"]
        finite = np.isfinite(t[:, 1])
        assert np.all(t[finite, 2] <= t[finite, 1] * (1.0 + 1e-10))

    def test_thread_count_does_not_change_output(self):
        # with mc = 40 the least-squares engine fits samples at every point
        for cfg in (slit_scan_config(amin=0.9),
                    slit_scan_config(amin=0.0, mc=40)):
            seq = run_resolution_scan(cfg, None, threads=1)
            par = run_resolution_scan(cfg, None, threads=3)
            assert seq["csv"] == par["csv"]

    @settings(max_examples=15, deadline=None)
    @given(pattern=st.lists(st.integers(0, 1), min_size=1, max_size=6)
           .filter(any),
           grid=st.lists(st.sampled_from([0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                          0.9, 1.0]),
                         min_size=2, max_size=3, unique=True).map(sorted))
    def test_biphoton_thread_count_does_not_change_output(self, pattern,
                                                          grid):
        cfg = biphoton_scan_config(pattern, grid)
        runs = [run_resolution_scan(cfg, None, threads=t)["csv"]
                for t in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2]

    def test_point_geometry_replaces_the_document_values(self, tmp_path):
        # each point's d is d_over_dR * d_R and its reference the
        # amplitudes, whatever values the model document gives
        cfg = slit_scan_config()
        other = json.loads(json.dumps(cfg))
        other["model"]["params"].update(d=9.0, reference=[0, 1, 0, 1, 0])
        run_resolution_scan(cfg, tmp_path / "given")
        run_resolution_scan(other, tmp_path / "other")
        assert ((tmp_path / "given" / "resolution_scan.csv").read_bytes()
                == (tmp_path / "other" / "resolution_scan.csv").read_bytes())

    def test_one_fisher_matrix_per_grid_point(self, monkeypatch):
        # the plain bound reads the F that the repair evaluated
        import crbkit.scan as scan
        calls = []
        real = scan.fim_poisson

        def counting(model, theta):
            calls.append(1)
            return real(model, theta)

        monkeypatch.setattr(scan, "fim_poisson", counting)
        cfg = slit_scan_config()
        res = run_resolution_scan(cfg, None)
        assert len(calls) == len(cfg["d_grid"])
        assert np.all(np.isinf(res["table"][:, 1]))

    def test_failed_repair_keeps_plain_bound(self, monkeypatch):
        # a repair that raises still leaves the plain bound from the one F
        # evaluated per point; the corrected bound is recorded as inf
        import crbkit.scan as scan
        cfg = slit_scan_config(amin=0.9)
        want = run_resolution_scan(cfg, None)["table"][:, 1]
        calls = []
        real = scan.fim_poisson

        def counting(model, theta):
            calls.append(1)
            return real(model, theta)

        def failing(f_reg, theta, constraints):
            raise ck.SingularKernel("repair failed")

        monkeypatch.setattr(scan, "fim_poisson", counting)
        monkeypatch.setattr(scan, "correct_fim", failing)
        t = run_resolution_scan(cfg, None)["table"]
        assert len(calls) == len(cfg["d_grid"])
        assert np.array_equal(t[:, 1], want) and np.all(np.isfinite(want))
        assert np.all(np.isinf(t[:, 2]))

    def test_threads_below_one_rejected(self):
        for threads in (0, -1):
            with pytest.raises(ck.ConfigError, match="threads must be at "
                               f"least 1, not {threads}"):
                run_resolution_scan(slit_scan_config(), None, threads=threads)

    def test_mc_columns_populated(self):
        cfg = slit_scan_config(amin=0.9, mc=60, grid=(0.6, 0.8))
        res = run_resolution_scan(cfg, None)
        t = res["table"]
        assert np.all(np.isfinite(t[:, 3])) and np.all(t[:, 3] > 0)
        assert np.all(t[:, 4] >= t[:, 3] - 1e-12)

    def test_d_min_monotone_in_counts(self):
        # more photons never hurt: d_min nonincreasing over N
        d_mins = []
        for n_events in (1e3, 1e4, 1e5):
            cfg = slit_scan_config(amin=0.9, n_events=n_events,
                                   grid=(0.3, 0.45, 0.6, 0.75, 0.9))
            res = run_resolution_scan(cfg, None)
            d_mins.append(res["summary"]["d_min_corr"])
        assert d_mins[0] >= d_mins[1] >= d_mins[2]

    def test_region_d_small_scale(self):
        # with fixed correlation length, the plain bound degrades as the
        # pixels grow past it, while the corrected bound grows more slowly
        pattern = [1, 1, 0, 0, 1, 1]
        cfg = {
            "model": {"variant": "BiphotonG2",
                      "params": {"N": 5e4, "M": 6, "d": 0.4, "d_R": 1.0,
                                 "sigma_c": 0.12}},
            "amplitudes": pattern,
            "d_grid": [0.4, 0.55, 0.7, 0.85, 1.0, 1.2],
            "threshold": 0.1,
            "mc_samples": 0,
            "seed": 1,
        }
        res = run_resolution_scan(cfg, None)
        t = res["table"]
        std, corr = t[:, 1], t[:, 2]
        tail = slice(-3, None)                    # largest-d tail of the grid
        assert np.all(np.diff(std[tail]) > 0)     # monotone growth, region D
        assert np.all(np.diff(corr[tail]) < np.diff(std[tail]))


class TestFimReport:
    def test_round_trip_and_eigenspectrum(self, tmp_path):
        cfg = {"model": {"variant": "Uniform1",
                         "params": {"N": 200, "eta": 0.7, "n": 2}},
               "theta": [0.5]}
        res = run_fim_report(cfg, tmp_path)
        payload = res["payload"]
        assert payload["fim"]["matrix"] == [4 * 200 * 0.7 ** 2]
        assert payload["fim_corrected"]["matrix"] == [4 * 200 * 0.7 ** 2]
        re_read = json.loads((tmp_path / "fim_report.json").read_text())
        assert re_read == json.loads(res["json"])
        back = ck.FisherMatrix.from_json(re_read["fim"])
        assert np.array_equal(back.matrix,
                              ck.FisherMatrix.from_json(payload["fim"]).matrix)

    def test_dark_object_eigenspectrum(self):
        cfg = {"model": {"variant": "SlitArray",
                         "params": {"N": 2000, "M": 5, "d": 0.5, "d_R": 1.0,
                                    "reference": [1, 1, 0, 0, 1]}},
               "theta": [1, 1, 0, 0, 1]}
        res = run_fim_report(cfg, None)
        vals = np.asarray(res["payload"]["eigenvalues"])
        assert vals.min() < 1e-10 * vals.max()
        assert res["payload"]["total_variance"] == math.inf
        assert math.isfinite(res["payload"]["total_variance_corrected"])


def fim_report_errors(tmp_path, capsys, variant, params):
    """Run ``fim-report`` on a model with ``params`` overridden; the verb
    must fail with exit code 1. Returns its stderr lines."""
    base = {"TwoPixel": {"N": 1000, "eta": 0.7, "h0": 1.0, "h1": 0.8},
            "SlitArray": {"N": 100, "M": 3, "d": 0.5},
            "BiphotonG2": {"N": 100, "M": 3, "d": 0.5}}[variant]
    cfg = {"model": {"variant": variant, "params": dict(base, **params)},
           "theta": [0.5] * (2 if variant == "TwoPixel" else 3)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["fim-report", "--config", str(cfg_path),
                   "--out", str(tmp_path)])
    assert rc == 1
    return capsys.readouterr().err.splitlines()


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail the test on any Monte-Carlo draw: a bad config must end first."""
    import crbkit.scan as scan

    def forbidden(*args, **kwargs):
        raise AssertionError("sample_signal was called")

    monkeypatch.setattr(scan, "sample_signal", forbidden)


class TestCli:
    def test_ellipse_verb(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"kernel": [[4.0, 0.0], [0.0, 1.0]], "center": [0.2, 0.3]}))
        rc = cli_main(["ellipse", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "ellipse.json").read_text())
        assert doc["center"] == [0.2, 0.3]

    def test_error_curve_verb_with_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            dict(ERROR_CURVE_CFG, a_grid=[0.4, 0.6, 0.8], mc_samples=50)))
        rc = cli_main(["error-curve", "--config", str(cfg_path),
                       "--seed", "9", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "error_curve.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_photons", [1e9, 1e12, 1e30])
    def test_narrow_posterior_ends_cleanly(self, tmp_path, capsys,
                                           n_photons):
        # the posterior is far narrower than the coarse scan's grid step,
        # so a quadrature level can peak far from the scan's reference:
        # the curve converges with finite Monte-Carlo columns, or ends in
        # one error line, and never warns (weights against the coarse
        # scan's peak alone overflow at N = 1e12 and all vanish at 1e30)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(
            ERROR_CURVE_CFG, model={"variant": "Uniform1", "params": {
                "N": n_photons, "eta": 0.7, "n": 2}}, mc_samples=5, seed=1)))
        rc = cli_main(["error-curve", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        if rc == 0:
            assert err == []
            lines = (tmp_path / "error_curve.csv").read_text().splitlines()
            header = lines[0].split(",")
            for line in lines[1:]:
                row = dict(zip(header, map(float, line.split(","))))
                assert all(math.isfinite(row[k]) for k in (
                    "Delta_MLE_mc", "Delta_Bayes_mc", "bias_MLE",
                    "bias_Bayes"))
        else:
            assert (rc, err) == (1, ["error: posterior-mean quadrature did "
                                     "not converge"])

    def test_error_curve_low_count_object(self, tmp_path, capsys):
        # at N = 20 the shrink acts on both box constraints at some points
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": {"variant": "Uniform1",
                      "params": {"N": 20, "eta": 0.7, "n": 2}},
            "a_grid": [0, 0.25, 0.5, 0.75, 1], "mc_samples": 200}))
        rc = cli_main(["error-curve", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        assert (rc, capsys.readouterr().err) == (0, "")
        lines = (tmp_path / "error_curve.csv").read_text().splitlines()
        column = lines[0].split(",").index("F_corr")
        f_corr = [float(line.split(",")[column]) for line in lines[1:]]
        assert len(f_corr) == 5
        assert all(math.isfinite(f) and f > 0.0 for f in f_corr)

    def test_failure_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"kernel": [[1.0, 0.0], [0.0, 0.0]], "center": [0, 0]}))
        rc = cli_main(["ellipse", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        assert rc == 1

    def test_singular_estimate_cloud(self, tmp_path, capsys):
        # N = 1 at (0.05, 0.05): every draw is zero, so every estimate is
        # the same point and the cloud covariance vanishes
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"model": SCATTER_CFG["model"],
             "cases": [{"a": [0.05, 0.05], "N": 1}], "mc_samples": 5}))
        rc = cli_main(["scatter-2d", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "singular covariance" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert cli_main(["ellipse", "--config", str(path)]) == 1
        assert "missing.json" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{kernel: [[1, 0], [0, 1]]")
        assert cli_main(["ellipse", "--config", str(cfg_path)]) == 1
        assert "bad.json is not valid JSON" in capsys.readouterr().err

    def test_top_level_not_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[[1, 0], [0, 1]]")
        assert cli_main(["ellipse", "--config", str(cfg_path)]) == 1
        assert "list.json must hold a JSON object" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": ERROR_CURVE_CFG["model"]}))
        rc = cli_main(["error-curve", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "missing required key 'a_grid'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, config, message", [
        # NaN fails every comparison, so an ordering check alone passes it
        ("error-curve", dict(ERROR_CURVE_CFG, a_grid=[0.1, math.nan, 0.5]),
         "a_grid must hold only finite values"),
        ("resolution-scan", slit_scan_config(grid=(0.4, math.nan)),
         "d_grid must hold only finite values"),
        ("error-curve", dict(ERROR_CURVE_CFG, a_grid=[0.1, "x"]),
         "a_grid must be a list of numbers"),
        ("resolution-scan", dict(slit_scan_config(), d_grid=0.5),
         "d_grid must be a list of numbers"),
        # bias slopes need 3 points; np.gradient assumes one uniform step
        ("error-curve", dict(ERROR_CURVE_CFG, a_grid=[0.0, 1.0]),
         "a_grid must hold at least 3 values"),
        ("error-curve", dict(ERROR_CURVE_CFG, a_grid=[0.0, 0.1, 0.5, 1.0]),
         "a_grid must be uniformly spaced"),
        # true values outside the box end before the first point is sampled
        ("error-curve", dict(ERROR_CURVE_CFG, a_grid=[0.5, 1.0, 1.5]),
         "a_grid must lie in the model's box [0, 1]"),
    ])
    def test_malformed_grid(self, tmp_path, capsys, no_sampling, verb, config,
                            message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli_main([verb, "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("verb, config, largest", [
        ("scatter-2d", dict(SCATTER_CFG, cases=[{"a": [0.5, 0.5], "N": 1e20}]),
         "9.9225e+18"),
        ("error-curve", dict(ERROR_CURVE_CFG, a_grid=[0.4, 0.5, 0.6], model={
            "variant": "Uniform1", "params": {"N": 1e300, "eta": 0.7, "n": 2}}),
         "1.2544e+298"),
    ])
    def test_unsampleable_mean(self, tmp_path, capsys, verb, config, largest):
        # NumPy's Poisson sampler accepts means up to about 9.2e18
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli_main([verb, "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: Poisson means must lie in [0, 9.22337e+18]; the largest "
            f"is {largest}"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("verb, config, message", [
        # sizes that fail at allocation: 10**15 rows of int64 exceed the
        # address space, and 10**20 exceeds NumPy's dimension limit
        ("error-curve", dict(ERROR_CURVE_CFG, mc_samples=10 ** 15),
         f"too many samples for an array: {10 ** 15}"),
        ("error-curve", dict(ERROR_CURVE_CFG, mc_samples=10 ** 20),
         f"too many samples for an array: {10 ** 20}"),
        ("scatter-2d", dict(SCATTER_CFG, mc_samples=10 ** 15),
         f"too many samples for an array: {10 ** 15}"),
        ("resolution-scan", slit_scan_config(mc=10 ** 15, grid=(0.5,)),
         f"too many samples for an array: {10 ** 15}"),
        ("resolution-scan", dict(slit_scan_config(mc=2, grid=(0.5,)),
                                 ls_starts=10 ** 15),
         f"too many starting points: {10 ** 15}"),
        ("resolution-scan", dict(slit_scan_config(mc=2, grid=(0.5,)),
                                 ls_starts=10 ** 20),
         f"too many starting points: {10 ** 20}"),
    ])
    def test_count_too_large_for_an_array(self, tmp_path, capsys, verb,
                                          config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        rc = cli_main([verb, "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, under):
        # rejected before the config is read: this one does not exist
        blocker = tmp_path / "file.csv"
        blocker.write_text("kept\n")
        out = blocker / "sub" if under else blocker
        rc = cli_main(["ellipse", "--config", str(tmp_path / "missing.json"),
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {out}: {blocker} is not a directory"]
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [
        ["ellipse", "--out", "out"],
        ["ellipse", "--config", "cfg.json", "--bogus", "1"],
        ["ellipse", "--config", "cfg.json", "--threads", "abc"],
        [],
    ], ids=["missing-config", "unknown-flag", "threads-not-int", "no-verb"])
    def test_usage_error_is_one_line(self, tmp_path, capsys, monkeypatch,
                                     argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"kernel": [[4.0, 0.0], [0.0, 1.0]]}))
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_verb_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["ellipse", "-h"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_unwritable_output_is_one_line(self, tmp_path, capsys):
        # a directory where the output file goes: the write itself fails
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kernel": [[4.0, 0.0], [0.0, 1.0]]}))
        (tmp_path / "ellipse.json").mkdir()
        rc = cli_main(["ellipse", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(tmp_path / "ellipse.json") in err[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_shrink_kernel(self, tmp_path, capsys):
        config = {"model": {"variant": "SlitArray",
                            "params": {"N": 1e300, "M": 2, "d": 0.5}},
                  "amplitudes": [1, 1], "d_grid": [0.5], "mc_samples": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli_main(["resolution-scan", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: shrink step overflows the kernel; rescale the model "
            "(e.g. a smaller N)"]

    @pytest.mark.parametrize("verb, config, extra, message", [
        ("error-curve", dict(ERROR_CURVE_CFG, mc_samples="many"), [],
         "mc_samples must be a number, not 'many'"),
        ("error-curve", dict(ERROR_CURVE_CFG, mc_samples=-5), [],
         "mc_samples must be a whole number >= 2, not -5"),
        ("error-curve", dict(ERROR_CURVE_CFG, mc_samples=2.7), [],
         "mc_samples must be a whole number >= 2, not 2.7"),
        ("error-curve", ERROR_CURVE_CFG, ["--seed", "-3"],
         "seed must be a whole number >= 0, not -3"),
        ("scatter-2d", dict(SCATTER_CFG, seed=math.nan), [],
         "seed must be finite, not nan"),
        ("scatter-2d", dict(SCATTER_CFG, cases=[{"a": [0.5, 0.5], "N": "x"}]),
         [], "case 0: N must be a number, not 'x'"),
        ("scatter-2d", dict(SCATTER_CFG, cases=[{"a": [0.9, 0.9],
                                                  "mc_samples": 1}]),
         [], "case 0: mc_samples must be a whole number >= 2, not 1"),
        ("resolution-scan", dict(slit_scan_config(), threshold=math.inf), [],
         "threshold must be finite, not inf"),
        ("resolution-scan", dict(slit_scan_config(), ls_starts=True), [],
         "ls_starts must be a number, not True"),
        ("resolution-scan", dict(slit_scan_config(), mc_samples=[10]), [],
         "mc_samples must be a number, not [10]"),
        ("error-curve", ERROR_CURVE_CFG, ["--seed", str(2 ** 64 - 1)],
         f"seed must be below 2**63, not {2 ** 64 - 1}"),
        # one sample has no covariance: off (0) or at least 2
        ("resolution-scan", dict(slit_scan_config(), mc_samples=1), [],
         "mc_samples must be 0 (off) or a whole number >= 2, not 1"),
        # a worker count below 1 is an error, not a sequential run
        ("resolution-scan", slit_scan_config(), ["--threads", "0"],
         "--threads must be at least 1, not 0"),
        ("resolution-scan", slit_scan_config(), ["--threads", "-1"],
         "--threads must be at least 1, not -1"),
        ("ellipse", {"kernel": [[1.0, 0.0], [0.0, 1.0]]}, ["--threads", "-3"],
         "--threads must be at least 1, not -3"),
        # an integer beyond the float range is not finite either
        pytest.param("resolution-scan",
                     dict(slit_scan_config(), threshold=10 ** 400), [],
                     f"threshold must be finite, not {10 ** 400!r}",
                     id="threshold-beyond-float-range"),
        pytest.param("scatter-2d",
                     dict(SCATTER_CFG, cases=[{"a": [0.5, 0.5],
                                               "N": 10 ** 400}]), [],
                     f"case 0: N must be finite, not {10 ** 400!r}",
                     id="case-N-beyond-float-range"),
    ])
    def test_malformed_scalar(self, tmp_path, capsys, no_sampling, verb,
                              config, extra, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli_main([verb, "--config", str(cfg_path), "--out", str(tmp_path)]
                      + extra)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("verb, config, message", [
        ("resolution-scan", dict(slit_scan_config(), amplitudes="abc"),
         "amplitudes must be a list of numbers"),
        ("resolution-scan", dict(slit_scan_config(), amplitudes=[1, "x"]),
         "amplitudes must be a list of numbers"),
        ("resolution-scan", dict(slit_scan_config(),
                                 amplitudes=[1, 1, math.nan, 1, 1]),
         "amplitudes must hold only finite values"),
        ("fim-report", {"model": ERROR_CURVE_CFG["model"], "theta": "x"},
         "theta must be a list of numbers"),
        ("fim-report", {"model": ERROR_CURVE_CFG["model"]},
         "config is missing required key 'theta'"),
        ("ellipse", {"kernel": "abc"},
         "kernel must be a list of number lists"),
        ("ellipse", {"kernel": [[1.0, 0.0], [0.0]]},
         "kernel must be a list of number lists"),
        ("ellipse", {"kernel": [[1.0, 0.0], [0.0, 1.0]], "center": "x"},
         "center must be a list of numbers"),
        ("scatter-2d", dict(SCATTER_CFG, cases=[{"a": "abc"}]),
         "case 0: a must be a list of numbers"),
        ("scatter-2d", dict(SCATTER_CFG, cases=[{"a": [0.5]}]),
         "case 0: a must hold 2 numbers"),
        ("scatter-2d", dict(SCATTER_CFG, cases=3),
         "cases must be a non-empty list"),
        ("scatter-2d", dict(SCATTER_CFG, cases=[]),
         "cases must be a non-empty list"),
        ("scatter-2d", dict(SCATTER_CFG, cases=[3]),
         "case 0 must be an object"),
        ("resolution-scan", dict(slit_scan_config(), estimator_domain="boxx"),
         "estimator_domain must be 'box' or 'unconstrained', not 'boxx'"),
        ("resolution-scan", dict(slit_scan_config(mc=4), annotations=[0.42]),
         "annotations must be an object"),
        ("scatter-2d", dict(SCATTER_CFG, cases=[{"a": [0.5, 0.5]},
                                                {"a": [1.2, 0.5]}]),
         "case 1: a must lie in the model's box [0, 1]"),
        ("resolution-scan", dict(slit_scan_config(mc=4),
                                 amplitudes=[1, 1, -0.5, 1, 1]),
         "amplitudes must lie in the model's box [0, 1]"),
        ("fim-report", {"model": SCATTER_CFG["model"], "theta": [1.3, 0.5]},
         "theta must lie in the model's box [0, 1]"),
        # the symmetry rule of FisherMatrix, not a silent symmetrization
        pytest.param("ellipse", {"kernel": [[4, 3], [0, 1]]},
                     "kernel is not symmetric to 1e-12 relative",
                     id="asymmetric-ellipse-kernel"),
    ])
    def test_malformed_vector(self, tmp_path, capsys, no_sampling, verb,
                              config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli_main([verb, "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_scatter_validates_every_case_before_sampling(self, monkeypatch):
        import crbkit.scan as scan
        draws = []
        real = scan.sample_signal

        def counting(*args, **kwargs):
            draws.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scan, "sample_signal", counting)
        cfg = dict(SCATTER_CFG, cases=[{"a": [0.5, 0.5]},
                                       {"a": [0.9, 0.9], "mc_samples": 1}])
        with pytest.raises(ck.ConfigError, match="case 1: mc_samples"):
            run_scatter_2d(cfg, None)
        assert draws == []

    @pytest.mark.parametrize("verb, config", [
        ("error-curve", ERROR_CURVE_CFG),
        ("scatter-2d", SCATTER_CFG),
        ("resolution-scan", slit_scan_config()),
        ("fim-report", {"model": ERROR_CURVE_CFG["model"], "theta": [0.5]}),
    ], ids=["error-curve", "scatter-2d", "resolution-scan", "fim-report"])
    @pytest.mark.parametrize("key, value, message", [
        ("params", 3, "model params must be an object"),
        ("params", [1, 2], "model params must be an object"),
        ("params", "x", "model params must be an object"),
        ("variant", ["TwoPixel"], "unknown model variant ['TwoPixel']"),
        # a misplaced parameter block must not be dropped without a word
        ("parms", {"n": 3}, "model document has unknown key 'parms'"),
        # the whole model replaced: a model document is an object in every
        # verb, even where a path or a JSON text names a valid one
        (None, 3, "model must be an object"),
        (None, "nosuchfile", "model must be an object"),
        (None, "model.json", "model must be an object"),
        (None, json.dumps(ERROR_CURVE_CFG["model"]),
         "model must be an object"),
        (None, [ERROR_CURVE_CFG["model"]], "model must be an object"),
    ], ids=["params-int", "params-list", "params-str", "variant-list",
            "unknown-key", "model-int", "model-missing-file", "model-path",
            "model-text", "model-list"])
    def test_malformed_model_document(self, tmp_path, capsys, monkeypatch,
                                      no_sampling, verb, config, key, value,
                                      message):
        cfg = dict(config)
        if key is None:
            cfg["model"] = value
        else:
            cfg["model"] = dict(config["model"], **{key: value})
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.json").write_text(json.dumps(config["model"]))
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rc = cli_main([verb, "--config", "cfg.json", "--out", "out"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params, extra, message", [
        ({"step_factor": 0.4}, {},
         "step_factor must be 1/r for a whole number r >= 1, not 0.4"),
        ({"sigma_c": 0}, {},
         "N, d, d_R and sigma_c must be positive"),
        ({"bogus": 1}, {},
         "unknown parameters for BiphotonG2: ['bogus']"),
        ({}, {"amplitudes": [1, 0, 1]},
         "reference amplitudes must have length M"),
        ({"d_R": "x"}, {}, "model: d_R must be a number, not 'x'"),
        # NumPy refuses this grid by its length, before allocating
        ({"step_factor": 1e-300}, {},
         "detector grid is too large for an array length: pad_factor 2.0, "
         "step_factor 1e-300"),
    ], ids=["step_factor", "sigma_c", "unknown", "amplitudes", "d_R",
            "grid-length"])
    def test_scan_checks_model_before_any_point(self, tmp_path, capsys,
                                                monkeypatch, params, extra,
                                                message):
        import crbkit.scan as scan
        points = []
        real = scan._scan_point

        def counting(*args, **kwargs):
            points.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scan, "_scan_point", counting)
        cfg = biphoton_scan_config([1, 0, 1, 1], (0.5, 0.8))
        cfg["model"]["params"].update(params)
        cfg.update(extra)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main(["resolution-scan", "--config", str(cfg_path),
                       "--out", str(tmp_path), "--threads", "2"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert points == []

    @pytest.mark.parametrize("variant, params, message", [
        ("TwoPixel", {"h0": "x"}, "h0 must be a finite number, not 'x'"),
        ("TwoPixel", {"N": True}, "N must be a finite number, not True"),
        ("TwoPixel", {"eta": None}, "eta must be a finite number, not None"),
        ("TwoPixel", {"h1": [0.8]}, "h1 must be a finite number, not [0.8]"),
        ("TwoPixel", {"N": math.nan}, "N must be a finite number, not nan"),
        ("TwoPixel", {"h0": math.inf}, "h0 must be a finite number, not inf"),
        ("TwoPixel", {"N": 10 ** 400},
         f"N must be a finite number, not {10 ** 400!r}"),
        ("SlitArray", {"d_R": "1"}, "d_R must be a finite number, not '1'"),
        ("SlitArray", {"reference": ["x", 1, 1]}, None),
        ("SlitArray", {"reference": [1, True, 1]}, None),
        ("SlitArray", {"reference": [1, math.nan, 1]}, None),
        ("SlitArray", {"reference": [[1, 1, 1]]}, None),
        ("SlitArray", {"reference": "abc"}, None),
    ], ids=["h0-str", "N-bool", "eta-null", "h1-list", "N-nan", "h0-inf",
            "N-huge-int", "d_R-str", "reference-str-entry",
            "reference-bool-entry", "reference-nan-entry", "reference-nested",
            "reference-str"])
    def test_malformed_model_parameter(self, tmp_path, capsys, variant,
                                       params, message):
        if message is None:
            message = "reference must be a flat list of finite numbers"
        assert fim_report_errors(tmp_path, capsys, variant, params) == [
            f"error: model parameter {message}"]

    @pytest.mark.parametrize("variant, params, message", [
        ("SlitArray", {"M": 4.5}, "M must be a whole number >= 1, not 4.5"),
        ("BiphotonG2", {"M": 0}, "M must be a whole number >= 1, not 0"),
        ("SlitArray", {"step_factor": 0},
         "step_factor must be 1/r for a whole number r >= 1, not 0"),
        ("SlitArray", {"step_factor": 0.4},
         "step_factor must be 1/r for a whole number r >= 1, not 0.4"),
        ("SlitArray", {"M": 1e300},
         "M is too large for an array length: 1e+300"),
        ("BiphotonG2", {"M": 2 ** 62},
         f"M is too large for an array length: {2 ** 62}"),
        ("SlitArray", {"pad_factor": -0.5},
         "pad_factor must be a finite number >= 0, not -0.5"),
        ("BiphotonG2", {"M": 2, "pad_factor": -1.0},
         "pad_factor must be a finite number >= 0, not -1.0"),
    ], ids=["M-fraction", "M-zero", "step_factor-zero",
            "step_factor-not-1/r", "M-huge-float", "M-huge-int",
            "pad_factor-negative", "pad_factor-empty-grid"])
    def test_malformed_pixel_geometry(self, tmp_path, capsys, variant,
                                      params, message):
        assert fim_report_errors(tmp_path, capsys, variant, params) == [
            f"error: {message}"]

    @pytest.mark.parametrize("verb, extra", [
        ("fim-report", {"theta": [0.5]}),
        ("error-curve", {"a_grid": [0.4, 0.5, 0.6], "mc_samples": 2})])
    def test_photon_number_with_overflowing_square(self, tmp_path, capsys,
                                                   verb, extra):
        # 4 n^2 in the axis profile would overflow a float
        cfg = dict(extra, model={"variant": "Uniform1", "params": {
            "N": 200, "eta": 0.7, "n": 1e300}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main([verb, "--config", str(cfg_path), "--out",
                       str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: n is too large for its square to be a float: 1e+300"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fisher_entry_above_half_range(self, tmp_path, capsys):
        # F = 4 n^2 N eta^n A^(2n - 2) = 1.3e308, whose F + F^T overflows
        cfg = {"model": {"variant": "Uniform1",
                         "params": {"N": 1e307, "eta": 1, "n": 2}},
               "theta": [0.9]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main(["fim-report", "--config", str(cfg_path), "--out",
                       str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: matrix has an entry of 1.296e+308, above half the float "
            "range"]

    @pytest.mark.parametrize("variant", ["SlitArray", "BiphotonG2"])
    def test_whole_float_pixel_count_accepted(self, tmp_path, variant):
        reports = []
        for m in (3, 3.0):
            cfg = {"model": {"variant": variant,
                             "params": {"N": 100, "M": m, "d": 0.5}},
                   "theta": [0.5, 0.2, 0.9]}
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"out-{m!r}"
            assert cli_main(["fim-report", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            reports.append((out / "fim_report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[1])["model"]["params"]["M"] == 3

    def test_cli_import_loads_no_scipy_stats_or_optimize(self):
        # In a fresh interpreter (this process has imported scipy already),
        # ``import crbkit.cli`` loads no scipy module at all, and loads
        # numpy.random and numpy.polynomial itself rather than on first use
        # inside a CLI verb.
        probe = ("import json, sys, crbkit.cli; print(json.dumps(sorted("
                 "m for m in sys.modules if m.split('.')[0] == 'scipy'"
                 " or m in ('numpy.random', 'numpy.polynomial'))))")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == ["numpy.polynomial", "numpy.random"]
        # No crbkit module imports scipy, at module level or in a function.
        import ast
        from pathlib import Path

        for path in Path(ck.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), (
                    path.name, names)

    def test_runs_without_scipy(self, tmp_path):
        # SciPy is a test-only dependency: with it blocked, the brute-force
        # oracles and all five verbs run on small configs
        configs = [
            ("ellipse", {"kernel": [[4.0, 0.0], [0.0, 1.0]]}),
            ("fim-report", {"model": ERROR_CURVE_CFG["model"],
                            "theta": [0.5]}),
            ("error-curve", dict(ERROR_CURVE_CFG, mc_samples=20)),
            ("scatter-2d", dict(SCATTER_CFG, cases=[{"a": [0.5, 0.5]}],
                                mc_samples=20)),
            ("resolution-scan", slit_scan_config(grid=(0.6,))),
        ]
        probe = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import crbkit as ck\n"
            "from crbkit.cli import main\n"
            "m = ck.Uniform1Model(N=200, eta=0.7, n=2)\n"
            "ck.fim_bruteforce(m, [0.5])\n"
            "ck.optimal_bias_check(m, n_perturb=2)\n"
            "for verb, cfg, out in json.loads(sys.argv[1]):\n"
            "    assert main([verb, '--config', cfg, '--out', out]) == 0\n")
        runs = []
        for verb, cfg in configs:
            cfg_path = tmp_path / f"{verb}.json"
            cfg_path.write_text(json.dumps(cfg))
            runs.append((verb, str(cfg_path), str(tmp_path / verb)))
        proc = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_console_entry_point(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"kernel": [[1.0, 0.0], [0.0, 2.0]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "crbkit.cli", "ellipse",
             "--config", str(cfg_path), "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0

    @pytest.mark.parametrize("verb, config, message", [
        # a misspelled key must not fall back to its default (10 000 draws)
        ("error-curve", dict(ERROR_CURVE_CFG, mc_sample=3),
         "config has unknown key 'mc_sample'"),
        ("scatter-2d", dict(SCATTER_CFG, sed=1),
         "config has unknown key 'sed'"),
        # a later case is checked before the first is sampled
        ("scatter-2d", dict(SCATTER_CFG, cases=[{"a": [0.5, 0.5]},
                                                {"a": [0.9, 0.9], "n": 50}]),
         "case 1 has unknown key 'n'"),
        ("resolution-scan", dict(slit_scan_config(mc=4), treshold=0.2,
                                 ls_start=2),
         "config has unknown key 'ls_start'"),
        ("fim-report", {"model": ERROR_CURVE_CFG["model"], "theta": [0.5],
                        "domain": [0, 2]},
         "config has unknown key 'domain'"),
        ("ellipse", {"kernel": [[1.0, 0.0], [0.0, 1.0]], "centre": [0, 0]},
         "config has unknown key 'centre'"),
    ])
    def test_unknown_key(self, tmp_path, capsys, no_sampling, verb, config,
                         message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        rc = cli_main([verb, "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_only_finite_annotations_are_drawn(self, tmp_path):
        # an integer beyond the float range and a boolean are echoed in the
        # summary but not drawn; the scan writes all three files
        cfg = dict(slit_scan_config(grid=(0.4, 0.8, 1.2)),
                   annotations={"paper": 0.5, "huge": 10 ** 400, "flag": True})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli_main(["resolution-scan", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert (out / "resolution_scan.csv").stat().st_size > 0
        summary = json.loads((out / "resolution_scan.json").read_text())
        assert summary["annotations"] == cfg["annotations"]
        svg = (out / "resolution_scan.svg").read_text()
        assert svg.count('stroke="#999999"') == 1

    @pytest.mark.parametrize("verb, config", [
        ("fim-report", {"model": ERROR_CURVE_CFG["model"], "theta": [0.5]}),
        ("ellipse", {"kernel": [[1.0, 0.0], [0.0, 1.0]]}),
    ])
    def test_seed_flag_accepted_by_every_verb(self, tmp_path, verb, config):
        # --seed is a global flag, so every verb reads "seed" as a key
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert cli_main([verb, "--config", str(cfg_path), "--seed", "4",
                         "--out", str(tmp_path / "out")]) == 0
