"""Parameter sweeps: slope fitting, study outputs, and determinism."""

import numpy as np
import pytest

from liftlab.errors import InvalidParameter
from liftlab.studies import (
    GAMMA_HEADER,
    RTP_SCALING_HEADER,
    constants_report,
    gamma_study,
    loglog_slope,
    rtp_scaling_study,
    spearman_rho,
)


class TestLoglogSlope:
    def test_exact_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        slope, err = loglog_slope(xs, 3.0 * xs**2)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-10)

    def test_noisy_slope_has_stderr(self):
        rng = np.random.default_rng(0)
        xs = np.geomspace(1.0, 100.0, 20)
        ys = xs ** -1.0 * np.exp(0.05 * rng.normal(size=20))
        slope, err = loglog_slope(xs, ys)
        assert slope == pytest.approx(-1.0, abs=0.1)
        assert err > 0

    def test_too_few_points(self):
        with pytest.raises(InvalidParameter, match="at least two points"):
            loglog_slope([1.0], [1.0])


class TestRtpScalingStudy:
    def test_small_sweep_structure_and_csv(self, tmp_path):
        out = tmp_path / "rtp.csv"
        res = rtp_scaling_study(
            [0.1, 0.05], L=1.0, n_grid=60, output=str(out), with_sim=False
        )
        assert len(res["rows"]) == 2
        # rows come back sorted by omega
        assert res["rows"][0]["omega"] == 0.05
        assert "slope_low" in res and "slope_low_stderr" in res
        assert all(r["upper_bound_ok"] for r in res["rows"])
        assert all(r["nu_hat"] > 0 for r in res["rows"])
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith(f"# config_hash={res['config_hash']}")
        assert lines[1] == RTP_SCALING_HEADER
        assert len(lines) == 4
        # no numpy reprs leak into the table
        float(lines[2].split(",")[3])

    def test_ballistic_slope_on_small_window(self, tmp_path):
        res = rtp_scaling_study([0.05, 0.1, 0.2], L=1.0, n_grid=60, with_sim=False)
        assert res["slope_low"] == pytest.approx(1.0, abs=0.2)

    def test_deterministic_rerun(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        rtp_scaling_study([0.1], L=1.0, n_grid=40, output=str(a), with_sim=False)
        rtp_scaling_study([0.1], L=1.0, n_grid=40, output=str(b), with_sim=False)
        assert a.read_bytes() == b.read_bytes()

    def test_collapse_window_rule(self):
        res = rtp_scaling_study(
            [0.1], L=1.0, n_grid=40, T_rule="collapse", with_sim=False
        )
        m = res["rows"][0]["gap_collapse"]
        assert res["rows"][0]["T"] == pytest.approx(m**-0.5)


class TestSpearmanRho:
    def test_matches_scipy_on_criterion_09_rows(self):
        stats = pytest.importorskip("scipy.stats")
        gammas = np.sqrt(0.5) * np.logspace(-1.0, 1.5, 11)
        res = gamma_study("zigzag_1d_discrete", 1.0, gammas, n_grid=120)
        nus = [r["nu_hat"] for r in res["rows"]]
        preds = [r["nu_formula"] for r in res["rows"]]
        rho = spearman_rho(nus, preds)
        assert abs(rho - stats.spearmanr(nus, preds).statistic) <= 1e-12
        assert res["spearman_rho"] == rho
        assert rho == pytest.approx(-0.682, abs=5e-4)

    def test_ties_get_average_ranks(self):
        stats = pytest.importorskip("scipy.stats")
        x = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        y = [2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4]
        assert abs(spearman_rho(x, y) - stats.spearmanr(x, y).statistic) <= 1e-12
        assert spearman_rho([1, 2, 2, 3], [10, 20, 20, 30]) == pytest.approx(1.0)


class TestGammaStudy:
    def test_discrete_sweep_outputs(self, tmp_path):
        out = tmp_path / "gamma.csv"
        gammas = [0.3, 0.7, 2.0]
        res = gamma_study("zigzag_1d_discrete", 1.0, gammas, output=str(out), n_grid=40)
        assert [r["gamma"] for r in res["rows"]] == sorted(gammas)
        assert res["gamma_star"] in gammas
        assert res["nu_star"] > 0
        assert 0.0 < res["edge_ratio"] <= 1.0
        assert res["sqrt_m_collapse"] == pytest.approx(np.sqrt(0.5))
        lines = out.read_text().strip().split("\n")
        assert lines[1] == GAMMA_HEADER
        assert len(lines) == 2 + len(gammas)

    def test_peak_near_sqrt_collapse_gap(self):
        # for U = x^2/2 the measured optimum sits at sqrt(m/2)
        s = np.sqrt(0.5)
        gammas = s * np.array([0.25, 1.0, 4.0])
        res = gamma_study("zigzag_1d_discrete", 1.0, gammas, n_grid=60)
        assert res["gamma_star"] == pytest.approx(s)

    def test_unknown_process(self):
        with pytest.raises(InvalidParameter, match="process 'bogus' not in"):
            gamma_study("bogus", 1.0, [1.0])

    def test_deterministic_rerun(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        gamma_study("zigzag_1d_discrete", 1.0, [0.5, 1.0], output=str(a), n_grid=30)
        gamma_study("zigzag_1d_discrete", 1.0, [0.5, 1.0], output=str(b), n_grid=30)
        assert a.read_bytes() == b.read_bytes()


class TestConstantsReport:
    def test_entries_and_artifact(self, tmp_path):
        out = tmp_path / "constants.json"
        entries = [
            {"process": "rtp", "m": 0.5, "gamma": 1.0},
            {"process": "zigzag_hypercube", "m": 0.5, "gamma": 1.0, "coeffs": [1.0]},
            {"process": "forward", "m": 0.5, "gamma": 1.0, "coeffs": [1.0]},
        ]
        rep = constants_report(entries, output=str(out))
        assert len(rep["entries"]) == 3
        by_process = {e["process"]: e for e in rep["entries"]}
        assert by_process["rtp"]["C1"] == 1.0
        assert by_process["rtp"]["m_v"] == 2.0
        # every closed-form rate is positive and finite
        assert all(0 < e["nu_formula"] < np.inf for e in rep["entries"])
        import json

        payload = json.loads(out.read_text())
        assert len(payload["entries"]) == 3

    def test_forward_zigzag_rate_ratio_independent_of_m(self):
        # with K = 0, a = 0, b = m both formulas scale identically in m
        def ratio(m):
            rep = constants_report(
                [
                    {"process": "forward", "m": m / 2.0, "gamma": np.sqrt(m / 2.0),
                     "coeffs": [m]},
                    {"process": "zigzag_hypercube", "m": m / 2.0,
                     "gamma": np.sqrt(m / 2.0), "coeffs": [m]},
                ]
            )
            e = rep["entries"]
            return e[0]["nu_formula"] / e[1]["nu_formula"]

        assert ratio(1.0) == pytest.approx(ratio(9.0), rel=1e-9)
