"""Command-line interface: config parsing, exit codes, artifacts."""

import json
import os

import numpy as np
import pytest

from liftlab.cli import RunConfig, main, parse_config
from liftlab.errors import ConfigError
from liftlab.io_utils import atomic_write_text, config_hash


class TestIoUtils:
    def test_atomic_write_creates_file(self, tmp_path):
        p = tmp_path / "x.txt"
        atomic_write_text(str(p), "hello\n")
        assert p.read_text() == "hello\n"
        # no temp litter left behind
        assert [q.name for q in tmp_path.iterdir()] == ["x.txt"]

    def test_atomic_write_replaces(self, tmp_path):
        p = tmp_path / "x.txt"
        atomic_write_text(str(p), "a")
        atomic_write_text(str(p), "b")
        assert p.read_text() == "b"

    def test_config_hash_stable_and_order_free(self):
        a = config_hash({"x": 1, "y": [1, 2]})
        b = config_hash({"y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 16
        assert a != config_hash({"x": 2, "y": [1, 2]})


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config(["spectrum", "--process", "sticky-bm"])
        assert cfg.subcommand == "spectrum"
        assert cfg.values["n_interior"] == 200
        assert cfg.values["seed"] == 42
        assert cfg.values["omega"] == 1.0

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key 'process'"):
            parse_config(["spectrum"])

    def test_conditional_requirement(self):
        with pytest.raises(ConfigError, match="missing required key 'omega'"):
            parse_config(["simulate", "--process", "rtp", "--t-end", "10"])

    def test_bad_choice(self):
        with pytest.raises(TypeError):
            parse_config(["spectrum", "--process", "nope"])

    def test_nonpositive_rejected(self):
        with pytest.raises(TypeError):
            parse_config(["spectrum", "--process", "sticky-bm", "--omega", "-2"])
        with pytest.raises(TypeError):
            parse_config(["flow-poincare", "--T", "-1"])

    def test_unparseable_value_names_key(self):
        with pytest.raises(TypeError, match="n_interior"):
            parse_config(["spectrum", "--process", "sticky-bm",
                          "--n-interior", "many"])

    def test_config_file_merged_and_flags_win(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"process": "sticky-bm", "omega": 3.0}))
        cfg = parse_config(["spectrum", "--config", str(f), "--omega", "5.0"])
        assert cfg.values["process"] == "sticky-bm"
        assert cfg.values["omega"] == 5.0

    def test_unknown_config_key(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"process": "sticky-bm", "bogus": 1}))
        with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
            parse_config(["spectrum", "--config", str(f)])

    def test_config_file_subcommand_mismatch(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"subcommand": "simulate", "process": "sticky-bm"}))
        with pytest.raises(ConfigError, match="config file is for subcommand 'simulate'"):
            parse_config(["spectrum", "--config", str(f)])

    def test_render_round_trip(self):
        cfg = parse_config(
            ["study", "--preset", "rtp-scaling", "--no-with-sim", "--n-grid", "50"]
        )
        again = parse_config(cfg.render())
        assert again == cfg
        assert again.hash == cfg.hash

    def test_hash_covers_subcommand(self):
        a = RunConfig("spectrum", {"omega": 1.0})
        b = RunConfig("simulate", {"omega": 1.0})
        assert a.hash != b.hash


class TestMainExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["spectrum"]) == 2
        assert main(["spectrum", "--process", "nope"]) == 2
        assert main(["bogus-subcommand"]) == 2
        capsys.readouterr()

    def test_help_is_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_threads_flag_removed(self, capsys):
        assert main(["spectrum", "--process", "sticky-bm", "--threads", "2"]) == 2
        capsys.readouterr()

    def test_threads_config_key_is_unknown(self, capsys, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"process": "sticky-bm", "threads": 2}))
        assert main(["spectrum", "--config", str(f)]) == 2
        assert "unknown config key 'threads'" in capsys.readouterr().err

    def test_missing_config_file_is_2(self, capsys):
        assert main(["spectrum", "--config", "/nonexistent.json"]) == 2
        capsys.readouterr()

    def test_io_error_is_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LIFTLAB_OUTPUT_DIR", str(tmp_path))
        code = main(["spectrum", "--process", "sticky-bm", "--n-interior", "20",
                     "--output", str(tmp_path / "no-such-dir" / "x.json")])
        assert code == 1
        capsys.readouterr()

    def test_spectrum_success_summary_and_artifact(self, capsys, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--process", "sticky-bm", "--n-interior", "50",
                     "--output", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["subcommand"] == "spectrum"
        assert summary["metrics"]["gap"] > 0
        assert summary["artifacts"] == [str(out)]
        payload = json.loads(out.read_text())
        assert payload["config_hash"] == summary["config_hash"]
        assert payload["gap"] == pytest.approx(summary["metrics"]["gap"])

    def test_simulate_csv_artifact(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--process", "zigzag", "--t-end", "50",
                     "--seed", "3", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "t,x0,v0,kind"
        # rows parse as floats (no numpy reprs)
        t0 = float(lines[2].split(",")[0])
        assert t0 == 0.0
        capsys.readouterr()

    def test_default_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LIFTLAB_OUTPUT_DIR", str(tmp_path))
        code = main(["spectrum", "--process", "sticky-bm", "--n-interior", "30"])
        assert code == 0
        assert (tmp_path / "spectrum.json").exists()
        capsys.readouterr()

    def test_rerun_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        args = ["spectrum", "--process", "overdamped", "--n-interior", "40",
                "--output", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        capsys.readouterr()

    def test_output_path_changes_neither_hash_nor_bytes(self, capsys, tmp_path):
        base = ["spectrum", "--process", "rtp", "--n-interior", "30", "--output"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(base + [str(a)]) == 0
        first = json.loads(capsys.readouterr().out.strip())
        assert main(base + [str(b)]) == 0
        second = json.loads(capsys.readouterr().out.strip())
        assert first["config_hash"] == second["config_hash"]
        assert a.read_bytes() == b.read_bytes()

    def test_lift_check_smoke(self, capsys, tmp_path):
        out = tmp_path / "lift.json"
        code = main(["lift-check", "--process", "rtp", "--n-interior", "60",
                     "--output", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["metrics"]["first_order_residual"] < 0.5
        payload = json.loads(out.read_text())
        assert payload["m_v"] == pytest.approx(2.0)

    def test_lift_check_does_not_depend_on_seed(self, capsys, tmp_path):
        reports = []
        for seed in (1, 42, 1000):
            out = tmp_path / f"lift-{seed}.json"
            code = main(["lift-check", "--process", "zigzag", "--n-interior", "60",
                         "--seed", str(seed), "--output", str(out)])
            assert code == 0
            capsys.readouterr()
            reports.append(json.loads(out.read_text())["report"])
        assert reports[0] == reports[1] == reports[2]

    def test_seed_left_out_of_hash_where_unused(self, capsys, tmp_path):
        texts = []
        for seed in (1, 42):
            out = tmp_path / f"lift-{seed}.json"
            code = main(["lift-check", "--process", "zigzag", "--n-interior", "60",
                         "--seed", str(seed), "--output", str(out)])
            assert code == 0
            capsys.readouterr()
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        for sub in ("simulate", "divergence-check", "study"):
            assert RunConfig(sub, {"seed": 1}).hash != RunConfig(sub, {"seed": 42}).hash

    def test_divergence_check_smoke(self, capsys, tmp_path):
        out = tmp_path / "div.json"
        code = main(["divergence-check", "--n-interior", "60", "--n-rhs", "3",
                     "--output", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["metrics"]["worst_residual"] < 1e-8
        assert summary["metrics"]["bounds_ok"]

    def test_divergence_check_r3_worst_serializes(self, capsys, tmp_path):
        # at this seed r3 is the worst bound ratio; its comparison with the
        # threshold once produced a numpy bool that json.dumps rejected
        out = tmp_path / "div.json"
        code = main(["divergence-check", "--n-interior", "40", "--n-rhs", "5",
                     "--seed", "50", "--output", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["metrics"]["bounds_ok"] is True
        assert json.loads(out.read_text())["bounds_ok"] is True

    def test_flow_poincare_smoke(self, capsys, tmp_path):
        out = tmp_path / "flow.json"
        code = main(["flow-poincare", "--n-interior", "60", "--output", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["metrics"]["nu_hat"] > 0
        assert summary["metrics"]["decay_margin"] >= -1e-8
        assert summary["metrics"]["upper_bound_ok"]
