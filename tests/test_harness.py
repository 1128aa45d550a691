import json
import math
from pathlib import Path

import pytest

from plantedclique import (ConfigError, ExperimentConfig, LandscapeConfig,
                           load_graph, load_preset, parse_config, preset_names,
                           run_experiment, run_landscape, run_sweep,
                           write_config)
from plantedclique.cli import main
from plantedclique.harness import (RunSummary, config_text, parse_config_text,
                                   run_coupled_cells, run_peel_cells)


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(model="planted", n=150, k=30, chain="gd", gamma="4",
                tie_policy="halt", init="full", max_steps=400, seeds="0..2",
                out_dir=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigFormat:
    def test_round_trip_is_lossless(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds="0,2,5", tie_policy="drift:2",
                          init="explicit:1,2,3", gamma="7/2")
        path = tmp_path / "exp.cfg"
        write_config(path, cfg)
        back = parse_config(path)
        assert back == cfg
        # and a second round trip produces identical bytes
        write_config(tmp_path / "exp2.cfg", back)
        assert (tmp_path / "exp2.cfg").read_text() == path.read_text()

    def test_landscape_round_trip(self, tmp_path):
        cfg = LandscapeConfig(mode="scan", n=20, k=5, gamma="10",
                              m_values="3,4", budget=500, seeds="0..1",
                              out_dir=str(tmp_path))
        assert parse_config_text(config_text(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("task = run\nflavor = spicy\n")
        assert any(f == "flavor" for f, _ in err.value.errors)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("n = 5\nn = 6\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text(
            "# a comment\n\ntask = run\nmodel = planted\nn = 30\nk = 5\n"
            "max_steps = 10\nseeds = 0\n")
        assert cfg.n == 30

    def test_validation_collects_field_errors(self, tmp_path):
        cfg = tiny_config(tmp_path, n=0, k=5, gamma="1", max_steps=0,
                          seeds="", tie_policy="sometimes")
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        fields = {f for f, _ in err.value.errors}
        assert {"n", "gamma", "max_steps", "seeds", "tie_policy"} <= fields

    def test_model_specific_validation(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            tiny_config(tmp_path, model="er", k=3).validate()
        assert any(f == "k" for f, _ in err.value.errors)
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, model="contaminated", m=0).validate()
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, model="contaminated", m=10, q=0.3).validate()

    def test_seed_parsing(self, tmp_path):
        assert tiny_config(tmp_path, seeds="0..3").seed_list() == [0, 1, 2, 3]
        assert tiny_config(tmp_path, seeds="4,1,9").seed_list() == [4, 1, 9]
        assert tiny_config(tmp_path, seeds="2, 5..7").seed_list() == [2, 5, 6, 7]


class TestPresets:
    def test_presets_exist_and_validate(self):
        names = preset_names()
        assert {"fig1-left", "fig1-right", "robust", "gibbs-hold",
                "landscape-n12", "landscape-scan-n64", "kappa-table"} <= set(names)
        for name in names:
            cfg = load_preset(name)
            cfg.validate()

    def test_fig1_presets_match_figure_parameters(self):
        left = load_preset("fig1-left")
        assert (left.n, left.k, left.model) == (5000, 70, "planted")
        assert left.init == "full"
        right = load_preset("fig1-right")
        assert right.init == "empty" and right.tie_policy == "drift:1"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("does-not-exist")


class TestRunExperiment:
    def test_outputs_and_aggregates(self, tmp_path):
        cfg = tiny_config(tmp_path)
        summary = run_experiment(cfg)
        out = Path(cfg.out_dir)
        assert sorted(p.name for p in out.glob("traj_s*.csv")) == \
            ["traj_s0.csv", "traj_s1.csv", "traj_s2.csv"]
        payload = json.loads((out / "summary.json").read_text())
        assert payload["rows"] == summary.rows
        assert payload["aggregates"] == summary.aggregates
        assert payload["params"]["n"] == 150
        assert set(summary.rows[0]) >= {"seed", "absorbed", "reached_pc",
                                        "steps", "tau", "first_divergence",
                                        "retained_count"}
        # aggregates recomputable from the rows
        assert RunSummary.compute_aggregates(summary.rows) == summary.aggregates
        assert summary.aggregates["success_rate"] == 1.0

    def test_deterministic_and_parallel_identical(self, tmp_path):
        cfg1 = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg2 = tiny_config(tmp_path, out_dir=str(tmp_path / "b"), jobs=2)
        s1, s2 = run_experiment(cfg1), run_experiment(cfg2)
        assert s1.rows == s2.rows
        for name in ("traj_s0.csv", "traj_s1.csv", "traj_s2.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_er_model_runs(self, tmp_path):
        cfg = tiny_config(tmp_path, model="er", k=0, init="empty",
                          tie_policy="drift:1", seeds="0..1")
        summary = run_experiment(cfg)
        assert all(not r["reached_pc"] for r in summary.rows)

    def test_gibbs_run(self, tmp_path):
        cfg = tiny_config(tmp_path, chain="gibbs", beta=10 * math.log(150),
                          max_steps=600, hold_window=50, seeds="0..1")
        summary = run_experiment(cfg)
        assert summary.aggregates["success_rate"] == 1.0
        assert all(r["stop_reason"] == "held" for r in summary.rows)

    def test_sweep_gamma(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds="0..1")
        out = run_sweep(cfg, "gamma", ["2", "4"])
        assert set(out) == {"2", "4"}
        for value in ("2", "4"):
            d = tmp_path / "out" / f"gamma={value}"
            assert (d / "summary.json").exists()
            assert json.loads((d / "summary.json").read_text())["params"]["gamma"] == value

    def test_sweep_rejects_other_params(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(tiny_config(tmp_path), "n", ["10"])

    def test_sweep_beta_rejected_for_gd(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            run_sweep(tiny_config(tmp_path), "beta", ["1", "2"])
        assert [f for f, _ in err.value.errors] == ["param"]
        assert not (tmp_path / "out").exists()


class TestPeelAndCoupledCells:
    def test_peel_cells_outputs(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds="0..1")
        summary = run_peel_cells(cfg, stop_n2=10, c1=3.0)
        out = Path(cfg.out_dir)
        assert (out / "peel_s0.csv").exists()
        assert (out / "peel_counts_s1.csv").exists()
        diag = json.loads((out / "peel_diag_s0.json").read_text())
        assert diag["retained_count"] == summary.rows[0]["retained_count"]
        assert diag["tau0"] >= 1

    def test_coupled_cells_outputs(self, tmp_path):
        cfg = tiny_config(tmp_path, init="empty", tie_policy="drift:1",
                          max_steps=2000, seeds="0..2")
        summary = run_coupled_cells(cfg)
        out = Path(cfg.out_dir)
        assert (out / "coupled_planted_s0.csv").exists()
        assert (out / "coupled_unplanted_s2.csv").exists()
        for row in summary.rows:
            assert row["identical_before_tau"]


class TestLandscapeRunner:
    def test_kappa_table_values(self, tmp_path):
        cfg = LandscapeConfig(mode="kappa", gammas="2,3,9,19",
                              out_dir=str(tmp_path))
        rows = run_landscape(cfg)
        assert [r["kappa"] for r in rows] == ["2/3", "3/4", "9/10", "19/20"]
        text = (tmp_path / "kappa_table.csv").read_text().strip().split("\n")
        assert text[0] == "gamma,kappa,h_kappa"
        assert text[1].startswith("2,2/3,")

    def test_model_other_than_planted_rejected(self, tmp_path):
        for model in ("er", "contaminated", "planed"):
            cfg = LandscapeConfig(mode="scan", model=model, n=24, k=6,
                                  m_values="3", out_dir=str(tmp_path))
            with pytest.raises(ConfigError) as err:
                cfg.validate()
            assert [f for f, _ in err.value.errors] == ["model"]

    def test_brute_mode(self, tmp_path):
        cfg = LandscapeConfig(mode="brute", n=10, k=6, gamma="2", seeds="0..4",
                              out_dir=str(tmp_path))
        rows = run_landscape(cfg)
        assert len(rows) == 5
        payload = json.loads((tmp_path / "brute_force_summary.json").read_text())
        assert 0.0 <= payload["unique_pc_frequency"] <= 1.0
        lines = (tmp_path / "brute_force.csv").read_text().strip().split("\n")
        assert len(lines) == 6

    def test_scan_mode(self, tmp_path):
        cfg = LandscapeConfig(mode="scan", model="planted", n=24, k=6,
                              gamma="8", m_values="3..4", budget=3000,
                              seeds="0..1", out_dir=str(tmp_path))
        rows = run_landscape(cfg)
        assert len(rows) == 4
        lines = (tmp_path / "scan_s0.csv").read_text().strip().split("\n")
        assert lines[0] == "m,count_or_estimate,stderr,predicted_exponent,kappa,h_kappa,n,gamma"
        assert len(lines) == 3


class TestCli:
    def test_run_verb(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        path = tmp_path / "exp.cfg"
        write_config(path, cfg)
        assert main(["run", "--config", str(path)]) == 0
        assert "success_rate" in capsys.readouterr().out

    def test_run_rejects_invalid_config(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_text("task = run\nn = 0\nk = 0\nmodel = er\n")
        assert main(["run", "--config", str(tmp_path / "bad.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_run_requires_config_or_preset(self, capsys):
        assert main(["run"]) == 2

    def test_list_presets(self, capsys):
        assert main(["run", "--list-presets"]) == 0
        assert "fig1-left" in capsys.readouterr().out

    def test_generate_verb(self, tmp_path):
        out = tmp_path / "graph.bin"
        el = tmp_path / "graph.txt"
        rc = main(["generate", "--model", "planted", "--n", "30", "--k", "6",
                   "--seed", "3", "--out", str(out), "--edge-list", str(el)])
        assert rc == 0
        inst = load_graph(out)
        assert inst.k == 6 and inst.n == 30
        assert el.read_text().strip()

    def test_generate_needs_an_output(self, tmp_path):
        rc = main(["generate", "--model", "er", "--n", "5", "--seed", "1"])
        assert rc == 2

    def test_sweep_verb(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, seeds="0")
        path = tmp_path / "exp.cfg"
        write_config(path, cfg)
        rc = main(["sweep", "--config", str(path), "--param", "gamma",
                   "--values", "2,4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gamma = 2" in out and "gamma = 4" in out

    def test_sweep_verb_rejects_beta_for_gd(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, seeds="0")
        path = tmp_path / "exp.cfg"
        write_config(path, cfg)
        rc = main(["sweep", "--config", str(path), "--param", "beta",
                   "--values", "1,2,3"])
        assert rc == 2
        assert "config error: param" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_peel_verb(self, tmp_path):
        rc = main(["peel", "--n", "50", "--k", "10", "--seeds", "0..1",
                   "--stop-n2", "5", "--c1", "3.0",
                   "--out-dir", str(tmp_path / "peel")])
        assert rc == 0
        assert (tmp_path / "peel" / "peel_s0.csv").exists()

    def test_coupled_verb(self, tmp_path, capsys):
        rc = main(["coupled", "--n", "80", "--k", "8", "--seeds", "0..1",
                   "--max-steps", "2000", "--out-dir", str(tmp_path / "c")])
        assert rc == 0
        assert "identical through absorption" in capsys.readouterr().out

    def test_landscape_verb_kappa(self, tmp_path):
        rc = main(["landscape", "--mode", "kappa", "--gammas", "2,3",
                   "--out-dir", str(tmp_path / "l")])
        assert rc == 0
        assert (tmp_path / "l" / "kappa_table.csv").exists()

    def test_landscape_verb_with_preset_guard(self, tmp_path, capsys):
        # run verb must refuse a landscape config
        cfg = LandscapeConfig(out_dir=str(tmp_path))
        path = tmp_path / "l.cfg"
        write_config(path, cfg)
        assert main(["run", "--config", str(path)]) == 2

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLANTEDCLIQUE_OUT", str(tmp_path / "envout"))
        cfg = tiny_config(tmp_path, out_dir="", seeds="0")
        run_experiment(cfg)
        assert (tmp_path / "envout" / "traj_s0.csv").exists()
