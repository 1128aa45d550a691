import dataclasses
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import plantedclique
from plantedclique import (ConfigError, ExperimentConfig, LandscapeConfig,
                           load_graph, load_preset, parse_config, preset_names,
                           run_experiment, run_landscape, run_sweep,
                           write_config)
from plantedclique import harness
from plantedclique.cli import main
from plantedclique.harness import (RunSummary, config_text, parse_config_text,
                                   run_coupled_cells, run_peel_cells)


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(model="planted", n=150, k=30, chain="gd", gamma="4",
                tie_policy="halt", init="full", max_steps=400, seeds="0..2",
                out_dir=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


RUN_BASE = dict(task="run", n="100", k="10", seeds="0")
LANDSCAPE_BASE = dict(task="landscape", mode="brute", n="12", k="8", seeds="0")


def config_lines(base, **overrides) -> str:
    return "".join(f"{k} = {v}\n" for k, v in {**base, **overrides}.items())


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

    @pytest.mark.parametrize("task, overrides, field", [
        ("run", dict(version="2"), "version"),
        ("run", dict(task="peel"), "task"),
        ("run", dict(model="ring"), "model"),
        ("run", dict(m="5"), "m"),
        ("run", dict(chain="metropolis"), "chain"),
        ("run", dict(chain="gibbs", beta="inf"), "beta"),
        ("run", dict(init="half"), "init"),
        ("run", dict(init="explicit:1,100"), "init"),
        ("run", dict(hold_window="-1"), "hold_window"),
        ("run", dict(record_every="0"), "record_every"),
        ("run", dict(seeds="a..b"), "seeds"),
        ("run", dict(seeds="5..3"), "seeds"),
        ("run", dict(seeds="1,1,2"), "seeds"),
        ("landscape", dict(version="2"), "version"),
        ("landscape", dict(mode="sideways"), "mode"),
        ("landscape", dict(mode="kappa", gammas=""), "gammas"),
        ("landscape", dict(mode="kappa", gammas="2,x"), "gammas"),
        ("landscape", dict(k="0"), "k"),
        ("landscape", dict(mode="scan", n="30", k="40", m_values="3"), "k"),
        ("landscape", dict(n="25"), "n"),
        ("landscape", dict(mode="scan", m_values=""), "m_values"),
        ("landscape", dict(mode="scan", m_values="3", budget="0"), "budget"),
        ("landscape", dict(seeds="3,0..4"), "seeds"),
    ], ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items())
        if isinstance(v, dict) else None)
    def test_each_check_names_its_field(self, task, overrides, field):
        base = RUN_BASE if task == "run" else LANDSCAPE_BASE
        with pytest.raises(ConfigError) as err:
            parse_config_text(config_lines(base, **overrides))
        assert [f for f, _ in err.value.errors] == [field]

    def test_k_out_of_range_names_k_and_n(self):
        # the subset-size range 1..n - k is not checked against a bad k
        cfg = LandscapeConfig(mode="scan", n=30, k=40, m_values="3", seeds="0")
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.errors == [("k", "need 1 <= k <= n, got k=40, n=30")]

    @pytest.mark.parametrize("seeds, repeat", [
        ("1,1,2", 1), ("0..4,2", 2), ("7,3..5,4,7", 7), ("2..3,1..2", 2)])
    def test_repeated_seed_is_named(self, tmp_path, seeds, repeat):
        # a repeated seed was run and counted twice: in aggregates.runs and
        # in the brute-force unique_pc_frequency
        for cfg in (tiny_config(tmp_path, seeds=seeds),
                    LandscapeConfig(mode="brute", n=12, k=8, seeds=seeds)):
            with pytest.raises(ConfigError) as err:
                cfg.validate()
            assert err.value.errors == [("seeds", f"seed {repeat} is repeated")]
        tiny_config(tmp_path, seeds="0..2,5,3").validate()
        LandscapeConfig(mode="brute", n=12, k=8, seeds="4,0..3").validate()

    @pytest.mark.parametrize("m_values, repeat", [
        ("3,3", 3), ("2..4,3", 3), ("4,2..3,2,4", 4)])
    def test_repeated_subset_size_is_named(self, m_values, repeat):
        # a repeated size was scanned and written twice, one identical row each
        cfg = LandscapeConfig(mode="scan", n=20, k=5, m_values=m_values, seeds="0")
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.errors == [("m_values", f"subset size {repeat} is repeated")]
        LandscapeConfig(mode="scan", n=20, k=5, m_values="4,2..3", seeds="0").validate()

    @pytest.mark.parametrize("gammas, repeat", [
        ("2,2", "2"), ("2,4/2", "2"), ("3,7/2,3.5", "7/2"), ("9,2,3,2.0,9", "9")])
    def test_repeated_gamma_is_named(self, gammas, repeat):
        # gammas compare as exact fractions; a repeat wrote its kappa row twice
        with pytest.raises(ConfigError) as err:
            LandscapeConfig(mode="kappa", gammas=gammas).validate()
        assert err.value.errors == [("gammas", f"gamma {repeat} is repeated")]
        LandscapeConfig(mode="kappa", gammas="2,5/2,3,7/2").validate()

    def test_model_specific_validation(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            tiny_config(tmp_path, model="er", k=3).validate()
        assert any(f == "k" for f, _ in err.value.errors)
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, model="contaminated", m=0).validate()
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, model="contaminated", m=10, q=0.3).validate()

    @pytest.mark.parametrize("model", ["planted", "er"])
    def test_q_needs_the_contaminated_model(self, tmp_path, model):
        cfg = tiny_config(tmp_path, model=model, k=0 if model == "er" else 30,
                          q=0.9)
        with pytest.raises(ConfigError, match="takes q = 0.5"):
            cfg.validate()

    def test_gamma_too_fine_for_n_rejected(self, tmp_path):
        # (p + q_den) * n is about 2 * 10**19 > 2**62; this used to pass and
        # then die with an OverflowError inside all_flip_deltas
        cfg = tiny_config(tmp_path, n=5000, k=70, gamma="3.000000000000001")
        with pytest.raises(ConfigError, match="gamma.*too fine"):
            cfg.validate()
        tiny_config(tmp_path, n=300, gamma="3.000000000000001").validate()
        scan = LandscapeConfig(mode="scan", n=5000, k=70, m_values="6",
                               gamma="3.000000000000001")
        with pytest.raises(ConfigError, match="gamma.*too fine"):
            scan.validate()

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
        # any config field but out_dir, which names the sweep's directories
        for param in ("out_dir", "nodes"):
            with pytest.raises(ConfigError) as err:
                run_sweep(tiny_config(tmp_path), param, ["10"])
            assert [f for f, _ in err.value.errors] == [
                "param" if param == "out_dir" else param]
        with pytest.raises(ConfigError, match="no values"):
            run_sweep(tiny_config(tmp_path), "k", [])
        # a repeated value was run once, under one summary
        with pytest.raises(ConfigError) as err:
            run_sweep(tiny_config(tmp_path), "n", ["40", "60", "40"])
        assert err.value.errors == [("values", "value 40 is repeated")]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("param, values, overrides", [
        ("k", {"12": 12, "30": 30}, {}),
        ("q", {"0.6": 0.6, "0.75": 0.75}, dict(model="contaminated", m=20, q=0.5)),
        ("n", {"120": 120}, {}),
    ])
    def test_sweep_cell_matches_a_plain_run(self, tmp_path, param, values,
                                            overrides):
        cfg = tiny_config(tmp_path, seeds="0..1", **overrides)
        swept = run_sweep(cfg, param, list(values))
        assert list(swept) == list(values)
        for text, value in values.items():
            plain_dir = tmp_path / "plain" / text
            plain = run_experiment(dataclasses.replace(
                cfg, out_dir=str(plain_dir), **{param: value}))
            cell_dir = tmp_path / "out" / f"{param}={text}"
            assert swept[text].rows == plain.rows
            names = sorted(p.name for p in plain_dir.iterdir())
            assert sorted(p.name for p in cell_dir.iterdir()) == names
            for name in names:
                if name != "summary.json":
                    assert ((cell_dir / name).read_bytes()
                            == (plain_dir / name).read_bytes()), name
            got, want = (json.loads((d / "summary.json").read_text())
                         for d in (cell_dir, plain_dir))
            assert got["params"] == {**want["params"], "out_dir": str(cell_dir)}
            assert got["params"][param] == value
            assert (got["rows"], got["aggregates"]) == (want["rows"], want["aggregates"])

    def test_sweep_values_parse_as_their_field(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds="0")
        with pytest.raises(ConfigError) as err:
            run_sweep(cfg, "k", ["12", "1.5"])
        assert err.value.errors == [("k", "not an integer: '1.5'")]
        with pytest.raises(ConfigError, match="need 1 <= k <= n"):
            run_sweep(cfg, "k", ["12", "151"])
        assert not (tmp_path / "out").exists()

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


# the harness name each verb's cells call with the seed, and where the seed is
SEEDED_KERNELS = {"run": ("run_chain", 5), "peel": ("run_peel", 2),
                  "coupled": ("run_coupled_gd", 5), "scan": ("scan_local_minima", "seed"),
                  "brute": ("build_instance", 1)}


def run_verb(verb, tmp_path, jobs=1, out="out"):
    """Run three seeds of ``verb``'s cells into ``tmp_path / out``."""
    out_dir = str(tmp_path / out)
    if verb in ("scan", "brute"):
        return run_landscape(LandscapeConfig(
            mode=verb, n=24 if verb == "scan" else 10, k=6, gamma="8",
            m_values="3..4" if verb == "scan" else "", budget=3000, seeds="0..2",
            out_dir=out_dir))
    cfg = tiny_config(tmp_path, out_dir=out_dir, jobs=jobs)
    if verb == "run":
        return run_experiment(cfg)
    if verb == "peel":
        return run_peel_cells(cfg, stop_n2=10, c1=3.0)
    return run_coupled_cells(dataclasses.replace(cfg, init="empty", tie_policy="drift:1"))


class TestStagedOutputs:
    """Cells write their files into a staging directory, which becomes a new
    output directory, or whose files move into an existing one, once every
    seed has succeeded."""

    @pytest.mark.parametrize("verb, jobs", [
        ("scan", 1), ("brute", 1), *itertools.product(("run", "peel", "coupled"), (1, 2))])
    @pytest.mark.parametrize("out", ["out", "new/out"], ids=["new-dir", "new-parent"])
    def test_a_failing_seed_writes_nothing(self, tmp_path, monkeypatch, verb, jobs, out):
        # seeds 0 and 2 finish (in a pool too) and stage their files; seed 1 raises
        kernel, at = SEEDED_KERNELS[verb]
        real = getattr(harness, kernel)

        def seed_1_fails(*args, **kwargs):
            if (kwargs[at] if at in kwargs else args[at]) == 1:
                raise RuntimeError("seed 1 fails")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, kernel, seed_1_fails)
        with pytest.raises(RuntimeError, match="seed 1 fails"):
            run_verb(verb, tmp_path, jobs, out)
        assert os.listdir(tmp_path) == []  # no out_dir, no parent made for it, no stage

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_seed_leaves_an_existing_out_dir_as_it_was(self, tmp_path,
                                                                  monkeypatch, jobs):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "traj_s0.csv").write_text("old\n")
        real = harness._write_csv

        def fails_after_writing(path, traj, labels=None):
            real(path, traj, labels)
            if path.name == "traj_s1.csv":
                raise RuntimeError("seed 1 fails")

        monkeypatch.setattr(harness, "_write_csv", fails_after_writing)
        with pytest.raises(RuntimeError, match="seed 1 fails"):
            run_verb("run", tmp_path, jobs)
        assert os.listdir(tmp_path / "out") == ["traj_s0.csv"]
        assert (tmp_path / "out" / "traj_s0.csv").read_text() == "old\n"

    @pytest.mark.parametrize("verb, jobs", [
        ("brute", 1), *itertools.product(("run", "peel", "coupled"), (1, 2))])
    @pytest.mark.parametrize("existing", [False, True])
    def test_a_failing_summary_publishes_nothing(self, tmp_path, monkeypatch, verb, jobs,
                                                 existing):
        # every seed succeeds, then the call's own summary fails to be made
        if existing:
            (tmp_path / "out").mkdir()
            (tmp_path / "out" / "traj_s0.csv").write_text("old\n")

        def fails(*args, **kwargs):
            raise OSError("the summary fails")

        monkeypatch.setattr(harness, "_summary_json", fails)
        with pytest.raises(OSError, match="the summary fails"):
            run_verb(verb, tmp_path, jobs)
        assert os.listdir(tmp_path) == ["out"] * existing
        if existing:
            assert os.listdir(tmp_path / "out") == ["traj_s0.csv"]
            assert (tmp_path / "out" / "traj_s0.csv").read_text() == "old\n"

    @pytest.mark.parametrize("verb, jobs, files", [
        ("scan", 1, ["scan_s0.csv", "scan_s1.csv", "scan_s2.csv"]),
        *(("run", jobs, ["summary.json", "traj_s0.csv", "traj_s1.csv", "traj_s2.csv"])
          for jobs in (1, 2)),
        *(("coupled", jobs, ["summary.json", *(f"coupled_{side}_s{s}.csv" for s in range(3)
                                               for side in ("planted", "unplanted"))])
          for jobs in (1, 2))])
    @pytest.mark.parametrize("existing", [False, True])
    def test_no_staging_directory_is_left(self, tmp_path, verb, jobs, files, existing):
        (tmp_path / "made").mkdir()  # a directory of the default mode
        if existing:
            (tmp_path / "out").mkdir()
            (tmp_path / "out" / "notes.txt").write_text("kept\n")
        run_verb(verb, tmp_path, jobs)
        assert sorted(os.listdir(tmp_path)) == ["made", "out"]
        assert sorted(os.listdir(tmp_path / "out")) == sorted(files + ["notes.txt"] * existing)
        assert (tmp_path / "out").stat().st_mode == (tmp_path / "made").stat().st_mode


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

    def test_cells_call_the_wrapped_names(self, tmp_path, monkeypatch):
        # perfbench/tracer.py times landscape cells through these harness names:
        # one instance and one scan over every size per seed
        seen = []
        for name in ("gen_planted", "scan_local_minima", "brute_force_min"):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, _name=name, _real=real, **kw:
                                seen.append(_name) or _real(*a, **kw))
        run_landscape(LandscapeConfig(mode="scan", n=24, k=6, gamma="8",
                                      m_values="3..4", budget=3000, seeds="0..2",
                                      out_dir=str(tmp_path / "scan")))
        assert seen == ["gen_planted", "scan_local_minima"] * 3
        assert callable(harness.enumerate_local_minima)  # the tracer wraps it too
        seen.clear()
        run_landscape(LandscapeConfig(mode="brute", n=10, k=6, seeds="0..1",
                                      out_dir=str(tmp_path / "brute")))
        assert seen == ["gen_planted", "brute_force_min"] * 2


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

    @pytest.mark.parametrize("flags, field", [
        (["--model", "er", "--n", "10", "--seed=-1"], "seeds"),
        (["--model", "planted", "--n", "10", "--k", "3",
          "--seed", str(2**64)], "seeds"),
        (["--model", "planted", "--n", "10", "--k", "20", "--seed", "0"], "k"),
        (["--model", "contaminated", "--n", "10", "--k", "4", "--m", "7",
          "--q", "0.7", "--seed", "0"], "m"),
        (["--model", "contaminated", "--n", "10", "--k", "4", "--m", "3",
          "--q", "0.4", "--seed", "0"], "q"),
        (["--model", "contaminated", "--n", "10", "--k", "4", "--m", "3",
          "--q", "1.0", "--seed", "0"], "q"),
    ], ids=["seed-1", "seed2^64", "k>n", "k+m>n", "q<1/2", "q=1"])
    def test_generate_checks_flags_before_writing(self, flags, field,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["generate", *flags, "--out", "g.bin", "--edge-list", "g.txt"])
        assert rc == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("values", ["2,1", "4,x"])
    def test_sweep_verb_validates_every_value_first(self, tmp_path, capsys,
                                                    values):
        cfg = tiny_config(tmp_path, seeds="0")
        path = tmp_path / "exp.cfg"
        write_config(path, cfg)
        rc = main(["sweep", "--config", str(path), "--param", "gamma",
                   "--values", values])
        assert rc == 2
        assert "config error: gamma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("param, values, field", [
        ("out_dir", "a,b", "param"), ("nodes", "10", "nodes"), ("k", ",", "values"),
        ("k", " , ", "values")])
    def test_sweep_verb_refuses_before_running(self, tmp_path, capsys, param,
                                               values, field):
        path = tmp_path / "exp.cfg"
        write_config(path, tiny_config(tmp_path, seeds="0"))
        assert main(["sweep", "--config", str(path), "--param", param,
                     "--values", values]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_beta_values_must_be_numbers(self, tmp_path):
        cfg = tiny_config(tmp_path, chain="gibbs", beta=1.0, seeds="0")
        with pytest.raises(ConfigError, match="not a number"):
            run_sweep(cfg, "beta", ["2", "hot"])
        assert not (tmp_path / "out").exists()

    def test_peel_verb(self, tmp_path):
        rc = main(["peel", "--n", "50", "--k", "10", "--seeds", "0..1",
                   "--stop-n2", "5", "--c1", "3.0",
                   "--out-dir", str(tmp_path / "peel")])
        assert rc == 0
        assert (tmp_path / "peel" / "peel_s0.csv").exists()

    def test_peel_verb_rejects_q_without_m(self, tmp_path, capsys):
        # --q only means something for the contaminated model (--m >= 1)
        rc = main(["peel", "--n", "60", "--k", "10", "--q", "0.9", "--seeds",
                   "0", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: q" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, field", [
        (["--stop-n2", "-1"], "stop_n2"), (["--c1", "nan"], "c1"),
        (["--c1", "inf"], "c1"), (["--c1=-inf"], "c1")])
    def test_peel_verb_rejects_negative_stop_and_non_finite_slack(
            self, tmp_path, capsys, flag, field):
        # stop_n2 = -1 peeled to the empty set; c1 = nan fails every retention
        # comparison, so every clique vertex was reported as retained
        rc = main(["peel", "--n", "60", "--k", "10", "--seeds", "0", *flag,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", [["run"], ["sweep", "--param", "gamma",
                                                "--values", "4"]],
                             ids=["run", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_flag_below_one_is_refused(self, tmp_path, capsys, verb, jobs):
        # --jobs 0 was taken for "not given" and ran with the config's jobs
        path = tmp_path / "exp.cfg"
        write_config(path, tiny_config(tmp_path, seeds="0", jobs=2))
        assert main([verb[0], "--config", str(path), "--jobs", jobs, *verb[1:]]) == 2
        assert "config error: jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_jobs_flag_overrides_the_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        write_config(path, tiny_config(tmp_path, seeds="0", jobs=2))
        assert main(["run", "--config", str(path), "--jobs", "1"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["params"]["jobs"] == 1

    @pytest.mark.parametrize("verb, text, field", [
        (["sweep", "--param", "task", "--values", "landscape"],
         config_lines(RUN_BASE), "task"),
        (["run"], config_lines(RUN_BASE, hold_window="-1"), "hold_window"),
        (["run"], config_lines(RUN_BASE, seeds="1,1,2"), "seeds"),
        (["landscape"], config_lines(LANDSCAPE_BASE, n="25"), "n"),
        (["landscape"], config_lines(LANDSCAPE_BASE, mode="kappa", gammas=""),
         "gammas"),
    ], ids=["sweep-task", "run-hold_window", "run-seeds", "brute-n", "kappa-gammas"])
    def test_bad_config_exits_before_writing(self, tmp_path, capsys, verb, text,
                                             field):
        out, path = tmp_path / "out", tmp_path / "bad.cfg"
        path.write_text(text + f"out_dir = {out}\n")
        assert main([verb[0], "--config", str(path), *verb[1:]]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_landscape_verb_takes_no_jobs_flag(self, tmp_path, capsys):
        # landscape runs in one process: the flag was parsed and read by nothing
        out = tmp_path / "l"
        path = tmp_path / "l.cfg"
        write_config(path, LandscapeConfig(mode="kappa", gammas="2", out_dir=str(out)))
        for flags in (["--mode", "kappa", "--gammas", "2"], ["--config", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(["landscape", *flags, "--jobs", "2", "--out-dir", str(out)])
            assert exc.value.code == 2
            assert "unrecognized arguments: --jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, field", [
        (dict(q=0.9), "q"),
        (dict(n=5000, k=70, gamma="3.000000000000001"), "gamma"),
    ])
    def test_run_verb_rejects_config_before_writing(self, tmp_path, capsys,
                                                    overrides, field):
        path = tmp_path / "exp.cfg"
        write_config(path, tiny_config(tmp_path, seeds="0", **overrides))
        assert main(["run", "--config", str(path)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_coupled_verb(self, tmp_path, capsys):
        rc = main(["coupled", "--n", "80", "--k", "8", "--seeds", "0..1",
                   "--max-steps", "2000", "--out-dir", str(tmp_path / "c")])
        assert rc == 0
        assert "identical through absorption" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--m", "5"], ["--q", "0.9"]])
    def test_coupled_verb_has_no_contamination_flags(self, tmp_path, capsys,
                                                     flag):
        # the coupled pair is always plain planted; these flags did nothing
        with pytest.raises(SystemExit) as exc:
            main(["coupled", "--n", "100", "--k", "10", *flag, "--seeds",
                  "0..1", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, fields", [
        (["--tie", ""], ["tie_policy"]), (["--init", ""], ["init"]),
        (["--tie", "", "--init", ""], ["tie_policy", "init"])])
    def test_coupled_verb_refuses_empty_tie_and_init(self, tmp_path, capsys, flags, fields):
        # as the same empty values in a config are, not run with the flags' defaults
        out = tmp_path / "out"
        assert main(["coupled", "--n", "80", "--k", "8", "--seeds", "0", *flags,
                     "--out-dir", str(out)]) == 2
        assert [line.split(":")[1].strip() for line in
                capsys.readouterr().err.splitlines()] == fields
        assert not out.exists()

    def test_coupled_cells_need_planted_model(self, tmp_path):
        cfg = tiny_config(tmp_path, model="contaminated", m=5, q=0.9,
                          init="empty", tie_policy="drift:1", seeds="0")
        with pytest.raises(ConfigError, match="model = planted"):
            run_coupled_cells(cfg)
        assert not Path(cfg.out_dir).exists()

    @pytest.mark.parametrize("flags", [["--n", "20", "--seeds", "0"],
                                       ["--mode", "kappa"], ["--budget", "10"]])
    @pytest.mark.parametrize("source", ["preset", "config"])
    def test_landscape_model_flags_refuse_a_config(self, tmp_path, capsys,
                                                   flags, source):
        # one source of model values: a flag next to a config would go unread
        out = tmp_path / "l"
        path = tmp_path / "l.cfg"
        write_config(path, LandscapeConfig(seeds="0"))
        given = ["--preset", "landscape-n12"] if source == "preset" else [
            "--config", str(path)]
        assert main(["landscape", *given, *flags, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        for flag in flags[::2]:
            assert f"config error: {flag[2:]}: this flag cannot be combined" in err
        assert not out.exists()
        if source == "config":  # --out-dir alone still joins a config
            assert main(["landscape", *given, "--out-dir", str(out)]) == 0
            assert (out / "brute_force.csv").exists()

    def test_landscape_flags_fill_the_config_defaults(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(harness, "run_landscape", lambda cfg: seen.append(cfg) or [])
        assert main(["landscape"]) == 0
        assert main(["landscape", "--k", "5", "--m-values", "3", "--mode", "scan",
                     "--out-dir", str(tmp_path)]) == 0
        assert seen == [LandscapeConfig(),
                        LandscapeConfig(k=5, m_values="3", mode="scan",
                                        out_dir=str(tmp_path))]

    def test_landscape_verb_kappa(self, tmp_path):
        rc = main(["landscape", "--mode", "kappa", "--gammas", "2,3",
                   "--out-dir", str(tmp_path / "l")])
        assert rc == 0
        assert (tmp_path / "l" / "kappa_table.csv").exists()

    @pytest.mark.parametrize("n, k, sizes, refused, why, fine", [
        # m = 40 of a 48-vertex pool keeps 1.7e-11 of the sampler's draws, and
        # m = 20 is the exact 1/64 boundary of that pool (it keeps 3.6% of the
        # draws from all 64 vertices); m = 6..8, as in the landscape-scan-n64
        # preset, criterion 8 and the benchmark, still runs
        (64, 16, "40", "20", "1/64", "6..8"),
        # a 12-vertex pool has no subset of size 0 or 13, and the m = 3 row
        # must not be written before the refusal
        (20, 8, "3,13", "13", "outside 1..n - k", "3..5"),
        (20, 8, "0", "0", "outside 1..n - k", "10..12"),
    ], ids=["m40", "m13", "m0"])
    def test_landscape_scan_refuses_sizes_sampling_cannot_reach(
            self, tmp_path, capsys, n, k, sizes, refused, why, fine):
        out = tmp_path / "l"
        flags = ["landscape", "--mode", "scan", "--n", str(n), "--k", str(k),
                 "--gamma", "10", "--seeds", "0", "--out-dir", str(out)]
        assert main(flags + ["--m-values", sizes]) == 2
        assert "config error: m_values" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError, match=why):
            LandscapeConfig(mode="scan", n=n, k=k, m_values=f"{fine},{refused}").validate()
        assert main(flags + ["--m-values", fine, "--budget", "2000"]) == 0
        assert len((out / "scan_s0.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("verb", [["peel", "--n", "30", "--k", "6"],
                                      ["landscape", "--mode", "brute", "--n",
                                       "10", "--k", "4"]],
                             ids=["peel", "brute"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_verbs_refuse_seeds_outside_64_bits(self, tmp_path, capsys, verb,
                                                seed):
        out = tmp_path / "out"
        assert main(verb + [f"--seeds=0,{seed}", "--out-dir", str(out)]) == 2
        assert "config error: seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_64_bit_seed_is_valid(self, tmp_path):
        top = str(2**64 - 1)
        ExperimentConfig(seeds=top).validate()
        LandscapeConfig(mode="brute", seeds=top).validate()
        LandscapeConfig(mode="scan", m_values="3", seeds=top).validate()
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig(seeds=f"{top}..{2**64}").validate()

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


def test_cli_import_leaves_the_process_pool_out():
    """The pool module is imported by a run with jobs > 1, not by every call,
    and ``statistics`` not at all. (``decimal`` comes in with ``fractions``,
    which parses gamma.)"""
    src = str(Path(plantedclique.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, plantedclique.cli; "
            "print(sorted({'concurrent.futures', 'statistics'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@given(st.lists(st.integers(-2**70, 2**70) | st.floats(allow_nan=False, allow_infinity=False),
                min_size=1))
@example([3, 1, 2])  # odd: the middle int
@example([4, 1, 3, 2])  # even: the float mean of the middle pair
def test_median_is_the_statistics_median(values):
    expected, got = statistics.median(values), harness._median(values)
    assert got == expected and type(got) is type(expected)
