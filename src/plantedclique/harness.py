"""Experiment configuration, seed sweeps, presets and output management.

Configs are flat key = value text files with an explicit version, one file per
experiment; presets ship inside the package. A run produces one trajectory
CSV per seed plus an aggregate summary.json whose only non-deterministic
field is the "created" timestamp in the header.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import statistics
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Union

from .chains import (GibbsChain, GradientDescent, run_chain, run_coupled_gd,
                     run_peel)
from .energy import GammaParam
from .graphs import gen_contaminated, gen_er, gen_planted
# enumerate_local_minima is no longer called here; perfbench/tracer.py wraps it
from .landscape import (_BRUTE_FORCE_LIMIT, binary_entropy, brute_force_min,
                        check_sample_rate, enumerate_local_minima, scan_local_minima)

__all__ = ["ExperimentConfig", "LandscapeConfig", "RunSummary", "ConfigError",
           "parse_config", "parse_config_text", "write_config", "config_text",
           "load_preset", "preset_names", "run_experiment", "run_sweep",
           "run_landscape", "run_coupled_cells", "run_peel_cells",
           "build_instance", "default_out_dir", "OUT_DIR_ENV"]

CONFIG_VERSION = 1
OUT_DIR_ENV = "PLANTEDCLIQUE_OUT"


class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists (field, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"{f}: {m}" for f, m in self.errors)
        super().__init__(f"invalid config: {lines}")


def default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, "runs")


# ---------------------------------------------------------------------------
# Config dataclasses and the flat key = value format
# ---------------------------------------------------------------------------


class _Config:
    """What both config kinds share: gamma, seeds, out_dir and their checks."""

    def gamma_param(self) -> GammaParam:
        return GammaParam.from_value(self.gamma)

    def seed_list(self) -> list[int]:
        return _parse_seeds(self.seeds)

    def resolved_out_dir(self) -> Path:
        return Path(self.out_dir or default_out_dir())

    def _shared_errors(self) -> list[tuple[str, str]]:
        """(field, message) pairs for n, gamma and seeds."""
        errors = []
        if self.n < 1:
            errors.append(("n", "n must be >= 1"))
        try:
            self.gamma_param().check_fits(self.n)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            errors.append(("gamma", str(exc)))
        try:
            seeds = self.seed_list()
            bad = [s for s in seeds if not 0 <= s < 2**64]
            repeat = _first_repeat(seeds)
            if not seeds:
                errors.append(("seeds", "no seeds specified"))
            elif bad:
                errors.append(("seeds", f"seed {bad[0]} is outside 0..2^64 - 1"))
            elif repeat is not None:
                errors.append(("seeds", f"seed {repeat} is repeated"))
        except ValueError as exc:
            errors.append(("seeds", str(exc)))
        return errors


@dataclass
class ExperimentConfig(_Config):
    """One chain experiment: a graph model, a chain, an init and a seed set."""

    version: int = CONFIG_VERSION
    task: str = "run"
    model: str = "planted"        # er | planted | contaminated
    n: int = 100
    k: int = 10
    m: int = 0
    q: float = 0.5
    chain: str = "gd"             # gd | gibbs
    gamma: str = "4"
    beta: float = 0.0
    tie_policy: str = "halt"      # halt | drift:<budget>
    init: str = "full"            # full | empty | explicit:v1,v2,...
    max_steps: int = 1000
    seeds: str = "0..9"
    hold_window: int = 0          # 0 -> gibbs default of 10 * n
    record_every: int = 1
    out_dir: str = ""
    jobs: int = 1

    def plateau_budget(self) -> int:
        return _parse_tie(self.tie_policy)

    def chain_kind(self):
        if self.chain == "gd":
            return GradientDescent(self.plateau_budget())
        return GibbsChain(self.beta)

    def init_value(self):
        return _parse_init(self.init)

    def validate(self) -> None:
        errors = self._shared_errors()
        if self.version != CONFIG_VERSION:
            errors.append(("version", f"unsupported version {self.version}"))
        if self.task != "run":
            errors.append(("task", f"expected task = run, got {self.task!r}"))
        if self.model not in ("er", "planted", "contaminated"):
            errors.append(("model", f"unknown model {self.model!r}"))
        if self.model == "er":
            if self.k != 0:
                errors.append(("k", "model er takes k = 0"))
        elif not 1 <= self.k <= self.n:
            errors.append(("k", f"need 1 <= k <= n, got k={self.k}, n={self.n}"))
        if self.model == "contaminated":
            if self.m < 1:
                errors.append(("m", "contaminated model needs m >= 1"))
            elif self.k + self.m > self.n:
                errors.append(("m", f"k + m = {self.k + self.m} exceeds n"))
            if not 0.5 <= self.q < 1.0:
                errors.append(("q", f"q must lie in [1/2, 1), got {self.q}"))
        else:
            if self.m != 0:
                errors.append(("m", f"model {self.model} takes m = 0"))
            if self.q != 0.5:
                errors.append(("q", f"model {self.model} takes q = 0.5, "
                                    f"got {self.q}"))
        if self.chain not in ("gd", "gibbs"):
            errors.append(("chain", f"unknown chain {self.chain!r}"))
        if self.chain == "gibbs":
            if not (math.isfinite(self.beta) and self.beta >= 0):
                errors.append(("beta", f"beta must be finite and >= 0, got {self.beta}"))
        try:
            self.plateau_budget()
        except ValueError as exc:
            errors.append(("tie_policy", str(exc)))
        try:
            init = self.init_value()
            if not isinstance(init, str):
                bad = [v for v in init if not 0 <= v < self.n]
                if bad:
                    errors.append(("init", f"vertices out of range: {bad}"))
        except ValueError as exc:
            errors.append(("init", str(exc)))
        if self.max_steps < 1:
            errors.append(("max_steps", "max_steps must be >= 1"))
        if self.hold_window < 0:
            errors.append(("hold_window", "hold_window must be >= 0"))
        if self.record_every < 1:
            errors.append(("record_every", "record_every must be >= 1"))
        if self.jobs < 1:
            errors.append(("jobs", "jobs must be >= 1"))
        if errors:
            raise ConfigError(errors)


@dataclass
class LandscapeConfig(_Config):
    """A landscape scan: brute-force oracle, local-minima scan or kappa table."""

    version: int = CONFIG_VERSION
    task: str = "landscape"
    mode: str = "brute"           # brute | scan | kappa
    model: str = "planted"        # only planted; brute and scan call gen_planted
    n: int = 12
    k: int = 8
    gamma: str = "2"
    gammas: str = ""              # kappa mode: comma list
    m_values: str = ""            # scan mode: "6..8" or "6,7,8"
    budget: int = 200000
    seeds: str = "0..9"
    out_dir: str = ""

    def m_list(self) -> list[int]:
        return _parse_seeds(self.m_values)

    def gamma_list(self) -> list[GammaParam]:
        return [GammaParam.from_value(tok.strip())
                for tok in self.gammas.split(",") if tok.strip()]

    def validate(self) -> None:
        # kappa mode reads only the gamma list, so n, gamma and seeds go unchecked
        errors = self._shared_errors() if self.mode != "kappa" else []
        if self.version != CONFIG_VERSION:
            errors.append(("version", f"unsupported version {self.version}"))
        if self.mode not in ("brute", "scan", "kappa"):
            errors.append(("mode", f"unknown mode {self.mode!r}"))
        if self.model != "planted":
            errors.append(("model", f"landscape scans need model = planted, "
                                    f"got {self.model!r}"))
        if self.mode == "kappa":
            try:
                gammas = self.gamma_list()  # exact fractions: 2 and 4/2 are one gamma
                if not gammas:
                    errors.append(("gammas", "kappa mode needs a gamma list"))
                elif (repeat := _first_repeat(gammas)) is not None:
                    errors.append(("gammas", f"gamma {repeat} is repeated"))
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                errors.append(("gammas", str(exc)))
        elif not 1 <= self.k <= self.n:
            errors.append(("k", f"need 1 <= k <= n, got k={self.k}, n={self.n}"))
        if self.mode == "brute" and self.n > _BRUTE_FORCE_LIMIT:
            errors.append(("n", f"brute mode is limited to n <= {_BRUTE_FORCE_LIMIT}"))
        if self.mode == "scan":
            try:
                if not self.m_list():
                    errors.append(("m_values", "scan mode needs subset sizes"))
                for m in self.m_list() if 1 <= self.k <= self.n else ():  # else k's error
                    if not 1 <= m <= self.n - self.k:
                        raise ValueError(f"subset size {m} is outside 1..n - k = "
                                         f"1..{self.n - self.k}")
                    check_sample_rate(self.n - self.k, m, self.budget)
                if (repeat := _first_repeat(self.m_list())) is not None:
                    raise ValueError(f"subset size {repeat} is repeated")
            except ValueError as exc:
                errors.append(("m_values", str(exc)))
            if self.budget < 1:
                errors.append(("budget", "budget must be >= 1"))
        if errors:
            raise ConfigError(errors)


def _first_repeat(values: list):
    """The first value listed more than once, or None."""
    return next((v for v, count in Counter(values).items() if count > 1), None)


def _parse_seeds(text: str) -> list[int]:
    """Parse "0..39", "1,5,9" or "7" into an integer list."""
    text = text.strip()
    if not text:
        return []
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = token.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {token!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(token))
    return out


def _parse_tie(text: str) -> int:
    """The plateau budget of "halt" (0) or "drift:<steps>" (steps >= 1)."""
    text = text.strip()
    if text == "halt":
        return 0
    if text.startswith("drift:"):
        budget = int(text.split(":", 1)[1])
        if budget < 1:
            raise ValueError("drift requires max_plateau_steps >= 1")
        return budget
    raise ValueError(f"tie policy must be 'halt' or 'drift:<steps>', got {text!r}")


def _parse_init(text: str):
    text = text.strip()
    if text in ("full", "empty"):
        return text
    if text.startswith("explicit:"):
        body = text.split(":", 1)[1]
        return tuple(int(tok) for tok in body.split(",") if tok.strip())
    raise ValueError(f"init must be 'full', 'empty' or 'explicit:v1,v2,...', got {text!r}")


_PARSERS = {"int": (int, "an integer"), "float": (float, "a number"),
            "str": (str, "")}


def _field_value(cls, key: str, value: str):
    """``value`` as the type of config field ``key`` of ``cls``; ConfigError
    for an unknown key or a value that type cannot parse."""
    ftype = next((f.type for f in dataclasses.fields(cls) if f.name == key), None)
    if ftype is None:
        raise ConfigError([(key, "unknown key")])
    parse, what = _PARSERS[ftype]
    try:
        return parse(value)
    except ValueError:
        raise ConfigError([(key, f"not {what}: {value!r}")]) from None


def parse_config_text(text: str) -> Union[ExperimentConfig, LandscapeConfig]:
    """Parse the flat key = value format; dispatches on the task key."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError([(f"line {lineno}", f"expected key = value, got {raw!r}")])
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in pairs:
            raise ConfigError([(key, "duplicate key")])
        pairs[key] = value
    task = pairs.get("task", "run")
    cls = ExperimentConfig if task == "run" else LandscapeConfig
    if task not in ("run", "landscape"):
        raise ConfigError([("task", f"unknown task {task!r}")])
    kwargs, errors = {}, []
    for key, value in pairs.items():
        try:
            kwargs[key] = _field_value(cls, key, value)
        except ConfigError as exc:
            errors += exc.errors
    if errors:
        raise ConfigError(errors)
    config = cls(**kwargs)
    config.validate()
    return config


def parse_config(path) -> Union[ExperimentConfig, LandscapeConfig]:
    return parse_config_text(Path(path).read_text())


def config_text(config) -> str:
    """Canonical serialization; parse(config_text(c)) round-trips losslessly."""
    lines = [f"# plantedclique config (version {config.version})"]
    for f in dataclasses.fields(config):
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"


def write_config(path, config) -> None:
    Path(path).write_text(config_text(config))


def preset_names() -> list[str]:
    pkg = resources.files("plantedclique") / "presets"
    return sorted(p.name[:-4] for p in pkg.iterdir() if p.name.endswith(".cfg"))


def load_preset(name: str) -> Union[ExperimentConfig, LandscapeConfig]:
    pkg = resources.files("plantedclique") / "presets" / f"{name}.cfg"
    if not pkg.is_file():
        raise ConfigError([("preset", f"unknown preset {name!r}; "
                            f"available: {', '.join(preset_names())}")])
    return parse_config_text(pkg.read_text())


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    """Per-seed terminal rows plus aggregates recomputable from them."""

    rows: list[dict]
    aggregates: dict

    @staticmethod
    def compute_aggregates(rows: list[dict]) -> dict:
        def med(values):
            values = [v for v in values if v is not None]
            return statistics.median(values) if values else None

        total = len(rows)
        succ = sum(1 for r in rows if r.get("reached_pc"))
        return {
            "runs": total,
            "success_rate": succ / total if total else None,
            "median_steps_to_pc": med(r.get("first_pc_step") for r in rows),
            "median_absorb_steps": med(r["steps"] for r in rows if r.get("absorbed")),
            "median_terminal_size": med(r.get("terminal_size") for r in rows),
            "median_terminal_overlap": med(r.get("terminal_n1") for r in rows),
        }


def build_instance(config: Union[ExperimentConfig, LandscapeConfig], seed: int):
    """The config's graph (er) or planted instance for one seed."""
    if config.model == "er":
        return gen_er(config.n, seed)
    if config.model == "planted":
        return gen_planted(config.n, config.k, seed)
    return gen_contaminated(config.n, config.k, config.m, config.q, seed)


# A cell maps (config, seed) to (seed, summary row, {file name: text}); cells
# are module-level so worker pools can pickle them. Every run-config row carries
# the tau, first_divergence and retained_count keys, None where they do not apply.


def _run_cell(config: ExperimentConfig, seed: int):
    instance = build_instance(config, seed)
    traj = run_chain(
        instance, config.init_value(), config.chain_kind(),
        config.gamma_param(), config.max_steps, seed,
        hold_window=config.hold_window or None,
        record_every=config.record_every,
    )
    labels = getattr(instance, "labels", None)
    row = {"seed": seed, **traj.summary_dict(),
           "tau": None, "first_divergence": None, "retained_count": None}
    return seed, row, {f"traj_s{seed}.csv": traj.csv_text(labels)}


def _peel_cell(stop_n2: int, c1: Optional[float], config: ExperimentConfig,
               seed: int):
    instance = build_instance(config, seed)
    traj, diag = run_peel(instance, stop_n2, seed, c1=c1,
                          gamma=config.gamma_param())
    header = "t,n1,n2,n3" if instance.contamination else "t,n1,n2"
    counts = "".join(",".join(str(c) for c in (t, *split)) + "\n"
                     for t, split in enumerate(diag.counts))
    retained = None if diag.retained is None else sorted(diag.retained)
    diag_payload = {
        "tau0": diag.tau0,
        "c1": diag.c1,
        "retained_count": None if retained is None else len(retained),
        "retained": retained,
        "removal_times": {str(x): t for x, t in sorted(diag.removal_times.items())},
    }
    row = {"seed": seed, **traj.summary_dict(), "tau": None,
           "first_divergence": None,
           "retained_count": diag_payload["retained_count"]}
    return seed, row, {
        f"peel_s{seed}.csv": traj.csv_text(instance.labels),
        f"peel_counts_s{seed}.csv": header + "\n" + counts,
        f"peel_diag_s{seed}.json": json.dumps(diag_payload, indent=2) + "\n",
    }


def _coupled_cell(config: ExperimentConfig, seed: int):
    res = run_coupled_gd(config.n, config.k, config.gamma_param(),
                         config.plateau_budget(), config.max_steps, seed,
                         init=config.init_value())
    row = {"seed": seed, **res.planted.summary_dict(),
           "tau": res.tau, "first_divergence": res.first_divergence,
           "identical_before_tau": res.identical_before_tau,
           "identical_through_absorption": res.identical_through_absorption,
           "retained_count": None}
    return seed, row, {f"coupled_planted_s{seed}.csv": res.planted.csv_text(),
                       f"coupled_unplanted_s{seed}.csv": res.unplanted.csv_text()}


def _run_cells(config, cell, jobs: int = 1) -> list:
    """Run ``cell`` for every seed, in a pool of ``jobs`` workers when > 1,
    then create the output directory and write each cell's files; returns
    the rows. Results are merged in seed order, so parallel and serial
    outputs are identical, and a seed that fails leaves nothing written."""
    config.validate()
    seeds = config.seed_list()
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~14 ms: only for a pool
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(cell, [config] * len(seeds), seeds))
    else:
        results = [cell(config, s) for s in seeds]
    out_dir = config.resolved_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for _, row, files in sorted(results, key=lambda r: r[0]):
        rows.append(row)
        for name, text in files.items():
            (out_dir / name).write_text(text)
    return rows


def _summary_json(config, **body) -> str:
    """summary.json text: the creation time, the config echo, then ``body``."""
    return json.dumps({"created": datetime.now(timezone.utc).isoformat(),
                       "params": dataclasses.asdict(config), **body}, indent=2) + "\n"


def _run_summary(config: ExperimentConfig, cell) -> RunSummary:
    """Run the cells and add one summary.json of their rows."""
    rows = _run_cells(config, cell, config.jobs)
    aggregates = RunSummary.compute_aggregates(rows)
    (config.resolved_out_dir() / "summary.json").write_text(
        _summary_json(config, rows=rows, aggregates=aggregates))
    return RunSummary(rows, aggregates)


def run_experiment(config: ExperimentConfig) -> RunSummary:
    """Run the config's chain on every seed; writes traj_s<seed>.csv per
    seed plus summary.json."""
    return _run_summary(config, _run_cell)


def run_peel_cells(config: ExperimentConfig, stop_n2: int, c1: Optional[float]
                   ) -> RunSummary:
    """Peel each seed's instance down to at most stop_n2 non-clique vertices;
    writes trajectory, per-step count CSVs and retention diagnostics."""
    errors = [("stop_n2", f"stop_n2 must be >= 0, got {stop_n2}")] if stop_n2 < 0 else []
    if c1 is not None and not math.isfinite(c1):
        errors.append(("c1", f"c1 must be finite, got {c1}"))
    if errors:
        raise ConfigError(errors)
    return _run_summary(config, functools.partial(_peel_cell, stop_n2, c1))


def run_coupled_cells(config: ExperimentConfig) -> RunSummary:
    """Coupled planted/unplanted gradient descents per seed. The pair comes
    from ``gen_coupled``, so the config's model must be planted."""
    if config.model != "planted":
        raise ConfigError([("model", f"coupled runs need model = planted, "
                                     f"got {config.model!r}")])
    return _run_summary(config, _coupled_cell)


def run_sweep(config: ExperimentConfig, param: str,
              values: Sequence[str]) -> dict[str, RunSummary]:
    """Run the experiment once per value of ``param``, any config field but
    out_dir, each into its own subdirectory ``param=value`` of the config's
    output directory. Values parse as in a config file, and every cell is
    validated before any runs. A repeated value is refused: it names one cell."""
    if param == "out_dir":
        raise ConfigError([("param", "out_dir names the sweep's own directories")])
    if param == "beta" and config.chain != "gibbs":
        raise ConfigError([("param", f"beta does nothing for chain = {config.chain}")])
    if not values:
        raise ConfigError([("values", "no values to sweep")])
    if (repeat := _first_repeat([str(v) for v in values])) is not None:
        raise ConfigError([("values", f"value {repeat} is repeated")])
    base = config.resolved_out_dir()
    cells = {}
    for value in values:
        cell = dataclasses.replace(config, out_dir=str(base / f"{param}={value}"),
                                   **{param: _field_value(type(config), param, value)})
        cell.validate()
        cells[str(value)] = cell
    return {value: run_experiment(cell) for value, cell in cells.items()}


# ---------------------------------------------------------------------------
# Landscape scans
# ---------------------------------------------------------------------------

def _brute_cell(config: LandscapeConfig, seed: int):
    instance = build_instance(config, seed)
    best, argmins = brute_force_min(instance.graph, config.gamma_param())
    pc = frozenset(range(config.k))
    row = {"seed": seed, "min_scaled_energy": best, "n_argmins": len(argmins),
           "argmin_is_pc": len(argmins) == 1 and argmins[0] == pc,
           "argmin_contains_pc": len(argmins) == 1 and pc <= argmins[0]}
    return seed, row, {}


def _scan_cell(config: LandscapeConfig, seed: int):
    """Local-minima counts of one seed's instance across the subset sizes;
    the row is a list, one dict per size."""
    instance = build_instance(config, seed)
    gamma = config.gamma_param()
    kappa = float(gamma.kappa)
    h_kappa = binary_entropy(kappa)
    rows, text = [], "m,count_or_estimate,stderr,predicted_exponent,kappa,h_kappa,n,gamma\n"
    for found, est in scan_local_minima(instance.graph, config.m_list(), instance.pc,
                                        gamma, config.budget, seed=seed):
        pred = "" if est.predicted_exponent is None else f"{est.predicted_exponent:.6g}"
        text += (f"{est.m},{est.count_estimate:.6g},{est.stderr:.6g},{pred},"
                 f"{kappa:.6g},{h_kappa:.6g},{config.n},{gamma}\n")
        rows.append({"seed": seed, "m": est.m, "found": len(found),
                     "count_estimate": est.count_estimate, "stderr": est.stderr,
                     "predicted_exponent": est.predicted_exponent,
                     "sampled": est.sampled})
    return seed, rows, {f"scan_s{seed}.csv": text}


def run_landscape(config: LandscapeConfig) -> list[dict]:
    """Drive the landscape module per the config's mode; returns the rows it
    wrote (one dict per CSV row). Brute and scan run one cell per seed."""
    if config.mode == "scan":
        return [row for rows in _run_cells(config, _scan_cell) for row in rows]
    if config.mode == "brute":
        rows = _run_cells(config, _brute_cell)
        out_dir = config.resolved_out_dir()
        lines = [",".join(rows[0])]  # the header is the row keys
        lines += [",".join(str(int(v)) for v in r.values()) for r in rows]
        (out_dir / "brute_force.csv").write_text("\n".join(lines) + "\n")
        freq = sum(r["argmin_is_pc"] for r in rows) / len(rows)
        (out_dir / "brute_force_summary.json").write_text(
            _summary_json(config, unique_pc_frequency=freq, rows=len(rows)))
        return rows
    config.validate()  # kappa mode: one table, no seeds
    rows = [{"gamma": str(g), "kappa": str(g.kappa), "h_kappa": binary_entropy(float(g.kappa))}
            for g in config.gamma_list()]
    out_dir = config.resolved_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "kappa_table.csv").write_text("gamma,kappa,h_kappa\n" + "".join(
        f"{r['gamma']},{r['kappa']},{r['h_kappa']:.12g}\n" for r in rows))
    return rows
