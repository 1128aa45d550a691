"""The four benchmark workloads: which CLI calls make up one batch of cells.

A batch is one multi-seed experiment per call, each run through
``plantedclique.cli.main`` in a fresh process with ``jobs = 1``. Every call
gets its own directory, holding the config the benchmark writes and the
program's outputs under ``out/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GIBBS_BETA = "76.00902459542082"  # 10 ln 2000, as in the gibbs-hold preset

RUN_TEMPLATE = """\
version = 1
task = run
model = planted
n = {n}
k = {k}
m = 0
q = 0.5
chain = {chain}
gamma = {gamma}
beta = {beta}
tie_policy = halt
init = full
max_steps = {max_steps}
seeds = {seeds}
hold_window = {hold_window}
record_every = 1
out_dir = out
jobs = 1
"""

LANDSCAPE_TEMPLATE = """\
version = 1
task = landscape
mode = {mode}
model = planted
n = {n}
k = {k}
gamma = {gamma}
gammas =
m_values = {m_values}
budget = {budget}
seeds = {seeds}
out_dir = out
"""


@dataclass(frozen=True)
class Call:
    """One CLI call of a batch. ``params`` are what the output checks need."""

    label: str          # run | coupled | scan | brute; also the call's subdir
    cells: int          # seeds per call
    params: dict = field(default_factory=dict)

    def files(self, seeds: str) -> dict[str, str]:
        """Config files to write into the call directory."""
        p = self.params
        if self.label == "run":
            text = RUN_TEMPLATE.format(seeds=seeds, **p)
        elif self.label in ("scan", "brute"):
            text = LANDSCAPE_TEMPLATE.format(mode=self.label, seeds=seeds, **p)
        else:
            return {}
        return {"bench.cfg": text}

    def argv(self, seeds: str) -> list[str]:
        if self.label == "run":
            return ["run", "--config", "bench.cfg"]
        if self.label == "coupled":
            p = self.params
            return ["coupled", "--n", str(p["n"]), "--k", str(p["k"]),
                    "--gamma", p["gamma"], "--max-steps", str(p["max_steps"]),
                    "--seeds", seeds, "--out-dir", "out"]
        return ["landscape", "--config", "bench.cfg"]


# name -> the calls of one batch
WORKLOADS = {
    "figure-gd": (
        Call("run", 4, dict(n=5000, k=70, chain="gd", gamma="4", beta="0.0",
                            max_steps=6000, hold_window=0)),),
    "gibbs-hold": (
        Call("run", 2, dict(n=2000, k=60, chain="gibbs", gamma="4",
                            beta=GIBBS_BETA, max_steps=25000,
                            hold_window=20000)),),
    "coupled": (
        Call("coupled", 5, dict(n=5000, k=70, gamma="4", max_steps=20000)),),
    "landscape": (
        Call("scan", 2, dict(n=64, k=16, gamma="10", m_values="6..8",
                             budget=400000)),
        Call("brute", 2, dict(n=20, k=8, gamma="2", m_values="",
                              budget=200000))),
}


def cell_seeds(bench_seed: int, cells: int) -> range:
    """Instance seeds of a call. Every batch of a run repeats the same
    experiment; bench seed 0 gives 0, 1, ..., the seeds digests.json pins."""
    return range(bench_seed * 1000, bench_seed * 1000 + cells)


def seeds_text(seeds: range) -> str:
    return f"{seeds.start}..{seeds.stop - 1}"
