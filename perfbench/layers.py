"""Per-layer metrics from the spans of traced calls.

A span's self time is its duration minus the time its child spans cover.
Layer self times add up to the traced calls' wall time plus their set-up:
``harness`` also gets the part of each ``cli.main`` call no wrapped span
covers (config handling, file writes), and ``cli`` gets the import and
config parse. Counts and busy times are given per cell, so runs that
finish different numbers of cells compare directly.

Three metrics are computed from sizes, not measured, and say so in their
names: ``graphs.packed_mb.computed``, ``energy.bytes_per_step.computed``
(the byte model below) and ``landscape.accept_ratio.computed``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

LAYERS = ("graphs", "energy", "chains", "landscape", "harness", "cli")
LAYER_OF = {
    "gen_planted": "graphs", "gen_coupled": "graphs",
    "init_state": "energy", "apply_flip": "energy", "all_flip_deltas": "energy",
    "run_chain": "chains", "run_coupled_gd": "chains", "gibbs_step": "chains",
    "enumerate_local_minima": "landscape", "brute_force_min": "landscape",
    "to_csv": "harness",
}

# Bytes each kernel reads plus writes, per vertex, from its numpy calls on
# int64 degree/delta vectors, a bool member mask and a uint8 unpacked row:
#   all_flip_deltas  two scaled products and differences (4 x 16) plus the
#                    np.where select (25)                            = 89
#   apply_flip       unpack one row (1 + 1/8) and add it in place (17) = 18.125
#   gibbs weights    min, shift, scale, exp, sum, normalise         = 80
#   gd argmin        one min over the deltas                         = 8
SCAN_B, FLIP_B, GIBBS_B, GD_B = 89.0, 18.125, 80.0, 8.0


@dataclass
class TracedCall:
    label: str          # run | coupled | scan | brute
    n: int
    cells: int
    wall_s: float       # cli.main wall time
    import_s: float
    parse_s: float
    spans: dict         # arrays as saved by Tracer.save
    out_bytes: int


def _span_table(call: TracedCall) -> dict:
    sp = call.spans
    names = np.asarray(sp["names"])[sp["name"]]
    dur = sp["end"] - sp["start"]
    parent = sp["parent"]
    nested = parent >= 0
    child = np.zeros(dur.size)
    np.add.at(child, parent[nested], dur[nested])
    graph_child = np.zeros(dur.size)
    gen = nested & np.isin(names, ("gen_planted", "gen_coupled"))
    np.add.at(graph_child, parent[gen], dur[gen])
    return {"name": names, "dur": dur, "self": dur - child,
            "graph_child": graph_child, "top": ~nested, "seed": sp["seed"],
            "start": sp["start"], "end": sp["end"], "value": sp["value"],
            "aux": sp["aux"], "n": np.full(dur.size, call.n)}


def _tail(values: list) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile; the median when there are too few samples."""
    values = sorted(values)
    if len(values) <= 10:
        return statistics.median(values), 50.0
    j = len(values) - 11
    return values[j], 100.0 * (j + 1) / len(values)


def layer_metrics(calls: list[TracedCall], steps: int, stays: int) -> dict:
    tables = [_span_table(c) for c in calls]
    t = {key: np.concatenate([tb[key] for tb in tables]) for key in tables[0]}
    name, dur = t["name"], t["dur"]
    cells = sum(c.cells for c in calls)

    def of(*names):
        return np.isin(name, names)

    def med_us(mask):
        return float(np.median(dur[mask])) * 1e6 if mask.any() else 0.0

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    self_s = {layer: float(t["self"][of(*[k for k, v in LAYER_OF.items()
                                          if v == layer])].sum())
              for layer in LAYERS}
    top_other = t["top"] & ~of("to_csv")
    self_s["harness"] += sum(c.wall_s for c in calls) - float(dur[top_other].sum())
    self_s["cli"] = sum(c.import_s + c.parse_s for c in calls)
    total = sum(self_s.values())

    gen = of("gen_planted", "gen_coupled")
    scan, flip = of("all_flip_deltas"), of("apply_flip")
    chain_runs = of("run_chain", "run_coupled_gd")
    gibbs_run = of("run_chain") & (t["aux"] == 1.0)
    gd_run = chain_runs & ~gibbs_run
    chain_busy = dur - t["graph_child"]
    gd_steps = float(t["value"][gd_run].sum())
    gibbs_steps = float(t["value"][gibbs_run].sum())
    enum, brute = of("enumerate_local_minima"), of("brute_force_min")
    sampled = enum & ~np.isnan(t["aux"])
    n_max = max(c.n for c in calls)
    gibbs_calls = int(of("gibbs_step").sum())
    moved = int(flip.sum())
    step_bytes = n_max * (SCAN_B * scan.sum() + FLIP_B * moved
                          + GIBBS_B * gibbs_calls + GD_B * (scan.sum() - gibbs_calls))

    cell_spans = {}
    for c_index, tb in enumerate(tables):
        for s in np.unique(tb["seed"][tb["seed"] >= 0]):
            mask = tb["seed"] == s
            cell_spans[(c_index, int(s))] = float(tb["end"][mask].max()
                                                  - tb["start"][mask].min())
    cell_p50 = statistics.median(cell_spans.values()) if cell_spans else 0.0
    tail, tail_pct = _tail(list(cell_spans.values())) if cell_spans else (0.0, 0.0)
    scan_cells = sum(c.cells for c in calls if c.label == "scan")
    brute_cells = sum(c.cells for c in calls if c.label == "brute")
    pairs = t["n"][gen] * (t["n"][gen] - 1) / 2

    m = {
        "graphs.gen_s": ratio(dur[gen].sum(), gen.sum()),
        "graphs.gen_calls": ratio(gen.sum(), cells),
        "graphs.pairs_per_s": ratio(pairs.sum(), dur[gen].sum()),
        "graphs.rss_growth_mb": float(t["value"][gen].max(initial=0)) / 1024,
        "graphs.packed_mb.computed": n_max * math.ceil(n_max / 8) / 2**20,
        "energy.delta_scans": ratio(scan.sum(), cells),
        "energy.delta_scan_us": med_us(scan),
        "energy.flips": ratio(moved, cells),
        "energy.flip_us": med_us(flip),
        "energy.init_state_us": med_us(of("init_state")),
        "energy.bytes_per_step.computed": ratio(step_bytes, gd_steps + gibbs_steps),
        "chains.steps": ratio(gd_steps + gibbs_steps, cells),
        "chains.gd_step_us": ratio(chain_busy[gd_run].sum() * 1e6, gd_steps),
        "chains.gibbs_step_us": ratio(chain_busy[gibbs_run].sum() * 1e6, gibbs_steps),
        "chains.stay_ratio": ratio(stays, steps),
        "chains.gibbs_step_calls": ratio(gibbs_calls, cells),
        "landscape.scan_s": ratio(dur[enum].sum(), scan_cells),
        "landscape.brute_s": ratio(dur[brute].sum(), brute_cells),
        "landscape.subsets": ratio(t["value"][enum | brute].sum(), cells),
        "landscape.subsets_per_s": ratio(t["value"][enum | brute].sum(),
                                         dur[enum | brute].sum()),
        "landscape.accept_ratio.computed": ratio(
            (t["aux"][sampled] * t["value"][sampled]).sum(),
            t["value"][sampled].sum()),
        "harness.cell_s.p50": cell_p50,
        "harness.cell_s.tail": tail,
        "harness.cell_s.tail_pct": tail_pct,
        "harness.cell_s.n": len(cell_spans),
        "harness.csv_s": ratio(dur[of("to_csv")].sum(), cells),
        "harness.out_bytes": ratio(sum(c.out_bytes for c in calls), cells),
        "cli.import_s": statistics.median(c.import_s for c in calls),
        "cli.parse_s": statistics.median(c.parse_s for c in calls),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = ratio(self_s[layer], cells)
        m[f"{layer}.share"] = ratio(self_s[layer], total)
    return m
