"""Tests of the benchmark's own machinery: the output checks must pass on
real program output and catch altered output, and a traced call must write
the same bytes as an untraced one.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import check_call, digest_errors, same_outputs  # noqa: E402
from layers import LAYERS, TracedCall, layer_metrics  # noqa: E402
from workloads import Call, seeds_text  # noqa: E402

from plantedclique import cli  # noqa: E402

SEEDS = range(0, 2)
SMALL = {
    "gd": Call("run", 2, dict(n=300, k=30, chain="gd", gamma="4", beta="0.0",
                              max_steps=600, hold_window=0)),
    "gibbs": Call("run", 2, dict(n=120, k=20, chain="gibbs", gamma="4",
                                 beta="47.9", max_steps=3000, hold_window=400)),
    "coupled": Call("coupled", 2, dict(n=300, k=30, gamma="4", max_steps=2000)),
    "scan": Call("scan", 2, dict(n=24, k=6, gamma="10", m_values="3..5",
                                 budget=2000)),
    "brute": Call("brute", 2, dict(n=12, k=6, gamma="2", m_values="",
                                   budget=200000)),
}


def run_call(call: Call, where: Path, monkeypatch) -> Path:
    where.mkdir(parents=True, exist_ok=True)
    for name, text in call.files(seeds_text(SEEDS)).items():
        (where / name).write_text(text)
    monkeypatch.chdir(where)
    assert cli.main(call.argv(seeds_text(SEEDS))) == 0
    return where / "out"


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_checks_pass_on_program_output(kind, tmp_path, monkeypatch, capsys):
    call = SMALL[kind]
    out = run_call(call, tmp_path, monkeypatch)
    res = check_call(call.label, call.params, out, SEEDS)
    assert res.errors == {}
    assert set(res.digests) == set(SEEDS)
    if call.label in ("run", "coupled"):
        assert res.steps > 0


def _rewrite(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[col] = fn(fields[col])
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("col, fn", [
    (3, lambda e: str(int(e) + 1)),     # one scaled_energy off by one
    (1, lambda n1: str(int(n1) - 1)),   # an overlap count
    (4, lambda kind: "stay"),           # a move turned into a stay
])
def test_altered_trajectory_csv_fails_only_its_cell(col, fn, tmp_path,
                                                    monkeypatch, capsys):
    call = SMALL["gd"]
    out = run_call(call, tmp_path, monkeypatch)
    _rewrite(out / "traj_s1.csv", 40, col, fn)
    res = check_call(call.label, call.params, out, SEEDS)
    assert not res.failed(0)
    assert res.failed(1)


def test_altered_gibbs_and_coupled_outputs_fail(tmp_path, monkeypatch, capsys):
    call = SMALL["gibbs"]
    out = run_call(call, tmp_path / "gibbs", monkeypatch)
    _rewrite(out / "traj_s0.csv", -1, 3, lambda e: str(int(e) - 5))
    assert check_call(call.label, call.params, out, SEEDS).failed(0)

    call = SMALL["coupled"]
    out = run_call(call, tmp_path / "coupled", monkeypatch)
    summary = json.loads((out / "summary.json").read_text())
    summary["rows"][1]["first_divergence"] = (
        summary["rows"][1]["first_divergence"] or 0) + 1
    (out / "summary.json").write_text(json.dumps(summary))
    res = check_call(call.label, call.params, out, SEEDS)
    assert not res.failed(0) and res.failed(1)


def test_altered_brute_and_scan_rows_fail(tmp_path, monkeypatch, capsys):
    call = SMALL["brute"]
    out = run_call(call, tmp_path / "brute", monkeypatch)
    _rewrite(out / "brute_force.csv", 1, 1, lambda e: str(int(e) - 1))
    assert check_call(call.label, call.params, out, SEEDS).failed(0)

    call = SMALL["scan"]
    out = run_call(call, tmp_path / "scan", monkeypatch)
    _rewrite(out / "scan_s1.csv", 2, 4, lambda kappa: "0.5")
    res = check_call(call.label, call.params, out, SEEDS)
    assert not res.failed(0) and res.failed(1)


def test_digest_mismatch_fails_pinned_seeds_only(tmp_path, monkeypatch, capsys):
    call = SMALL["gd"]
    out = run_call(call, tmp_path, monkeypatch)
    res = check_call(call.label, call.params, out, SEEDS)
    pinned = {"0": dict(res.digests[0])}
    pinned["0"]["traj_s0.csv"] = "0" * 64
    digest_errors(res, pinned)
    assert res.failed(0) and not res.failed(1)


def test_same_outputs_ignores_created_only(tmp_path, monkeypatch, capsys):
    call = SMALL["gd"]
    out = run_call(call, tmp_path / "a", monkeypatch)
    copy = tmp_path / "b"
    shutil.copytree(out, copy)
    summary = json.loads((copy / "summary.json").read_text())
    summary["created"] = "another time"
    (copy / "summary.json").write_text(json.dumps(summary))
    assert same_outputs(out, copy) == []
    _rewrite(copy / "traj_s0.csv", 5, 3, lambda e: str(int(e) + 1))
    assert same_outputs(out, copy) == ["traj_s0.csv differs"]


def test_traced_call_writes_the_untraced_bytes(tmp_path):
    call = SMALL["gibbs"]
    outs = {}
    for trace in ("0", "1"):
        where = tmp_path / trace
        where.mkdir()
        for name, text in call.files(seeds_text(SEEDS)).items():
            (where / name).write_text(text)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"),
             json.dumps(call.argv(seeds_text(SEEDS))), trace],
            cwd=where, capture_output=True, text=True, timeout=120, check=True)
        outs[trace] = json.loads(proc.stdout.splitlines()[-1])
        assert outs[trace]["error"] is None
    assert same_outputs(tmp_path / "0" / "out", tmp_path / "1" / "out") == []

    spans = dict(np.load(tmp_path / "1" / "spans.npz"))
    names = set(spans["names"][spans["name"]])
    assert {"gen_planted", "run_chain", "gibbs_step", "all_flip_deltas",
            "to_csv"} <= names
    r = outs["1"]
    res = check_call(call.label, call.params, tmp_path / "1" / "out", SEEDS)
    m = layer_metrics([TracedCall("run", 120, 2, r["run_s"], r["import_s"],
                                  r["parse_s"], spans, 0)], res.steps, res.stays)
    assert sum(m[f"{layer}.share"] for layer in LAYERS) == pytest.approx(1)
    assert m["chains.steps"] * 2 == res.steps
    assert m["energy.delta_scans"] == m["chains.gibbs_step_calls"]
    assert m["harness.cell_s.n"] == 2
