"""Output checks for one benchmark call, run outside the timed region.

Two kinds of check decide whether a cell (one seed of one call) failed:

* Recomputed checks, for any seed. Each trajectory CSV is replayed from its
  init with ``init_state`` / ``apply_flip`` and every ``scaled_energy``,
  overlap and move kind is compared; the summary row must agree with its
  trajectory; gd terminals must pass ``local_min_check(...).is_absorbing``;
  brute-force rows are recomputed by an independent vectorized oracle and
  the energy of each argmin is checked with ``init_state``; sampled scan
  rows are checked only in what does not depend on the sample stream.
* Stored bytes, for the default seed: sha256 digests of every CSV and every
  summary row (``digests.json``), recorded under ``pcg64-streams-v1``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from plantedclique import (GammaParam, gen_coupled, gen_planted, init_state,
                           apply_flip, local_min_check)

TRAJ_HEADER = "t,n1,n2,scaled_energy,move_kind,move_vertex"
SCAN_HEADER = ("m,count_or_estimate,stderr,predicted_exponent,kappa,h_kappa,"
               "n,gamma")
BRUTE_HEADER = "seed,min_scaled_energy,n_argmins,argmin_is_pc,argmin_contains_pc"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def row_digest(row: dict) -> str:
    return sha256(json.dumps(row, sort_keys=True).encode())


@dataclass
class CallCheck:
    """Problems per seed, the digests of what the call wrote, and the step
    and stay counts read from its trajectories."""

    errors: dict = field(default_factory=dict)    # seed -> [message]
    digests: dict = field(default_factory=dict)   # seed -> {key: sha256}
    steps: int = 0
    stays: int = 0

    def failed(self, seed) -> bool:
        return bool(self.errors.get(seed))


class CheckFailure(Exception):
    pass


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


@dataclass
class Traj:
    t: list
    n1: list
    n2: list
    energy: list
    kind: list
    vertex: list    # -1 for stay rows

    @property
    def steps(self) -> int:
        return self.t[-1]


def parse_traj(data: bytes) -> Traj:
    lines = data.decode().splitlines()
    _expect(lines and lines[0] == TRAJ_HEADER, "bad trajectory header")
    cols = ([], [], [], [], [], [])
    for line in lines[1:]:
        t, n1, n2, e, kind, v = line.split(",")
        for col, val in zip(cols, (int(t), int(n1), int(n2), int(e), kind,
                                   int(v) if v else -1)):
            col.append(val)
    _expect(len(cols[0]) >= 1, "empty trajectory")
    return Traj(*cols)


def replay(graph, k: int, init: str, gamma: GammaParam, traj: Traj,
           to_internal=None):
    """Rebuild the chain state row by row and compare every recorded
    number. Returns the terminal state and the number of stay rows."""
    n = graph.n
    state = init_state(graph, np.full(n, init == "full"), gamma)
    n1 = k if init == "full" else 0
    n2 = state.size - n1
    stays = 0
    for r in range(len(traj.t)):
        if r:
            _expect(traj.t[r] == traj.t[r - 1] + 1, f"row {r}: t not consecutive")
            kind, v = traj.kind[r], traj.vertex[r]
            if kind == "stay":
                _expect(v == -1, f"t={traj.t[r]}: stay with a vertex")
                stays += 1
            else:
                _expect(v >= 0, f"t={traj.t[r]}: move without a vertex")
                x = int(to_internal[v]) if to_internal is not None else v
                want = "remove" if state.member[x] else "add"
                _expect(kind == want, f"t={traj.t[r]}: {kind} of {v}, expected {want}")
                apply_flip(state, x)
                sign = 1 if kind == "add" else -1
                if x < k:
                    n1 += sign
                else:
                    n2 += sign
        else:
            _expect(traj.t[0] == 0 and traj.kind[0] == "stay", "bad row 0")
        _expect(traj.energy[r] == state.scaled_energy,
                f"t={traj.t[r]}: scaled_energy {traj.energy[r]}, "
                f"replay gives {state.scaled_energy}")
        _expect((traj.n1[r], traj.n2[r]) == (n1, n2),
                f"t={traj.t[r]}: overlap ({traj.n1[r]}, {traj.n2[r]}), "
                f"replay gives ({n1}, {n2})")
    return state, stays


def _check_row(row: dict, traj: Traj, k: int) -> None:
    at_pc = [t for t, a, b in zip(traj.t, traj.n1, traj.n2) if a == k and b == 0]
    expect = {"steps": traj.steps, "terminal_n1": traj.n1[-1],
              "terminal_n2": traj.n2[-1],
              "terminal_size": traj.n1[-1] + traj.n2[-1],
              "reached_pc": bool(at_pc),
              "first_pc_step": at_pc[0] if at_pc else None}
    for key, want in expect.items():
        _expect(row.get(key) == want, f"summary {key} = {row.get(key)!r}, "
                                      f"trajectory gives {want!r}")


def _deltas(traj: Traj) -> list:
    return [b - a for a, b in zip(traj.energy, traj.energy[1:])]


def _check_gd(graph, gamma, state, traj: Traj, plateau_budget: int) -> None:
    """Every gd move lowers the energy, except at most ``plateau_budget``
    zero-delta moves; a terminal state is absorbing."""
    deltas = _deltas(traj)
    _expect(all(d <= 0 for d in deltas), "gd move raised the energy")
    _expect(sum(d == 0 for d in deltas) <= plateau_budget,
            "gd spent more zero-delta moves than its plateau budget")
    _expect(local_min_check(graph, state.member, gamma).is_absorbing,
            "gd terminal state is not absorbing")


# ---------------------------------------------------------------------------
# Per-call checks
# ---------------------------------------------------------------------------


def _check_run(p: dict, out: Path, seed: int, row: dict, digests: dict,
               result: CallCheck) -> None:
    data = (out / f"traj_s{seed}.csv").read_bytes()
    digests[f"traj_s{seed}.csv"] = sha256(data)
    gamma = GammaParam.from_value(p["gamma"])
    inst = gen_planted(p["n"], p["k"], seed)
    to_internal = np.empty(p["n"], dtype=np.int64)
    to_internal[inst.labels] = np.arange(p["n"])
    traj = parse_traj(data)
    state, stays = replay(inst.graph, p["k"], "full", gamma, traj, to_internal)
    _check_row(row, traj, p["k"])
    _expect(traj.steps <= p["max_steps"], "ran past max_steps")
    if p["chain"] == "gd":
        if row["stop_reason"] == "absorbed":
            _check_gd(inst.graph, gamma, state, traj, 0)
    elif row["stop_reason"] == "held":
        hold = p["hold_window"]
        tail = list(zip(traj.n1, traj.n2))[-hold - 1:]
        _expect(len(tail) == hold + 1 and all(c == (p["k"], 0) for c in tail),
                "held without hold_window steps at the clique")
    result.steps += traj.steps
    result.stays += stays


def _moves(traj: Traj) -> list:
    deltas = _deltas(traj)
    return [(traj.kind[i], traj.vertex[i], deltas[i - 1])
            for i in range(1, len(traj.t))]


def _check_coupled(p: dict, out: Path, seed: int, row: dict, digests: dict,
                   result: CallCheck) -> None:
    gamma = GammaParam.from_value(p["gamma"])
    g0, inst = gen_coupled(p["n"], p["k"], seed)
    trajs, states = [], []
    for side, graph in (("planted", inst.graph), ("unplanted", g0)):
        data = (out / f"coupled_{side}_s{seed}.csv").read_bytes()
        digests[f"coupled_{side}_s{seed}.csv"] = sha256(data)
        traj = parse_traj(data)
        state, stays = replay(graph, p["k"], "empty", gamma, traj)
        absorbed = traj.steps < p["max_steps"]
        if absorbed:
            _check_gd(graph, gamma, state, traj, 1)
        trajs.append(traj)
        states.append((state, absorbed))
        result.steps += traj.steps
        result.stays += stays
    _check_row(row, trajs[0], p["k"])
    touched = [t for t, a in zip(trajs[0].t, trajs[0].n1) if a > 0]
    tau = touched[0] if touched else None
    ma, mb = _moves(trajs[0]), _moves(trajs[1])
    div = next((t for t in range(1, max(len(ma), len(mb)) + 1)
                if (ma[t - 1] if t <= len(ma) else None)
                != (mb[t - 1] if t <= len(mb) else None)), None)
    (sa, abs_a), (sb, abs_b) = states
    expect = {"tau": tau, "first_divergence": div,
              "identical_before_tau": div is None or tau is None or div >= tau,
              "identical_through_absorption": (
                  div is None and abs_a and abs_b
                  and bool(np.array_equal(sa.member, sb.member)))}
    for key, want in expect.items():
        _expect(row.get(key) == want, f"summary {key} = {row.get(key)!r}, "
                                      f"trajectories give {want!r}")


def _entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _check_scan(p: dict, out: Path, seed: int, digests: dict) -> None:
    data = (out / f"scan_s{seed}.csv").read_bytes()
    digests[f"scan_s{seed}.csv"] = sha256(data)
    lines = data.decode().splitlines()
    _expect(lines and lines[0] == SCAN_HEADER, "bad scan header")
    lo, hi = (int(x) for x in p["m_values"].split(".."))
    _expect(len(lines) - 1 == hi - lo + 1, "scan row count")
    gamma = GammaParam.from_value(p["gamma"])
    kappa = float(gamma.kappa)
    h = _entropy(kappa)
    n, budget, pool = p["n"], p["budget"], p["n"] - p["k"]
    for m, line in zip(range(lo, hi + 1), lines[1:]):
        f = line.split(",")
        c = m / math.log2(n)
        exp = (f"{1 - 0.5 * c * (1 - h):.6g}"
               if h < 0.5 and 1 / (1 - h) < c < 2 else "")
        _expect(f[0] == str(m) and f[3] == exp and f[4] == f"{kappa:.6g}"
                and f[5] == f"{h:.6g}" and f[6] == str(n) and f[7] == str(gamma),
                f"m={m}: formula columns differ: {line}")
        total = math.comb(pool, m)
        if total <= budget:
            _expect(f[2] == "0" and float(f[1]).is_integer(),
                    f"m={m}: exhaustive count is not exact")
            continue
        # sampled: count_estimate = total * hits / budget for integer hits
        def columns(hits):
            ph = hits / budget
            return (f"{total * ph:.6g}",
                    f"{total * math.sqrt(ph * (1 - ph) / budget):.6g}")
        guess = round(float(f[1]) * budget / total)
        hits = range(max(guess - 2, 0), min(guess + 2, budget) + 1)
        _expect(any(columns(h) == (f[1], f[2]) for h in hits),
                f"m={m}: estimate is not total * hits / budget")


def brute_oracle(graph, gamma: GammaParam):
    """Global minimum over all 2^n subsets by a vectorized doubling pass,
    independent of ``brute_force_min``: edges(S + v) = edges(S) +
    |N(v) & S| for every S below bit v."""
    n = graph.n
    dense = graph.to_dense()
    adj = (dense.astype(np.int64) << np.arange(n, dtype=np.int64)).sum(axis=1)
    edges = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        low = np.arange(1 << v, dtype=np.int64)
        edges[1 << v: 2 << v] = edges[: 1 << v] + np.bitwise_count(low & adj[v])
    size = np.bitwise_count(np.arange(1 << n, dtype=np.int64)).astype(np.int64)
    h = gamma.p * (size * (size - 1) // 2) - gamma.edge_weight * edges
    best = int(h.min())
    return best, np.flatnonzero(h == best)


def _check_brute(p: dict, seed: int, line: str, digests: dict) -> None:
    digests["brute_row"] = sha256(line.encode())
    gamma = GammaParam.from_value(p["gamma"])
    graph = gen_planted(p["n"], p["k"], seed).graph
    best, argmins = brute_oracle(graph, gamma)
    pc = (1 << p["k"]) - 1
    unique = argmins.size == 1
    want = (f"{seed},{best},{argmins.size},{int(unique and argmins[0] == pc)},"
            f"{int(unique and (int(argmins[0]) & pc) == pc)}")
    _expect(line == want, f"brute row {line!r}, oracle gives {want!r}")
    for mask in argmins[:8].tolist():
        members = [i for i in range(p["n"]) if mask >> i & 1]
        _expect(init_state(graph, members, gamma).scaled_energy == best,
                "argmin energy differs from init_state")


def check_call(label: str, params: dict, out: Path, seeds) -> CallCheck:
    """Check every seed of one call's output directory ``out``."""
    result = CallCheck()
    summary_rows, brute_lines = {}, {}
    try:
        if label in ("run", "coupled"):
            summary = json.loads((out / "summary.json").read_text())
            summary_rows = {r["seed"]: r for r in summary["rows"]}
        elif label == "brute":
            lines = (out / "brute_force.csv").read_text().splitlines()
            _expect(lines and lines[0] == BRUTE_HEADER, "bad brute header")
            brute_lines = {int(s.split(",", 1)[0]): s for s in lines[1:]}
    except Exception as exc:  # a missing or garbled file fails every cell
        for seed in seeds:
            result.errors[seed] = [f"{type(exc).__name__}: {exc}"]
        return result
    for seed in seeds:
        digests = result.digests.setdefault(seed, {})
        try:
            if label in ("run", "coupled"):
                row = summary_rows[seed]
                digests["row"] = row_digest(row)
                check = _check_run if label == "run" else _check_coupled
                check(params, out, seed, row, digests, result)
            elif label == "scan":
                _check_scan(params, out, seed, digests)
            else:
                _check_brute(params, seed, brute_lines[seed], digests)
        except Exception as exc:  # any problem fails this cell only
            result.errors.setdefault(seed, []).append(
                f"{type(exc).__name__}: {exc}")
    return result


def digest_errors(result: CallCheck, pinned: dict) -> None:
    """Add a problem for every digest that differs from a pinned one.
    ``pinned`` maps str(seed) -> {key: sha256}; unpinned seeds pass."""
    for seed, digests in result.digests.items():
        want = pinned.get(str(seed))
        if want is None:
            continue
        for key in sorted(set(want) | set(digests)):
            if want.get(key) != digests.get(key):
                result.errors.setdefault(seed, []).append(
                    f"digest of {key} differs from the pinned one")


def same_outputs(a: Path, b: Path) -> list[str]:
    """Byte-for-byte comparison of two output directories; JSON files are
    compared with their wall-clock ``created`` field dropped."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return ["different file sets"]
    problems = []
    for name in names:
        x, y = (a / name).read_bytes(), (b / name).read_bytes()
        if name.endswith(".json"):
            x, y = (json.loads(v) for v in (x, y))
            x.pop("created", None)
            y.pop("created", None)
        if x != y:
            problems.append(f"{name} differs")
    return problems
