"""The three dynamics over subset space, plus coupled runs and run checkers.

* Gradient descent: move to a uniformly random strictly-lowest-energy
  Hamming-1 neighbour; halt when none exists. A configurable tie policy can
  spend a bounded plateau budget on zero-delta moves, which is how empty-set
  starts leave the all-zero-delta initial state.
* Neighbourhood Gibbs sampler: pick the next state among the n+1 candidates
  at Hamming distance <= 1 (the state itself included) with probability
  proportional to exp(-beta * H(candidate)).
* Min-degree peeling: repeatedly delete a uniformly random minimum-degree
  vertex of the current induced subgraph, with degree-retention diagnostics.

All randomness comes through one uniform draw per step so that chains sharing
a seed on coupled graphs make identical choices while their candidate sets
agree.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .energy import GammaParam, SubsetState, apply_flip, delta_remove, init_state
from .graphs import CHAIN_STREAM, Graph, PlantedInstance, gen_coupled, stream_rng

__all__ = [
    "Move", "StepRecord", "Trajectory", "TiePolicy", "GradientDescent",
    "GibbsChain", "PeelDiagnostics", "CoupledResult", "gd_step", "gibbs_step",
    "gibbs_probabilities", "run_chain", "run_peel", "run_coupled_gd", "replay",
    "RemovalPhaseReport", "HammingReport", "verify_removal_phase",
    "verify_hamming_descent", "TRAJECTORY_CSV_HEADER",
]


@dataclass(frozen=True)
class Move:
    """One transition: add(x), remove(z) or stay, with its scaled delta."""

    kind: str  # "add" | "remove" | "stay"
    vertex: Optional[int]
    scaled_delta: int

    def __post_init__(self):
        if self.kind not in ("add", "remove", "stay"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.kind == "stay" and self.scaled_delta != 0:
            raise ValueError("stay moves have zero delta")


@dataclass(frozen=True)
class TiePolicy:
    """What gradient descent does when the best flip delta is exactly zero.

    halt: treat it as absorption (the strict definition).
    drift(b): spend up to b zero-delta moves per run, chosen uniformly among
    the zero-delta flips, then halt. drift(1) is enough to leave the empty
    set, whose add-deltas are all exactly zero.
    """

    kind: str = "halt"
    max_plateau_steps: int = 0

    def __post_init__(self):
        if self.kind not in ("halt", "drift"):
            raise ValueError(f"unknown tie policy {self.kind!r}")
        if self.kind == "drift" and self.max_plateau_steps < 1:
            raise ValueError("drift requires max_plateau_steps >= 1")
        if self.kind == "halt" and self.max_plateau_steps != 0:
            raise ValueError("halt takes no plateau budget")

    @classmethod
    def halt(cls) -> "TiePolicy":
        return cls("halt", 0)

    @classmethod
    def drift(cls, max_plateau_steps: int) -> "TiePolicy":
        return cls("drift", max_plateau_steps)


@dataclass(frozen=True)
class GradientDescent:
    tie_policy: TiePolicy = field(default_factory=TiePolicy.halt)


@dataclass(frozen=True)
class GibbsChain:
    beta: float


ChainKind = Union[GradientDescent, GibbsChain]


@dataclass(frozen=True)
class StepRecord:
    t: int
    n1: int
    n2: int
    scaled_energy: int
    move: Move


TRAJECTORY_CSV_HEADER = "t,n1,n2,scaled_energy,move_kind,move_vertex"


@dataclass
class Trajectory:
    """Per-step overlap/energy records plus terminal flags.

    Record 0 is the initial state with a placeholder stay move; record t >= 1
    is the state after step t. ``steps`` counts applied moves, so a chain
    absorbed on its first attempt has steps == 0.
    """

    records: list[StepRecord]
    absorbed: bool
    reached_pc: bool
    steps: int
    first_pc_step: Optional[int]
    stop_reason: str  # "absorbed" | "held" | "max_steps" | "stopped"
    init_spec: Union[str, tuple]
    terminal_size: int
    terminal_n1: int
    terminal_n2: int

    def to_csv(self, out, labels: Optional[np.ndarray] = None) -> None:
        """Write records as CSV to a text stream; vertex column uses original
        labels when a label map is given."""
        out.write(TRAJECTORY_CSV_HEADER + "\n")
        for rec in self.records:
            v = rec.move.vertex
            if v is not None and labels is not None:
                v = int(labels[v])
            vtxt = "" if v is None else str(v)
            out.write(f"{rec.t},{rec.n1},{rec.n2},{rec.scaled_energy},"
                      f"{rec.move.kind},{vtxt}\n")

    def csv_text(self, labels: Optional[np.ndarray] = None) -> str:
        buf = io.StringIO()
        self.to_csv(buf, labels)
        return buf.getvalue()

    def summary_dict(self) -> dict:
        return {
            "absorbed": self.absorbed,
            "reached_pc": self.reached_pc,
            "steps": self.steps,
            "first_pc_step": self.first_pc_step,
            "stop_reason": self.stop_reason,
            "terminal_size": self.terminal_size,
            "terminal_n1": self.terminal_n1,
            "terminal_n2": self.terminal_n2,
        }


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


def _choose(candidates: np.ndarray, u: float) -> int:
    """Uniform pick from a sorted candidate array using one uniform draw."""
    i = int(u * candidates.size)
    if i == candidates.size:  # u == 1.0 cannot happen, but be safe
        i -= 1
    return int(candidates[i])


def _gd_step_u(state: SubsetState, u: float, tie_policy: TiePolicy,
               plateau_used: int) -> Move:
    deltas = state.all_flip_deltas()
    dmin = int(deltas.min())
    if dmin > 0:
        return Move("stay", None, 0)
    if dmin == 0 and (tie_policy.kind != "drift"
                      or plateau_used >= tie_policy.max_plateau_steps):
        return Move("stay", None, 0)
    x = _choose(np.flatnonzero(deltas == dmin), u)
    kind = "remove" if state.member[x] else "add"
    apply_flip(state, x)
    return Move(kind, x, dmin)


def gd_step(state: SubsetState, rng: np.random.Generator,
            tie_policy: TiePolicy = TiePolicy("halt", 0),
            plateau_used: int = 0) -> tuple[Move, SubsetState]:
    """One gradient-descent step: apply a uniformly random flip among the
    strict argmin of the n single-flip deltas, or stay if the minimum is
    nonnegative (subject to the tie policy's plateau budget). The state is
    mutated in place. Consumes exactly one uniform draw."""
    move = _gd_step_u(state, rng.random(), tie_policy, plateau_used)
    return move, state


def _gibbs_probs(deltas: np.ndarray, q_den: int, beta: float) -> np.ndarray:
    if not math.isfinite(beta):
        raise ValueError("beta must be finite (the beta -> inf limit is gd_step)")
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    dmin = min(int(deltas.min()), 0)
    scale = beta / q_den
    weights = np.empty(deltas.size + 1)
    weights[0] = math.exp(-scale * (0 - dmin))
    np.exp(-scale * (deltas - dmin), out=weights[1:])
    weights /= weights.sum()
    return weights


def gibbs_probabilities(state: SubsetState, beta: float) -> np.ndarray:
    """Transition distribution over the n+1 candidates [stay, flip 0, ...,
    flip n-1], proportional to exp(-beta * H(candidate)). Exponents are
    shifted by the minimum candidate energy for stability."""
    return _gibbs_probs(state.all_flip_deltas(), state.gamma.q_den, beta)


def gibbs_step(state: SubsetState, beta: float,
               rng: np.random.Generator) -> tuple[Move, SubsetState]:
    """One neighbourhood-Gibbs step at inverse temperature beta. Candidates
    are the state itself and all n single flips. Mutates the state in place;
    consumes exactly one uniform draw."""
    deltas = state.all_flip_deltas()
    probs = _gibbs_probs(deltas, state.gamma.q_den, beta)
    r = rng.random()
    if r < probs[0]:
        return Move("stay", None, 0), state
    acc = np.cumsum(probs[1:])
    x = int(np.searchsorted(acc, r - probs[0], side="right"))
    if x >= state.graph.n:  # guard against float round-off at the top end
        x = state.graph.n - 1
    kind = "remove" if state.member[x] else "add"
    apply_flip(state, x)
    return Move(kind, x, int(deltas[x])), state


def _peel_step_u(state: SubsetState, u: float) -> Move:
    """Remove a uniformly random minimum-degree member of the current set."""
    degs = np.where(state.member, state.deg_into, np.iinfo(np.int64).max)
    x = _choose(np.flatnonzero(degs == degs.min()), u)
    move = Move("remove", x, delta_remove(state, x))
    apply_flip(state, x)
    return move


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _resolve_init(init, n: int) -> tuple[np.ndarray, Union[str, tuple]]:
    if isinstance(init, str):
        if init == "full":
            return np.ones(n, dtype=bool), "full"
        if init == "empty":
            return np.zeros(n, dtype=bool), "empty"
        raise ValueError(f"unknown init {init!r} (use 'full', 'empty' or vertices)")
    members = np.zeros(n, dtype=bool)
    verts = tuple(sorted(set(int(v) for v in init)))
    for v in verts:
        if not 0 <= v < n:
            raise ValueError(f"init vertex {v} out of range")
        members[v] = True
    return members, verts


class _MinDegreePeel:
    """Driver kind of ``run_peel``; its moves are ``_peel_step_u``."""


class _ChainDriver:
    """Steps one chain and maintains its trajectory bookkeeping: overlap
    counts, records and clique visits. Gradient descent, Gibbs and peeling
    all step through it, and coupled runs drive two off shared uniforms."""

    def __init__(self, graph: Graph, k: int, init, kind: ChainKind,
                 gamma: GammaParam, record_every: int = 1):
        members, init_spec = _resolve_init(init, graph.n)
        self.state = init_state(graph, members, gamma)
        self.kind = kind
        self.k = k
        self.record_every = max(1, int(record_every))
        self.n1 = int(np.count_nonzero(members[:k]))
        self.n2 = self.state.size - self.n1
        self.plateau_used = 0
        self.absorbed = False
        self.steps = 0
        self.first_pc_step = 0 if self._at_pc() else None
        self.pc_run = 0
        self.init_spec = init_spec
        self.last_move = Move("stay", None, 0)
        self.records = [StepRecord(0, self.n1, self.n2,
                                   self.state.scaled_energy, self.last_move)]

    def _at_pc(self) -> bool:
        return self.k > 0 and self.n1 == self.k and self.n2 == 0

    def step(self, t: int, u: Optional[float],
             rng: Optional[np.random.Generator]) -> Optional[Move]:
        """Advance to step t; returns the applied move, or None on gd
        absorption. ``u`` overrides the gd choice draw (for coupled runs)."""
        was_at_pc = self._at_pc()
        if isinstance(self.kind, GibbsChain):
            move, _ = gibbs_step(self.state, self.kind.beta, rng)
        elif isinstance(self.kind, _MinDegreePeel):
            move = _peel_step_u(self.state, rng.random())
        else:
            u = rng.random() if u is None else u
            move = _gd_step_u(self.state, u, self.kind.tie_policy, self.plateau_used)
            if move.kind == "stay":
                self.absorbed = True
                return None
            if move.scaled_delta == 0:
                self.plateau_used += 1
        self.steps = t
        self.last_move = move
        if move.vertex is not None:
            sign = 1 if move.kind == "add" else -1
            if move.vertex < self.k:
                self.n1 += sign
            else:
                self.n2 += sign
        if self._at_pc():
            if self.first_pc_step is None:
                self.first_pc_step = t
            # count steps that both start and end at the clique, so pc_run
            # is the number of *further* steps it has remained there
            self.pc_run = self.pc_run + 1 if was_at_pc else 0
        else:
            self.pc_run = 0
        if t % self.record_every == 0:
            self.records.append(StepRecord(t, self.n1, self.n2,
                                           self.state.scaled_energy, move))
        return move

    def finish(self, stop_reason: str) -> Trajectory:
        if self.records[-1].t != self.steps:
            self.records.append(StepRecord(self.steps, self.n1, self.n2,
                                           self.state.scaled_energy,
                                           self.last_move))
        return Trajectory(
            records=self.records,
            absorbed=self.absorbed,
            reached_pc=self.first_pc_step is not None,
            steps=self.steps,
            first_pc_step=self.first_pc_step,
            stop_reason=stop_reason,
            init_spec=self.init_spec,
            terminal_size=self.state.size,
            terminal_n1=self.n1,
            terminal_n2=self.n2,
        )


def run_chain(instance: Union[PlantedInstance, Graph], init, kind: ChainKind,
              gamma: GammaParam, max_steps: int, seed: int, *,
              hold_window: Optional[int] = None,
              record_every: int = 1) -> Trajectory:
    """Run one chain on a planted instance (or a bare graph, in which case
    the overlap columns are zero and clique detection is off).

    Gradient descent stops at absorption; the Gibbs chain stops once it has
    sat at the planted clique for ``hold_window`` consecutive steps (default
    10 * n). Either stops at ``max_steps``, which is reported via
    ``stop_reason``, not raised.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if isinstance(instance, Graph):
        graph, k = instance, 0
    else:
        graph, k = instance.graph, instance.k
    if isinstance(kind, GibbsChain) and hold_window is None:
        hold_window = 10 * graph.n
    rng = stream_rng(seed, CHAIN_STREAM)
    driver = _ChainDriver(graph, k, init, kind, gamma, record_every)
    reason = "max_steps"
    for t in range(1, max_steps + 1):
        move = driver.step(t, None, rng)
        if move is None:
            reason = "absorbed"
            break
        if (isinstance(kind, GibbsChain) and hold_window
                and driver.pc_run >= hold_window):
            reason = "held"
            break
    return driver.finish(reason)


# ---------------------------------------------------------------------------
# Peeling
# ---------------------------------------------------------------------------


@dataclass
class PeelDiagnostics:
    """Degree-retention bookkeeping for a peeling run.

    ``counts[t]`` is the overlap split of the surviving set at time t:
    (n1, n2) for plain planted instances, (n1, n2, n3) when contamination
    metadata is present. ``removal_times`` maps each clique vertex to the step
    it was removed, capped at the stop time. ``retained`` is the set of clique
    vertices whose degree stayed within c1 * sqrt(n) of its expected excess at
    every step before their removal (None when c1 was not supplied).
    """

    counts: list
    removal_times: dict
    retained: Optional[set]
    c1: Optional[float]
    tau0: int


def run_peel(instance: PlantedInstance, stop: Optional[int] = None,
             seed: int = 0, *, c1: Optional[float] = None,
             gamma: Optional[GammaParam] = None
             ) -> tuple[Trajectory, PeelDiagnostics]:
    """Peel from the full vertex set, removing a uniformly random
    minimum-degree vertex of the surviving induced subgraph each step.

    Stops once at most ``stop`` non-clique vertices survive (None: once none
    do). ``gamma`` only prices the trajectory's energy column (default 2).
    """
    threshold = stop or 0
    rng = stream_rng(seed, CHAIN_STREAM)
    graph, k = instance.graph, instance.k
    cont = instance.contamination
    m = cont.m if cont else 0
    q = cont.q if cont else 0.5
    sqrt_n = math.sqrt(graph.n)
    driver = _ChainDriver(graph, k, "full", _MinDegreePeel(),
                          gamma or GammaParam(2, 1))
    state = driver.state
    n2v = m  # contaminated survivors
    counts = []
    removal_times = {}
    violated = np.zeros(k, dtype=bool)
    t = 0
    while True:
        n1, n23 = driver.n1, driver.n2
        counts.append((n1, n2v, n23 - n2v) if cont else (n1, n23))
        if n23 <= threshold or state.size == 0:
            break
        # Retention check on surviving clique vertices, before this removal.
        if c1 is not None and n1 > 0:
            bound = (n1 - 1) + q * n2v + 0.5 * (n23 - n2v) - c1 * sqrt_n
            violated |= state.member[:k] & (state.deg_into[:k] < bound)
        t += 1
        x = driver.step(t, None, rng).vertex
        if x < k:
            removal_times[x] = t
        elif x < k + m:
            n2v -= 1

    for x in range(k):
        removal_times.setdefault(x, t)
    retained = None if c1 is None else {x for x in range(k) if not violated[x]}
    return driver.finish("stopped"), PeelDiagnostics(counts, removal_times,
                                                     retained, c1, t)


# ---------------------------------------------------------------------------
# Coupled planted/unplanted run
# ---------------------------------------------------------------------------


@dataclass
class CoupledResult:
    """Lockstep gradient descents on G (planted) and G0 (its unplanted twin),
    driven by the same per-step uniforms."""

    planted: Trajectory
    unplanted: Trajectory
    tau: Optional[int]               # first step the planted chain touches the clique
    first_divergence: Optional[int]  # first step the applied moves differ
    identical_before_tau: bool
    identical_through_absorption: bool


def run_coupled_gd(n: int, k: int, gamma: GammaParam, tie_policy: TiePolicy,
                   max_steps: int, seed: int, *, init="empty",
                   record_every: int = 1) -> CoupledResult:
    """Generate the coupled pair (G0, G) and run gradient descent on both with
    shared randomness: one uniform per step drives both argmin choices, so the
    trajectories coincide while their candidate sets do."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    g0, instance = gen_coupled(n, k, seed)
    rng = stream_rng(seed, CHAIN_STREAM)
    kind = GradientDescent(tie_policy)
    a = _ChainDriver(instance.graph, k, init, kind, gamma, record_every)
    b = _ChainDriver(g0, k, init, kind, gamma, record_every)

    tau = 0 if a.n1 > 0 else None
    first_div = None
    for t in range(1, max_steps + 1):
        if a.absorbed and b.absorbed:
            break
        u = rng.random()
        move_a = a.step(t, u, None) if not a.absorbed else None
        move_b = b.step(t, u, None) if not b.absorbed else None
        if first_div is None and move_a != move_b:
            first_div = t
        if tau is None and a.n1 > 0:
            tau = t

    reason_a = "absorbed" if a.absorbed else "max_steps"
    reason_b = "absorbed" if b.absorbed else "max_steps"
    traj_a, traj_b = a.finish(reason_a), b.finish(reason_b)
    before_tau_ok = first_div is None or tau is None or first_div >= tau
    through_ok = (first_div is None and a.absorbed and b.absorbed
                  and np.array_equal(a.state.member, b.state.member))
    return CoupledResult(traj_a, traj_b, tau, first_div, before_tau_ok, through_ok)


# ---------------------------------------------------------------------------
# Replay-based run checkers
# ---------------------------------------------------------------------------


def replay(instance_graph: Union[Graph, PlantedInstance], trajectory: Trajectory,
           gamma: GammaParam, upto: Optional[int] = None) -> SubsetState:
    """Rebuild the state at step ``upto`` (default: terminal) by replaying the
    trajectory's moves. Requires the trajectory to carry every step."""
    graph = instance_graph.graph if isinstance(instance_graph, PlantedInstance) else instance_graph
    members, _ = _resolve_init(trajectory.init_spec, graph.n)
    state = init_state(graph, members, gamma)
    for rec in trajectory.records[1:]:
        if upto is not None and rec.t > upto:
            break
        if rec.move.vertex is not None:
            apply_flip(state, rec.move.vertex)
        if state.scaled_energy != rec.scaled_energy:
            raise AssertionError(f"replay diverged at step {rec.t}")
    return state


@dataclass
class RemovalPhaseReport:
    checked_steps: int
    violations: int
    first_violation_step: Optional[int]

    @property
    def ok(self) -> bool:
        return self.violations == 0


def verify_removal_phase(instance: PlantedInstance, trajectory: Trajectory,
                         gamma: GammaParam, n2_threshold: float) -> RemovalPhaseReport:
    """Check that while more than ``n2_threshold`` non-clique vertices remain,
    every move removes a vertex of minimum degree within the current set
    (which is exactly the argmin of the removal energies)."""
    members, _ = _resolve_init(trajectory.init_spec, instance.n)
    state = init_state(instance.graph, members, gamma)
    checked = violations = 0
    first_bad = None
    n2 = trajectory.records[0].n2
    for rec in trajectory.records[1:]:
        if n2 > n2_threshold:
            checked += 1
            bad = rec.move.kind != "remove"
            if not bad:
                degs = state.deg_into[state.member]
                bad = int(state.deg_into[rec.move.vertex]) != int(degs.min())
            if bad:
                violations += 1
                if first_bad is None:
                    first_bad = rec.t
        if rec.move.vertex is not None:
            apply_flip(state, rec.move.vertex)
        n2 = rec.n2
    return RemovalPhaseReport(checked, violations, first_bad)


@dataclass
class HammingReport:
    entered_step: Optional[int]
    checked_steps: int
    violations: int
    first_violation_step: Optional[int]
    reached_zero: bool

    @property
    def ok(self) -> bool:
        return (self.entered_step is not None and self.violations == 0
                and self.reached_zero)


def verify_hamming_descent(trajectory: Trajectory, k: int, gamma: GammaParam,
                           xi: float = 0.2) -> HammingReport:
    """From the first step where n1 >= max(gamma * n2 + 2, (1 - xi) * k),
    check the Hamming distance to the clique strictly decreases to zero."""
    p, qd = gamma.p, gamma.q_den
    entered = None
    checked = violations = 0
    first_bad = None
    reached = False
    prev_d = None
    for rec in trajectory.records:
        d = (k - rec.n1) + rec.n2
        if entered is None:
            if qd * rec.n1 >= p * rec.n2 + 2 * qd and rec.n1 >= (1 - xi) * k:
                entered = rec.t
                prev_d = d
            continue
        if prev_d == 0:
            break
        checked += 1
        if d >= prev_d:
            violations += 1
            if first_bad is None:
                first_bad = rec.t
        prev_d = d
        if d == 0:
            reached = True
            break
    if entered is not None and prev_d == 0:
        reached = True
    return HammingReport(entered, checked, violations, first_bad, reached)
