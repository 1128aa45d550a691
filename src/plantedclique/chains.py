"""The three dynamics over subset space, plus coupled runs and replay.

* Gradient descent: move to a uniformly random strictly-lowest-energy
  Hamming-1 neighbour; halt when none exists. A plateau budget allows a
  bounded number of zero-delta moves, which is how empty-set starts leave
  the all-zero-delta initial state.
* Neighbourhood Gibbs sampler: pick the next state among the n+1 candidates
  at Hamming distance <= 1 (the state itself included) with probability
  proportional to exp(-beta * H(candidate)).
* Min-degree peeling: repeatedly delete a uniformly random minimum-degree
  vertex of the current induced subgraph, with degree-retention diagnostics.

Each is a move function stepped by one loop, ``_ChainDriver.run``, which
keeps the trajectory: a call takes the stays and the move of one visit (or
ends the run) and returns them. Step t of every chain takes draw t of
``CHAIN_STREAM``, so chains sharing a seed on coupled graphs make identical
choices while their candidate sets agree. Gradient descent, a cold Gibbs
step and the peel read the least-key class that the state keeps across its
removals (``SubsetState.least``); none keeps a class of its own.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from typing import NamedTuple, Optional, Union

import numpy as np

from .energy import SCALAR_FLIPS, GammaParam, SubsetState, apply_flip, init_state
from .graphs import CHAIN_STREAM, Graph, PlantedInstance, gen_coupled, stream_rng

__all__ = [
    "Move", "Trajectory", "GradientDescent",
    "GibbsChain", "PeelDiagnostics", "CoupledResult", "gd_step", "gibbs_step",
    "run_chain", "run_peel", "run_coupled_gd", "replay", "TRAJECTORY_CSV_HEADER",
]


class Move(NamedTuple):
    """One transition: add(x), remove(z) or stay, with its scaled delta."""

    kind: str  # "add" | "remove" | "stay"
    vertex: Optional[int]  # None for a stay
    scaled_delta: int


_STAY = Move("stay", None, 0)


@dataclass(frozen=True)
class GradientDescent:
    """Gradient descent that may spend up to ``plateau_budget`` zero-delta
    moves per run, each chosen uniformly among the zero-delta flips, before a
    zero best delta halts it. 0 is the strict definition; 1 is enough to
    leave the empty set, whose add-deltas are all exactly zero."""

    plateau_budget: int = 0


@dataclass(frozen=True)
class GibbsChain:
    beta: float


ChainKind = Union[GradientDescent, GibbsChain]


TRAJECTORY_CSV_HEADER = "t,n1,n2,scaled_energy,move_kind,move_vertex"


def _step_lines(steps: np.ndarray) -> tuple:
    """Ascending int64 steps >= 0 as one line "{t}\\n" each, and the offsets where
    the lines end, after a 0: one block of ASCII digits and newlines per digit width."""
    top = len(str(steps[-1])) if steps.size else 1
    cuts = [0, *steps.searchsorted([10**w for w in range(1, top)]), steps.size]
    ends = np.append(0, np.repeat(np.arange(2, top + 2), np.diff(cuts)).cumsum())
    text = np.empty(ends[-1], dtype=np.uint8)
    for width, lo, hi in zip(range(1, top + 1), cuts, cuts[1:]):
        block = text[ends[lo]:ends[hi]].reshape(hi - lo, width + 1)
        block[:, width], seg = ord("\n"), steps[lo:hi]
        for col in range(width - 1, -1, -1):  # numpy divides by a constant quickly,
            quot = seg // 10  # but not in divmod or %
            block[:, col] = seg - 10 * quot + ord("0")
            seg = quot
    return str(text, "ascii"), ends


@dataclass
class Trajectory:
    """A run as run-length columns plus its terminal flags.

    ``move_*`` row i is the state after step ``move_t[i]`` and the move it
    applied (row 0: the initial state, a placeholder stay). ``stay_counts[j]``
    stays follow row ``stay_rows[j]``. A move has a row if its step is a
    multiple of ``record_every``, the last, or before stays. ``t``, ``n1``,
    ``n2``, ``scaled_energy`` (exact ints), ``kind`` and ``vertex`` (-1: stay)
    expand the recorded steps: those multiples and ``steps``, the count of
    applied steps (0 for a chain absorbed at once).
    """

    move_t: np.ndarray
    move_n1: np.ndarray
    move_n2: np.ndarray
    move_energy: np.ndarray
    move_kind: np.ndarray
    move_vertex: np.ndarray
    stay_rows: np.ndarray
    stay_counts: np.ndarray
    record_every: int
    absorbed: bool
    reached_pc: bool
    steps: int
    first_pc_step: Optional[int]
    stop_reason: str  # "absorbed" | "held" | "max_steps" | "stopped"
    init_spec: Union[str, tuple]
    terminal_size: int
    terminal_n1: int
    terminal_n2: int

    @cached_property
    def _index(self) -> tuple:
        """The recorded steps, the move row of each and whether it moved then."""
        t = np.arange(0, self.steps + 1, self.record_every)
        t = t if t[-1] == self.steps else np.append(t, self.steps)
        row = self.move_t.searchsorted(t, side="right") - 1
        return t, row, self.move_t[row] == t

    t = property(lambda self: self._index[0])
    n1 = property(lambda self: self.move_n1[self._index[1]])
    n2 = property(lambda self: self.move_n2[self._index[1]])
    scaled_energy = property(lambda self: self.move_energy[self._index[1]])
    kind = property(lambda self: np.where(self._index[2], self.move_kind[self._index[1]], "stay"))
    vertex = property(lambda self: np.where(self._index[2], self.move_vertex[self._index[1]], -1))

    def to_csv(self, out, labels: Optional[np.ndarray] = None) -> None:
        """Write the recorded rows as CSV to a text stream in one write, the stay
        runs' steps rendered at once (``_step_lines``); vertex column uses original
        labels when a label map is given."""
        t, every, last, vertex = self.move_t, self.record_every, self.steps, self.move_vertex
        if labels is not None:
            vertex = np.where(vertex < 0, -1, np.asarray(labels)[vertex])
        keep = (t % every == 0) | (t == last)  # else a row only for its stays' state
        rows = [f"{s},{n1},{n2},{e},{kind},{'' if v < 0 else v}\n" if k else ""
                for s, n1, n2, e, kind, v, k in zip(
                    t.tolist(), self.move_n1.tolist(), self.move_n2.tolist(),
                    self.move_energy, self.move_kind.tolist(), vertex.tolist(),
                    keep.tolist())]
        at = self.stay_rows
        if at.size:  # else skip the numpy calls' fixed cost: a descent never stays
            b = t[at] + self.stay_counts  # each run's last stay
            first = (t[at] + every) // every * every  # and its first multiple of every
            count = (b - first) // every + 1 + ((b == last) & (last % every != 0))  # + terminal
            end = count.cumsum()
            steps = np.repeat(first - every * (end - count), count) + every * np.arange(end[-1])
            text, ends = _step_lines(np.minimum(steps, last))  # a terminal row: the next, capped
            for i, lo, hi, n1, n2, e in zip(at.tolist(), ends[end - count].tolist(),
                                            ends[end].tolist(), self.move_n1[at].tolist(),
                                            self.move_n2[at].tolist(), self.move_energy[at]):
                rows[i] += text[lo:hi].replace("\n", f",{n1},{n2},{e},stay,\n")  # the run's suffix
        out.write("".join([TRAJECTORY_CSV_HEADER + "\n", *rows]))

    def csv_text(self, labels: Optional[np.ndarray] = None) -> str:
        buf = io.StringIO()
        self.to_csv(buf, labels)
        return buf.getvalue()

    def summary_dict(self) -> dict:
        return {name: getattr(self, name) for name in (
            "absorbed", "reached_pc", "steps", "first_pc_step", "stop_reason",
            "terminal_size", "terminal_n1", "terminal_n2")}


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


def _choose(candidates: Union[np.ndarray, list], u: float) -> int:
    """Uniform pick from sorted candidates (an array or a list) using one
    uniform draw u < 1 (so int(u * size) < size)."""
    return int(candidates[int(u * len(candidates))])


def gd_step(state: SubsetState, rng: np.random.Generator,
            plateau_budget: int = 0, plateau_used: int = 0
            ) -> tuple[Move, SubsetState]:
    """One gradient-descent step: apply a uniformly random flip among the
    strict argmin of the n single-flip deltas, or stay if the minimum is
    positive, or zero with ``plateau_used`` >= ``plateau_budget``. The state
    is mutated in place. Consumes exactly one uniform draw."""
    u, (dmin, candidates) = rng.random(), state.best_flips()
    if dmin > 0 or dmin == 0 and plateau_used >= plateau_budget:
        return _STAY, state
    x = _choose(candidates, u)
    kind = "remove" if state.member[x] else "add"
    apply_flip(state, x, dmin)
    return Move(kind, x, dmin), state


# Deltas are integers: a weight is 1.0 (d = dmin), 0.0 or at most exp(-scale). At
# scale > ln(n + 1) + 54 ln 2 the tiny ones sum below 2**-54, so any order of addition
# returns the count of units: adding t < 2**-53 to an integer >= 1 gives it back.
_COLD = 54 * math.log(2)


def _dense_weights(n: int, stay: float, at, flips) -> np.ndarray:
    """The n + 1 weights [stay, flip 0, ...], exact zeros off the support."""
    weights = (np.empty if at is None else np.zeros)(n + 1)
    weights[0] = stay
    weights[1:][slice(None) if at is None else at] = flips
    return weights


@lru_cache
def _weighing(beta: float, q_den: int, n: int) -> tuple:
    """Per-run constants of the Gibbs weights: scale = beta / q_den, the support's reach
    floor(750 / scale) (or inf) and, if cold, the weights exp(-scale * j), j <= reach."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite (the beta -> inf limit is gd_step)")
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    scale = beta / q_den
    # exp(x) is exactly 0.0 in IEEE doubles for x < ln(2**-1075) ~ -745.13; 750 also
    # absorbs the rounding of scale * (d - dmin). A property of doubles, not a tunable.
    cut = 750 / scale if scale else math.inf  # inf also when 750 / scale overflows
    reach = math.floor(cut) if cut < math.inf else cut
    cold = scale > math.log(n + 1) + _COLD  # then reach <= 750 / 45: a short table
    return scale, reach, tuple(np.exp(-scale * np.arange(reach + 1)).tolist()) if cold else None


def _gibbs_support(state: SubsetState, beta: float) -> tuple:
    """The stay's weight, the normaliser (a probability is weight / total), the
    flips that may weigh above 0.0 (None: all), their weights and their deltas:
    lists for a support of at most ``SCALAR_FLIPS`` flips."""
    scale, reach, table = _weighing(beta, state.gamma.q_den, state.graph.n)
    lo, d_lo, hi, d_hi = state._extremes(reach)
    n, dmin = state.graph.n, min(d_lo, d_hi, 0)
    at, deltas = state.all_flip_deltas(dmin + reach, (lo, hi))
    if type(deltas) is list:  # numpy's doubles: int -> double, product, np.exp (not libm)
        flips = (np.exp([-scale * (d - dmin) for d in deltas]).tolist() if table is None
                 else [table[d - dmin] for d in deltas])  # the same doubles, made once per run
    else:
        flips = np.exp(-scale * (deltas - dmin))
    stay = math.exp(-scale * (0 - dmin))
    if table is not None:
        units = flips.count(1.0) if type(flips) is list else np.count_nonzero(flips == 1.0)
        return stay, float(units + (stay == 1.0)), at, flips, deltas
    return stay, _dense_weights(n, stay, at, flips).sum(), at, flips, deltas


class _Uniforms:
    """One generator's uniforms, fetched in blocks that double from 64 to 4096
    draws and handed out in order: under PCG64 ``rng.random(B)`` is the same
    sequence as B single draws. ``drawn`` counts the draws handed out;
    ``values`` is the block as a list once a single draw has read it."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.buf, self.values, self.pos, self.drawn = rng, np.empty(0), None, 0, 0

    def random(self, stay_below: float = 0.0, limit: int = 1) -> float:
        """Consume draws up to the first one >= ``stay_below``, at most
        ``limit`` of them, and return the last one consumed."""
        while True:
            if self.pos == self.buf.size:
                size = min(2 * self.buf.size or 64, 4096)  # short runs fetch few
                self.buf, self.values, self.pos = self.rng.random(size), None, 0
            if limit == 1 or stay_below <= 0:  # one draw ends the run: read a list
                self.values = self.values or self.buf.tolist()
                self.pos, self.drawn = self.pos + 1, self.drawn + 1
                return self.values[self.pos - 1]
            seg = self.buf[self.pos:self.pos + limit]
            # the first draw usually ends the run: scan only when it does not
            j = 0 if seg[0] >= stay_below else int((seg >= stay_below).argmax())
            hit = seg[j] >= stay_below
            take = j + 1 if hit else seg.size
            self.pos += take
            self.drawn += take
            limit -= take
            if hit or limit == 0:
                return float(seg[take - 1])


def gibbs_step(state: SubsetState, beta: float, rng,
               *, max_stays: int = 1) -> tuple[Move, SubsetState]:
    """One neighbourhood-Gibbs step at inverse temperature beta. Candidates
    are the state itself and all n single flips. Mutates the state in place;
    consumes exactly one uniform draw. With ``max_stays`` L > 1 (``rng`` a
    ``_Uniforms``) it takes up to L steps, one draw each, from this one
    probability vector: the run of stays and the move that ends it. The
    cumsum skips the flips of weight 0.0, which add exactly: the same pick.
    A cold step (see ``_COLD``) reads only the flips of weight 1.0."""
    scale, reach, table = _weighing(beta, state.gamma.q_den, state.graph.n)
    if table is None:
        stay, total, at, flips, deltas = _gibbs_support(state, beta)
    else:  # the unit weights, d = dmin
        state.least_class()  # for the scan to read
        lo, d_lo, hi, d_hi = state._extremes(reach, state.lo_bound)
        dmin = min(d_lo, d_hi, 0)
        at, deltas = state.all_flip_deltas(dmin, (lo, hi))
        at = (deltas == dmin).nonzero()[0] if at is None else at  # None: every delta came back
        stay, m = math.exp(-scale * (0 - dmin)), len(at)
        total = float(m + (stay == 1.0))
    stay /= total  # correctly rounded: the normalised vector's value
    r = rng.random() if max_stays == 1 else rng.random(stay, max_stays)
    if r < stay:
        return _STAY, state
    # Cold, the cumsum of all n + 1 weights / total is below 2**-54 / total before the
    # first unit; from it on each tiny term is under half an ulp and rounds away. So at
    # the units it is the sequential sums of 1 / total over the units alone, and a draw
    # at least 2**-54 / total above the stay finds the same flip, or runs past the end.
    cold = table is not None and (r - stay) * total >= 2**-54
    if cold:  # the cumsum of the units alone (numpy's cumsum adds in sequence too)
        acc = (list(accumulate(repeat(1 / total, m))) if m <= SCALAR_FLIPS
               else np.full(m, 1 / total).cumsum())
    else:  # warm, or a cold draw that may land on a tiny weight before the first unit
        if table is not None:
            _, _, at, flips, deltas = _gibbs_support(state, beta)
        acc = (list(accumulate([f / total for f in flips])) if type(flips) is list
               else (flips / total).cumsum())
    j = bisect_right(acc, r - stay)  # searchsorted(side="right"), on a list too
    # a search past the end is float round-off at the top end: take the last vertex
    x, delta = ((j if at is None else int(at[j]), dmin if cold else int(deltas[j]))
                if j < len(acc) else (state.graph.n - 1, None))
    kind, energy = "remove" if state.member[x] else "add", state.scaled_energy
    apply_flip(state, x, delta)
    return Move(kind, x, state.scaled_energy - energy), state


def _peel_step_u(state: SubsetState, u: float) -> Move:
    """Remove a uniformly random min-degree member (the least keys)."""
    energy, x = state.scaled_energy, _choose(state.least_class(), u)
    apply_flip(state, x)
    return Move("remove", x, state.scaled_energy - energy)


def _descent(state: SubsetState, rng, budget: int):
    """Gradient descent as a chain of ``_ChainDriver.run``: a generator, started
    by ``next``, whose ``send`` takes a move by ``gd_step``'s rule on one draw,
    or yields "absorbed"."""
    best, member, draw = state.best_flips, state.member, rng.random
    used = 0  # zero-delta moves taken, against the plateau budget
    yield
    while True:
        dmin, at = best()
        if dmin > 0 or dmin == 0 and used >= budget:
            yield "absorbed"
            continue
        x = _choose(at, draw())
        kind = "remove" if member[x] else "add"
        apply_flip(state, x, dmin)
        used += dmin == 0
        yield 0, kind, x


def _gibbs(state: SubsetState, beta: float, rng: _Uniforms):
    """The Gibbs chain of ``_ChainDriver.run``: a generator, started by
    ``next``, whose ``send(steps)`` is one ``gibbs_step`` of up to ``steps`` draws."""
    steps = yield
    while True:
        drawn = rng.drawn
        kind, x, _ = gibbs_step(state, beta, rng, max_stays=steps)[0]
        steps = yield rng.drawn - drawn - (x is not None), kind, x


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _resolve_init(init, n: int):
    """The initial members (a mask, or vertices ``init_state`` checks) and
    the init's spec."""
    if isinstance(init, str):
        if init in ("full", "empty"):
            return np.full(n, init == "full"), init
        raise ValueError(f"unknown init {init!r} (use 'full', 'empty' or vertices)")
    verts = tuple(sorted(set(int(v) for v in init)))
    return verts, verts


class _ChainDriver:
    """Runs one chain and keeps its trajectory: overlap counts, rows, stay
    runs and clique visits. A chain is a callable ``chain(steps)`` that takes
    up to ``steps - 1`` stays and one move and returns ``(stays, kind, vertex)``
    (vertex None: the ``steps`` draws were all stays), or a stop reason."""

    def __init__(self, graph: Graph, k: int, init, gamma: GammaParam,
                 record_every: int = 1):
        members, self.init_spec = _resolve_init(init, graph.n)
        state = self.state = init_state(graph, members, gamma)
        self.k, self.record_every, self.steps, self.pc_run = k, record_every, 0, 0
        self.n1 = n1 = int(np.count_nonzero(state.member[:k]))
        self.n2 = n2 = state.size - n1
        self.first_pc_step = 0 if n1 == k > 0 and n2 == 0 else None
        # rows: (t, n1, n2, energy, kind, x); pending: the last row is an off-grid
        # move's with no stays after it, which the next move's row replaces
        self.rows, self.pending = [(0, n1, n2, state.scaled_energy, "stay", -1)], False
        self.stays = Counter()  # row -> the stays that follow it

    def run(self, chain, max_steps, hold: int = 0) -> str:
        """Call ``chain`` until step ``max_steps``, its stop reason or ``hold``
        further steps at the clique (0: none); returns "max_steps", "held" or
        the chain's reason. A later call resumes the run."""
        state, k, every, rows, stays_at = (
            self.state, self.k, self.record_every, self.rows, self.stays)
        t, n1, n2, first_pc, pc_run, pending = (
            self.steps, self.n1, self.n2, self.first_pc_step, self.pc_run, self.pending)
        at_pc, reason = n1 == k > 0 and n2 == 0, "max_steps"
        while t < max_steps:
            move = chain(min(max_steps - t, hold - pc_run) if hold and at_pc else max_steps - t)
            if type(move) is str:
                reason = move
                break
            stays, kind, x = move
            if stays:  # at the state of step t: the last row's, which then keeps its place
                stays_at[len(rows) - 1] += stays
                pc_run += stays if at_pc else 0
                t, pending = t + stays, False
            if x is not None:  # a flip: the run at the clique ends or starts
                t, pc_run = t + 1, 0
                step = 1 if kind == "add" else -1
                n1, n2 = (n1 + step, n2) if x < k else (n1, n2 + step)
                at_pc = n1 == k > 0 and n2 == 0
                if at_pc and first_pc is None:
                    first_pc = t
                row = (t, n1, n2, state.scaled_energy, kind, x)
                if pending:
                    rows[-1] = row
                else:
                    rows.append(row)
                pending = t % every != 0
            if hold and pc_run >= hold:
                reason = "held"
                break
        self.steps, self.n1, self.n2, self.first_pc_step, self.pc_run, self.pending = (
            t, n1, n2, first_pc, pc_run, pending)
        return reason

    def finish(self, stop_reason: str) -> Trajectory:
        stays = np.array(list(self.stays.items()), dtype=np.int64).reshape(-1, 2)
        t, n1, n2, energy, kind, vertex = zip(*self.rows)
        return Trajectory(
            *(np.array(col, dtype=np.int64) for col in (t, n1, n2)),
            np.array(energy, dtype=object), np.array(kind),
            np.array(vertex, dtype=np.int64), stays[:, 0], stays[:, 1],
            self.record_every, stop_reason == "absorbed", self.first_pc_step is not None,
            self.steps, self.first_pc_step, stop_reason, self.init_spec,
            self.state.size, self.n1, self.n2)


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
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if hold_window is not None and hold_window < 0:
        raise ValueError("hold_window must be >= 0")
    graph, k = (instance, 0) if isinstance(instance, Graph) else (instance.graph, instance.k)
    rng, hold = _Uniforms(stream_rng(seed, CHAIN_STREAM)), 0
    driver = _ChainDriver(graph, k, init, gamma, record_every)
    if isinstance(kind, GradientDescent):
        chain = _descent(driver.state, rng, kind.plateau_budget)
    else:
        hold = 10 * graph.n if hold_window is None else hold_window
        chain = _gibbs(driver.state, kind.beta, rng)
    next(chain)
    return driver.finish(driver.run(chain.send, max_steps, hold))


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
    rng = _Uniforms(stream_rng(seed, CHAIN_STREAM))
    graph, k = instance.graph, instance.k
    cont = instance.contamination
    m, q = (cont.m, cont.q) if cont else (0, 0.5)
    sqrt_n = math.sqrt(graph.n)
    driver = _ChainDriver(graph, k, "full", gamma or GammaParam(2, 1))
    state, violated = driver.state, np.zeros(k, dtype=bool)

    def peel(steps):
        n1 = int(np.count_nonzero(state.member[:k]))
        n23 = state.size - n1
        if n23 <= threshold or state.size == 0:
            return "stopped"
        # Retention check on surviving clique vertices, before this removal.
        if c1 is not None and n1 > 0:
            n2v = np.count_nonzero(state.member[k:k + m])  # contaminated
            bound = (n1 - 1) + q * n2v + 0.5 * (n23 - n2v) - c1 * sqrt_n
            violated[:] |= state.member[:k] & (state.key[:k] < bound)  # degrees
        kind, x, _ = _peel_step_u(state, rng.random())
        return 0, kind, x

    traj = driver.finish(driver.run(peel, math.inf))

    # Every step is a removal with its own row, so row t is the set after step t.
    vertex = traj.move_vertex
    split = [traj.move_n1, traj.move_n2]
    if cont:
        n2v = m - np.cumsum((vertex >= k) & (vertex < k + m))
        split = [traj.move_n1, n2v, traj.move_n2 - n2v]
    counts = list(zip(*(col.tolist() for col in split)))
    clique = (vertex >= 0) & (vertex < k)
    removal_times = dict.fromkeys(range(k), traj.steps)
    removal_times.update(zip(vertex[clique].tolist(), traj.move_t[clique].tolist()))
    retained = None if c1 is None else {x for x in range(k) if not violated[x]}
    return traj, PeelDiagnostics(counts, removal_times, retained, c1, traj.steps)


# ---------------------------------------------------------------------------
# Coupled planted/unplanted run
# ---------------------------------------------------------------------------


@dataclass
class CoupledResult:
    """Gradient descents on G (planted) and G0 (its unplanted twin) from one
    seed: step t of both takes draw t of ``CHAIN_STREAM``."""

    planted: Trajectory
    unplanted: Trajectory
    tau: Optional[int]               # first step the planted chain touches the clique
    first_divergence: Optional[int]  # first step the applied moves differ
    identical_before_tau: bool
    identical_through_absorption: bool


def run_coupled_gd(n: int, k: int, gamma: GammaParam, plateau_budget: int,
                   max_steps: int, seed: int, *, init="empty") -> CoupledResult:
    """Generate the coupled pair (G0, G) and run gradient descent on each
    with the same seed, so the trajectories coincide while their candidate
    sets do. Both count overlap with the planted positions 0..k-1."""
    g0, instance = gen_coupled(n, k, seed)
    kind = GradientDescent(plateau_budget)
    a, b = (run_chain(inst, init, kind, gamma, max_steps, seed)
            for inst in (instance, replace(instance, graph=g0)))
    # a descent never stays, so move row t is step t; a row one side lacks differs
    rows = min(a.move_t.size, b.move_t.size)
    differs = ((a.move_kind[1:rows] != b.move_kind[1:rows])
               | (a.move_vertex[1:rows] != b.move_vertex[1:rows])
               | (np.diff(a.move_energy[:rows]) != np.diff(b.move_energy[:rows])))
    first_div = (int(differs.argmax()) + 1 if differs.any()
                 else None if a.move_t.size == b.move_t.size else rows)
    touched = np.flatnonzero(a.move_n1 > 0)
    tau = int(touched[0]) if touched.size else None
    before_tau_ok = first_div is None or tau is None or first_div >= tau
    through_ok = first_div is None and a.absorbed and b.absorbed
    return CoupledResult(a, b, tau, first_div, before_tau_ok, through_ok)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay(instance_graph: Union[Graph, PlantedInstance], trajectory: Trajectory,
           gamma: GammaParam) -> SubsetState:
    """Rebuild the terminal state by replaying the trajectory's moves.
    Requires every move (``record_every`` 1)."""
    graph = instance_graph.graph if isinstance(instance_graph, PlantedInstance) else instance_graph
    members, _ = _resolve_init(trajectory.init_spec, graph.n)
    state = init_state(graph, members, gamma)
    for t, x, energy in zip(trajectory.move_t[1:].tolist(),
                            trajectory.move_vertex[1:].tolist(),
                            trajectory.move_energy[1:]):
        apply_flip(state, x)
        if state.scaled_energy != energy:
            raise AssertionError(f"replay diverged at step {t}")
    return state
