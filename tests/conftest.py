"""Shared oracles and builders for the test suite.

The oracles here recount edges and energies from scratch in plain Python so
the incremental/vectorized paths in the package are checked against an
independent computation.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from plantedclique import Graph, Move, apply_flip
from plantedclique.graphs import _set_edges


def py_edges_inside(dense, members) -> int:
    """Edge count of the induced subgraph, by double loop."""
    members = sorted(members)
    count = 0
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            if dense[members[a]][members[b]]:
                count += 1
    return count


def py_scaled_energy(dense, members, gamma) -> int:
    """q_den * H(U) recomputed from the definition."""
    s = len(set(members))
    e = py_edges_inside(dense, set(members))
    return gamma.p * (s * (s - 1) // 2) - (gamma.p + gamma.q_den) * e


def py_deg_into(dense, x, members) -> int:
    return sum(1 for v in set(members) if v != x and dense[x][v])


def miss_probability(n, k, visited) -> Fraction:
    """Exact probability that a uniform k-subset of n vertices avoids a given
    set of ``visited`` vertices: C(n - visited, k) / C(n, k)."""
    return Fraction(math.comb(n - visited, k), math.comb(n, k))


def added_vertices(traj) -> set:
    """Every vertex a fully recorded trajectory ever added."""
    return set(traj.vertex[traj.kind == "add"].tolist())


def first_clique_add(traj, k):
    """First step at which the trajectory adds a vertex of the clique 0..k-1,
    or None if it never does."""
    rows = np.flatnonzero((traj.kind == "add") & (traj.vertex < k))
    return int(traj.t[rows[0]]) if rows.size else None


def moves(traj) -> list:
    """(kind, vertex, scaled delta) of every step of a fully recorded
    trajectory, with vertex -1 for stays."""
    return list(zip(traj.kind[1:].tolist(), traj.vertex[1:].tolist(),
                    np.diff(traj.scaled_energy).tolist()))


def terminal_members(traj, n) -> set:
    """The final vertex set of a fully recorded trajectory, rebuilt from its
    start and its add/remove rows in plain Python."""
    init = traj.init_spec
    members = set(range(n)) if init == "full" else \
        set() if init == "empty" else set(init)
    for kind, v in zip(traj.kind.tolist(), traj.vertex.tolist()):
        if kind == "add":
            members.add(v)
        elif kind == "remove":
            members.remove(v)
    return members


class RowTrajectory:
    """A trajectory kept one tuple (t, n1, n2, scaled_energy, kind, vertex)
    per recorded step, with its summary dict. ``csv_text`` writes the
    trajectory CSV one f-string per row, independently of the package's
    run-length writer."""

    HEADER = "t,n1,n2,scaled_energy,move_kind,move_vertex"
    NAMES = ("t", "n1", "n2", "scaled_energy", "kind", "vertex")

    def __init__(self, rows, summary):
        self.rows, self.summary = rows, summary

    def columns(self) -> dict:
        return dict(zip(self.NAMES, (list(col) for col in zip(*self.rows))))

    def csv_text(self, labels=None) -> str:
        lines = [self.HEADER + "\n"]
        for t, n1, n2, e, kind, v in self.rows:
            if v >= 0 and labels is not None:
                v = int(labels[v])
            lines.append(f"{t},{n1},{n2},{e},{kind},{'' if v < 0 else v}\n")
        return "".join(lines)

    def summary_dict(self) -> dict:
        return dict(self.summary)


def reference_gibbs_support(state, beta):
    """The Gibbs weights as computed before the unit-count normaliser: the
    flips within floor(750 / scale) of dmin weighed with one ``np.exp`` and
    scattered into n + 1 zeros (or every flip, past n / 2 of them), then the
    full-length pairwise sum. Returns (weights, total, at, flips)."""
    _, d_lo, _, d_hi = state._extremes(math.inf)
    n, p, s = state.graph.n, state.gamma.p, state.size
    dmin, scale = min(d_lo, d_hi, 0), beta / state.gamma.q_den
    cut = 750 / scale if scale else math.inf
    upto = dmin + math.floor(cut) if cut < math.inf else cut
    deltas, at = state.all_flip_deltas(), None
    if upto < p * s:
        hit = np.flatnonzero(deltas <= upto)
        if 2 * hit.size <= n:
            at, deltas = hit, deltas[hit]
    weights = (np.empty if at is None else np.zeros)(n + 1)
    flips = np.exp(-scale * (deltas - dmin), out=weights[1:] if at is None else None)
    if at is not None:
        weights[1:][at] = flips
    weights[0] = math.exp(-scale * (0 - dmin))
    return weights, weights.sum(), at, flips


def reference_gibbs_step(state, beta, rng, *, max_stays=1):
    """``gibbs_step`` as it was before the unit-count normaliser and the
    scalar support: numpy cumsum and ``searchsorted`` over the support."""
    weights, total, at, flips = reference_gibbs_support(state, beta)
    stay = weights[0] / total
    r = rng.random() if max_stays == 1 else rng.random(stay, max_stays)
    if r < stay:
        return Move("stay", None, 0), state
    acc = (flips / total).cumsum()
    j = int(acc.searchsorted(r - stay, side="right"))
    x = (j if at is None else int(at[j])) if j < acc.size else state.graph.n - 1
    kind, energy = "remove" if state.member[x] else "add", state.scaled_energy
    apply_flip(state, x)
    return Move(kind, x, state.scaled_energy - energy), state


def graph_from_edges(n, edges) -> Graph:
    """The graph on n vertices with the given edges, built as packed rows."""
    rows = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    _set_edges(rows, np.asarray(list(edges), dtype=np.int64).reshape(-1, 2))
    return Graph(n, rows)


def random_dense(n, rng) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    return upper | upper.T


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
