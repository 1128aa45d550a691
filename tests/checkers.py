"""Run checkers, the Gibbs probability vector and the per-size local-minima
sampler, for tests only.

``gibbs_probabilities`` is the transition distribution one Gibbs step
samples from. ``verify_removal_phase`` and ``verify_hamming_descent`` replay
or read a trajectory and check the paper's two phases of a full-init
descent. ``per_size_local_minima`` is the local-minima scan of one size
with a fresh sampler stream, which ``scan_local_minima`` must match, and
``word_tables`` builds the bit tables its kernel reads. ``num_edges``
counts a graph's edges.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from plantedclique import GammaParam, PlantedInstance, SubsetState, Trajectory
from plantedclique.chains import _dense_weights, _gibbs_support, _resolve_init
from plantedclique.energy import apply_flip, init_state
from plantedclique.graphs import SAMPLER_STREAM, stream_rng
from plantedclique.landscape import (ComplexityEstimate, _bit_words,
                                     _predicted_exponent, _word_minima)


def num_edges(graph) -> int:
    """The edge count: half the set bits of the packed rows."""
    return int(np.bitwise_count(graph.packed_rows).sum()) // 2


def gibbs_probabilities(state: SubsetState, beta: float) -> np.ndarray:
    """Transition distribution over the n+1 candidates [stay, flip 0, ...,
    flip n-1], proportional to exp(-beta * H(candidate)) shifted by the least
    energy. A flip whose weight underflows is an exact 0.0, often never computed."""
    stay, total, at, flips, _ = _gibbs_support(state, beta)
    return _dense_weights(state.graph.n, stay, at, flips) / total


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
    every move removes a vertex of minimum degree within the current set,
    which is exactly the argmin of the removal deltas."""
    members, _ = _resolve_init(trajectory.init_spec, instance.n)
    state = init_state(instance.graph, members, gamma)
    checked, bad = 0, []
    # row i's move is taken from row i - 1's state
    for t, n2, kind, x in zip(trajectory.t[1:].tolist(),
                              trajectory.n2[:-1].tolist(),
                              trajectory.kind[1:].tolist(),
                              trajectory.vertex[1:].tolist()):
        if n2 > n2_threshold:
            checked += 1
            key = state.key  # members' keys are their degrees, below the rest
            if kind != "remove" or not state.member[x] or key[x] != key.min():
                bad.append(t)
        if x >= 0:
            apply_flip(state, x)
    return RemovalPhaseReport(checked, len(bad), bad[0] if bad else None)


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
    n1, n2 = trajectory.n1, trajectory.n2
    # object arrays keep the gamma test exact however large q_den is
    above = (gamma.q_den * n1.astype(object)
             >= gamma.p * n2.astype(object) + 2 * gamma.q_den)
    start = np.flatnonzero(above.astype(bool) & (n1 >= (1 - xi) * k))
    if start.size == 0:
        return HammingReport(None, 0, 0, None, False)
    i = int(start[0])
    d = ((k - n1) + n2)[i:]
    zeros = np.flatnonzero(d == 0)
    # check every row after entry up to the first at the clique
    end = int(zeros[0]) if zeros.size else d.size - 1
    bad = np.flatnonzero(d[1:end + 1] >= d[:end])
    first_bad = int(trajectory.t[i + 1 + bad[0]]) if bad.size else None
    return HammingReport(int(trajectory.t[i]), end, int(bad.size), first_bad,
                         zeros.size > 0)


def word_tables(graph, pool):
    """``_word_minima``'s first three arguments for the pool vertices
    ``pool``: every vertex's neighbourhood words, and the pool vertices'
    neighbourhoods and own bits."""
    words = _bit_words(graph.packed_rows)
    own = np.zeros((pool.size, words.shape[0] * 8), dtype=np.uint8)
    own[np.arange(pool.size), pool >> 3] = 0x80 >> (pool & 7)
    return words, words[:, pool], _bit_words(own)


def per_size_local_minima(graph, m, forbidden, gamma, budget, seed=0):
    """Strict local minima of one size m avoiding ``forbidden``: exhaustive
    chunks of 2^15 combinations, or rejection sampling from a fresh
    ``SAMPLER_STREAM`` drawn as (r, m) index arrays of r = min(2^15,
    2 * remaining + 16) rows, with the same estimate."""
    forbidden = set(int(v) for v in forbidden)
    pool = np.array([v for v in range(graph.n) if v not in forbidden], dtype=np.int64)
    total, batch = math.comb(pool.size, m), 1 << 15
    words, adj, bits = word_tables(graph, pool)
    pred = _predicted_exponent(graph.n, m, gamma)
    if total <= budget:
        found, it = [], itertools.combinations(range(pool.size), m)
        while chunk := list(itertools.islice(it, batch)):
            found += _word_minima(words, adj, bits, np.array(chunk), batch, gamma)[0]
        return found, ComplexityEstimate(m, len(found), float(len(found)), 0.0,
                                         pred, False, total, total)
    rng = stream_rng(seed, SAMPLER_STREAM)
    hits, n_hits, remaining = set(), 0, budget
    while remaining > 0:
        r = min(batch, 2 * remaining + 16)
        draw = rng.integers(0, pool.size, size=(r, m), dtype=np.int64)
        found, taken = _word_minima(words, adj, bits, draw, remaining, gamma)
        n_hits += len(found)
        hits.update(found)
        remaining -= taken
    phat = n_hits / budget
    return sorted(hits, key=sorted), ComplexityEstimate(
        m, n_hits, total * phat, total * math.sqrt(phat * (1.0 - phat) / budget),
        pred, True, budget, total)
