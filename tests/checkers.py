"""Run checkers and the Gibbs probability vector, for tests only.

``gibbs_probabilities`` is the transition distribution one Gibbs step
samples from. ``verify_removal_phase`` and ``verify_hamming_descent`` replay
or read a trajectory and check the paper's two phases of a full-init
descent.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from plantedclique import GammaParam, PlantedInstance, SubsetState, Trajectory
from plantedclique.chains import _dense_weights, _gibbs_support, _resolve_init
from plantedclique.energy import apply_flip, init_state


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
