"""Whole Gibbs runs against the exact law of their chain.

On n = 8 vertices the law at step T is a row of the T-th power of the
2**n x 2**n kernel, each of whose rows is the dense probability vector of
one state (``dense_probabilities``). The sampled side is the terminal set
of ``run_chain`` over chain seeds 0..N-1 on a bare graph, where no hold
stops a run. A hard check puts every terminal set in the law's support; a
chi-square test, its bound fixed in advance at p >= 1e-3, compares the
counts with the law.
"""

import math

import numpy as np
import pytest

from plantedclique import GammaParam, GibbsChain, gen_planted, init_state, run_chain

from conftest import graph_from_edges, terminal_members
from test_gibbs_support import dense_probabilities

RUNS = 4000  # chain seeds 0..RUNS-1 per case
P_MIN = 1e-3  # the least chi-square p-value a case may read
MIN_EXPECTED = 5  # states expected fewer times than this are pooled into one bin


def kernel(graph, gamma, beta) -> np.ndarray:
    """The one-step transition matrix over the 2**n subsets, bit v for vertex v."""
    n = graph.n
    flips = 1 << np.arange(n)
    matrix = np.zeros((2**n, 2**n))
    for mask in range(2**n):
        probs = dense_probabilities(init_state(graph, [v for v in range(n) if mask >> v & 1],
                                               gamma), beta)
        matrix[mask, mask] += probs[0]
        matrix[mask, mask ^ flips] += probs[1:]
    return matrix


def exact_law(graph, gamma, beta, init_mask, steps) -> np.ndarray:
    start = np.zeros(2**graph.n)
    start[init_mask] = 1.0
    return start @ np.linalg.matrix_power(kernel(graph, gamma, beta), steps)


def sampled_counts(graph, init, gamma, beta, steps) -> np.ndarray:
    """How often each subset is the terminal set of ``RUNS`` chains of ``steps`` steps."""
    counts = np.zeros(2**graph.n, dtype=np.int64)
    for seed in range(RUNS):
        traj = run_chain(graph, init, GibbsChain(beta), gamma, steps, seed)
        assert traj.stop_reason == "max_steps" and traj.steps == steps
        counts[sum(1 << v for v in terminal_members(traj, graph.n))] += 1
    return counts


def chi2_sf(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square on an integer number of degrees of freedom."""
    h = x / 2
    if dof % 2 == 0:
        return math.exp(-h) * sum(h**i / math.factorial(i) for i in range(dof // 2))
    return math.erfc(math.sqrt(h)) + math.exp(-h) * sum(
        h ** (i - 0.5) / math.gamma(i + 0.5) for i in range(1, dof // 2 + 1))


def chi_square(counts, law) -> tuple:
    """The statistic and its degrees of freedom, the states expected fewer than
    ``MIN_EXPECTED`` times pooled into one bin (into the least other bin if the
    pool itself is expected fewer times)."""
    expected = law * counts.sum()
    keep = expected >= MIN_EXPECTED
    obs, exp = counts[keep].astype(float), expected[keep]
    pool_obs, pool_exp = counts[~keep].sum(), expected[~keep].sum()
    if pool_exp >= MIN_EXPECTED:
        obs, exp = np.append(obs, pool_obs), np.append(exp, pool_exp)
    else:
        obs[exp.argmin()] += pool_obs
        exp[exp.argmin()] += pool_exp
    return float(((obs - exp) ** 2 / exp).sum()), obs.size - 1


EDGELESS = graph_from_edges(8, [])
PLANTED = gen_planted(8, 3, 0).graph

CASES = {
    # cold (scale 60 > ln 9 + 54 ln 2 ~ 39.6): ties spread the law over the empty
    # set and the singletons, and at most four members the carried class answers
    "cold-edgeless": (EDGELESS, "full", 0xFF, GammaParam(2), 60.0, 30),
    # warm: every flip weighs above 0.0, the support is 256 states
    "warm-planted": (PLANTED, "empty", 0, GammaParam(2), 0.7, 30),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_terminal_sets_follow_the_exact_law(case):
    graph, init, init_mask, gamma, beta, steps = CASES[case]
    law = exact_law(graph, gamma, beta, init_mask, steps)
    assert law.sum() == pytest.approx(1.0)
    counts = sampled_counts(graph, init, gamma, beta, steps)
    outside = np.flatnonzero((counts > 0) & (law == 0))
    assert not outside.size, f"terminal sets outside the law's support: {outside.tolist()}"
    stat, dof = chi_square(counts, law)
    assert dof >= 8  # a spread law, not a point mass
    assert chi2_sf(stat, dof) >= P_MIN, f"chi-square {stat:.1f} on {dof} dof"


def test_chi2_sf_matches_known_quantiles():
    # 0.999 quantiles: 10.828 (1 dof), 13.816 (2), 26.124 (8), 90.573 (53)
    for x, dof in ((10.828, 1), (13.816, 2), (26.124, 8), (90.573, 53)):
        assert chi2_sf(x, dof) == pytest.approx(1e-3, rel=1e-3)
    assert chi2_sf(0.0, 5) == pytest.approx(1.0)
