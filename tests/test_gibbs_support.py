"""The Gibbs step's sparse weight support against the dense weight path.

``gibbs_step`` computes deltas, ``exp`` and cumsum only on the flips whose
weight can be nonzero. The dense path it replaced is kept here as the
oracle: every flip weighed, normalised and summed. Outputs must match it
bit for bit: trajectories, summaries, every move, and the probability
vector itself.
"""

import math

import numpy as np
import pytest

from plantedclique import (GammaParam, GibbsChain, Move, SubsetState, apply_flip,
                           chains, energy, gen_planted, gibbs_probabilities, gibbs_step,
                           init_state, run_chain, stream_rng)
from plantedclique.chains import _Uniforms
from plantedclique.graphs import CHAIN_STREAM


def dense_probabilities(state, beta):
    deltas = state.all_flip_deltas()
    dmin = min(int(deltas.min()), 0)
    scale = beta / state.gamma.q_den
    weights = np.empty(deltas.size + 1)
    weights[0] = math.exp(-scale * (0 - dmin))
    np.exp(-scale * (deltas - dmin), out=weights[1:])
    weights /= weights.sum()
    return weights


def dense_step(state, beta, rng, *, max_stays=1):
    probs = dense_probabilities(state, beta)
    r = rng.random() if max_stays == 1 else rng.random(probs[0], max_stays)
    if r < probs[0]:
        return Move("stay", None, 0), state
    acc = probs[1:].cumsum()
    x = int(acc.searchsorted(r - probs[0], side="right"))
    if x >= state.graph.n:
        x = state.graph.n - 1
    kind, energy = "remove" if state.member[x] else "add", state.scaled_energy
    apply_flip(state, x)
    return Move(kind, x, state.scaled_energy - energy), state


EXP_ZERO = 750  # scale * (d - dmin) beyond which a weight is exactly 0.0
NS = {1: 1, 2: 1, 150: 12, 500: 30}
GAMMAS = [GammaParam(2), GammaParam(7, 2), GammaParam(4), GammaParam(10)]


def betas(n):
    ln = math.log(n)
    return [0.0, 5e-324, 1e-300, 0.3, ln, 10 * ln, 50 * ln, 1e300]


def inits(n, k):
    return ["full", "empty", (0, k // 2, k, n // 3, n - 1)[:2 if n < 3 else 5]]


class _Draws:
    """An rng whose draws are given in advance."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


@pytest.mark.parametrize("gamma", GAMMAS, ids=str)
@pytest.mark.parametrize("n", sorted(NS))
def test_runs_match_the_dense_path(n, gamma, monkeypatch):
    inst = gen_planted(n, NS[n], n)
    for beta in betas(n):
        for init, hold in zip(inits(n, NS[n]), (40, 0, 7)):
            args = (inst, init, GibbsChain(beta), gamma, 120, 3)
            with monkeypatch.context() as m:
                m.setattr(chains, "gibbs_step", dense_step)
                ref = run_chain(*args, hold_window=hold)
            traj = run_chain(*args, hold_window=hold)
            assert traj.csv_text() == ref.csv_text(), (beta, init)
            assert traj.summary_dict() == ref.summary_dict()


@pytest.mark.parametrize("max_stays", [1, 50])
@pytest.mark.parametrize("gamma", GAMMAS, ids=str)
@pytest.mark.parametrize("n", sorted(NS))
def test_every_move_matches_the_dense_path(n, gamma, max_stays):
    inst = gen_planted(n, NS[n], n + 1)
    for beta in betas(n):
        for init in inits(n, NS[n]):
            members = {"full": range(n), "empty": ()}.get(init, init)
            a = init_state(inst.graph, members, gamma)
            b = a.copy()
            ra = _Uniforms(stream_rng(5, CHAIN_STREAM))
            rb = _Uniforms(stream_rng(5, CHAIN_STREAM))
            for _ in range(40):
                probs = dense_probabilities(b, beta)
                assert np.array_equal(gibbs_probabilities(a, beta), probs)
                move, _ = gibbs_step(a, beta, ra, max_stays=max_stays)
                ref, _ = dense_step(b, beta, rb, max_stays=max_stays)
                assert move == ref and ra.drawn == rb.drawn, (beta, init)
                assert np.array_equal(a.key, b.key)


def _states(count=24):
    """Random states of planted graphs at several sizes and gammas."""
    for seed in range(count):
        n = (60, 150, 500)[seed % 3]
        inst = gen_planted(n, 4 + seed % 20, seed)
        rng = stream_rng(seed, 9)
        frac = (0.05, 0.5, 0.95)[seed // 3 % 3]
        members = np.flatnonzero(rng.random(n) < frac)
        yield init_state(inst.graph, members, GAMMAS[seed % 4])


def _gaps(state):
    deltas = state.all_flip_deltas()
    return deltas - min(int(deltas.min()), 0)


def _boundary_betas(state):
    """Betas that put some flip's scale * (d - dmin) inside (700, 760): the
    weights there are the last subnormals and the first exact zeros."""
    gaps = np.unique(_gaps(state))
    gaps = gaps[gaps > 0]
    q = state.gamma.q_den
    for target in (705.0, 730.0, 744.5, 745.5, 755.0):
        for g in gaps[:: max(1, gaps.size // 4)]:
            yield target / int(g) * q


def _beta_with_cut(cut, q):
    """A beta whose floor(750 / scale) is exactly ``cut``."""
    beta = EXP_ZERO / cut * q
    while math.floor(EXP_ZERO / (beta / q)) < cut:
        beta = math.nextafter(beta, 0)
    while math.floor(EXP_ZERO / (beta / q)) > cut:
        beta = math.nextafter(beta, math.inf)
    return beta


def test_support_ends_exactly_at_the_floor():
    """With floor(750 / scale) = g, a flip at d - dmin = g is in the support
    and with floor(750 / scale) = g - 1 it is not; the support is exactly
    the flips with d - dmin <= floor(750 / scale) and holds every flip of
    nonzero dense weight. A support of more than n / 2 flips is read dense."""
    sparse = dense = 0
    for state in _states():
        deltas = state.all_flip_deltas()
        dmin = min(int(deltas.min()), 0)
        gaps = deltas - dmin
        present = np.unique(gaps[gaps > 1])
        for g in present[:: max(1, present.size // 5)].tolist():
            for cut in (g, g - 1):
                beta = _beta_with_cut(cut, state.gamma.q_den)
                at, part = state.all_flip_deltas(dmin + cut)
                want = np.flatnonzero(gaps <= cut)
                if at is None:  # more than n / 2 flips: every delta, no index
                    assert 2 * want.size > state.graph.n
                    assert np.array_equal(part, deltas)
                    at, dense = want, dense + 1
                else:
                    assert np.array_equal(at, want)
                    assert np.array_equal(part, deltas[at])
                    sparse += 1
                probs = dense_probabilities(state, beta)
                assert np.isin(np.flatnonzero(probs[1:]), at).all()
                assert np.array_equal(gibbs_probabilities(state, beta), probs)
    assert sparse >= 60 and dense >= 20


def test_probabilities_match_at_the_underflow_edge():
    subnormal = 0
    for state in _states():
        for beta in _boundary_betas(state):
            probs = dense_probabilities(state, beta)
            assert np.array_equal(gibbs_probabilities(state, beta), probs)
            subnormal += int(((probs > 0) & (probs < 1e-300)).sum())
    assert subnormal > 0  # the grid reached weights the 750 margin must keep


def _critical_draws(probs):
    """Draws at the stay threshold and at every cumsum step (each value and
    the double just below it), plus the largest draw below 1."""
    p0, acc = probs[0], probs[1:].cumsum()
    steps = acc[np.flatnonzero(np.diff(acc, prepend=0.0))][:40]
    points = [p0] + [p0 + a for a in steps] + [math.nextafter(1.0, 0)]
    return [v for x in points for v in (x, math.nextafter(x, 0))]


def test_steps_match_at_critical_draws():
    """Draws on the exact boundaries of the dense cumsum, so a normaliser or
    a cumsum off by one ulp changes a move; the draw below 1 reaches the
    top-end clamp."""
    clamped = 0
    for state in _states():
        n = state.graph.n
        for beta in (0.0, 0.05, 0.3, math.log(n), 10 * math.log(n)):
            probs = dense_probabilities(state, beta)
            acc = probs[1:].cumsum()
            for r in _critical_draws(probs):
                if r >= probs[0]:
                    clamped += acc.searchsorted(r - probs[0], side="right") >= n
                a, b = state.copy(), state.copy()
                move, _ = gibbs_step(a, beta, _Draws([r]))
                ref, _ = dense_step(b, beta, _Draws([r]))
                assert move == ref, (beta, r)
    assert clamped > 0


@pytest.mark.parametrize("offset", [0, 1, 3, 7, 8, 13, 64])
def test_exp_of_a_compact_slice_equals_the_dense_one(offset):
    rng = stream_rng(offset, 9)
    full = -700.0 - 60.0 * rng.random(offset + 200)
    full[::5] = np.linspace(-760.0, -700.0, full[::5].size)
    dense = np.exp(full)
    for length in range(1, 65):
        part = slice(offset, offset + length)
        assert np.array_equal(np.exp(full[part].copy()), dense[part])
        picked = np.flatnonzero(rng.random(full.size) < 0.3)[:length]
        assert np.array_equal(np.exp(full[picked]), dense[picked])


def _two_compares(key, a, b):
    return (key <= a) | (key >= b)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_outside_is_the_two_compare_mask(n):
    """The unsigned range compare equals the two compares for every (a, b)
    around the keys, a + 1 <= 0 and b <= a + 1 included."""
    key = np.concatenate([np.arange(2 * n), stream_rng(n, 9).integers(0, 2 * n, 50)])
    key = key.astype(np.int32)
    for a in range(-n - 2, 2 * n + 2):
        for b in range(a - 3, 2 * n + 3):
            assert np.array_equal(energy._outside(key, a, b),
                                  _two_compares(key, a, b)), (a, b)


def _crafted_states(count=30):
    """States of any keys a state can hold: members below n, the rest in
    [n, 2n); consistency with a graph does not matter to the scan."""
    for seed in range(count):
        n = (1, 2, 9, 60, 150)[seed % 5]
        rng = stream_rng(seed, 10)
        member = rng.random(n) < (0.1, 0.5, 0.9)[seed % 3]
        key = rng.integers(0, n, n) + np.where(member, 0, n)
        graph = gen_planted(n, 1, seed).graph
        yield SubsetState(graph, GAMMAS[seed % 4], member,
                          int(member.sum()), key.astype(np.int32), 0)


def test_support_scan_matches_the_two_compare_mask():
    """``all_flip_deltas(upto)`` at uptos around every delta: the support is
    the two-compare mask of its bounds and the flips with delta <= upto,
    gathered up to n / 2 flips and dense past that; at upto >= p s no scan
    runs and every delta comes back."""
    cases = {"a + 1 <= 0": 0, "sparse": 0, "dense": 0, "upto >= p s": 0}
    for state in list(_crafted_states()) + list(_states(12)):
        p, w, n, s = state.gamma.p, state.gamma.edge_weight, state.graph.n, state.size
        deltas = state.all_flip_deltas()
        values = np.unique(deltas)
        values = values[:: max(1, values.size // 12)].tolist()
        for upto in sorted({v + e for v in values for e in (-1, 0)}
                           | {int(deltas.min()) - 1, p * s - 1, p * s, p * s + 5}):
            at, part = state.all_flip_deltas(upto)
            if upto >= p * s:
                assert at is None and np.array_equal(part, deltas)
                cases["upto >= p s"] += 1
                continue
            a = min((upto + p * (s - 1)) // w, n - 1)
            b = n - (upto - p * s) // w
            want = np.flatnonzero(_two_compares(state.key, a, b))
            assert np.array_equal(want, np.flatnonzero(deltas <= upto))
            cases["a + 1 <= 0"] += a + 1 <= 0
            if 2 * want.size <= n:
                assert np.array_equal(at, want)
                assert np.array_equal(part, deltas[want])
                cases["sparse"] += 1
            else:
                assert at is None and np.array_equal(part, deltas)
                cases["dense"] += 1
    assert min(cases.values()) >= 20, cases


def test_tiny_betas_weigh_every_flip():
    """At beta = 0 and at betas where 750 / scale overflows, the support is
    every flip and no index array is built."""
    state = next(_states())
    for beta in (0.0, 5e-324, 1e-310):
        weights, total, at, flips = chains._gibbs_support(state, beta)
        assert at is None and np.array_equal(flips, weights[1:])
        assert np.array_equal(weights / total, dense_probabilities(state, beta))
    assert SubsetState.all_flip_deltas(state, math.inf)[0] is None
