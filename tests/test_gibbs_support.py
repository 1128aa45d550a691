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

from plantedclique import (GammaParam, GibbsChain, GradientDescent, Move, SubsetState,
                           apply_flip, chains, energy, gen_planted, gibbs_step,
                           init_state, run_chain, stream_rng)
from plantedclique.chains import _Uniforms
from plantedclique.graphs import CHAIN_STREAM

from checkers import gibbs_probabilities
from conftest import reference_gibbs_step, reference_gibbs_support


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
            b = init_state(inst.graph, members, gamma)
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
                a = init_state(state.graph, state.member, state.gamma)
                b = init_state(state.graph, state.member, state.gamma)
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
    runs and every delta comes back. Given the least and greatest key, the
    scan skips a side they rule out and returns the same."""
    cases = {"a + 1 <= 0": 0, "sparse": 0, "dense": 0, "upto >= p s": 0,
             "one side": 0}
    for state in list(_crafted_states()) + list(_states(12)):
        p, w, n, s = state.gamma.p, state.gamma.edge_weight, state.graph.n, state.size
        deltas = state.all_flip_deltas()
        values = np.unique(deltas)
        values = values[:: max(1, values.size // 12)].tolist()
        lo, hi = int(state.key.min()), int(state.key.max())
        for upto in sorted({v + e for v in values for e in (-1, 0)}
                           | {int(deltas.min()) - 1, p * s - 1, p * s, p * s + 5}):
            at, part = state.all_flip_deltas(upto)
            at_k, part_k = state.all_flip_deltas(upto, (lo, hi))
            assert (at is None) == (at_k is None) and np.array_equal(at, at_k)
            assert type(part) is type(part_k) and np.array_equal(part, part_k)
            if upto >= p * s:
                assert at is None and np.array_equal(part, deltas)
                cases["upto >= p s"] += 1
                continue
            a = min((upto + p * (s - 1)) // w, n - 1)
            b = n - (upto - p * s) // w
            want = np.flatnonzero(_two_compares(state.key, a, b))
            assert np.array_equal(want, np.flatnonzero(deltas <= upto))
            cases["a + 1 <= 0"] += a + 1 <= 0
            cases["one side"] += a < lo or b > hi
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
        stay, total, at, flips, _ = chains._gibbs_support(state, beta)
        assert at is None and flips.size == state.graph.n
        assert np.array_equal(np.append(stay, flips) / total,
                              dense_probabilities(state, beta))
    assert SubsetState.all_flip_deltas(state, math.inf)[0] is None


# The unit-count normaliser and the scalar support, against the step as it was
# before them (``conftest.reference_gibbs_step``).

REF_NS = {1: 1, 2: 1, 7: 3, 64: 8, 2000: 60}


def _cold_bound(n):
    """The scale above which the step counts units for its normaliser."""
    return math.log(n + 1) + chains._COLD


def _beta_for_scale(scale, q, above):
    """A beta with beta / q just above (or at most) ``scale``."""
    beta = scale * q
    while (beta / q > scale) != above:
        beta = math.nextafter(beta, math.inf if above else 0)
    return beta


def _twin(state):
    """An independent state with the same fields. Crafted states hold keys
    that no graph gives, so ``init_state`` cannot rebuild them."""
    return SubsetState(state.graph, state.gamma, state.member.copy(), state.size,
                       state.key.copy(), state.scaled_energy)


def _assert_steps_match(state, beta):
    """Totals, probabilities and the moves at every critical draw equal the
    reference's."""
    weights, total, _, _ = reference_gibbs_support(_twin(state), beta)
    assert chains._gibbs_support(state, beta)[1] == total
    assert np.array_equal(gibbs_probabilities(state, beta), weights / total)
    for r in _critical_draws(weights / total):
        a, b = _twin(state), _twin(state)
        move, _ = gibbs_step(a, beta, _Draws([r]))
        ref, _ = reference_gibbs_step(b, beta, _Draws([r]))
        assert move == ref and a.scaled_energy == b.scaled_energy, (beta, r)
        assert np.array_equal(a.key, b.key)


@pytest.mark.parametrize("n", sorted(REF_NS))
def test_runs_and_moves_match_the_reference(n, monkeypatch):
    """CSV bytes, summaries, every move, its energy and every stay run equal
    the pre-change step's, from beta = 0 to 10**3."""
    k, gamma = REF_NS[n], GammaParam(4)
    inst = gen_planted(n, k, n + 2)
    for beta in (0.0, 0.5, math.log(n), 10 * math.log(n), 1e3):
        for init in inits(n, k):
            args = (inst, init, GibbsChain(beta), gamma, 150 if n == 2000 else 400, 3)
            with monkeypatch.context() as m:
                m.setattr(chains, "gibbs_step", reference_gibbs_step)
                ref = run_chain(*args, hold_window=30)
            traj = run_chain(*args, hold_window=30)
            assert traj.csv_text() == ref.csv_text(), (beta, init)
            assert traj.summary_dict() == ref.summary_dict()
            members = {"full": range(n), "empty": ()}.get(init, init)
            a = init_state(inst.graph, members, gamma)
            b = init_state(inst.graph, members, gamma)
            ra = _Uniforms(stream_rng(5, CHAIN_STREAM))
            rb = _Uniforms(stream_rng(5, CHAIN_STREAM))
            for _ in range(30):
                move, _ = gibbs_step(a, beta, ra, max_stays=50)
                ref_move, _ = reference_gibbs_step(b, beta, rb, max_stays=50)
                assert move == ref_move and ra.drawn == rb.drawn, (beta, init)
                assert a.scaled_energy == b.scaled_energy


def _support_state(m, dmin_zero, n=200):
    """A crafted state (gamma 4, |U| = 100) whose support at beta = 10 ln n
    is m flips, vertex 0 among them, the rest 54 or more above the least
    delta. Without ``dmin_zero``: removes at -396 (units) and -391, adds at
    -395. With it: adds at 0 (units, with the stay) and removes at 4."""
    member = np.arange(n) % 2 == 0
    key = np.where(member, 90, n + 10)  # deltas 54 and 350: weight 0.0
    picked = np.append(0, 1 + stream_rng(m, 12).permutation(n - 1))[:m]
    for i, x in enumerate(picked.tolist()):
        if dmin_zero:
            key[x] = 80 if member[x] else n + 80
        else:
            key[x] = (0 if i % 3 == 0 else 1) if member[x] else n + 159
    return SubsetState(gen_planted(n, 1, m).graph, GammaParam(4), member,
                       int(member.sum()), key.astype(np.int32), 0)


@pytest.mark.parametrize("dmin_zero", [False, True], ids=["dmin<0", "dmin=0"])
@pytest.mark.parametrize("m", sorted({0, 1, energy.SCALAR_FLIPS - 1,
                                      energy.SCALAR_FLIPS, energy.SCALAR_FLIPS + 1}))
def test_supports_around_the_scalar_size(m, dmin_zero):
    """Supports of 0 and 1 flip and at the scalar size +- 1: Python lists up
    to it and arrays past it, with the reference's totals and moves. With
    dmin = 0 the stay is one of the units."""
    state = _support_state(m, dmin_zero)
    beta = 10 * math.log(state.graph.n)
    lo, d_lo, hi, d_hi = state._extremes(math.inf)
    dmin = min(d_lo, d_hi, 0)
    upto = dmin + math.floor(750 / beta)
    at, deltas = state.all_flip_deltas(upto, (lo, hi))
    dense = state.all_flip_deltas()
    assert np.array_equal(at, np.flatnonzero(dense <= upto)) and len(at) == m
    assert type(deltas) is (list if m <= energy.SCALAR_FLIPS else np.ndarray)
    assert list(deltas) == dense[at].tolist()
    weights, total, _, _ = reference_gibbs_support(state, beta)
    units = int(np.count_nonzero(weights == 1.0))
    assert total == units == 1 + np.count_nonzero(dense[at] == dmin) - (dmin < 0)
    assert (weights[0] == 1.0) == (dmin == 0) == (dmin_zero or m == 0)
    _assert_steps_match(state, beta)


@pytest.mark.parametrize("n", [7, 64, 2000])
def test_every_flip_tied_at_cold_beta(n):
    """The empty set: every add-delta is 0, so all n + 1 weights are units
    and every candidate has probability 1 / (n + 1)."""
    state = init_state(gen_planted(n, 3, n).graph, (), GammaParam(4))
    for beta in (10 * math.log(n), 1e3):
        _, total, at, _, _ = chains._gibbs_support(state, beta)
        assert at is None and total == n + 1
        assert (gibbs_probabilities(state, beta) == 1 / (n + 1)).all()
        _assert_steps_match(state, beta)


def test_cold_bound_switches_the_normaliser(monkeypatch):
    """Just above the cold bound the normaliser is the unit count and no
    n + 1 vector is built; at it and below, the dense sum. Both equal the
    reference's total and pick its moves."""
    builds = []
    real = chains._dense_weights
    monkeypatch.setattr(chains, "_dense_weights",
                        lambda *args: builds.append(1) or real(*args))
    seen = set()
    for state in list(_cold_states(4)) + list(_states(6)):
        n, q = state.graph.n, state.gamma.q_den
        for above in (True, False):
            beta = _beta_for_scale(_cold_bound(n), q, above)
            builds.clear()
            chains._gibbs_support(state, beta)
            assert len(builds) == (not above)
            seen.add((above, chains._gibbs_support(state, beta)[2] is None))
            _assert_steps_match(state, beta)
    assert len(seen) == 4  # cold and warm, sparse and dense supports


def _cold_states(count, n=2000):
    """Crafted states (gamma 4, so w = 5) whose flips sit 0 to 9 above the
    least delta t <= 0, all over the vertex range, the rest 300 or more
    above: many tiny weights in many blocks of the pairwise sum. Every
    fourth state has one unit remove and every add one above it."""
    for seed in range(count):
        rng = stream_rng(seed, 13)
        lone = seed % 4 == 3
        for s in range(int(n * (0.25 + 0.5 * rng.random())), n):
            k0 = 4 * (s - 1) // 5 - (0 if lone else int(rng.integers(0, 4)))
            t = 5 * k0 - 4 * (s - 1)  # the least remove delta
            deg = (4 * s - t) // 5  # an add's degree: the least add delta >= t
            if not lone or 4 * s - 5 * deg - t == 1:
                break
        member = np.zeros(n, dtype=bool)
        member[rng.permutation(n)[:s]] = True
        pick = rng.random(n)
        offset = np.where(pick < 0.3, 0, np.where(pick < 0.8, 1, 60))  # gap 0, 5, 300
        if lone:
            offset = np.where(member, 60, 0)
            offset[np.flatnonzero(member)[0]] = 0
        key = np.where(member, k0 + offset, n + deg - offset)
        yield SubsetState(gen_planted(n, 1, seed).graph, GammaParam(4), member,
                          s, key.astype(np.int32), 0)


def test_unit_count_equals_the_dense_sum():
    """On cold states with tiny weights spread over many pairwise blocks,
    just above the bound and at beta = 10 ln n, the dense pairwise sum is
    the number of unit weights, which is the normaliser the step uses."""
    spread, edge = 0, 0.0
    for state in _cold_states(24):
        n = state.graph.n
        for beta in (_beta_for_scale(_cold_bound(n), 1, True), 10 * math.log(n)):
            weights, total, _, _ = reference_gibbs_support(state, beta)
            units = np.count_nonzero(weights == 1.0)
            assert total == units == chains._gibbs_support(state, beta)[1]
            tiny = np.flatnonzero((weights > 0) & (weights < 1))
            spread += np.unique(tiny // 128).size >= 8 and units < tiny.size
            edge = max(edge, weights[tiny].sum())
    assert spread >= 40 and edge > 2.0 ** -55  # near the 2**-54 the bound allows


@pytest.mark.parametrize("n", [1, 2, 2000, 10**6])
def test_cold_weight_table_is_numpys_exp(n):
    """The per-run table holds exp(-scale * j) for j = 0..floor(750 / scale)
    exactly as ``np.exp`` gives it, so a cold support reads its weights off
    it; warmer scales get no table."""
    tables = 0
    for q in (1, 3):
        for beta in (_beta_for_scale(_cold_bound(n), q, True), 10 * math.log(n), 1e300):
            scale, reach, table = chains._weighing(beta, q, n)
            assert scale == beta / q
            assert reach == (math.floor(EXP_ZERO / scale) if scale else math.inf)
            if scale <= _cold_bound(n):
                assert table is None
                continue
            assert type(table) is tuple  # shared by every call: not mutable
            assert len(table) == reach + 1 <= EXP_ZERO / math.log(2) / 54 + 1
            for j, weight in enumerate(table):
                assert type(weight) is float and weight == np.exp([-scale * j])[0]
            tables += 1
    assert tables >= 4


class _ArgmaxCount(np.ndarray):
    """A key array that counts its argmax calls."""

    calls = 0

    def argmax(self, *args, **kwargs):
        _ArgmaxCount.calls += 1
        return super().argmax(*args, **kwargs)


@pytest.mark.parametrize("kind", [GradientDescent(), GibbsChain(10 * math.log(400))],
                         ids=["gd", "gibbs"])
def test_descents_carry_the_key_bound(kind, monkeypatch):
    """From the full set the carried key bound rules out every add, so a step
    takes one argmin and almost never the argmax; the run is unchanged."""
    inst = gen_planted(400, 40, 1)
    args = (inst, "full", kind, GammaParam(4), 5000, 1)
    ref = run_chain(*args, hold_window=100)
    real = chains.init_state

    def counting(*a):
        state = real(*a)
        state.key = state.key.view(_ArgmaxCount)
        return state

    monkeypatch.setattr(chains, "init_state", counting)
    _ArgmaxCount.calls = 0
    traj = run_chain(*args, hold_window=100)
    assert traj.csv_text() == ref.csv_text()
    moves = int(np.count_nonzero(traj.move_kind != "stay"))
    assert moves > 300 and 1 <= _ArgmaxCount.calls < moves / 20


def test_a_tight_key_bound_keeps_the_edge_of_the_support():
    """With ``hi_bound`` at the greatest key, the best add sits exactly on the
    bound. At floor(750 / scale) = its gap to dmin it is in the support, so
    the argmax must run; one below, it is out and the argmax is skipped.
    Either way the support is an unbounded state's, and so are the moves.
    (A support of more than n / 2 flips is read dense: every flip.)"""
    edges = 0
    for state in list(_crafted_states(60)) + list(_states(24)):
        n = state.graph.n
        lo, d_lo, hi, d_hi = _twin(state)._extremes(math.inf)
        if not (lo < n <= hi and d_lo < 0 and d_hi > d_lo):
            continue  # the bound rules out the adds only above a remove
        best_adds = np.flatnonzero(state.all_flip_deltas() == d_hi)
        for cut in (d_hi - d_lo, d_hi - d_lo - 1):
            beta = _beta_with_cut(cut, state.gamma.q_den)
            tight = _twin(state)
            tight._extremes(math.inf)
            got = chains._gibbs_support(tight, beta)
            for a, b in zip(got, chains._gibbs_support(_twin(state), beta)):
                assert type(a) is type(b) and np.array_equal(a, b)
            if got[2] is not None:
                assert np.isin(best_adds, got[2]).any() == (cut == d_hi - d_lo)
                edges += 1
            _assert_steps_match(tight, beta)
    assert edges >= 30
