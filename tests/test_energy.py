import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedclique import (GammaParam, GradientDescent, SubsetState, apply_flip,
                           chains, energy, gen_er, gen_planted, init_state,
                           run_chain)

from checkers import num_edges
from conftest import graph_from_edges, py_scaled_energy


def flip_delta(state, x) -> int:
    """Scaled energy change of flipping x, from a fresh build of U ^ {x}."""
    member = state.member.copy()
    member[x] = not member[x]
    return (init_state(state.graph, member, state.gamma).scaled_energy
            - state.scaled_energy)


def edges_inside(state) -> int:
    """|E(U)|, summed over the dense adjacency."""
    return int(state.graph.to_dense()[np.ix_(state.member, state.member)].sum()) // 2


class TestGammaParam:
    def test_parsing(self):
        assert GammaParam.from_value("7/2") == GammaParam(7, 2)
        assert GammaParam.from_value(3.5) == GammaParam(7, 2)
        assert GammaParam.from_value("4") == GammaParam(4, 1)
        assert GammaParam.from_value(Fraction(9, 4)) == GammaParam(9, 4)

    def test_normalization(self):
        g = GammaParam(6, 4)
        assert (g.p, g.q_den) == (3, 2)

    def test_rejects_gamma_at_most_one(self):
        with pytest.raises(ValueError):
            GammaParam(1, 1)
        with pytest.raises(ValueError):
            GammaParam(2, 3)
        with pytest.raises(ValueError):
            GammaParam(-4, -1)

    def test_kappa(self):
        assert GammaParam(3, 1).kappa == Fraction(3, 4)
        assert GammaParam(19, 1).kappa == Fraction(19, 20)
        assert GammaParam(7, 2).kappa == Fraction(7, 9)

    def test_str(self):
        assert str(GammaParam(4, 1)) == "4"
        assert str(GammaParam(7, 2)) == "7/2"


TRIANGLE = graph_from_edges(6, [(0, 1), (0, 2), (1, 2)])


class TestInitState:
    def test_gamma_too_fine_for_n_rejected(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        edge = GammaParam(2**59 + 1, 2**59 - 1)  # (p + q_den) * 4 == 2**62
        state = init_state(g, range(3), edge)
        flips = [flip_delta(state, x) for x in range(4)]
        assert state.all_flip_deltas().tolist() == flips
        with pytest.raises(ValueError, match="too fine"):
            init_state(g, [0], GammaParam(2**59 + 3, 2**59 - 1))

    def test_empty_subset(self):
        st_ = init_state(TRIANGLE, [], GammaParam(3))
        assert st_.size == 0 and edges_inside(st_) == 0
        assert st_.scaled_energy == 0

    def test_clique_energy(self):
        st_ = init_state(TRIANGLE, [0, 1, 2], GammaParam(3))
        assert st_.scaled_energy == -3  # H = -|E| when U is a clique

    def test_one_edge_triple(self):
        g = graph_from_edges(5, [(0, 1)])
        st_ = init_state(g, [0, 1, 2], GammaParam(3))
        assert st_.scaled_energy == -1 + 3 * (3 - 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            init_state(TRIANGLE, [0, 6], GammaParam(2))
        with pytest.raises(ValueError):
            init_state(TRIANGLE, [-1], GammaParam(2))

    def test_full_set_energy_matches_edge_count(self):
        g = gen_er(40, 3)
        gam = GammaParam(5, 2)
        st_ = init_state(g, range(40), gam)
        assert st_.scaled_energy == 5 * (40 * 39 // 2) - 7 * num_edges(g)

    def test_planted_clique_energy(self):
        inst = gen_planted(30, 9, 1)
        gam = GammaParam(7, 2)
        st_ = init_state(inst.graph, range(9), gam)
        # the clique is complete, so H(PC) = -C(k,2), scaled by q_den
        assert st_.scaled_energy == -gam.q_den * (9 * 8 // 2)
        assert Fraction(st_.scaled_energy, gam.q_den) == Fraction(-36)


class TestDeltas:
    def test_add_from_empty_is_zero(self):
        st_ = init_state(TRIANGLE, [], GammaParam(2))
        assert st_.all_flip_deltas()[0] == flip_delta(st_, 0) == 0

    def test_add_worked_example(self):
        # gamma=3, |U|=4, deg=4 -> -4*4 + 3*4 = -4
        g = graph_from_edges(6, [(5, 0), (5, 1), (5, 2), (5, 3)])
        st_ = init_state(g, [0, 1, 2, 3], GammaParam(3))
        assert st_.all_flip_deltas()[5] == flip_delta(st_, 5) == -4

    def test_remove_singleton_is_zero(self):
        st_ = init_state(TRIANGLE, [4], GammaParam(2))
        assert st_.all_flip_deltas()[4] == flip_delta(st_, 4) == 0

    def test_remove_worked_example(self):
        # gamma=2, |U|=3, deg=2 -> 3*2 - 2*2 = 2
        st_ = init_state(TRIANGLE, [0, 1, 2], GammaParam(2))
        assert st_.all_flip_deltas()[0] == flip_delta(st_, 0) == 2

    def test_delta_matches_recompute(self, rng):
        g = gen_er(24, 9)
        dense = g.to_dense()
        gam = GammaParam(7, 3)
        members = set(np.flatnonzero(rng.random(24) < 0.5).tolist())
        st_ = init_state(g, members, gam)
        deltas = st_.all_flip_deltas()
        for x in range(24):
            target = py_scaled_energy(dense, members ^ {x}, gam)
            assert deltas[x] == target - st_.scaled_energy

    def test_vectorized_deltas_match_scalar(self, rng):
        g = gen_er(30, 2)
        st_ = init_state(g, np.flatnonzero(rng.random(30) < 0.4), GammaParam(9, 4))
        deltas = st_.all_flip_deltas()
        for x in range(30):
            assert deltas[x] == flip_delta(st_, x)


class TestApplyFlip:
    def test_involution(self):
        g = gen_er(20, 4)
        st_ = init_state(g, [1, 3, 5], GammaParam(3))
        before = (st_.member.copy(), st_.size, st_.key.copy(), st_.scaled_energy)
        apply_flip(apply_flip(st_, 7), 7)
        assert np.array_equal(st_.member, before[0])
        assert st_.size == before[1]
        assert np.array_equal(st_.key, before[2])
        assert st_.scaled_energy == before[3]

    def test_add_then_remove_restores_energy(self):
        st_ = init_state(TRIANGLE, [0, 1], GammaParam(5, 2))
        e0 = st_.scaled_energy
        d = flip_delta(st_, 2)
        apply_flip(st_, 2)
        assert st_.scaled_energy == e0 + d
        assert flip_delta(st_, 2) == st_.all_flip_deltas()[2] == -d
        apply_flip(st_, 2)
        assert st_.scaled_energy == e0

    def test_flip_all_equals_full_init(self):
        g = gen_er(33, 6)
        gam = GammaParam(4)
        st_ = init_state(g, [], gam)
        for x in range(33):
            apply_flip(st_, x)
        full = init_state(g, range(33), gam)
        assert st_.scaled_energy == full.scaled_energy
        assert edges_inside(st_) == num_edges(g)
        assert np.array_equal(st_.key, full.key)

    def test_degree_sum_invariant(self, rng):
        g = gen_er(26, 8)
        st_ = init_state(g, [0, 4, 9], GammaParam(2))
        for x in rng.integers(0, 26, size=60):
            apply_flip(st_, int(x))
            deg = g.deg_into(st_.member)
            assert int(deg[st_.member].sum()) == 2 * edges_inside(st_)
            assert np.array_equal(st_.key, np.where(st_.member, deg, deg + 26))

    def test_bit_table_rows_are_unpacked_bytes(self):
        table = energy._BITS
        assert table.shape == (256, 8) and table.dtype == np.int32
        for b in range(256):
            assert table[b].tolist() == np.unpackbits(np.uint8(b)).tolist()

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 23, 301])
    def test_flip_on_a_plain_key_array_matches_unpack_and_add(self, n):
        # the state copies the keys into a buffer padded to whole bytes; the
        # table flip adds each packed byte's bits and leaves the padding at 0
        g = gen_planted(n, max(1, n // 4), n).graph
        gam, rng = GammaParam(7, 2), np.random.default_rng(n)
        member = rng.random(n) < 0.5
        deg = g.deg_into(member)
        plain = np.where(member, deg, deg + n).astype(np.int32)
        state = SubsetState(g, gam, member.copy(), int(member.sum()), plain, 0)
        assert state.key_rows.shape == (-(-n // 8), 8)
        assert state.key.base is not None and state.key.size == n
        plain[:] = -1  # the state holds a copy
        want = np.where(member, deg, deg + n)
        key = state.key
        for x in rng.integers(0, n, 4 * n + 4).tolist():
            remove = bool(state.member[x])
            apply_flip(state, x, 0)
            row = np.unpackbits(g._row(x), count=n).astype(np.int64)
            want = want - row if remove else want + row
            want[x] += n if remove else -n
            assert state.key is key and np.array_equal(state.key, want)
            assert not state.key_rows.reshape(-1)[n:].any()


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 40),
       st.lists(st.integers(0, 39), min_size=0, max_size=60),
       st.tuples(st.integers(1, 9), st.integers(1, 4)))
def test_incremental_energy_always_matches_recompute(seed, n, flips, gam_raw):
    """Flip-sequence invariant: cached state equals a from-scratch rebuild
    (exact integer equality), for any graph, start and flip order."""
    p, qd = gam_raw
    if p <= qd:
        p = qd + p
    gam = GammaParam(p, qd)
    g = gen_er(n, seed)
    state = init_state(g, [], gam)
    for v in flips:
        apply_flip(state, v % n)
        fresh = init_state(g, np.flatnonzero(state.member), gam)
        assert state.scaled_energy == fresh.scaled_energy
        assert np.array_equal(state.key, fresh.key)


class TestDeltaCache:
    """The flip-delta vector is kept by apply_flip, never rebuilt; it and the
    degrees derived from it must match a fresh build at every step."""

    @pytest.mark.parametrize("n", [63, 64, 65, 129, 300])
    @pytest.mark.parametrize("gamma", ["4", "7/2", "3.000000000000001"])
    @pytest.mark.parametrize("init", ["full", "empty", "explicit"])
    def test_cache_matches_fresh_build(self, n, gamma, init):
        gam = GammaParam.from_value(gamma)
        g = gen_er(n, n)
        rng = np.random.default_rng(n)
        start = {"full": np.ones(n, dtype=bool), "empty": np.zeros(n, dtype=bool),
                 "explicit": rng.random(n) < 0.3}[init]
        state = init_state(g, start, gam)
        for x in rng.integers(0, n, size=40).tolist():
            apply_flip(state, x)
            fresh = init_state(g, state.member.copy(), gam)
            assert np.array_equal(state.all_flip_deltas(), fresh.all_flip_deltas())
            deg = g.deg_into(state.member)
            assert np.array_equal(state.key, np.where(state.member, deg, deg + n))
            assert state.scaled_energy == fresh.scaled_energy

    def test_rebuilt_state_is_independent(self):
        g = gen_er(70, 1)
        state = init_state(g, range(0, 70, 2), GammaParam(7, 2))
        twin = init_state(state.graph, state.member, state.gamma)
        before = (state.member.copy(), state.all_flip_deltas().copy(),
                  state.size, state.scaled_energy)
        for x in (1, 2, 69):
            apply_flip(twin, x)
        assert np.array_equal(state.member, before[0])
        assert np.array_equal(state.all_flip_deltas(), before[1])
        assert (state.size, state.scaled_energy) == before[2:]
        apply_flip(state, 5)  # and the source's flips leave the copy alone
        fresh = init_state(g, twin.member.copy(), GammaParam(7, 2))
        assert np.array_equal(twin.all_flip_deltas(), fresh.all_flip_deltas())

    def test_deltas_are_read_only(self):
        state = init_state(TRIANGLE, [0, 1], GammaParam(3))
        deltas = state.all_flip_deltas()
        with pytest.raises(ValueError):
            deltas[0] = 7
        with pytest.raises(ValueError):
            deltas += 1
        fresh = init_state(TRIANGLE, [0, 1], GammaParam(3))
        assert np.array_equal(deltas, fresh.all_flip_deltas())


def _check_selection(state, g, gam):
    """The key and the extremes query against the readout and a rebuild."""
    d = state.all_flip_deltas()
    best, candidates = state.best_flips()
    assert best == int(d.min())
    assert np.array_equal(candidates, np.flatnonzero(d == d.min()))
    fresh = init_state(g, state.member.copy(), gam)
    assert state.key.dtype == np.int32
    assert np.array_equal(state.key, fresh.key)


class TestKeySelection:
    """``best_flips`` reads the least delta and its vertices off the two
    extreme keys; it must agree with the full int64 readout everywhere."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 40),
           st.sampled_from(["empty", "full", "random"]),
           st.lists(st.integers(0, 39), max_size=40),
           st.tuples(st.integers(1, 9), st.integers(1, 4)))
    def test_extremes_match_the_readout(self, seed, n, start, flips, gam_raw):
        p, qd = gam_raw
        gam = GammaParam(p + qd if p <= qd else p, qd)
        g = gen_er(n, seed)
        member = {"empty": np.zeros(n, dtype=bool),
                  "full": np.ones(n, dtype=bool),
                  "random": np.random.default_rng(seed).random(n) < 0.5}[start]
        state = init_state(g, member, gam)
        _check_selection(state, g, gam)
        for v in flips:
            apply_flip(state, v % n)
            _check_selection(state, g, gam)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 40),
           st.sampled_from(["empty", "full", "random", "vertices"]),
           st.lists(st.tuples(st.sampled_from(["flip", "flip", "flip", "best",
                                               "extremes", "gibbs"]),
                              st.integers(0, 39)), max_size=60),
           st.sampled_from([GammaParam(2), GammaParam(4), GammaParam(7, 2)]))
    def test_key_bound_stays_an_upper_bound(self, seed, n, start, ops, gam):
        """``hi_bound`` starts None, only the extremes set it (to the greatest
        key) and flips keep it an upper bound. A query that skips the argmax
        on it answers as a state without a bound does."""
        g = gen_planted(n, max(1, n // 4), seed).graph
        member = {"empty": (), "full": range(n),
                  "random": np.random.default_rng(seed).random(n) < 0.5,
                  "vertices": [v % n for v in (seed, seed // 7, 3)]}[start]
        state = init_state(g, member, gam)
        assert state.hi_bound is None
        for op, v in ops:
            bound, unbounded = state.hi_bound, SubsetState(
                g, gam, state.member.copy(), state.size, state.key.copy(),
                state.scaled_energy)
            assert unbounded.hi_bound is None
            if op == "flip":
                apply_flip(state, v % n)
                assert (state.hi_bound is None) == (bound is None)
            elif op == "extremes":
                got = state._extremes(math.inf)
                assert got == unbounded._extremes(math.inf)
                assert state.hi_bound == int(state.key.max())
            elif op == "best":
                best, at = state.best_flips()
                want_best, want_at = unbounded.best_flips()
                assert best == want_best and np.array_equal(at, want_at)
            else:
                beta = (0.0, 0.5, 5.0, 80.0, 1e300)[v % 5]
                got = chains._gibbs_support(state, beta)
                want = chains._gibbs_support(unbounded, beta)
                for a, b in zip(got, want):
                    assert type(a) is type(b) and np.array_equal(a, b)
            if op in ("best", "gibbs"):  # skipped the argmax, or took it
                assert state.hi_bound in (bound, int(state.key.max()))
            assert state.hi_bound is None or state.hi_bound >= state.key.max()

    def test_best_remove_ties_best_add(self):
        # gamma 2 (w = 3), U = {0, 1}: removing 0 or 1 (3 - 2) and adding 2
        # (4 - 3) all cost 1; adding 3 costs 4
        g = graph_from_edges(4, [(0, 1), (0, 2)])
        state = init_state(g, [0, 1], GammaParam(2))
        best, candidates = state.best_flips()
        assert best == 1 and candidates.tolist() == [0, 1, 2]
        assert state.all_flip_deltas().tolist() == [1, 1, 1, 4]
        _check_selection(state, g, GammaParam(2))

    def test_a_tight_bound_keeps_a_tied_add(self):
        # the example above with hi_bound at the greatest key: the bound's
        # add-delta equals the best remove's, so the argmax must still run
        g = graph_from_edges(4, [(0, 1), (0, 2)])
        state = init_state(g, [0, 1], GammaParam(2))
        state._extremes(math.inf)
        assert state.hi_bound == int(state.key.max()) == 4 + 1
        best, candidates = state.best_flips()
        assert best == 1 and candidates.tolist() == [0, 1, 2]

    def test_empty_set_ties_every_add_at_zero(self):
        g = gen_er(30, 4)
        state = init_state(g, [], GammaParam(7, 2))
        best, candidates = state.best_flips()
        assert best == 0 and candidates.tolist() == list(range(30))
        _check_selection(state, g, GammaParam(7, 2))

    @pytest.mark.parametrize("p", [2**56 - 1, 2**30],
                             ids=["w*n=2^62", "w*key-wraps-int32"])
    def test_huge_weight_matches_python_ints(self, p):
        gam = GammaParam(p)
        n, w = 64, p + 1
        g = gen_planted(n, 12, 3).graph
        dense = g.to_dense()
        state = init_state(g, range(0, n, 3), gam)
        for x in range(n):
            deg = sum(int(dense[x][v]) for v in range(n) if state.member[v])
            s = state.size
            want = w * deg - p * (s - 1) if state.member[x] else p * s - w * deg
            assert int(state.all_flip_deltas()[x]) == want
        traj = run_chain(g, "full", GradientDescent(), gam, 10**4, 3)
        members = set(range(n))
        assert traj.scaled_energy[0] == py_scaled_energy(dense, members, gam)
        for v, energy in zip(traj.vertex[1:].tolist(), traj.scaled_energy[1:]):
            members ^= {v}
            assert energy == py_scaled_energy(dense, members, gam)
        assert traj.absorbed and traj.steps > 10
