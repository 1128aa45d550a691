import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from plantedclique import (GammaParam, binary_entropy, brute_force_min,
                           enumerate_local_minima, gen_er, gen_planted,
                           init_state, landscape, local_min_check,
                           scan_local_minima)
from plantedclique.graphs import SAMPLER_STREAM, Graph, stream_rng
from plantedclique.landscape import (ComplexityEstimate, _predicted_exponent,
                                     _word_minima, check_sample_rate)

from checkers import per_size_local_minima, word_tables
from conftest import graph_from_edges


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate_ends(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_point_nine(self):
        # frozen from the definition: -0.9 log2 0.9 - 0.1 log2 0.1
        assert abs(binary_entropy(0.9) - 0.4690) <= 1e-4
        assert abs(binary_entropy(0.9) - 0.46899559358928122) <= 1e-15

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestLocalMinCheck:
    def test_singleton_never_strict(self):
        g = graph_from_edges(4, [(0, 1)])
        rep = local_min_check(g, [0], GammaParam(2))
        assert not rep.is_strict_local_min
        assert not rep.is_absorbing  # adding the neighbour 1 lowers energy
        rep = local_min_check(g, [3], GammaParam(2))
        assert not rep.is_strict_local_min
        assert rep.is_absorbing  # isolated singleton: nothing improves

    def test_empty_set_absorbing_not_strict(self):
        g = gen_er(10, 0)
        rep = local_min_check(g, [], GammaParam(3))
        assert rep.is_absorbing and not rep.is_strict_local_min
        assert rep.violating_vertex is not None

    def test_triangle_strict_at_gamma_three(self):
        # triangle plus two outsiders with at most 2 edges into it:
        # inside degrees 2 > kappa*2 = 3/2, outside 2 < kappa*3 = 9/4
        g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (4, 2)])
        rep = local_min_check(g, [0, 1, 2], GammaParam(3))
        assert rep.is_strict_local_min and rep.is_absorbing
        assert rep.violating_vertex is None
        assert rep.kappa == Fraction(3, 4)

    def test_triangle_not_strict_with_universal_outsider(self):
        g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (3, 2)])
        rep = local_min_check(g, [0, 1, 2], GammaParam(3))
        assert not rep.is_strict_local_min
        assert rep.violating_vertex == 3

    def test_planted_clique_is_strict_on_most_instances(self):
        hits = 0
        for seed in range(20):
            inst = gen_planted(64, 24, seed)
            rep = local_min_check(inst.graph, range(24), GammaParam(4))
            hits += rep.is_strict_local_min
            assert rep.is_strict_local_min <= rep.is_absorbing
        assert hits >= 16

    def test_matches_exhaustive_delta_scan(self, rng):
        for trial in range(60):
            n = int(rng.integers(2, 30))
            g = gen_er(n, int(rng.integers(0, 10**6)))
            u = np.flatnonzero(rng.random(n) < rng.random())
            qd = int(rng.integers(1, 4))
            gam = GammaParam(qd + int(rng.integers(1, 9)), qd)
            state = init_state(g, u, gam)
            deltas = state.all_flip_deltas()
            rep = local_min_check(g, u, gam)
            assert rep.is_strict_local_min == bool((deltas > 0).all())
            assert rep.is_absorbing == bool((deltas >= 0).all())


class TestBruteForceMin:
    def test_empty_graph(self):
        g = graph_from_edges(5, [])
        best, argmins = brute_force_min(g, GammaParam(2))
        assert best == 0
        assert set(argmins) == {frozenset()} | {frozenset([v]) for v in range(5)}

    def test_complete_graph(self):
        g = Graph_complete(5)
        best, argmins = brute_force_min(g, GammaParam(2))
        # H(U) = -C(|U|,2) on cliques, minimized by the full set
        assert best == -math.comb(5, 2)
        assert argmins == [frozenset(range(5))]

    def test_minimizers_are_absorbing(self):
        gam = GammaParam(2)
        for seed in range(5):
            inst = gen_planted(12, 8, seed)
            best, argmins = brute_force_min(inst.graph, gam)
            for s in argmins:
                rep = local_min_check(inst.graph, s, gam)
                assert rep.is_absorbing
            if len(argmins) == 1:
                assert local_min_check(inst.graph, argmins[0], gam).is_strict_local_min

    def test_agrees_with_direct_enumeration(self):
        from conftest import py_scaled_energy
        gam = GammaParam(5, 2)
        g = gen_er(10, 42)
        dense = g.to_dense()
        best, argmins = brute_force_min(g, gam)
        values = {}
        for r in range(11):
            for combo in itertools.combinations(range(10), r):
                values[frozenset(combo)] = py_scaled_energy(dense, combo, gam)
        target = min(values.values())
        assert best == target
        assert set(argmins) == {s for s, v in values.items() if v == target}

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            brute_force_min(gen_er(25, 0), GammaParam(2))


def Graph_complete(n):
    return graph_from_edges(n, list(itertools.combinations(range(n), 2)))


class TestEnumerateLocalMinima:
    def test_size_one_is_empty(self):
        g = gen_er(16, 1)
        found, est = enumerate_local_minima(g, 1, [], GammaParam(3), 10**6)
        assert found == [] and est.observed_count == 0 and not est.sampled

    def test_oversized_subsets_find_nothing(self):
        # at gamma=6 a strict minimum of size 5 must be nearly complete;
        # a 5-clique among 8 coin vertices is unlikely for this seed
        g = gen_er(8, 3)
        found, _ = enumerate_local_minima(g, 5, [], GammaParam(6), 10**6)
        for s in found:
            sub = g.to_dense()[np.ix_(sorted(s), sorted(s))]
            assert sub.sum() >= 2 * (math.comb(5, 2) - 1)

    def test_exhaustive_matches_direct_loop(self):
        gam = GammaParam(5)
        inst = gen_planted(18, 5, 7)
        forbidden = set(range(5))
        found, est = enumerate_local_minima(inst.graph, 3, forbidden, gam, 10**6)
        direct = []
        pool = [v for v in range(18) if v not in forbidden]
        for combo in itertools.combinations(pool, 3):
            if local_min_check(inst.graph, combo, gam).is_strict_local_min:
                direct.append(frozenset(combo))
        assert set(found) == set(direct)
        assert est.observed_count == len(direct)
        assert est.stderr == 0.0 and not est.sampled
        assert all(not (s & forbidden) for s in found)

    def test_sampling_estimator_tracks_exhaustive(self):
        gam = GammaParam(6)
        g = gen_er(20, 11)
        _, exact = enumerate_local_minima(g, 3, [], gam, 10**6)
        found, est = enumerate_local_minima(g, 3, [], gam, 400, seed=5)
        assert est.sampled and est.samples == 400
        assert est.total_subsets == math.comb(20, 3)
        # Horvitz-Thompson estimate within 4 standard errors (plus slack for
        # the tiny-count regime where stderr can be 0 on a miss)
        slack = 4 * max(est.stderr, est.total_subsets / 400)
        assert abs(est.count_estimate - exact.observed_count) <= slack
        assert all(local_min_check(g, s, gam).is_strict_local_min for s in found)

    def test_predicted_exponent_regime(self):
        g = gen_er(64, 0)
        h = binary_entropy(10 / 11)  # ~0.439 < 1/2 at gamma = 10
        # c = m / log2(n) must lie in (1/(1-h), 2): at n=64 that is m in (10.7, 12)
        _, est = enumerate_local_minima(g, 11, [], GammaParam(10), 10, seed=0)
        expected = 1 - 0.5 * (11 / 6) * (1 - h)
        assert est.predicted_exponent == pytest.approx(expected, rel=1e-12)
        # m = 8 sits below the window, so no prediction is attached
        _, est2 = enumerate_local_minima(g, 8, [], GammaParam(10), 10, seed=0)
        assert est2.predicted_exponent is None
        # and at gamma = 2 the entropy h(2/3) exceeds 1/2 for every m
        _, est3 = enumerate_local_minima(g, 8, [], GammaParam(2), 10, seed=0)
        assert est3.predicted_exponent is None

    def test_budget_and_size_validation(self):
        g = gen_er(10, 0)
        with pytest.raises(ValueError):
            enumerate_local_minima(g, 0, [], GammaParam(2), 100)
        with pytest.raises(ValueError):
            enumerate_local_minima(g, 3, [], GammaParam(2), 0)
        with pytest.raises(ValueError):
            enumerate_local_minima(g, 11, [], GammaParam(2), 100)

    @pytest.mark.parametrize("forbidden, error, match", [
        ([999, -5], ValueError, "forbidden vertex must lie in 0..23, got 999"),
        ([-5], ValueError, "forbidden vertex must lie in 0..23, got -5"),
        ([24], ValueError, "forbidden vertex"),
        ([1.7], TypeError, "forbidden vertex must be an int, got 1.7"),
        ([np.float64(2)], TypeError, "forbidden vertex"),
        (["3"], TypeError, "forbidden vertex"),
        ([True], TypeError, "forbidden vertex")])
    def test_forbidden_vertices_are_checked(self, forbidden, error, match):
        g = gen_er(24, 0)
        with pytest.raises(error, match=match):
            scan_local_minima(g, (3,), forbidden, GammaParam(2), 100)
        with pytest.raises(error, match=match):
            enumerate_local_minima(g, 3, forbidden, GammaParam(2), 100)

    @pytest.mark.parametrize("budget, error", [
        (True, TypeError), (False, TypeError), (2.5, TypeError), (100.0, TypeError),
        ("100", TypeError), (None, TypeError), (0, ValueError), (-3, ValueError)])
    def test_budget_must_be_a_positive_int(self, budget, error):
        g = gen_er(24, 0)
        with pytest.raises(error, match="budget"):
            scan_local_minima(g, (3,), [], GammaParam(2), budget)
        with pytest.raises(error, match="budget"):
            enumerate_local_minima(g, 3, [], GammaParam(2), budget)

    @pytest.mark.parametrize("m, error", [
        (0, ValueError), (-1, ValueError), (19, ValueError), (True, TypeError),
        (3.0, TypeError), (np.float32(3), TypeError)])
    def test_sizes_must_be_ints_in_the_pool(self, m, error):
        g = gen_er(24, 0)  # six forbidden vertices leave a pool of 18
        with pytest.raises(error, match="subset size"):
            scan_local_minima(g, (2, m), range(6), GammaParam(2), 100)
        with pytest.raises(error, match="subset size"):
            enumerate_local_minima(g, m, range(6), GammaParam(2), 100)

    def test_numpy_integers_are_accepted(self):
        inst = gen_planted(24, 6, 0)
        got = scan_local_minima(inst.graph, np.array([3, 18]), inst.pc,
                                GammaParam(2), np.int64(100), np.uint64(4))
        assert got == [enumerate_local_minima(inst.graph, 3, inst.pc.tolist(),
                                              GammaParam(2), 100, 4),
                       enumerate_local_minima(inst.graph, 18, inst.pc.tolist(),
                                              GammaParam(2), 100, 4)]
        assert got[0][1].samples == 100 and type(got[0][1].samples) is int

    def test_no_sizes_give_no_results(self):
        assert scan_local_minima(gen_er(24, 0), [], [], GammaParam(2), 100) == []


class TestScanMatchesPerSizeSampler:
    """One pass over the sampler stream gives every size the results of its
    own fresh stream, however the stream is cut into segments and blocks."""

    @pytest.mark.parametrize("n", [24, 64, 80, 130])
    @pytest.mark.parametrize("budget", [1, 17, 3000])
    @pytest.mark.parametrize("segment, block", [
        (None, None), (1, 13), (7, 1), (13, 7), (2, 3), (5, 2)])
    def test_scan_equals_a_fresh_stream_per_size(self, monkeypatch, n, budget,
                                                 segment, block):
        if segment is not None:
            monkeypatch.setattr(landscape, "_SEGMENT", segment)
            monkeypatch.setattr(landscape, "_BLOCK", block)
        gam = GammaParam(2 if n == 24 else 10)
        inst = gen_planted(n, n // 4, n)
        # unsorted, with a repeat; at budget 3000 sizes 1 and 2 are enumerated
        sizes = [5, 2, 7, 1, 5, 3] if n == 24 else [4, 2, 6, 1, 4]
        got = scan_local_minima(inst.graph, sizes, inst.pc, gam, budget, seed=3)
        want = [per_size_local_minima(inst.graph, m, inst.pc, gam, budget, seed=3)
                for m in sizes]
        assert got == want
        assert [est.sampled for _, est in got] == [
            math.comb(n - n // 4, m) > budget for m in sizes]


class TestWordMinima:
    # triangles {0, 1, 2}, {3, 4, 5} and {6, 7, 8} are the strict local
    # minima of size 3 at gamma = 10; 9, 10 and 11 are isolated
    GRAPH = graph_from_edges(12, [e for t in ((0, 1, 2), (3, 4, 5), (6, 7, 8))
                                  for e in itertools.combinations(t, 2)])
    ROWS = np.array([[0, 0, 1],     # a repeat: not taken
                     [0, 1, 2],     # a minimum
                     [9, 10, 11],   # column 0 fails the inside filter
                     [3, 4, 5],     # a minimum, passing column 0's filter
                     [6, 7, 8]])    # a minimum

    @pytest.mark.parametrize("limit, count", [(1, 1), (2, 1), (3, 2), (4, 3), (9, 3)])
    def test_no_row_after_the_limit_counts(self, limit, count):
        words, adj, bits = word_tables(self.GRAPH, np.arange(12))
        found, taken = _word_minima(words, adj, bits, self.ROWS, limit, GammaParam(10))
        assert found == [frozenset(r) for r in self.ROWS[[1, 3, 4]][:count].tolist()]
        assert taken == min(limit, 4)


class TestNumpyBoundedDraws:
    @pytest.mark.parametrize("pool", [48, 3 * 2**30 + 7])
    @pytest.mark.parametrize("a", [1, 7, 13, 1001])
    def test_split_draws_continue_one_stream(self, pool, a):
        # scan_local_minima draws the sampler stream in segments and relies
        # on this; at pool 3 * 2^30 + 7 Lemire's method rejects about 1/4
        # of its 32-bit words, and an odd a leaves half a 64-bit word
        split = stream_rng(11, SAMPLER_STREAM)
        first = split.integers(0, pool, size=a, dtype=np.int64)
        rest = split.integers(0, pool, size=997, dtype=np.int64)
        whole = stream_rng(11, SAMPLER_STREAM).integers(0, pool, size=a + 997,
                                                         dtype=np.int64)
        assert np.array_equal(np.concatenate([first, rest]), whole)


# ---------------------------------------------------------------------------
# Reference oracles: the former pure-Python DP and sort-based sampler
# ---------------------------------------------------------------------------

EQUIV_GAMMAS = ("2", "3", "7/2", "10", "3.000000000000001",
                "1099511627777/1099511627776")


def ref_brute_force_min(graph, gamma):
    """Global minimum by one Python pass over every bitmask, in mask order."""
    n = graph.n
    adj = [sum(1 << int(j) for j in np.flatnonzero(graph.row01(i)))
           for i in range(n)]
    p, w = gamma.p, gamma.edge_weight
    edges = [0] * (1 << n)
    best, argmins = 0, [0]
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        edges[mask] = e = edges[rest] + (adj[low.bit_length() - 1] & rest).bit_count()
        s = mask.bit_count()
        h = p * (s * (s - 1) // 2) - w * e
        if h < best:
            best, argmins = h, [mask]
        elif h == best:
            argmins.append(mask)
    return best, [frozenset(i for i in range(n) if mask >> i & 1) for mask in argmins]


def ref_minima(dense, idx, gamma):
    """Strict local minima among the rows of idx, by dense gathers."""
    p, w, m = gamma.p, gamma.edge_weight, idx.shape[1]
    internal = dense[idx[:, :, None], idx[:, None, :]].sum(axis=2, dtype=np.int64)
    found = []
    for row in idx[(w * internal > p * (m - 1)).all(axis=1)]:
        deg = dense[:, row].sum(axis=1, dtype=np.int64)
        outside = np.ones(dense.shape[0], dtype=bool)
        outside[row] = False
        if (w * deg[outside] < p * m).all():
            found.append(frozenset(int(v) for v in row))
    return found


def ref_enumerate_local_minima(graph, m, forbidden, gamma, budget, seed=0):
    """Exhaustive chunks of combinations, or rejection sampling that sorts each
    draw and drops rows with a repeat, with the same estimate."""
    pool = np.array([v for v in range(graph.n) if v not in set(forbidden)])
    total, dense, batch = math.comb(pool.size, m), graph.to_dense(), 1 << 15
    pred = _predicted_exponent(graph.n, m, gamma)
    if total <= budget:
        found, it = [], itertools.combinations(pool.tolist(), m)
        while chunk := list(itertools.islice(it, batch)):
            found.extend(ref_minima(dense, np.array(chunk), gamma))
        return found, ComplexityEstimate(m, len(found), float(len(found)), 0.0,
                                         pred, False, total, total)
    rng = stream_rng(seed, SAMPLER_STREAM)
    hits, n_hits, remaining = set(), 0, budget
    while remaining > 0:
        r = min(batch, 2 * remaining + 16)
        draw = np.sort(rng.integers(0, pool.size, size=(r, m), dtype=np.int64), axis=1)
        take = draw[(np.diff(draw, axis=1) > 0).all(axis=1)][:remaining]
        found = ref_minima(dense, pool[take], gamma)
        n_hits += len(found)
        hits.update(found)
        remaining -= take.shape[0]
    phat = n_hits / budget
    return sorted(hits, key=sorted), ComplexityEstimate(
        m, n_hits, total * phat, total * math.sqrt(phat * (1.0 - phat) / budget),
        pred, True, budget, total)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("gamma", EQUIV_GAMMAS)
    def test_brute_force_min_matches_the_python_dp(self, gamma):
        gam = GammaParam.from_value(gamma)
        graphs = [graph_from_edges(9, []), Graph_complete(9)]
        for n, seed in itertools.product((1, 6, 11, 14), (0, 1)):
            graphs += [gen_er(n, seed), gen_planted(n, max(1, n // 2), seed).graph]
        for g in graphs:
            assert brute_force_min(g, gam) == ref_brute_force_min(g, gam)

    def test_brute_force_ties_across_sizes_come_in_mask_order(self):
        # at gamma = 3, H = 3 (non-edges) - edges: K5 minus edge {3, 4} and a
        # separate K4 on {5..8} all reach -6, so sizes 4 and 5 tie and the
        # size-5 mask 31 lies between the size-4 masks 23 and 480
        edges = [e for e in itertools.combinations(range(5), 2) if e != (3, 4)]
        edges += list(itertools.combinations(range(5, 9), 2))
        best, argmins = brute_force_min(graph_from_edges(9, edges), GammaParam(3))
        assert best == -6
        assert argmins == [frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4}),
                           frozenset(range(5)), frozenset(range(5, 9))]

    def test_brute_force_min_stays_below_four_bytes_per_subset(self):
        # uint16 edge counts and the argmin search's one-byte compare, with
        # no size table and no half range: about 3.3 MiB at n = 20
        g = gen_planted(20, 8, 0).graph
        tracemalloc.start()
        try:
            brute_force_min(g, GammaParam(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * (1 << 20)

    @pytest.mark.parametrize("n", [20, 64, 80, 130])
    @pytest.mark.parametrize("gamma", [2, 10])
    def test_enumerate_local_minima_matches_the_sort_based_sampler(self, n, gamma):
        gam = GammaParam(gamma)
        for seed in range(3):
            inst = gen_planted(n, n // 4, seed)
            for m in range(2, 10):
                got = enumerate_local_minima(inst.graph, m, inst.pc, gam, 3000, seed)
                want = ref_enumerate_local_minima(inst.graph, m, inst.pc, gam,
                                                  3000, seed)
                assert got == want, (seed, m)

    @pytest.mark.parametrize("density, minima", [(0.05, 900), (0.1, 150)])
    def test_exhaustive_outside_check_over_many_blocks_matches_reference(
            self, density, minima):
        # a sparse n = 300 graph (five words a row): every edge of the pool
        # passes the inside filter at gamma = 10, about 700 (density 0.05) or
        # 1700 (0.1) survivors a 2^14-row chunk against outside-check blocks
        # of 1165 rows, and about 1000 or 190 edges are minima
        rng = np.random.default_rng(0)
        pairs = np.array(list(itertools.combinations(range(300), 2)))
        g = graph_from_edges(300, pairs[rng.random(len(pairs)) < density].tolist())
        got = enumerate_local_minima(g, 2, range(10), GammaParam(10), 10**6)
        assert not got[1].sampled and got[1].observed_count > minima
        assert got == ref_enumerate_local_minima(g, 2, range(10), GammaParam(10), 10**6)

    @pytest.mark.parametrize("m", [2, 3])
    def test_outside_check_finds_known_minima_across_words(self, m):
        # 20 disjoint edges, 20 triangles and 12 K4s on shuffled vertices of
        # an n = 150 graph (three words a row): at gamma = 10 the minima of
        # size 2 are the edges and those of size 3 the triangles, since the
        # fourth vertex of a K4 has degree 3 into the others, forbidden or not
        perm = np.random.default_rng(5).permutation(150).tolist()
        parts = [perm[i : i + 2] for i in range(0, 40, 2)]
        parts += [perm[i : i + 3] for i in range(40, 100, 3)]
        parts += [perm[i : i + 4] for i in range(100, 148, 4)]
        g = graph_from_edges(150, [e for c in parts for e in itertools.combinations(c, 2)])
        forbidden = [perm[0], perm[40], perm[100]]  # one vertex of each kind of part
        got = enumerate_local_minima(g, m, forbidden, GammaParam(10), 10**6)
        assert not got[1].sampled
        assert sorted(got[0], key=sorted) == sorted(
            (frozenset(c) for c in parts if len(c) == m and not set(c) & set(forbidden)),
            key=sorted)
        assert {v // 64 for s in got[0] for v in s} == {0, 1, 2}
        assert got == ref_enumerate_local_minima(g, m, forbidden, GammaParam(10), 10**6)

    def test_sizes_past_255_count_bits_without_wrapping(self):
        # the planted 257-clique is the one strict local minimum of its size;
        # a uint8 sum of the per-word popcounts would wrap 257 to 1
        inst = gen_planted(258, 257, 0)
        found, est = enumerate_local_minima(inst.graph, 257, [], GammaParam(10), 10**4)
        assert found == [frozenset(inst.pc.tolist())] and not est.sampled

    def test_enumerate_local_minima_never_builds_the_dense_matrix(self, monkeypatch):
        monkeypatch.setattr(Graph, "to_dense", lambda self: pytest.fail(
            "enumerate_local_minima built an n x n matrix"))
        for n in (64, 130):
            inst = gen_planted(n, n // 4, 0)
            for m, budget in ((2, 10**6), (6, 3000)):
                _, est = enumerate_local_minima(inst.graph, m, inst.pc,
                                                GammaParam(10), budget)
                assert est.sampled == (m == 6)


class TestSampleRateGuard:
    def test_boundary_at_a_pool_of_48(self):
        check_sample_rate(48, 19, 1)
        with pytest.raises(ValueError, match="1/64"):
            check_sample_rate(48, 20, 1)
        check_sample_rate(48, 40, math.comb(48, 40))  # enumerated, not sampled

    def test_enumerate_refuses_a_size_sampling_cannot_reach(self):
        inst = gen_planted(64, 16, 0)
        with pytest.raises(ValueError, match="1/64"):
            enumerate_local_minima(inst.graph, 40, inst.pc, GammaParam(10), 400000)
