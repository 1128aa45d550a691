"""The block-packed generator and the lazy rows against a dense reference,
and their memory.

The oracle is the straightforward generator: draw the strict upper triangle
row by row into a dense n x n boolean matrix, force the clique, symmetrize
and pack. The package builds the packed rows in 8-row bands plus a bit
transpose in 256-row passes, without any n x n array, or one row at a time
from PCG64 jumps; all must agree bit for bit on every n, in particular on n
that straddle a byte, band, pass or 64-row edge.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedclique import (GammaParam, gen_contaminated, gen_coupled,
                           gen_er, gen_planted, run_coupled_gd)
from plantedclique import _pcg64, chains, graphs
from plantedclique.graphs import EDGE_STREAM, stream_rng


def dense_upper_coins(n, rng, k=0, m=0, q=0.5):
    """Strict-upper-triangle edge coins, one ``rng.random`` call per row.

    Pairs with an endpoint in the contaminated block [k, k+m) use threshold
    q; everything else uses 1/2."""
    upper = np.zeros((n, n), dtype=bool)
    cut = k + m
    for i in range(n - 1):
        u = rng.random(n - 1 - i)
        if m == 0 or i >= cut:
            upper[i, i + 1 :] = u < 0.5
        elif i < k:
            thr = np.full(n - 1 - i, 0.5)
            thr[k - i - 1 : cut - i - 1] = q
            upper[i, i + 1 :] = u < thr
        else:
            upper[i, i + 1 :] = u < q
    return upper


def oracle_rows(n, seed, k=0, m=0, q=0.5, clique=0):
    """Packed rows of the dense reference, with the clique on 0..clique-1."""
    upper = dense_upper_coins(n, stream_rng(seed, EDGE_STREAM), k, m, q)
    if clique >= 2:
        upper[:clique, :clique] |= np.triu(np.ones((clique, clique), bool), 1)
    return np.packbits(upper | upper.T, axis=1)


def lazy_rows(make, n):
    """Packed rows 0..n-1 of the graph ``make()`` returns, each read by
    ``row01`` while its graph holds no rows: a fresh graph per n/16 rows.
    Below n = 16 that budget is empty, so the rows come from the row builder
    and the planting rule of ``row01``'s lazy path."""
    rows, per = [], n // 16
    for x in range(n):
        if per == 0:
            graph = make()
            row = graph._coins.build(x)
            if x < graph._clique:
                row = graphs._plant_row(row, x, graph._clique)
        else:
            if x % per == 0:
                graph = make()
            row = np.packbits(graph.row01(x))
        assert graph._rows is None  # nothing materialized it
        rows.append(row)
    return np.array(rows, dtype=np.uint8).reshape(n, (n + 7) // 8)


BLOCK_EDGE_NS = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129]


@pytest.mark.parametrize("n", BLOCK_EDGE_NS)
def test_er_matches_oracle(n):
    for seed in (0, 5):
        expected = oracle_rows(n, seed)
        assert np.array_equal(lazy_rows(lambda: gen_er(n, seed), n), expected)
        assert np.array_equal(gen_er(n, seed).packed_rows, expected)


@pytest.mark.parametrize("n", BLOCK_EDGE_NS)
def test_planted_and_coupled_match_oracle(n):
    for k in sorted({1, min(2, n), n}):
        for seed in (1, 6):
            expected = oracle_rows(n, seed, clique=k)
            unplanted = oracle_rows(n, seed)
            for graph, want in (
                    (lambda: gen_planted(n, k, seed).graph, expected),
                    (lambda: gen_coupled(n, k, seed)[0], unplanted),
                    (lambda: gen_coupled(n, k, seed)[1].graph, expected)):
                assert np.array_equal(lazy_rows(graph, n), want)
            assert np.array_equal(gen_planted(n, k, seed).graph.packed_rows,
                                  expected)
            g0, instance = gen_coupled(n, k, seed)
            assert np.array_equal(g0.packed_rows, unplanted)
            assert np.array_equal(instance.graph.packed_rows, expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3000), st.integers(0, 2**64 - 1), st.data())
def test_single_pairs_match_the_advanced_stream(n, seed, data):
    # coin (i, j), i < j, is draw i*n - i(i+1)/2 + (j - i - 1) of the stream
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    rng = stream_rng(seed, EDGE_STREAM)
    rng.bit_generator.advance(i * n - i * (i + 1) // 2 + j - i - 1)
    edge = rng.random() < 0.5
    graph = gen_er(n, seed)
    assert graph.row01(i)[j] == edge
    assert graph.row01(j)[i] == edge


def test_a_changed_pcg64_trips_the_guard(monkeypatch):
    _pcg64.jump_tables.cache_clear()
    monkeypatch.setattr(_pcg64, "MULT", _pcg64.MULT ^ 4)
    with pytest.raises(RuntimeError, match="pcg64-streams-v1"):
        gen_er(100, 0).row01(3)
    monkeypatch.undo()
    assert np.array_equal(np.packbits(gen_er(100, 0).row01(3)),
                          oracle_rows(100, 0)[3])


def guard_trips(monkeypatch, name, fake):
    """Building a row raises the guard's error while ``name`` in ``_pcg64``
    is ``fake``, and gives the right row again after the undo."""
    _pcg64.jump_tables.cache_clear()
    monkeypatch.setattr(_pcg64, name, fake)
    with pytest.raises(RuntimeError, match="pcg64-streams-v1"):
        gen_er(100, 0).row01(3)
    monkeypatch.undo()
    assert np.array_equal(np.packbits(gen_er(100, 0).row01(3)),
                          oracle_rows(100, 0)[3])


def test_a_corrupt_row_start_trips_the_guard(monkeypatch):
    # row 1's jump, which only the row-start check reads: S[1] moves by inc
    real = _pcg64._row_jumps

    def corrupt(*args):
        table = [a.copy() for a in real(*args)]
        table[3][1] ^= 1
        return tuple(table)
    guard_trips(monkeypatch, "_row_jumps", corrupt)


def test_a_changed_coin_rule_trips_the_guard(monkeypatch):
    # every state stays right, so only the right-half check can see it
    real = _pcg64._edge_coins
    guard_trips(monkeypatch, "_edge_coins", lambda hi, lo: ~real(hi, lo))


def python_int_powers(upto):
    """(A**p, G(p)) mod 2**128 for p <= upto, one Python-int step at a time:
    the recurrence the limb tables replace."""
    out, m, g = [], 1, 0
    for _ in range(upto + 1):
        out.append((m, g))
        m, g = m * _pcg64.MULT & 2**128 - 1, g + m & 2**128 - 1
    return out


def limb_ints(hi, lo):
    return [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 64, 65, 129])
def test_tables_and_row_starts_match_the_recurrence_and_advance(n):
    # the doubling passes end on a partial block unless n + 1 is a power of
    # two, and so does the H(q) table that the row jumps read
    powers, table = _pcg64.jump_tables(n)
    ref = python_int_powers(max(n, (n - 1) * (n - 2) // 2))
    assert list(zip(limb_ints(*powers[:2]), limb_ints(*powers[2:]))) == ref[:n + 1]
    qs = [i * n - i * (i + 3) // 2 for i in range(n)]  # Q_i = P_i - i
    assert list(zip(limb_ints(*table[:2]), limb_ints(*table[2:]))) == [
        ref[q] for q in qs]
    rng = stream_rng(3, EDGE_STREAM)
    st = rng.bit_generator.state["state"]
    starts = _pcg64.row_starts(n, st["state"], st["inc"])
    for i in range(n):  # V[i] stepped i draws on is S[i], the state at P_i
        ahead = stream_rng(3, EDGE_STREAM).bit_generator
        ahead.advance(i * n - i * (i + 1) // 2)
        row = np.random.PCG64(0)
        row.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                     "state": {"state": limb_ints(*starts[:2])[i], "inc": st["inc"]}}
        assert row.advance(i).state == ahead.state
    expected = oracle_rows(n, 3)
    for x in {0, n - 1}:  # no left half; no right half
        assert np.array_equal(_pcg64.coin_row(n, starts, x), expected[x])


@pytest.mark.parametrize("n", [9, 63, 64, 65, 127, 128, 129])
def test_contaminated_matches_oracle(n):
    # clique and contaminated set inside, across and past the first block
    cases = {(1, n - 1, 0.6), (2, n // 2, 0.75), (n // 3, n // 3, 0.9),
             (n - 5, 5, 0.55)}
    for k, m, q in sorted(cases):
        for seed in (2, 7):
            instance = gen_contaminated(n, k, m, q, seed)
            assert np.array_equal(instance.graph.packed_rows,
                                  oracle_rows(n, seed, k, m, q, clique=k))


# n on either side of the 256-row passes of the bit transpose that fills
# the lower triangle; 8-row draw bands end on each of them too
TRANSPOSE_EDGE_NS = [255, 256, 257, 511, 512, 513]


@pytest.mark.parametrize("n", TRANSPOSE_EDGE_NS)
def test_packed_rows_match_oracle_across_transpose_passes(n):
    seed = 4
    assert np.array_equal(gen_er(n, seed).packed_rows, oracle_rows(n, seed))
    assert np.array_equal(gen_planted(n, 30, seed).graph.packed_rows,
                          oracle_rows(n, seed, clique=30))
    for k, m, q in ((30, 100, 0.7), (250, n - 250, 0.6)):
        assert np.array_equal(gen_contaminated(n, k, m, q, seed).graph.packed_rows,
                              oracle_rows(n, seed, k, m, q, clique=k))


@pytest.mark.parametrize("shape", [(1, 1), (5, 13), (8, 8), (13, 5), (67, 130),
                                   (256, 9), (300, 301)])
def test_bit_transpose_matches_unpackbits(shape):
    r, c = shape
    bits = np.random.default_rng(r * c).random(shape) < 0.5
    packed = np.zeros((-(-r // 8) * 8, (c + 7) // 8), dtype=np.uint8)
    packed[:r] = np.packbits(bits, axis=1)  # whole tiles: zero rows below
    flip = graphs._bit_transpose(packed)
    want = np.zeros_like(flip)  # rows past c and bits past r stay zero
    want[:c] = np.packbits(np.unpackbits(packed[:r], axis=1, count=c).T, axis=1)
    assert flip.shape == (8 * packed.shape[1], packed.shape[0] // 8)
    assert np.array_equal(flip, want)


@pytest.mark.parametrize("n", [1, 8, 65, 200])
def test_coupled_unplanted_side_is_gen_er(n):
    for k in sorted({1, min(20, n), n}):
        assert gen_coupled(n, k, 11)[0] == gen_er(n, 11)


@pytest.mark.parametrize("generate", [
    lambda n: gen_planted(n, 90, 0),
    lambda n: gen_coupled(n, 90, 0),
    lambda n: gen_contaminated(n, 90, 400, 0.7, 0),
], ids=["planted", "coupled", "contaminated"])
def test_generation_never_holds_a_dense_matrix(generate):
    # A dense boolean n x n matrix alone is n^2 bytes; the packed graph is
    # n^2 / 8 (two of them for the coupled pair). Fair-coin graphs draw
    # their rows when they are first read, so read them all.
    n = 8000
    tracemalloc.start()
    try:
        result = generate(n)
        packed = sum(getattr(inst, "graph", inst).packed_rows.nbytes
                     for inst in (result if isinstance(result, tuple) else (result,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None
    assert peak < n * n // 2
    # beyond the rows it returns, generation holds one 8-row band of draws
    # and one pass of the bit transpose: well under 4 MiB at this n
    assert peak < packed + 4 * 2**20


def test_coupled_run_at_n_1e5_draws_no_triangle(monkeypatch):
    # The packed pair would be 2 * n^2 / 8 = 2.5 GB; an empty-init descent
    # reads a few dozen rows, each built alone.
    def refuse(*args, **kwargs):
        raise AssertionError("drew the whole triangle")
    monkeypatch.setattr(graphs, "_packed_coins", refuse)
    tracemalloc.start()
    try:
        res = run_coupled_gd(10**5, 316, GammaParam(4), 1, 20000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.planted.absorbed and res.unplanted.absorbed
    assert res.identical_before_tau
    assert peak < 100 * 2**20


def test_coupled_run_on_lazy_rows_writes_the_packed_path_bytes(monkeypatch):
    runs, pairs = {}, []
    for path in ("lazy", "packed"):
        def made(n, k, seed, path=path):
            g0, inst = gen_coupled(n, k, seed)
            if path == "packed":
                g0.packed_rows, inst.graph.packed_rows
            pairs.append((path, g0, inst.graph))
            return g0, inst
        monkeypatch.setattr(chains, "gen_coupled", made)
        runs[path] = [run_coupled_gd(400, 20, GammaParam(4), 1, 5000, seed)
                      for seed in range(6)]
    # the twins' reads pass n/16 = 25 distinct rows in some lazy runs, so
    # those switch to the packed rows midway; the others never draw them
    stayed = [g0._rows is None and g._rows is None for path, g0, g in pairs
              if path == "lazy"]
    assert 0 < sum(stayed) < len(stayed)
    assert all(g0._rows is not None for path, g0, _ in pairs if path == "packed")
    for lazy, packed in zip(runs["lazy"], runs["packed"]):
        assert lazy.planted.csv_text() == packed.planted.csv_text()
        assert lazy.unplanted.csv_text() == packed.unplanted.csv_text()
        assert ((lazy.tau, lazy.first_divergence, lazy.identical_before_tau)
                == (packed.tau, packed.first_divergence,
                    packed.identical_before_tau))
