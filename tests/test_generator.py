"""The block-packed generator against a dense reference, and its memory.

The oracle is the straightforward generator: draw the strict upper triangle
row by row into a dense n x n boolean matrix, force the clique, symmetrize
and pack. The package builds the packed rows block by block without any
n x n array; both must agree bit for bit on every n, in particular on n
that straddle a 64-row block edge.
"""

import tracemalloc

import numpy as np
import pytest

from plantedclique import gen_contaminated, gen_coupled, gen_er, gen_planted
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


BLOCK_EDGE_NS = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129]


@pytest.mark.parametrize("n", BLOCK_EDGE_NS)
def test_er_matches_oracle(n):
    for seed in (0, 5):
        assert np.array_equal(gen_er(n, seed).packed_rows,
                              oracle_rows(n, seed))


@pytest.mark.parametrize("n", BLOCK_EDGE_NS)
def test_planted_and_coupled_match_oracle(n):
    for k in sorted({1, min(2, n), n}):
        for seed in (1, 6):
            expected = oracle_rows(n, seed, clique=k)
            assert np.array_equal(gen_planted(n, k, seed).graph.packed_rows,
                                  expected)
            g0, instance = gen_coupled(n, k, seed)
            assert np.array_equal(g0.packed_rows, oracle_rows(n, seed))
            assert np.array_equal(instance.graph.packed_rows, expected)


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
    # n^2 / 8 (two of them for the coupled pair).
    n = 8000
    tracemalloc.start()
    try:
        result = generate(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None
    assert peak < n * n // 2
