"""Structural analysis of the energy landscape over subset space.

Provides the strict-local-minimum / absorbing-state test (exact integer
comparisons against the kappa = gamma/(1+gamma) degree threshold), an
exhaustive global-minimum oracle for small graphs, and enumeration or
uniform-sampling estimation of small local minima disjoint from a forbidden
set, with the predicted count exponent attached for reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .energy import GammaParam, init_state
from .graphs import SAMPLER_STREAM, Graph, _check_int, stream_rng

__all__ = ["LocalMinReport", "ComplexityEstimate", "binary_entropy",
           "local_min_check", "brute_force_min", "enumerate_local_minima",
           "scan_local_minima"]

_BRUTE_FORCE_LIMIT, _CHUNK = 24, 1 << 16  # subsets, masks a brute-force pass


def binary_entropy(p: float) -> float:
    """-p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class LocalMinReport:
    """Outcome of the local-minimality test at one subset.

    Strict local minimum: every neighbour at Hamming distance 1 has strictly
    higher energy, i.e. outside degrees stay strictly below kappa * |U| and
    inside degrees strictly above kappa * (|U| - 1). Absorbing: no single
    flip strictly lowers the energy (the gradient-descent stopping set).
    Strictness implies absorption. ``violating_vertex`` witnesses the failure
    of strictness (a vertex whose flip does not increase the energy).
    """

    is_strict_local_min: bool
    is_absorbing: bool
    violating_vertex: Optional[int]
    kappa: Fraction


def local_min_check(graph: Graph, u, gamma: GammaParam) -> LocalMinReport:
    """Test subset u. Comparisons use the integer-scaled deltas, so the kappa
    thresholds are evaluated in exact rational arithmetic."""
    best, at = init_state(graph, u, gamma).best_flips()
    return LocalMinReport(best > 0, best >= 0, None if best > 0 else int(at[0]),
                          gamma.kappa)


def brute_force_min(graph: Graph, gamma: GammaParam
                    ) -> tuple[int, list[frozenset]]:
    """Exact global minimum by enumerating all 2^n subsets (n <= 24).

    Returns the minimum scaled energy and every minimizing subset, in
    ascending bitmask order. Edge counts are built in uint16 by a doubling
    pass over bitmasks, edges(S + v) = edges(S) + |N(v) & S| for every S below
    bit v, through reused buffers in chunks of 2^16 masks. A subset's size is
    its mask's popcount, so no size table is kept (about 3 bytes per subset at
    peak): the largest edge count of each size is taken over the table viewed
    as high-bit rows by low-bit columns, the minimum per size in exact
    integers, and the argmins are searched only at the sizes that reach it.
    n = 20 takes about 2 ms, n = 24 about 0.02 s.
    """
    n = graph.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to n <= {_BRUTE_FORCE_LIMIT}, got {n}")
    adj = np.bitwise_or.reduce(graph.to_dense() << np.arange(n, dtype=np.uint64), axis=1)
    edges = np.zeros(1 << n, dtype=np.uint16)
    low = np.arange(min(1 << n, _CHUNK), dtype=np.uint32)
    word, (base, count) = np.empty_like(low), np.empty((2, low.size), dtype=np.uint8)
    for v, a in enumerate(adj.tolist()):
        k = min(1 << v, low.size)  # |N(v) & (c + i)| = |N(v) & c| + |N(v) & i|, i < k
        np.bitwise_count(np.bitwise_and(low[:k], a, out=word[:k]), out=base[:k])
        for c in range(0, 1 << v, k):
            np.add(base[:k], (a & c).bit_count(), out=count[:k])
            np.add(edges[c : c + k], count[:k], out=edges[(1 << v) + c :][:k])
    del low, word, base, count  # before the argmin search's compare
    rows = edges.reshape(-1, 1 << n // 2)  # popcount(mask) = popcount(row) + popcount(column)
    pc = np.bitwise_count(np.arange(len(rows)))  # as many rows as columns, or twice
    top = np.array([rows[pc == u].max(axis=0) for u in range(pc[-1] + 1)])
    most = np.zeros(n + 1, dtype=np.uint16)
    np.maximum.at(most, np.add.outer(np.arange(len(top)), pc[: rows.shape[1]]), top)
    p, w = gamma.p, gamma.edge_weight
    h = [p * (s * (s - 1) // 2) - w * e for s, e in enumerate(most.tolist())]
    best, argmins = min(h), []
    for s in (s for s, x in enumerate(h) if x == best):
        at = np.flatnonzero(edges == most[s])
        argmins += at[np.bitwise_count(at) == s].tolist()
    return best, [frozenset(i for i in range(n) if mask >> i & 1)
                  for mask in sorted(argmins)]


@dataclass(frozen=True)
class ComplexityEstimate:
    """Count (or sampling estimate) of strict local minima at one size.

    ``predicted_exponent`` is the reference growth exponent
    1 - c (1 - h(kappa)) / 2 with c = m / log2 n, i.e. the count is predicted
    to grow like n^(exponent * m). It is only defined in the regime where the
    prediction applies (h(kappa) < 1/2 and 1/(1 - h(kappa)) < c < 2) and is
    None otherwise.
    """

    m: int
    observed_count: int
    count_estimate: float
    stderr: float
    predicted_exponent: Optional[float]
    sampled: bool
    samples: int
    total_subsets: int


def _predicted_exponent(n: int, m: int, gamma: GammaParam) -> Optional[float]:
    h = binary_entropy(float(gamma.kappa))
    if n < 2 or h >= 0.5:
        return None
    c = m / math.log2(n)
    if not (1.0 / (1.0 - h) < c < 2.0):
        return None
    return 1.0 - 0.5 * c * (1.0 - h)


def _bit_words(packed: np.ndarray) -> np.ndarray:
    """Packed rows zero-padded to W = ceil(n / 64) uint64 words, as (W, rows), in
    the packed bit layout; ``np.unpackbits`` of a row's bytes gives vertex order."""
    padded = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return np.ascontiguousarray(padded.view(np.uint64).T)


def _popcount(words) -> np.ndarray:
    """Set bits over one array per word (uint8 for W = 1, no extra pass)."""
    count = np.bitwise_count(words[0])
    for x in words[1:]:
        count = count + np.bitwise_count(x).astype(np.int64)
    return count


def _word_minima(words: np.ndarray, adj: np.ndarray, bits: np.ndarray,
                 rows: np.ndarray, limit: int, gamma: GammaParam
                 ) -> tuple[list[frozenset], int]:
    """Strict local minima among the first ``limit`` rows of pool indices
    without a repeat, in row order, and the number of rows taken.

    ``words`` holds every vertex's neighbourhood, and ``adj`` and ``bits``
    the pool vertices' neighbourhoods and own bits (``_bit_words``). A row's
    mask is one vector per word and is distinct iff it has m bits. One
    popcount per column keeps the rows whose member has inside degree
    d > p (m - 1) // w, column 0 over the whole block; the few survivors get
    the outside check d <= (p m - 1) // w (the exact kappa thresholds
    w d > p (m - 1) and w d < p m), each vertex's degree into a survivor
    being the sum of its members' unpacked rows, in blocks of up to 2 MB.
    """
    p, w, m = gamma.p, gamma.edge_weight, rows.shape[1]
    col = rows[:, 0]
    masks = [b[col] for b in bits]
    for j in range(1, m):
        for x, b in zip(masks, bits):
            x |= b[rows[:, j]]
    distinct = _popcount(masks) == m
    taken = np.count_nonzero(distinct)
    if taken > limit:  # no row after the limit-th distinct one counts
        distinct[np.flatnonzero(distinct)[limit] :] = False
        taken = limit
    inner = p * (m - 1) // w
    ok = _popcount([a[col] & x for a, x in zip(adj, masks)]) > inner
    keep = np.flatnonzero(ok & distinct)
    for j in range(1, m):
        if not keep.size:  # most blocks run out of rows after a few columns
            break
        col = rows[keep, j]
        keep = keep[_popcount([a[col] & x[keep] for a, x in zip(adj, masks)]) > inner]
    found, n = [], words.shape[1]
    step = max(1, (1 << 21) // ((m + 4) * n))  # member rows and 4 arrays of n bytes: 2 MB
    for b in range(0, keep.size, step):
        at = keep[b : b + step]
        h = np.stack([x[at] for x in masks], axis=1)
        inside = np.unpackbits(h.view(np.uint8), axis=1, count=n).view(bool)
        member = adj.T[rows[at].ravel()].view(np.uint8)  # each member's row bytes
        deg = np.unpackbits(member, axis=1, count=n).reshape(len(at), m, n).sum(
            axis=1, dtype=np.min_scalar_type(m))  # deg <= m
        strict = inside[(inside | (deg <= (p * m - 1) // w)).all(axis=1)]
        found += [frozenset(np.flatnonzero(r).tolist()) for r in strict]
    return found, taken


def check_sample_rate(pool: int, m: int, budget: int) -> None:
    """Raise ValueError if size m would be sampled (C(pool, m) > budget) at a
    distinct-draw rate perm(pool, m) / pool^m below 1/64."""
    if math.comb(pool, m) > budget and 64 * math.perm(pool, m) < pool ** m:
        raise ValueError(f"sampling size {m} from {pool} vertices keeps only "
                         f"{math.perm(pool, m) / pool ** m:.3g} < 1/64 of its draws; "
                         f"use a smaller m or a budget >= C({pool}, {m}) to enumerate")


_SEGMENT, _BLOCK = 1 << 17, 1 << 14  # values a draw, rows a kernel call: no output moves


def scan_local_minima(graph: Graph, sizes: Iterable[int], forbidden: Iterable[int],
                      gamma: GammaParam, budget: int, seed: int = 0
                      ) -> list[tuple[list[frozenset], ComplexityEstimate]]:
    """Strict local minima of each size m in ``sizes`` among subsets avoiding
    ``forbidden``: one (found, estimate) per size, in the order given.

    If C(n - |forbidden|, m) fits in ``budget``, size m is enumerated and its
    count is exact (stderr 0). Otherwise its uniform sample is the first
    ``budget`` m-tuples without a repeat among the consecutive m-tuples of
    pool indices from the start of stream ``SAMPLER_STREAM``, the estimate is
    the scaled hit count with its standard error, and the list holds the
    distinct minima hit, sorted. A size whose distinct-draw rate is below 1/64
    raises ValueError (``check_sample_rate``). The sampled sizes share one
    pass over the stream (numpy's bounded draws do not depend on how they are
    split into calls), drawn in segments of ``_SEGMENT`` values: a size reads
    its rows as views of each segment and keeps only the fewer than m values
    a segment end cuts off, so no segment is copied. Every n runs the one
    ``_word_minima`` kernel on ceil(n / 64) uint64 words a subset; no n x n
    array is built.
    """
    budget = _check_int("budget", budget, 1)
    forbidden = {_check_int("forbidden vertex", v, 0, graph.n - 1) for v in forbidden}
    pool = np.array([v for v in range(graph.n) if v not in forbidden], dtype=np.int64)
    sizes = [_check_int("subset size", m, 1, pool.size) for m in sizes]
    for m in sizes:
        check_sample_rate(pool.size, m, budget)
    # the word tables are built once per call, not once per size or block
    words = _bit_words(graph.packed_rows)
    own = np.zeros((pool.size, words.shape[0] * 8), dtype=np.uint8)
    own[np.arange(pool.size), pool >> 3] = 0x80 >> (pool & 7)  # packbits order
    adj, bits = words[:, pool], _bit_words(own)

    out, left = {}, {}  # size -> [rows still wanted, hits, minima, unread values]
    for m in dict.fromkeys(sizes):
        total = math.comb(pool.size, m)
        if total > budget:
            left[m] = [budget, 0, set(), np.empty(0, dtype=np.int64)]
            continue
        found = []  # the combinations' values in order, _BLOCK rows a chunk
        values = itertools.chain.from_iterable(itertools.combinations(range(pool.size), m))
        while (chunk := np.fromiter(itertools.islice(values, _BLOCK * m), np.int64)).size:
            found += _word_minima(words, adj, bits, chunk.reshape(-1, m), _BLOCK, gamma)[0]
        out[m] = found, ComplexityEstimate(
            m=m, observed_count=len(found), count_estimate=float(len(found)),
            stderr=0.0, predicted_exponent=_predicted_exponent(graph.n, m, gamma),
            sampled=False, samples=total, total_subsets=total)

    rng = stream_rng(seed, SAMPLER_STREAM)
    while todo := [(m, s) for m, s in left.items() if s[0]]:
        segment = rng.integers(0, pool.size, size=_SEGMENT, dtype=np.int64)
        for m, s in todo:
            # the fewer than m values a segment end cut off start this
            # segment's first row, which may need more than the segment
            cut = -s[3].size % m
            if cut > segment.size:
                s[3] = np.concatenate([s[3], segment])
                continue
            end = cut + (segment.size - cut) // m * m
            rows = segment[cut:end].reshape(-1, m)
            blocks = [rows[b : b + _BLOCK] for b in range(0, len(rows), _BLOCK)]
            if cut:
                blocks.insert(0, np.concatenate([s[3], segment[:cut]])[None])
            s[3] = segment[end:].copy()
            for block in blocks:
                found, taken = _word_minima(words, adj, bits, block, s[0], gamma)
                s[0] -= taken
                s[1] += len(found)
                s[2].update(found)
                if not s[0]:
                    break
    for m, (_, n_hits, hits, _) in left.items():
        total, phat = math.comb(pool.size, m), n_hits / budget
        out[m] = sorted(hits, key=sorted), ComplexityEstimate(
            m=m, observed_count=n_hits, count_estimate=total * phat,
            stderr=total * math.sqrt(phat * (1.0 - phat) / budget),
            predicted_exponent=_predicted_exponent(graph.n, m, gamma),
            sampled=True, samples=budget, total_subsets=total)
    return [out[m] for m in sizes]


def enumerate_local_minima(graph: Graph, m: int, forbidden: Iterable[int],
                           gamma: GammaParam, budget: int, seed: int = 0
                           ) -> tuple[list[frozenset], ComplexityEstimate]:
    """Strict local minima of size m among subsets avoiding ``forbidden``:
    the one-size case of ``scan_local_minima``."""
    return scan_local_minima(graph, (m,), forbidden, gamma, budget, seed)[0]
