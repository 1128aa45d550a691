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
from .graphs import SAMPLER_STREAM, Graph, stream_rng

__all__ = ["LocalMinReport", "ComplexityEstimate", "binary_entropy",
           "local_min_check", "brute_force_min", "enumerate_local_minima"]

_BRUTE_FORCE_LIMIT = 24


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
    state = init_state(graph, u, gamma)
    deltas = state.all_flip_deltas()
    strict = bool((deltas > 0).all())
    absorbing = bool((deltas >= 0).all())
    violating = None if strict else int(np.argmin(deltas))
    return LocalMinReport(strict, absorbing, violating, gamma.kappa)


def brute_force_min(graph: Graph, gamma: GammaParam
                    ) -> tuple[int, list[frozenset]]:
    """Exact global minimum by enumerating all 2^n subsets (n <= 24).

    Returns the minimum scaled energy and every minimizing subset. Edge counts
    are built by dynamic programming over bitmasks, so the cost is O(2^n) with
    a small constant; n = 20 takes a few seconds, n = 24 tens of seconds.
    """
    n = graph.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to n <= {_BRUTE_FORCE_LIMIT}, got {n}")
    adj = []
    for i in range(n):
        bits = 0
        for j in graph.neighbors(i):
            bits |= 1 << int(j)
        adj.append(bits)
    p, w = gamma.p, gamma.edge_weight
    edges = [0] * (1 << n)
    best = 0
    argmins = [0]
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        e = edges[rest] + (adj[v] & rest).bit_count()
        edges[mask] = e
        s = mask.bit_count()
        h = p * (s * (s - 1) // 2) - w * e
        if h < best:
            best = h
            argmins = [mask]
        elif h == best:
            argmins.append(mask)
    as_sets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in argmins]
    return best, as_sets


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


def _adjacency_words(dense: np.ndarray) -> Optional[np.ndarray]:
    """Per-vertex neighbourhood as one uint64 word (n <= 64 only)."""
    n = dense.shape[0]
    if n > 64:
        return None
    shifts = np.arange(n, dtype=np.uint64)
    return np.bitwise_or.reduce(dense.astype(np.uint64) << shifts[None, :], axis=1)


def _strict_minima_in_batch(dense: np.ndarray, idx: np.ndarray,
                            gamma: GammaParam,
                            adj64: Optional[np.ndarray]) -> list[frozenset]:
    """Strict local minima among the size-m subsets given as rows of idx.

    The inside-degree prefilter runs as word popcounts when the graph fits in
    one machine word, else as a dense gather; survivors (few) get the full
    outside-degree check.
    """
    p, w = gamma.p, gamma.edge_weight
    m = idx.shape[1]
    if adj64 is not None:
        masks = np.bitwise_or.reduce(np.uint64(1) << idx.astype(np.uint64), axis=1)
        internal = np.bitwise_count(adj64[idx] & masks[:, None]).astype(np.int64)
    else:
        sub = dense[idx[:, :, None], idx[:, None, :]]
        internal = sub.sum(axis=2, dtype=np.int64)
    inside_ok = (w * internal > p * (m - 1)).all(axis=1)
    found = []
    for row in idx[inside_ok]:
        deg = dense[:, row].sum(axis=1, dtype=np.int64)
        outside = np.ones(dense.shape[0], dtype=bool)
        outside[row] = False
        if (w * deg[outside] < p * m).all():
            found.append(frozenset(int(v) for v in row))
    return found


def enumerate_local_minima(graph: Graph, m: int, forbidden: Iterable[int],
                           gamma: GammaParam, budget: int, seed: int = 0
                           ) -> tuple[list[frozenset], ComplexityEstimate]:
    """Strict local minima of size m among subsets avoiding ``forbidden``.

    If C(n - |forbidden|, m) fits in ``budget``, enumerates exhaustively and
    the returned count is exact (stderr 0). Otherwise draws ``budget`` uniform
    size-m subsets and reports the scaled count estimate with its standard
    error; the returned list then holds the distinct minima the sample hit.
    """
    if m < 1:
        raise ValueError("subset size must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    forbidden = set(int(v) for v in forbidden)
    pool = np.array([v for v in range(graph.n) if v not in forbidden],
                    dtype=np.int64)
    if m > pool.size:
        raise ValueError(f"no size-{m} subsets avoid the forbidden set")
    total = math.comb(pool.size, m)
    dense = graph.to_dense()
    adj64 = _adjacency_words(dense)
    batch = 1 << 15

    if total <= budget:
        found = []
        it = itertools.combinations(pool.tolist(), m)
        while True:
            chunk = list(itertools.islice(it, batch))
            if not chunk:
                break
            found.extend(_strict_minima_in_batch(dense, np.array(chunk), gamma,
                                                 adj64))
        est = ComplexityEstimate(
            m=m, observed_count=len(found), count_estimate=float(len(found)),
            stderr=0.0, predicted_exponent=_predicted_exponent(graph.n, m, gamma),
            sampled=False, samples=total, total_subsets=total,
        )
        return found, est

    rng = stream_rng(seed, SAMPLER_STREAM)
    hits: set = set()
    n_hits = 0
    remaining = budget
    while remaining > 0:
        # rejection sampling of distinct index tuples; sorted rows of a
        # uniform distinct draw are uniform m-subsets
        r = min(batch, 2 * remaining + 16)
        draw = np.sort(rng.integers(0, pool.size, size=(r, m), dtype=np.int64),
                       axis=1)
        distinct = (np.diff(draw, axis=1) > 0).all(axis=1)
        take = draw[distinct][:remaining]
        if take.shape[0] == 0:
            continue
        found = _strict_minima_in_batch(dense, pool[take], gamma, adj64)
        n_hits += len(found)
        hits.update(found)
        remaining -= take.shape[0]
    phat = n_hits / budget
    est = ComplexityEstimate(
        m=m, observed_count=n_hits, count_estimate=total * phat,
        stderr=total * math.sqrt(phat * (1.0 - phat) / budget),
        predicted_exponent=_predicted_exponent(graph.n, m, gamma),
        sampled=True, samples=budget, total_subsets=total,
    )
    return sorted(hits, key=sorted), est
