"""Single rows of a fair-coin graph from jumps of numpy's PCG64.

numpy's PCG64 is the LCG s -> A*s + inc mod 2**128; a draw steps the state
and returns the XSL-RR output of the new state. So p draws from state s end
at A**p * s + inc * G(p), with G(p) = 1 + A + ... + A**(p-1).

Under ``pcg64-streams-v1`` the edge stream draws the strict upper triangle
row by row, so row i's coins to its right are the draws from P_i on, with
P_i = i*n - i(i+1)/2, and pair (x, y) is the draw t = |x - y| - 1 after
S[min(x, y)], the state at P_min(x, y). It is an edge iff bit 63 of the
output is 0, since ``random()`` is the top 53 bits over 2**53. Row x's right
half is then numpy's own ``random_raw`` from S[x]; its left half is one
vectorized multiply-add over uint64 (hi, lo) limbs, a jump of x draws from
each V[y], the state y draws before S[y].

The graph module imports this only when a graph builds a row alone, so
runs that draw every row with the block generator never load it.
"""

from __future__ import annotations

import functools

import numpy as np

from .graphs import GENERATOR_SCHEME

MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def _split(v: int) -> tuple[np.uint64, np.uint64]:
    """A 128-bit Python int as uint64 (hi, lo) limbs."""
    return np.uint64(v >> 64), np.uint64(v & _MASK64)


def _value(hi: np.ndarray, lo: np.ndarray, i: int) -> int:
    """Entry i of a limb array as a Python int."""
    return int(hi[i]) << 64 | int(lo[i])


def _mul128(ah, al, bh, bl) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2**128 over uint64 (hi, lo) limbs, from 32-bit halves."""
    a0, a1, b0, b1 = al & 0xFFFFFFFF, al >> 32, bl & 0xFFFFFFFF, bl >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + al * bh + ah * bl
    return hi, al * bl


def _step_states(mh, ml, sh, sl, kh, kl) -> tuple[np.ndarray, np.ndarray]:
    """M*S + K mod 2**128 over limbs: the states after jumps (M, K) from S."""
    hi, lo = _mul128(mh, ml, sh, sl)
    lo += kl
    hi += kh + (lo < kl)
    return hi, lo


def _edge_coins(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Whether each state's XSL-RR output, (hi ^ lo) rotated right by
    hi >> 58, has bit 63 clear: the coin's ``random() < 0.5``."""
    return ((hi ^ lo) >> ((hi >> 58) + 63 & 63) & 1) == 0


def _powers(a: int, count: int) -> tuple[np.ndarray, ...]:
    """Limbs of a**p and of 1 + a + ... + a**(p-1), mod 2**128, for p < count,
    by doubling: the entries at s + p are a**s times those at p, plus the
    sum to s for the second."""
    ph, pl, gh, gl = np.zeros((4, count), dtype=np.uint64)
    pl[0] = 1
    s, a_s, g_s = 1, a, 1
    while s < count:
        e = min(s, count - s)
        ph[s:s + e], pl[s:s + e] = _mul128(*_split(a_s), ph[:e], pl[:e])
        gh[s:s + e], gl[s:s + e] = _step_states(*_split(a_s), gh[:e], gl[:e],
                                                *_split(g_s))
        s, a_s, g_s = 2 * s, a_s * a_s & _MASK128, g_s * (1 + a_s) & _MASK128
    return ph, pl, gh, gl


def _row_jumps(n: int, ph, pl, gh, gl) -> tuple[np.ndarray, ...]:
    """Limbs of A**Q_i and G(Q_i) for rows i < n, with Q_i = P_i - i, from
    the ``_powers`` of A for p <= n. With Q_i = q*n + r, A**Q_i =
    (A**n)**q * A**r and G(Q_i) = G(n) * H(q) + (A**n)**q * G(r), where
    H(q) is the geometric sum of A**n to q terms."""
    i = np.arange(n, dtype=np.int64)
    q, r = np.divmod(i * n - i * (i + 3) // 2, n)
    bh, bl, hh, hl = _powers(_value(ph, pl, n), int(q[-1]) + 1)
    qh, ql = bh[q], bl[q]
    return (*_mul128(qh, ql, ph[r], pl[r]),
            *_step_states(qh, ql, gh[r], gl[r],
                          *_mul128(gh[n], gl[n], hh[q], hl[q])))


@functools.lru_cache(maxsize=4)
def jump_tables(n: int) -> tuple[tuple, tuple]:
    """Read-only limbs of (A**p, G(p)) for p <= n and of (A**Q_i, G(Q_i))
    for rows i < n, after checking them against numpy's PCG64."""
    powers = _powers(MULT, n + 1)
    table = _row_jumps(n, *powers)
    for a in powers + table:
        a.setflags(write=False)
    _check_numpy(n, powers, table)
    return powers, table


def _check_numpy(n: int, powers: tuple, table: tuple) -> None:
    """Raise RuntimeError unless the tables agree with numpy's own PCG64:
    V[i] for rows 0, 1, n/2 and n - 1, and the coins of row n/2's right
    half, drawn by ``random_raw`` and by the powers of A."""
    st = np.random.PCG64(2023).state["state"]
    starts = _stream_starts(table, st["state"], st["inc"])

    def fail(what: str) -> None:
        raise RuntimeError(
            f"numpy's PCG64 no longer matches the {GENERATOR_SCHEME} jump "
            f"arithmetic ({what}); lazy graph rows would be wrong")

    for x in sorted({0, min(1, n - 1), n // 2, n - 1}):
        ahead = np.random.PCG64(2023).advance(x * n - x * (x + 3) // 2)
        if _value(*starts[:2], x) != ahead.state["state"]["state"]:
            fail(f"start of row {x}")
    x = n // 2
    ph, pl, gh, gl = (a[x + 1:n] for a in powers)  # A**y and G(y) for y > x
    right = _edge_coins(*_step_states(ph, pl, starts[0][x], starts[1][x],
                                      *_mul128(gh, gl, *_split(st["inc"]))))
    ahead = np.random.PCG64(2023).advance(x * n - x * (x + 1) // 2)
    if not np.array_equal(right, ahead.random_raw(n - 1 - x) < 2**63):
        fail(f"right half of row {x}")


def _stream_starts(table: tuple, state: int, inc: int) -> tuple:
    """Limbs of V[i] = A**Q_i * state + G(Q_i) * inc for the stream at
    (state, inc), then inc and a bit generator to draw right halves."""
    ah, al, gh, gl = table
    return (*_step_states(ah, al, *_split(state), *_mul128(gh, gl, *_split(inc))),
            inc, np.random.PCG64(0))


def row_starts(n: int, state: int, inc: int) -> tuple:
    """The per-stream states that ``coin_row`` reads: V[i], from which i
    draws reach S[i], the state before row i's first coin."""
    return _stream_starts(jump_tables(n)[1], state, inc)


def coin_row(n: int, starts: tuple, x: int) -> np.ndarray:
    """Packed row x of the fair-coin graph whose ``row_starts`` are given:
    pair (y, x) with y < x is x draws after V[y], and the pairs with y > x
    are the draws from S[x], x draws after V[x]."""
    ph, pl, gh, gl = jump_tables(n)[0]
    vh, vl, inc, bits = starts
    k = _split(_value(gh, gl, x) * inc & _MASK128)
    coins = np.empty(n, dtype=bool)
    coins[:x] = _edge_coins(*_step_states(ph[x], pl[x], vh[:x], vl[:x], *k))
    coins[x] = False
    bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                  "state": {"state": _value(vh, vl, x), "inc": inc}}
    coins[x + 1:] = bits.advance(x).random_raw(n - 1 - x) < 2**63
    return np.packbits(coins)
