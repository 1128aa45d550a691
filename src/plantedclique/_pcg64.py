"""Single rows of a fair-coin graph from jumps of numpy's PCG64.

numpy's PCG64 is the LCG s -> A*s + inc mod 2**128; a draw steps the state
and returns the XSL-RR output of the new state. So t + 1 draws from state s
end at M[t]*s + inc*G[t], with M[t] = A**(t+1) and G[t] = 1 + A + ... + A**t.

Under ``pcg64-streams-v1`` the edge stream draws the strict upper triangle
row by row, so row i's coins to its right are the draws from P_i on, with
P_i = i*n - i(i+1)/2. With S[i] the state at P_i, pair (x, y) is jump
t = |x - y| - 1 from S[min(x, y)], and it is an edge iff bit 63 of the
output is 0, since ``random()`` is the top 53 bits over 2**53. A row is then
one vectorized multiply-add over uint64 (hi, lo) limbs.

The graph module imports this only when a graph builds a row alone, so
runs that draw every row with the block generator never load it.
"""

from __future__ import annotations

import functools

import numpy as np

from .graphs import GENERATOR_SCHEME

MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def _limbs(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit Python ints as uint64 (hi, lo) arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _mirror(a: np.ndarray) -> np.ndarray:
    """[a[n-2], ..., a[0], 0, a[0], ..., a[n-2]], read-only: entry n-1+d
    holds a[|d|-1], so row x's entries for y = 0..n-1 are one slice from
    n-1-x."""
    out = np.concatenate((a[::-1], np.zeros(1, dtype=a.dtype), a))
    out.setflags(write=False)
    return out


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


@functools.lru_cache(maxsize=4)
def jump_tables(n: int) -> tuple[tuple, tuple, tuple, tuple]:
    """M[t] and G[t] for t < n - 1, as Python ints and as mirrored limbs,
    after checking the limbs against numpy's PCG64."""
    m, g, ms, gs = MULT, 1, [], []
    for _ in range(n - 1):
        ms.append(m)
        gs.append(g)
        m, g = m * MULT & _MASK128, g + m & _MASK128
    mm = tuple(map(_mirror, _limbs(ms)))
    gm = tuple(map(_mirror, _limbs(gs)))
    _check_numpy(n, mm, gm)
    return tuple(ms), tuple(gs), mm, gm


def _check_numpy(n: int, mm: tuple, gm: tuple) -> None:
    """Raise RuntimeError unless the tables' states and coins agree with
    numpy's own PCG64 ``advance`` and ``random_raw`` at a few draws."""
    bits = np.random.PCG64(2023)
    st = bits.state["state"]
    s, inc = _limbs([st["state"]]), _limbs([st["inc"]])
    ts = sorted({t for t in (0, 1, n // 3, n - 2) if 0 <= t < n - 1})
    idx = [n + t for t in ts]  # mirrored index of jump t
    hi, lo = _step_states(mm[0][idx], mm[1][idx], *s,
                          *_mul128(gm[0][idx], gm[1][idx], *inc))
    coins = _edge_coins(hi, lo)
    for t, h, l, coin in zip(ts, hi.tolist(), lo.tolist(), coins.tolist()):
        ahead = np.random.PCG64()
        ahead.state = bits.state
        raw = int(ahead.advance(t).random_raw())
        if (h << 64 | l) != ahead.state["state"]["state"] or coin != (raw < 2**63):
            raise RuntimeError(
                f"numpy's PCG64 no longer matches the {GENERATOR_SCHEME} jump "
                f"arithmetic (draw {t}); lazy graph rows would be wrong")


def row_starts(n: int, state: int, inc: int) -> tuple:
    """Limbs of S[i], the state before row i's first coin, and of the
    mirrored K[t] = inc * G[t], for the stream at (state, inc)."""
    ms, gs, _, gm = jump_tables(n)
    starts = [state]
    for t in range(n - 2, -1, -1):  # row n - 2 - t draws t + 1 coins
        state = ms[t] * state + inc * gs[t] & _MASK128
        starts.append(state)
    return (*_limbs(starts), *_mul128(*gm, *_limbs([inc])))


def coin_row(n: int, starts: tuple, x: int) -> np.ndarray:
    """Packed row x of the fair-coin graph whose ``row_starts`` are given."""
    (mh, ml), (s_hi, s_lo, kh, kl) = jump_tables(n)[2], starts
    sh, sl = np.full(n, s_hi[x]), np.full(n, s_lo[x])
    sh[:x], sl[:x] = s_hi[:x], s_lo[:x]
    j = slice(n - 1 - x, 2 * n - 1 - x)
    coins = _edge_coins(*_step_states(mh[j], ml[j], sh, sl, kh[j], kl[j]))
    coins[x] = False
    return np.packbits(coins)
