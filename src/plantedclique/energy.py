"""Integer-exact relaxed Hamiltonian over subset states.

The objective on a subset U is

    H(U) = -|E(U)| + gamma * (C(|U|, 2) - |E(U)|),    gamma = p / q_den > 1,

and everything here works with the integer scaling q_den * H(U)
= p * C(|U|, 2) - (p + q_den) * |E(U)|, so energy comparisons, argmins and
tie decisions are exact. A state keeps one int32 key per vertex y: |E(y,U)|,
plus n if y is outside U. A flip of x adds row x to every key (removal:
subtracts it) and moves key[x] by n: one pass over the keys, eight at a
time, each packed byte of the row looked up in a table of its bits. A flip
delta depends on the key alone (remove: w * key - p(|U|-1); add:
p|U| - w(key - n), w = p + q_den), rising with it inside U and falling
outside, so the best flip sits at the smallest or the largest key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np

from .graphs import Graph, _check_int

__all__ = ["GammaParam", "SubsetState", "init_state", "apply_flip"]


@dataclass(frozen=True)
class GammaParam:
    """The penalty weight gamma = p / q_den > 1 as an exact reduced fraction."""

    p: int
    q_den: int = 1

    def __post_init__(self):
        for name in ("p", "q_den"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1))
        g = math.gcd(self.p, self.q_den)
        object.__setattr__(self, "p", self.p // g)
        object.__setattr__(self, "q_den", self.q_den // g)
        if self.p <= self.q_den:
            raise ValueError(f"gamma must exceed 1, got {self.p}/{self.q_den}")

    @classmethod
    def from_value(cls, value: Union[int, float, str, Fraction]) -> "GammaParam":
        """Parse 4, "4", "7/2", "3.5" or a Fraction into an exact gamma."""
        if isinstance(value, float):
            frac = Fraction(str(value))
        else:
            frac = Fraction(value)
        return cls(frac.numerator, frac.denominator)

    @property
    def kappa(self) -> Fraction:
        """Degree-density threshold gamma / (1 + gamma) = p / (p + q_den)."""
        return Fraction(self.p, self.p + self.q_den)

    @property
    def edge_weight(self) -> int:
        """Scaled coefficient on internal edge counts, p + q_den."""
        return self.p + self.q_den

    def check_fits(self, n: int) -> None:
        """Raise ValueError unless (p + q_den) * n <= 2**62. Then every
        flip delta on n vertices, every product w * key (key < 2n) and the
        Gibbs shift ``deltas - dmin`` fit in int64."""
        if self.edge_weight * n > 2**62:
            raise ValueError(f"gamma = {self} is too fine for n = {n}: "
                             f"(p + q_den) * n must be <= 2**62")

    def __str__(self) -> str:
        return str(self.p) if self.q_den == 1 else f"{self.p}/{self.q_den}"


# Row b holds byte b's eight bits in np.packbits order, as int32 addends for the keys.
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int32)

# Supports of at most this many flips are handled in Python scalars: below it they
# cost less than numpy's per-call overhead (crossover measured at n = 2000 and 5000).
SCALAR_FLIPS = 30


class SubsetState:
    """A subset U with its per-vertex keys and its scaled energy.

    ``key`` is read-only outside ``apply_flip``: the first n entries of
    ``key_rows``, a copy of the given keys padded with zeros to whole bytes
    and viewed as (ceil(n / 8), 8), so a flip adds a packed row byte by byte.
    Keys stay below 2n, so int32 holds them; products with w are taken in
    int64 (see ``check_fits``).
    ``hi_bound`` is None or an upper bound on the keys: ``_extremes`` sets
    it to the greatest key and ``apply_flip`` keeps it a bound.
    ``lo_bound`` is None or a lower bound on the keys, and ``least`` None or every
    vertex at it, an ascending list of at most ``SCALAR_FLIPS`` handed out as is,
    which no reader mutates (then the bound is the least key); ``least_class`` sets
    them. A removal of x lowers the other keys by one at most and lifts x's by n, so
    the least key is then lo - 1, held by the class filtered by key < lo, if that is
    not empty, else at least lo: ``apply_flip`` keeps these. An add drops both.
    Single-owner: never mutate one state concurrently.
    """

    __slots__ = ("graph", "gamma", "member", "size", "scaled_energy", "key",
                 "key_rows", "hi_bound", "lo_bound", "least")

    def __init__(self, graph: Graph, gamma: GammaParam, member: np.ndarray,
                 size: int, key: np.ndarray, scaled_energy: int):
        self.graph, self.gamma, self.member = graph, gamma, member
        self.key_rows = np.zeros((-(-graph.n // 8), 8), dtype=np.int32)
        self.key = self.key_rows.reshape(-1)[:graph.n]
        self.key[:] = key
        self.size, self.scaled_energy = size, scaled_energy
        self.hi_bound = self.lo_bound = self.least = None

    def _delta_at(self, key: int) -> int:
        """Scaled delta of flipping a vertex whose key is ``key``."""
        p, w, n, s = self.gamma.p, self.gamma.edge_weight, self.graph.n, self.size
        return w * key - p * (s - 1) if key < n else p * s - w * (key - n)

    def all_flip_deltas(self, upto: Optional[float] = None,
                        keys: tuple = (0, 2**31)) -> Union[np.ndarray, tuple]:
        """Scaled change of every single flip as a new read-only int64 array:
        the add-delta outside U, the remove-delta inside. With ``upto`` (an
        int or inf), ``(at, deltas)`` of the flips with delta <= ``upto``, or
        of all flips (``at`` None) when those are more than n / 2: two lists of
        ints for at most ``SCALAR_FLIPS`` flips. ``keys`` bounds the keys (lo, hi);
        the scan skips a side of the support they rule out, and is skipped when
        ``least`` is exactly the flips ``upto`` admits (``at`` is ``least`` itself)."""
        p, w, n, s = self.gamma.p, self.gamma.edge_weight, self.graph.n, self.size
        member, key, at, least = self.member, self.key, None, self.least
        if upto is not None and upto < p * s:  # p * s bounds every delta
            a = min((upto + p * (s - 1)) // w, n - 1)  # in U: w key - p(s-1) <= upto
            b = n - (upto - p * s) // w  # out of U: p s - w(key-n) <= upto
            if least is not None and b > keys[1] and a == self.lo_bound and 2 * len(least) <= n:
                return least, [w * a - p * (s - 1)] * len(least)  # what a pass finds
            hit = (key >= b if a < keys[0] else key <= a if b > keys[1]
                   else (key <= a) | (key >= b)).nonzero()[0]
            if 2 * hit.size <= n:  # gathering more flips costs more than a dense pass
                if hit.size <= SCALAR_FLIPS:  # Python ints: cheaper than numpy calls
                    r, t = p * (s - 1), p * s + w * n
                    return hit.tolist(), [w * k - r if k < n else t - w * k
                                          for k in key[hit].tolist()]
                at, member, key = hit, member[hit], key[hit]
        removes = np.multiply(key, w, dtype=np.int64)  # int32 can wrap
        removes -= p * (s - 1)
        # an add-delta is (w * n + p) minus the remove formula at its key
        deltas = np.where(member, removes, (w * n + p) - removes)
        deltas.setflags(write=False)
        return deltas if upto is None else (at, deltas)

    def least_class(self) -> Union[list, np.ndarray]:
        """Every vertex at the least key, ascending: ``least``, else one pass at ``lo_bound``
        (the least key iff it finds some), else an argmin and that pass; a list iff stored."""
        key, lo, at = self.key, self.lo_bound, self.least
        if at is None:
            if lo is None or not (at := (key == lo).nonzero()[0]).size:
                lo = key[key.argmin()]  # int32: quick to compare
                at = (key == lo).nonzero()[0]
            self.lo_bound, self.least = int(lo), at.tolist() if at.size <= SCALAR_FLIPS else None
        return self.least or at

    def _extremes(self, reach: float, lo: Optional[int] = None) -> tuple:
        """The least and greatest key and their deltas, (lo, d_lo, hi, d_hi),
        setting ``hi_bound`` to hi; with no argmax when the bound puts every
        add-delta above d_lo + ``reach`` (never at inf): hi is then the bound and
        d_hi its add-delta, a lower bound on every add-delta. The least key is
        ``lo`` if given, else the carried class's, else one argmin's."""
        key, p, n, s = self.key, self.gamma.p, self.graph.n, self.size
        if lo is None:
            lo = self.lo_bound if self.least is not None else int(key[key.argmin()])
        w = p + self.gamma.q_den
        d_lo = w * lo - p * (s - 1) if lo < n else p * s - w * (lo - n)
        hi = self.hi_bound
        if hi is not None and (d_hi := p * s - w * (hi - n)) > d_lo + reach:
            return lo, d_lo, hi, d_hi
        hi = key[key.argmax()]
        self.hi_bound = int(hi)
        d_hi = w * int(hi) - p * (s - 1) if hi < n else p * s - w * (int(hi) - n)
        return lo, d_lo, hi, d_hi

    def best_flips(self) -> tuple[int, Union[list, np.ndarray]]:
        """``min(d)`` and ``flatnonzero(d == min(d))`` for ``d = all_flip_deltas()``:
        the best flip delta and its vertices (``least_class()`` if they are it)."""
        least = self.least or self.least_class()
        lo, d_lo, hi, d_hi = self._extremes(0, self.lo_bound)
        if d_lo < d_hi:
            return d_lo, least
        hit = self.key == hi
        if d_lo == d_hi and lo != hi:  # the best remove ties the best add
            hit |= self.key == lo
        return d_hi, hit.nonzero()[0]


def init_state(graph: Graph, u: Union[Iterable[int], np.ndarray],
               gamma: GammaParam) -> SubsetState:
    """Build a consistent state for subset u (vertex iterable or bool mask)."""
    n = graph.n
    gamma.check_fits(n)
    member = np.zeros(n, dtype=bool)
    if isinstance(u, np.ndarray) and u.dtype == bool:
        if u.shape != (n,):
            raise ValueError("membership mask has wrong length")
        member[:] = u
    else:
        idx = np.asarray(sorted(set(int(v) for v in u)), dtype=np.int64)
        if idx.size:
            if idx[0] < 0 or idx[-1] >= n:
                raise ValueError("vertex out of range")
            member[idx] = True
    deg = graph.deg_into(member)
    size = int(np.count_nonzero(member))
    p, w = gamma.p, gamma.edge_weight
    scaled = p * (size * (size - 1) // 2) - w * (int(deg[member].sum()) // 2)
    return SubsetState(graph, gamma, member, size, np.where(member, deg, deg + n), scaled)


def apply_flip(state: SubsetState, x: int,
               delta: Optional[int] = None) -> SubsetState:
    """Toggle membership of x, updating the keys in place. ``delta`` is the
    flip's scaled delta, when the caller has it already."""
    key, n, remove = state.key, state.graph.n, bool(state.member[x])
    delta = state._delta_at(int(key[x])) if delta is None else delta
    rows = state.key_rows  # a packed row's padding bits are 0: padding keys stay 0
    (np.subtract if remove else np.add)(rows, _BITS.take(state.graph._row(x), axis=0), out=rows)
    key[x] += n if remove else -n
    if state.hi_bound is not None:  # other keys fall by a remove, rise by 1 at most
        state.hi_bound = max(state.hi_bound, int(key[x])) if remove else state.hi_bound + 1
    if not remove:
        state.lo_bound = state.least = None
    elif state.least is not None:  # see ``SubsetState``
        lo = state.lo_bound
        least = [y for y in state.least if key[y] < lo]
        state.lo_bound, state.least = (lo - 1, least) if least else (lo, None)
    elif state.lo_bound is not None:
        state.lo_bound -= 1
    state.size += -1 if remove else 1
    state.member[x] = not remove
    state.scaled_energy += delta
    return state
