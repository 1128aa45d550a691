"""Integer-exact relaxed Hamiltonian over subset states.

The objective on a subset U is

    H(U) = -|E(U)| + gamma * (C(|U|, 2) - |E(U)|),    gamma = p / q_den > 1,

and everything here works with the integer scaling q_den * H(U)
= p * C(|U|, 2) - (p + q_den) * |E(U)|, so energy comparisons, argmins and
tie decisions are exact. A state caches every single-flip delta d_y (add:
p|U| - w|E(y,U)|, remove: w|E(y,U)| - p(|U|-1), w = p + q_den). Flipping x
negates d_x and moves every other d_y by s * sigma_y * (p - w * [xy edge]),
s = +1 for an add and -1 for a remove, sigma_y = -1 inside U and +1 outside:
three int64 passes over one unpacked row. Degrees and |E(U)| are derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .graphs import Graph

__all__ = ["GammaParam", "SubsetState", "init_state", "delta_add",
           "delta_remove", "apply_flip"]


@dataclass(frozen=True)
class GammaParam:
    """The penalty weight gamma = p / q_den > 1 as an exact reduced fraction."""

    p: int
    q_den: int = 1

    def __post_init__(self):
        for name in ("p", "q_den"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
        if self.p <= 0 or self.q_den <= 0:
            raise ValueError("numerator and denominator must be positive")
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
    def value(self) -> Fraction:
        return Fraction(self.p, self.q_den)

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
        flip delta on n vertices, and the Gibbs shift ``deltas - dmin``,
        fits in int64."""
        if self.edge_weight * n > 2**62:
            raise ValueError(f"gamma = {self} is too fine for n = {n}: "
                             f"(p + q_den) * n must be <= 2**62")

    def __str__(self) -> str:
        return str(self.p) if self.q_den == 1 else f"{self.p}/{self.q_den}"


class SubsetState:
    """A subset U with its cached flip-delta vector and its scaled energy.

    Mutable and single-owner: hand it between threads if you like, but never
    mutate concurrently. ``apply_flip`` moves the deltas by the rule above:
    ``_side`` holds its factors sigma * p and sigma * w, ``_buf`` its scratch.
    """

    __slots__ = ("graph", "gamma", "member", "size", "scaled_energy",
                 "_deltas", "_view", "_side", "_buf")

    def __init__(self, graph: Graph, gamma: GammaParam, member: np.ndarray,
                 size: int, deltas: np.ndarray, scaled_energy: int):
        self.graph = graph
        self.gamma = gamma
        self.member = member
        self.size = size
        self.scaled_energy = scaled_energy
        self._deltas = deltas
        self._view = deltas.view()
        self._view.setflags(write=False)
        self._side = np.outer([gamma.p, gamma.edge_weight], np.where(member, -1, 1))
        self._buf = np.empty_like(deltas)

    def copy(self) -> "SubsetState":
        return SubsetState(self.graph, self.gamma, self.member.copy(),
                           self.size, self._deltas.copy(), self.scaled_energy)

    def energy(self) -> Fraction:
        """Unscaled H(U) as an exact rational."""
        return Fraction(self.scaled_energy, self.gamma.q_den)

    def all_flip_deltas(self) -> np.ndarray:
        """Scaled energy change of every single flip, as a read-only int64
        view of the cache: entry x is the add-delta if x is outside U, the
        remove-delta if inside. The next ``apply_flip`` updates it in place."""
        return self._view

    @property
    def deg_into(self) -> np.ndarray:
        """|E(x, U)| for every vertex x."""
        p, w, s, d = self.gamma.p, self.gamma.edge_weight, self.size, self._deltas
        return np.where(self.member, d + p * (s - 1), p * s - d) // w

    @property
    def internal_edges(self) -> int:
        """|E(U)|, from scaled_energy = p * C(|U|, 2) - w * |E(U)|."""
        g, s = self.gamma, self.size
        return (g.p * (s * (s - 1) // 2) - self.scaled_energy) // g.edge_weight


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
    deltas = np.where(member, w * deg - p * (size - 1), p * size - w * deg)
    return SubsetState(graph, gamma, member, size, deltas, scaled)


def delta_add(state: SubsetState, x: int) -> int:
    """Scaled energy change of adding x: -(p + q_den)|E(x,U)| + p|U|."""
    if state.member[x]:
        raise ValueError(f"vertex {x} is already in the subset")
    return int(state._deltas[x])


def delta_remove(state: SubsetState, z: int) -> int:
    """Scaled energy change of removing z: (p + q_den)|E(z,U)| - p(|U|-1)."""
    if not state.member[z]:
        raise ValueError(f"vertex {z} is not in the subset")
    return int(state._deltas[z])


def apply_flip(state: SubsetState, x: int) -> SubsetState:
    """Toggle membership of x, updating the caches in place."""
    d, buf, (sp, sw) = state._deltas, state._buf, state._side
    dx, remove = int(d[x]), bool(state.member[x])
    np.multiply(state.graph.row01(x), sw, out=buf)
    np.subtract(sp, buf, out=buf)  # sigma * (p - w * row)
    (np.subtract if remove else np.add)(d, buf, out=d)
    state.size += -1 if remove else 1
    state.member[x] = not remove
    state.scaled_energy += dx
    d[x] = -dx
    sp[x], sw[x] = -sp[x], -sw[x]
    return state
