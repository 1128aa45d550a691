"""Integer-exact relaxed Hamiltonian over subset states.

The objective on a subset U is

    H(U) = -|E(U)| + gamma * (C(|U|, 2) - |E(U)|),    gamma = p / q_den > 1,

and everything here works with the integer scaling q_den * H(U)
= p * C(|U|, 2) - (p + q_den) * |E(U)|, so energy comparisons, argmins and
tie decisions are exact. Single-flip deltas come from cached per-vertex
degrees in O(1); applying a flip refreshes the caches in O(n / 8) byte ops.
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
    """A subset U with cached degrees into it and its scaled energy.

    Mutable and single-owner: hand it between threads if you like, but never
    mutate concurrently. ``deg_into[x]`` equals |E(x, U)| for every vertex x,
    member or not, so both add- and remove-deltas are O(1) lookups.
    """

    __slots__ = ("graph", "gamma", "member", "size", "internal_edges",
                 "deg_into", "scaled_energy")

    def __init__(self, graph: Graph, gamma: GammaParam, member: np.ndarray,
                 size: int, internal_edges: int, deg_into: np.ndarray,
                 scaled_energy: int):
        self.graph = graph
        self.gamma = gamma
        self.member = member
        self.size = size
        self.internal_edges = internal_edges
        self.deg_into = deg_into
        self.scaled_energy = scaled_energy

    def copy(self) -> "SubsetState":
        return SubsetState(self.graph, self.gamma, self.member.copy(),
                           self.size, self.internal_edges, self.deg_into.copy(),
                           self.scaled_energy)

    def energy(self) -> Fraction:
        """Unscaled H(U) as an exact rational."""
        return Fraction(self.scaled_energy, self.gamma.q_den)

    def all_flip_deltas(self) -> np.ndarray:
        """Scaled energy change of every single flip, as an int64 vector:
        entry x is the add-delta if x is outside U, the remove-delta if
        inside."""
        p = self.gamma.p
        w = self.gamma.edge_weight
        add = p * self.size - w * self.deg_into
        rem = w * self.deg_into - p * (self.size - 1)
        return np.where(self.member, rem, add)


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
    internal = int(deg[member].sum()) // 2
    scaled = gamma.p * (size * (size - 1) // 2) - gamma.edge_weight * internal
    return SubsetState(graph, gamma, member, size, internal, deg, scaled)


def delta_add(state: SubsetState, x: int) -> int:
    """Scaled energy change of adding x: -(p + q_den)|E(x,U)| + p|U|."""
    if state.member[x]:
        raise ValueError(f"vertex {x} is already in the subset")
    g = state.gamma
    return g.p * state.size - g.edge_weight * int(state.deg_into[x])


def delta_remove(state: SubsetState, z: int) -> int:
    """Scaled energy change of removing z: (p + q_den)|E(z,U)| - p(|U|-1)."""
    if not state.member[z]:
        raise ValueError(f"vertex {z} is not in the subset")
    g = state.gamma
    return g.edge_weight * int(state.deg_into[z]) - g.p * (state.size - 1)


def apply_flip(state: SubsetState, x: int) -> SubsetState:
    """Toggle membership of x, updating all caches incrementally in place."""
    row = state.graph.row01(x)
    d = int(state.deg_into[x])
    if state.member[x]:
        state.scaled_energy += state.gamma.edge_weight * d - state.gamma.p * (state.size - 1)
        state.internal_edges -= d
        state.size -= 1
        state.member[x] = False
        np.subtract(state.deg_into, row, out=state.deg_into)
    else:
        state.scaled_energy += state.gamma.p * state.size - state.gamma.edge_weight * d
        state.internal_edges += d
        state.size += 1
        state.member[x] = True
        np.add(state.deg_into, row, out=state.deg_into)
    return state
