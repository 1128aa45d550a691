"""Random graph models: Erdos-Renyi, planted clique, coupled pairs, contamination.

All generators are deterministic functions of a 64-bit seed. The seed feeds a
named PCG64 scheme with fixed substreams (see ``stream_rng``), and edge coins
are drawn row by row over the strict upper triangle, so models that share a
seed share pair-level randomness exactly. This is what makes coupled
planted/unplanted experiments and the q=1/2 contamination degeneracy hold
bit-for-bit, not just in distribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "Graph",
    "Contamination",
    "PlantedInstance",
    "gen_er",
    "gen_planted",
    "gen_coupled",
    "gen_contaminated",
    "stream_rng",
    "save_graph",
    "load_graph",
    "write_edge_list",
    "read_edge_list",
    "GENERATOR_SCHEME",
    "EDGE_STREAM",
    "SUBSET_STREAM",
    "CHAIN_STREAM",
]

# Versioned generator scheme. Substream i of master seed s is
# PCG64(SeedSequence(s, spawn_key=(i,))). Stream 0 drives edge coins,
# stream 1 subset choices (clique first, then the contaminated set),
# stream 2 is reserved for chain randomness.
GENERATOR_SCHEME = "pcg64-streams-v1"
EDGE_STREAM = 0
SUBSET_STREAM = 1
CHAIN_STREAM = 2

_MAX_SEED = 2**64 - 1


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Return the generator for one named substream of a 64-bit master seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) <= _MAX_SEED:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


class Graph:
    """Immutable undirected simple graph stored as bit-packed adjacency rows.

    Row ``x`` is the neighbourhood of vertex ``x`` packed 8 vertices per byte
    (big-endian bit order, numpy's packbits default), so the degree of ``x``
    into a subset is a popcount of the row ANDed with the subset's membership
    bits. Padding bits past ``n`` are always zero.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, packed_rows: np.ndarray):
        n = int(n)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        rows = np.ascontiguousarray(packed_rows, dtype=np.uint8)
        if rows.shape != (n, (n + 7) // 8):
            raise ValueError(
                f"packed adjacency has shape {rows.shape}, expected {(n, (n + 7) // 8)}"
            )
        rows.setflags(write=False)
        self.n = n
        self._rows = rows

    @classmethod
    def from_dense(cls, dense) -> "Graph":
        """Build from a dense boolean adjacency matrix, validating symmetry."""
        dense = np.asarray(dense, dtype=bool)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if dense.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not np.array_equal(dense, dense.T):
            raise ValueError("adjacency must be symmetric")
        return cls(dense.shape[0], np.packbits(dense, axis=1))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        dense = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has a vertex outside [0, {n})")
            if u == v:
                raise ValueError("self-loops are not allowed")
            dense[u, v] = dense[v, u] = True
        return cls(n, np.packbits(dense, axis=1))

    @property
    def packed_rows(self) -> np.ndarray:
        return self._rows

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return bool((self._rows[u, v >> 3] >> (7 - (v & 7))) & 1)

    def row01(self, x: int) -> np.ndarray:
        """Neighbourhood of x as a 0/1 uint8 vector of length n."""
        return np.unpackbits(self._rows[x], count=self.n)

    def row_bool(self, x: int) -> np.ndarray:
        return self.row01(x).view(bool)

    def neighbors(self, x: int) -> np.ndarray:
        return np.flatnonzero(self.row01(x))

    def degrees(self) -> np.ndarray:
        return np.bitwise_count(self._rows).sum(axis=1, dtype=np.int64)

    def num_edges(self) -> int:
        return int(self.degrees().sum()) // 2

    def deg_into(self, member: np.ndarray) -> np.ndarray:
        """|E(x, U)| for every vertex x, where U is given as a boolean mask."""
        member = np.asarray(member, dtype=bool)
        if member.shape != (self.n,):
            raise ValueError("membership mask has wrong length")
        mask = np.packbits(member)
        return np.bitwise_count(self._rows & mask).sum(axis=1, dtype=np.int64)

    def edges_inside(self, member: np.ndarray) -> int:
        member = np.asarray(member, dtype=bool)
        return int(self.deg_into(member)[member].sum()) // 2

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(self._rows, axis=1, count=self.n).view(bool)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._rows, other._rows)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges()})"


@dataclass(frozen=True)
class Contamination:
    """Adversarially boosted set: m vertices whose incident non-clique pairs
    appear with probability q instead of 1/2. In internal labels the set
    occupies k..k+m-1."""

    m: int
    q: float


@dataclass(frozen=True)
class PlantedInstance:
    """A graph plus the ground-truth planted clique, in clique-first labels.

    Vertices are relabeled at generation so the clique occupies 0..k-1 and the
    contaminated set, when present, k..k+m-1. ``labels[i]`` is the original
    label of internal vertex i; interop outputs (edge lists, CSV vertex
    columns) report original labels.
    """

    graph: Graph
    k: int
    labels: np.ndarray
    contamination: Optional[Contamination] = None
    seed: Optional[int] = None
    model: str = "planted"

    def __post_init__(self):
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if labels.shape != (self.graph.n,):
            raise ValueError("labels must map every internal vertex")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        if not 1 <= self.k <= self.graph.n:
            raise ValueError("clique size out of range")
        if self.contamination is not None:
            if self.k + self.contamination.m > self.graph.n:
                raise ValueError("clique plus contaminated set exceeds n")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def pc(self) -> np.ndarray:
        """Planted clique in internal labels (always 0..k-1)."""
        return np.arange(self.k)

    def pc_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[: self.k] = True
        return mask

    @property
    def pc_original(self) -> np.ndarray:
        return self.labels[: self.k]

    @property
    def v_set(self) -> np.ndarray:
        m = self.contamination.m if self.contamination else 0
        return np.arange(self.k, self.k + m)

    @property
    def v_set_original(self) -> np.ndarray:
        m = self.contamination.m if self.contamination else 0
        return self.labels[self.k : self.k + m]

    def validate(self) -> None:
        """Assert structural invariants (clique complete, labels a bijection)."""
        dense = self.graph.to_dense()
        sub = dense[: self.k, : self.k]
        if not (sub | np.eye(self.k, dtype=bool)).all():
            raise AssertionError("planted clique is not complete")
        if sorted(self.labels.tolist()) != list(range(self.n)):
            raise AssertionError("labels are not a permutation")


def _check_count(name: str, value: int, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _upper_coins(n: int, rng: np.random.Generator, k: int = 0, m: int = 0,
                 q: float = 0.5) -> np.ndarray:
    """Strict-upper-triangle edge coins, row-major draw order.

    Pairs with an endpoint in the contaminated block [k, k+m) use threshold q;
    everything else uses 1/2. Clique-internal pairs are drawn too (and later
    overridden), which keeps the draw sequence identical across models.
    """
    A = np.zeros((n, n), dtype=bool)
    cut = k + m
    for i in range(n - 1):
        u = rng.random(n - 1 - i)
        if m == 0 or i >= cut:
            A[i, i + 1 :] = u < 0.5
        elif i < k:
            thr = np.full(n - 1 - i, 0.5)
            thr[k - i - 1 : cut - i - 1] = q
            A[i, i + 1 :] = u < thr
        else:
            A[i, i + 1 :] = u < q
    return A


def _force_clique(upper: np.ndarray, k: int) -> None:
    if k >= 2:
        upper[:k, :k] |= np.triu(np.ones((k, k), dtype=bool), 1)


def _symmetrize(upper: np.ndarray) -> Graph:
    full = upper | upper.T
    return Graph(full.shape[0], np.packbits(full, axis=1))


def _choose_labels(n: int, k: int, m: int, rng: np.random.Generator,
                   v_orig: Optional[np.ndarray] = None) -> np.ndarray:
    """Internal->original label map: sorted clique, sorted contaminated set,
    then the rest in sorted order. Consumes one subset draw for the clique and
    one for the contaminated set (unless caller-supplied)."""
    pc = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    taken = np.zeros(n, dtype=bool)
    taken[pc] = True
    if m > 0:
        if v_orig is None:
            pool = np.flatnonzero(~taken)
            v_orig = np.sort(rng.choice(pool, size=m, replace=False)).astype(np.int64)
        else:
            v_orig = np.sort(np.asarray(v_orig, dtype=np.int64))
            if v_orig.size != m or np.unique(v_orig).size != m:
                raise ValueError("v_set must contain m distinct vertices")
            if v_orig.min() < 0 or v_orig.max() >= n:
                raise ValueError("v_set vertex out of range")
            if taken[v_orig].any():
                raise ValueError("v_set overlaps the planted clique")
        taken[v_orig] = True
    else:
        v_orig = np.empty(0, dtype=np.int64)
    rest = np.flatnonzero(~taken).astype(np.int64)
    return np.concatenate([pc, v_orig, rest])


def gen_er(n: int, seed: int) -> Graph:
    """Erdos-Renyi G(n, 1/2), reproducible from the seed."""
    n = _check_count("n", n, minimum=1)
    upper = _upper_coins(n, stream_rng(seed, EDGE_STREAM))
    return _symmetrize(upper)


def gen_planted(n: int, k: int, seed: int) -> PlantedInstance:
    """Planted clique G(n, 1/2, k): uniform k-subset forced complete, all
    other pairs independent fair coins."""
    n = _check_count("n", n, minimum=1)
    k = _check_count("k", k, minimum=1)
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    labels = _choose_labels(n, k, 0, stream_rng(seed, SUBSET_STREAM))
    upper = _upper_coins(n, stream_rng(seed, EDGE_STREAM))
    _force_clique(upper, k)
    return PlantedInstance(_symmetrize(upper), k, labels, None, int(seed), "planted")


def gen_coupled(n: int, k: int, seed: int) -> tuple[Graph, PlantedInstance]:
    """The coupled pair (G0, G): G0 is Erdos-Renyi and G adds exactly the
    missing clique-internal pairs. Both share one labeling (the instance's);
    edge sets agree off the clique by construction."""
    n = _check_count("n", n, minimum=1)
    k = _check_count("k", k, minimum=1)
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    labels = _choose_labels(n, k, 0, stream_rng(seed, SUBSET_STREAM))
    upper = _upper_coins(n, stream_rng(seed, EDGE_STREAM))
    g0 = _symmetrize(upper)
    _force_clique(upper, k)
    instance = PlantedInstance(_symmetrize(upper), k, labels, None, int(seed), "planted")
    return g0, instance


def gen_contaminated(n: int, k: int, m: int, q: float, seed: int,
                     v_set: Optional[Sequence[int]] = None) -> PlantedInstance:
    """Contaminated planted clique G(n, 1/2, q, k, m).

    Every pair with at least one endpoint in the m-vertex contaminated set
    (and not both inside the clique) is an edge with probability q in
    [1/2, 1). The set is a uniformly random m-subset of non-clique vertices
    unless ``v_set`` supplies explicit original labels (the adversarial
    policy); a supplied set overlapping the clique is rejected. With q = 1/2
    or m = 0 the output is identical to ``gen_planted``.
    """
    n = _check_count("n", n, minimum=1)
    k = _check_count("k", k, minimum=1)
    m = _check_count("m", m, minimum=0)
    if k + m > n:
        raise ValueError(f"k + m = {k + m} exceeds n = {n}")
    if not 0.5 <= q < 1.0:
        raise ValueError(f"q must lie in [1/2, 1), got {q}")
    if m == 0:
        return gen_planted(n, k, seed)
    labels = _choose_labels(n, k, m, stream_rng(seed, SUBSET_STREAM), v_orig=v_set)
    upper = _upper_coins(n, stream_rng(seed, EDGE_STREAM), k=k, m=m, q=float(q))
    _force_clique(upper, k)
    return PlantedInstance(
        _symmetrize(upper), k, labels, Contamination(m, float(q)), int(seed),
        "contaminated",
    )


# ---------------------------------------------------------------------------
# Serialization: versioned binary (JSON header line + packed rows) and a plain
# edge-list text format for interop.
# ---------------------------------------------------------------------------

_FORMAT = "pcgraph-v1"


def save_graph(path, obj: Union[Graph, PlantedInstance]) -> None:
    """Write a graph or instance: one JSON header line, then row-major packed
    adjacency bits."""
    if isinstance(obj, PlantedInstance):
        cont = obj.contamination
        header = {
            "format": _FORMAT,
            "model": obj.model,
            "n": obj.n,
            "k": obj.k,
            "m": cont.m if cont else 0,
            "q": cont.q if cont else None,
            "seed": obj.seed,
            "labels": obj.labels.tolist(),
        }
        rows = obj.graph.packed_rows
    elif isinstance(obj, Graph):
        header = {"format": _FORMAT, "model": "er", "n": obj.n, "k": 0, "m": 0,
                  "q": None, "seed": None, "labels": None}
        rows = obj.packed_rows
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    with open(path, "wb") as f:
        f.write(json.dumps(header, separators=(",", ":")).encode("ascii"))
        f.write(b"\n")
        f.write(rows.tobytes())


def load_graph(path) -> Union[Graph, PlantedInstance]:
    """Read a ``save_graph`` file, rejecting adjacency that is not symmetric,
    has a self-loop or sets padding bits past n."""
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    header = json.loads(header_line)
    if header.get("format") != _FORMAT:
        raise ValueError(f"unsupported graph format: {header.get('format')!r}")
    n = header["n"]
    row_bytes = (n + 7) // 8
    rows = np.frombuffer(payload, dtype=np.uint8)
    if rows.size != n * row_bytes:
        raise ValueError("payload size does not match header")
    rows = rows.reshape(n, row_bytes)
    graph = Graph.from_dense(np.unpackbits(rows, axis=1, count=n))
    if not np.array_equal(graph.packed_rows, rows):
        raise ValueError("adjacency has padding bits set past n")
    if header["model"] == "er":
        return graph
    cont = None
    if header["m"]:
        cont = Contamination(header["m"], header["q"])
    return PlantedInstance(graph, header["k"], np.asarray(header["labels"]),
                           cont, header["seed"], header["model"])


def write_edge_list(path, obj: Union[Graph, PlantedInstance]) -> None:
    """One 0-indexed "u v" pair per line; instances report original labels."""
    if isinstance(obj, PlantedInstance):
        graph, labels = obj.graph, obj.labels
    else:
        graph, labels = obj, np.arange(obj.n)
    dense = graph.to_dense()
    us, vs = np.nonzero(np.triu(dense, 1))
    pairs = np.stack([labels[us], labels[vs]], axis=1)
    pairs = np.sort(pairs, axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    with open(path, "w") as f:
        for u, v in pairs[order]:
            f.write(f"{u} {v}\n")


def read_edge_list(path, n: Optional[int] = None) -> Graph:
    """Read a "u v" per line edge list into a Graph with identity labels."""
    edges = []
    top = -1
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = (int(tok) for tok in line.split())
            edges.append((u, v))
            top = max(top, u, v)
    if n is None:
        n = top + 1
    if n < 1:
        raise ValueError("edge list implies an empty graph; pass n explicitly")
    return Graph.from_edges(n, edges)
