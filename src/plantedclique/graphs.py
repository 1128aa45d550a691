"""Random graph models: Erdos-Renyi, planted clique, coupled pairs, contamination.

All generators are deterministic functions of a 64-bit seed. The seed feeds a
named PCG64 scheme with fixed substreams (see ``stream_rng``), and edge coins
are drawn row by row over the strict upper triangle, so models that share a
seed share pair-level randomness exactly. This is what makes coupled
planted/unplanted experiments and the q=1/2 contamination degeneracy hold
bit-for-bit, not just in distribution.

Generation never holds an n x n matrix. Each band of 8 rows [b, b+8) draws
the coins of its rows' upper triangle with one ``random_raw`` call, which
under PCG64 is the same sequence as one call per row; a pair is an edge iff
its draw is below 2**63, which is ``random() < 0.5``. The coins land right
of each row's diagonal in an 8 x n bool band, packed into bytes [b/8, end)
of the band's rows. The lower triangle is then the bit transpose of the
upper one, ORed in 8 x 8-bit tiles (``_bit_transpose``). The clique is then
set on the packed bits of rows 0..k-1.

Fair-coin graphs (``gen_er``, ``gen_planted``, ``gen_coupled``) start
without rows and build each row alone when it is first read, byte for byte
the row the block generator would give (see ``_pcg64``). A graph draws the
whole triangle once with the block generator when it needs more than n/16
distinct rows, a degree count over more than n/16 members, or
``packed_rows``. Building rows one by one stops being cheaper at about n/16
rows at n = 1000 and n/5 at n = 5000, so n/16 leans towards the block
generator as n grows.
"""

from __future__ import annotations

import json
import math
import os
import warnings
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
    "SAMPLER_STREAM",
]

# Versioned generator scheme. Substream i of master seed s is
# PCG64(SeedSequence(s, spawn_key=(i,))). Stream 0 drives edge coins,
# stream 1 subset choices (clique first, then the contaminated set),
# stream 2 chain randomness, and stream 3 the subset sampler of
# landscape.scan_local_minima.
GENERATOR_SCHEME = "pcg64-streams-v1"
EDGE_STREAM = 0
SUBSET_STREAM = 1
CHAIN_STREAM = 2
SAMPLER_STREAM = 3

_MAX_SEED = 2**64 - 1


def _check_int(name: str, value, lo: int, hi=math.inf) -> int:
    """``value`` as an int in lo..hi: a TypeError for a bool or a non-integer,
    a ValueError out of range, both naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if not lo <= int(value) <= hi:
        raise ValueError(f"{name} must lie in {lo}..{hi}, got {value}")
    return int(value)


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Return the generator for one named substream of a 64-bit master seed."""
    ss = np.random.SeedSequence(_check_int("seed", seed, 0, _MAX_SEED),
                                spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


class Graph:
    """Immutable undirected simple graph stored as bit-packed adjacency rows.

    Row ``x`` is the neighbourhood of vertex ``x`` packed 8 vertices per byte
    (big-endian bit order, numpy's packbits default), so the degree of ``x``
    into a subset is a popcount of the row ANDed with the subset's membership
    bits. Padding bits past ``n`` are always zero. A graph from a fair-coin
    generator holds no rows until it needs them all (see the module
    docstring); rows read before that are built one at a time.
    """

    __slots__ = ("n", "_rows", "_coins", "_clique")

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
        self._rows, self._coins, self._clique = rows, None, 0

    @classmethod
    def _lazy(cls, coins: "_CoinRows", clique: int = 0) -> "Graph":
        """The fair-coin graph of ``coins`` with 0..clique-1 made a clique,
        its rows not yet built."""
        graph = cls.__new__(cls)
        graph.n, graph._rows, graph._coins, graph._clique = coins.n, None, coins, clique
        return graph

    @property
    def packed_rows(self) -> np.ndarray:
        if self._rows is None:
            rows = self._coins.full()
            if self._clique:  # a coupled twin may share the unplanted rows
                rows = _plant(rows.copy() if self._coins.shared else rows, self._clique)
            rows.setflags(write=False)
            self._rows, self._coins = rows, None
        return self._rows

    def _row(self, x: int) -> np.ndarray:
        """Packed row x, built alone while the graph holds no rows."""
        rows = self._rows
        if rows is None:
            x = int(x)
            if not 0 <= x < self.n:
                raise IndexError(f"vertex {x} is out of range for n = {self.n}")
            row = self._coins.row(x)
            if row is not None:
                return _plant_row(row, x, self._clique) if x < self._clique else row
            rows = self.packed_rows
        return rows[x]

    def row01(self, x: int) -> np.ndarray:
        """Neighbourhood of x as a read-only 0/1 uint8 vector of length n."""
        row = np.unpackbits(self._row(x), count=self.n)
        row.setflags(write=False)
        return row

    def degrees(self) -> np.ndarray:
        return np.bitwise_count(self.packed_rows).sum(axis=1, dtype=np.int64)

    def deg_into(self, member: np.ndarray) -> np.ndarray:
        """|E(x, U)| for every vertex x, where U is given as a boolean mask.
        While the graph holds no rows and U has at most n/16 members, this
        is the sum of the members' rows."""
        member = np.asarray(member, dtype=bool)
        if member.shape != (self.n,):
            raise ValueError("membership mask has wrong length")
        if self._rows is None and 16 * np.count_nonzero(member) <= self.n:
            out = np.zeros(self.n, dtype=np.int64)
            for x in np.flatnonzero(member).tolist():
                out += self.row01(x)
            return out
        rows = self.packed_rows
        mask = np.packbits(member)
        out = np.empty(self.n, dtype=np.int64)
        buf = np.empty((_BLOCK, mask.size), dtype=np.uint8)
        for b in range(0, self.n, _BLOCK):
            chunk = buf[: min(_BLOCK, self.n - b)]
            np.bitwise_and(rows[b : b + _BLOCK], mask, out=chunk)
            np.bitwise_count(chunk, out=chunk).sum(axis=1, dtype=np.int64,
                                                   out=out[b : b + _BLOCK])
        return out

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(self.packed_rows, axis=1, count=self.n).view(bool)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.packed_rows, other.packed_rows)

    __hash__ = None

    def __repr__(self) -> str:
        if self._rows is None:  # counting edges would draw every row
            return f"Graph(n={self.n}, rows not drawn)"
        return f"Graph(n={self.n}, edges={int(self.degrees().sum()) // 2})"


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

    def validate(self) -> None:
        """Raise ValueError unless 0..k-1 is a clique and labels a bijection."""
        rows = self.graph.packed_rows[: self.k]
        if not np.array_equal(_plant(rows.copy(), self.k), rows):
            raise ValueError("planted clique is not complete")
        if not np.array_equal(np.sort(self.labels), np.arange(self.n)):
            raise ValueError("labels are not a permutation of range(n)")


def _check_sizes(n: int, k: int, m: int = 0) -> tuple[int, int, int]:
    n, k, m = _check_int("n", n, 1), _check_int("k", k, 1), _check_int("m", m, 0)
    if k + m > n:
        raise ValueError(f"k + m = {k} + {m} exceeds n = {n}")
    return n, k, m


# Rows per pass of ``deg_into`` and of the bit transpose; a multiple of 8.
_BLOCK = 256

# The delta swaps (shift, mask) that transpose an 8 x 8-bit tile held as a
# little-endian uint64: its 4 x 4 blocks, then 2 x 2 blocks, then bits.
_SWAPS = ((36, 0x000000000F0F0F0F), (18, 0x0000333300003333),
          (9, 0x0055005500550055))


def _bit_transpose(rows: np.ndarray) -> np.ndarray:
    """The transpose of the bit matrix held by 8a packed rows of w bytes, as
    8w packed rows of a bytes, one uint64 per 8 x 8-bit tile."""
    a, w = len(rows) // 8, rows.shape[1]
    x = rows.reshape(a, 8, w).transpose(0, 2, 1).copy().view("<u8")
    for s, mask in _SWAPS:
        t = (x >> s ^ x) & mask
        x ^= t ^ t << s
    return x.view(np.uint8).reshape(a, w, 8).transpose(1, 2, 0).reshape(8 * w, a)


def _packed_coins(n: int, rng: np.random.Generator, k: int = 0, m: int = 0,
                  q: float = 0.5) -> np.ndarray:
    """Packed symmetric adjacency of strict-upper-triangle edge coins, drawn
    row-major. Pairs with an endpoint in the contaminated block [k, k+m) and
    the other outside the clique use threshold q >= 1/2, all others 1/2.
    Clique-internal pairs are drawn too (and later overridden), which keeps
    the draw sequence identical across models."""
    nb, cut = (n + 7) // 8, k + m
    rows = np.zeros((8 * nb, nb), dtype=np.uint8)  # whole 8 x 8-bit tiles
    band, coins = np.zeros((8, n), dtype=bool), np.empty(8 * n, dtype=bool)
    for b in range(0, n, 8):
        h = min(8, n - b)
        raw = rng.bit_generator.random_raw(h * (n - b) - h * (h + 1) // 2)
        np.less(raw, 2**63, out=coins[: raw.size])
        band[:, b : b + 8] = False  # left of each row's first coin
        o = 0
        for i in range(b, b + h):
            band[i - b, i + 1 :] = coins[o : o + n - 1 - i]
            if m and i < cut:
                lo, hi = (k, cut) if i < k else (i + 1, n)
                # numpy's own double: the top 53 bits over 2**53
                boosted = raw[o + lo - i - 1 : o + hi - i - 1] >> 11
                np.less(boosted * 2.0**-53, q, out=band[i - b, lo:hi])
            o += n - 1 - i
        rows[b : b + h, b >> 3 :] = np.packbits(band[:h, b:], axis=1)
    for b in range(0, 8 * nb, _BLOCK):  # the lower triangle: OR in the transpose
        upper = rows[b : b + _BLOCK, b >> 3 :]
        rows[b:, b >> 3 : (b + _BLOCK) >> 3] |= _bit_transpose(upper)
    return rows[:n]


def _plant(rows: np.ndarray, k: int) -> np.ndarray:
    """Set every pair inside 0..k-1 in packed rows, in place."""
    kb = (k + 7) // 8
    bits = np.tile(np.packbits(np.arange(8 * kb) < k), (k, 1))
    v = np.arange(k)
    bits[v, v >> 3] ^= (128 >> (v & 7)).astype(np.uint8)  # clear the diagonal
    rows[:k, :kb] |= bits
    return rows


def _plant_row(row: np.ndarray, x: int, k: int) -> np.ndarray:
    """Row x < k of ``_plant``'s output, from fair-coin row x."""
    kb = (k + 7) // 8
    out = row.copy()
    out[:kb] |= np.packbits(np.arange(8 * kb) < k)
    out[x >> 3] &= 0xFF ^ (128 >> (x & 7))
    return out


class _CoinRows:
    """The fair-coin rows of one seed's edge stream, built one at a time
    (see ``_pcg64``). Rows are cached packed and read-only, at most n/16 of
    them; ``full`` then draws every row with the block generator. ``shared``
    marks rows that a coupled twin also reads."""

    __slots__ = ("n", "shared", "_rng", "_rows", "_full", "_starts")

    def __init__(self, n: int, rng: np.random.Generator, shared: bool = False):
        self.n, self.shared, self._rng = n, shared, rng
        self._rows, self._full, self._starts = {}, None, None

    def row(self, x: int) -> Optional[np.ndarray]:
        """Packed row x, or None once every row should come from ``full``:
        after it has run, or when x would be the (n/16 + 1)-th row built."""
        if self._full is not None:
            return None
        row = self._rows.get(x)
        if row is None:
            if 16 * (len(self._rows) + 1) > self.n:
                return None
            row = self._rows[x] = self.build(x)
            row.setflags(write=False)
        return row

    def build(self, x: int) -> np.ndarray:
        """Packed row x, computed from PCG64 jumps (no caching)."""
        from . import _pcg64  # loaded only by runs that build a row alone
        if self._starts is None:
            st = self._rng.bit_generator.state["state"]
            self._starts = _pcg64.row_starts(self.n, st["state"], st["inc"])
        return _pcg64.coin_row(self.n, self._starts, x)

    def full(self) -> np.ndarray:
        """Every row, drawn once by the block generator."""
        if self._full is None:
            self._full = _packed_coins(self.n, self._rng)
            self._rows, self._starts = {}, None
        return self._full


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
    n = _check_int("n", n, 1)
    return Graph._lazy(_CoinRows(n, stream_rng(seed, EDGE_STREAM)))


def gen_planted(n: int, k: int, seed: int) -> PlantedInstance:
    """Planted clique G(n, 1/2, k): uniform k-subset forced complete, all
    other pairs independent fair coins."""
    n, k, _ = _check_sizes(n, k)
    labels = _choose_labels(n, k, 0, stream_rng(seed, SUBSET_STREAM))
    graph = Graph._lazy(_CoinRows(n, stream_rng(seed, EDGE_STREAM)), k)
    return PlantedInstance(graph, k, labels, None, int(seed), "planted")


def gen_coupled(n: int, k: int, seed: int) -> tuple[Graph, PlantedInstance]:
    """The coupled pair (G0, G): G0 is Erdos-Renyi and G adds exactly the
    missing clique-internal pairs. Both share one labeling (the instance's);
    edge sets agree off the clique by construction. The two share one row
    source, so a row read by both is built once."""
    n, k, _ = _check_sizes(n, k)
    labels = _choose_labels(n, k, 0, stream_rng(seed, SUBSET_STREAM))
    coins = _CoinRows(n, stream_rng(seed, EDGE_STREAM), shared=True)
    planted = Graph._lazy(coins, k)
    return Graph._lazy(coins), PlantedInstance(planted, k, labels, None, int(seed), "planted")


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
    n, k, m = _check_sizes(n, k, m)
    if not 0.5 <= q < 1.0:
        raise ValueError(f"q must lie in [1/2, 1), got {q}")
    if m == 0:
        return gen_planted(n, k, seed)
    labels = _choose_labels(n, k, m, stream_rng(seed, SUBSET_STREAM), v_orig=v_set)
    rows = _packed_coins(n, stream_rng(seed, EDGE_STREAM), k=k, m=m, q=float(q))
    return PlantedInstance(Graph(n, _plant(rows, k)), k, labels,
                           Contamination(m, float(q)), int(seed), "contaminated")


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


def _check_adjacency(rows: np.ndarray, n: int) -> None:
    """Reject packed rows with a self-loop, an asymmetric pair or padding
    bits set past n. The bit transpose of rows [b, b + ``_BLOCK``), right of
    column b, must equal the column slab below them outside the padding, so
    no n x n array is built."""
    v = np.arange(n)
    if ((rows[v, v >> 3] >> (7 - (v & 7))) & 1).any():
        raise ValueError("self-loops are not allowed")
    for b in range(0, n, _BLOCK):
        block = rows[b : b + _BLOCK, b >> 3 :]
        flip = _bit_transpose(np.pad(block, [(0, -len(block) % 8), (0, 0)]))[: n - b]
        real = np.packbits(np.arange(b, b + 8 * flip.shape[1]) < n)
        if ((flip ^ rows[b:, b >> 3 : (b >> 3) + flip.shape[1]]) & real).any():
            raise ValueError("adjacency must be symmetric")
    if n % 8 and (rows[:, -1] & (0xFF >> n % 8)).any():
        raise ValueError("adjacency has padding bits set past n")


def _check_header(header: dict) -> None:
    """Raise a ValueError naming the first field of a graph file's header that
    ``save_graph`` cannot have written."""
    def need(name, ok, want):
        if not ok(value := header.get(name)):
            raise ValueError(f"graph header field {name!r} must be {want}, got {value!r}")
    n, k, m = header.get("n"), header.get("k"), header.get("m")
    is_int = lambda v: type(v) is int  # not a bool, which JSON also reads
    need("n", lambda v: is_int(v) and v >= 1, "an integer >= 1")
    need("model", lambda v: v in ("er", "planted", "contaminated"), "er, planted or contaminated")
    if header["model"] != "er":
        need("k", lambda v: is_int(v) and 1 <= v <= n, f"an integer in [1, n = {n}]")
        need("m", lambda v: is_int(v) and 0 <= v <= n - k, f"an integer in [0, n - k = {n - k}]")
        need("q", lambda v: m == 0 or type(v) in (int, float) and 0.5 <= v < 1, "in [1/2, 1)")
        need("seed", lambda v: is_int(v) and 0 <= v <= _MAX_SEED, "an integer in [0, 2**64)")
        need("labels", lambda v: type(v) is list and len(v) == n and all(map(is_int, v)),
             f"a list of n = {n} integers")


def load_graph(path) -> Union[Graph, PlantedInstance]:
    """Read a ``save_graph`` file, rejecting a header field it cannot have written,
    adjacency that is not symmetric, has a self-loop or sets padding bits past n,
    and an instance whose labels are not a permutation of range(n) or whose
    first k vertices are not a clique."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        if not isinstance(header, dict):
            raise ValueError("graph header must be a JSON object")
        if header.get("format") != _FORMAT:
            raise ValueError(f"unsupported graph format: {header.get('format')!r}")
        _check_header(header)
        n = header["n"]
        row_bytes = (n + 7) // 8
        if os.fstat(f.fileno()).st_size - f.tell() != n * row_bytes:
            raise ValueError("payload size does not match header")
        rows = np.empty((n, row_bytes), dtype=np.uint8)  # the payload, read once
        f.readinto(rows)
    _check_adjacency(rows, n)
    graph = Graph(n, rows)
    if header["model"] == "er":
        return graph
    cont = None
    if header["m"]:
        cont = Contamination(header["m"], header["q"])
    instance = PlantedInstance(graph, header["k"], np.asarray(header["labels"]),
                               cont, header["seed"], header["model"])
    instance.validate()
    return instance


def write_edge_list(path, obj: Union[Graph, PlantedInstance]) -> None:
    """One 0-indexed "u v" pair per line with u < v, sorted; instances report
    original labels. Streams one write per label u: its larger-labelled
    neighbours, in order, from u's packed row."""
    if isinstance(obj, PlantedInstance):
        graph, labels = obj.graph, obj.labels
    else:
        graph, labels = obj, np.arange(obj.n)
    internal = np.argsort(labels)  # original label -> internal vertex
    names = np.array([str(v) for v in range(graph.n)], dtype=object)
    rows = graph.packed_rows
    with open(path, "w") as f:
        for u, x in enumerate(internal.tolist()):
            vs = labels[np.unpackbits(rows[x], count=graph.n).view(bool)]
            vs = np.sort(vs[vs > u])
            if vs.size:
                f.write(f"{u} " + f"\n{u} ".join(names[vs]) + "\n")


def _set_edges(rows: np.ndarray, uv: np.ndarray) -> None:
    """Set both bits of every edge of an (m, 2) label array in packed rows."""
    n = rows.shape[0]
    bad = ((uv < 0) | (uv >= n)).any(axis=1)
    if bad.any():
        raise ValueError(f"edge {uv[bad][0].tolist()} has a vertex outside [0, {n})")
    if (uv[:, 0] == uv[:, 1]).any():
        raise ValueError("self-loops are not allowed")
    for a, b in (uv.T, uv.T[::-1]):
        np.bitwise_or.at(rows, (a, b >> 3), (128 >> (b & 7)).astype(np.uint8))


def _edge_chunks(path, lines: int = 4096):
    """Yield the "u v" lines of an edge list, blank lines and "#" comments
    skipped, as (m, 2) int64 arrays of at most ``lines`` rows."""
    with open(path) as f:
        source, uv = (line for line in f), np.empty((lines, 2))  # not file-like,
        while len(uv) == lines:  # so loadtxt reads no further than it parses
            with warnings.catch_warnings():  # an empty last chunk warns
                warnings.simplefilter("ignore", UserWarning)
                uv = np.loadtxt(source, np.int64, comments="#", ndmin=2, max_rows=lines)
            if uv.size and uv.shape[1] != 2:
                raise ValueError("each edge-list line must hold two labels")
            yield uv.reshape(-1, 2)


def read_edge_list(path, n: Optional[int] = None) -> Graph:
    """Read a "u v" per line edge list into a Graph with identity labels, in
    one pass of chunks straight into packed rows; without ``n``, the rows grow
    to exactly the largest label seen so far plus one."""
    start = max(n or 0, 0)  # a given n < 1 fails the label or the size check
    rows = np.zeros((start, (start + 7) // 8), dtype=np.uint8)
    for uv in _edge_chunks(path):
        top = int(uv.max(initial=-1)) + 1
        if n is None and top > len(rows):
            rows = np.pad(rows, [(0, top - len(rows)),
                                 (0, (top + 7) // 8 - rows.shape[1])])
        _set_edges(rows, uv)
    if len(rows) < 1:
        raise ValueError("edge list implies an empty graph; pass n explicitly")
    return Graph(len(rows), rows)
