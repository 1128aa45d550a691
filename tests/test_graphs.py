import json
import math
import tracemalloc

import numpy as np
import pytest

from plantedclique import (Graph, PlantedInstance, gen_contaminated,
                           gen_coupled, gen_er, gen_planted, load_graph,
                           read_edge_list, save_graph, write_edge_list)

from plantedclique import graphs

from checkers import num_edges
from conftest import graph_from_edges, py_deg_into


def test_single_vertex_has_no_edges():
    g = gen_er(1, 7)
    assert g.n == 1
    assert num_edges(g) == 0


def test_n_zero_rejected():
    with pytest.raises(ValueError):
        gen_er(0, 1)


def test_bad_seed_rejected():
    with pytest.raises(ValueError):
        gen_er(4, -1)
    with pytest.raises(ValueError):
        gen_er(4, 2**64)
    with pytest.raises(TypeError):
        gen_er(4, "zero")


def test_two_vertex_edge_frequency():
    # Monte Carlo frequency oracle: a fair coin across seeds.
    hits = sum(num_edges(gen_er(2, seed)) for seed in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_edge_count_concentration():
    # Binomial moments oracle: C(200,2) fair coins per graph.
    pairs = math.comb(200, 2)
    sigma = math.sqrt(pairs * 0.25)
    for seed in range(100):
        assert abs(num_edges(gen_er(200, seed)) - pairs / 2) < 4 * sigma


def test_generation_is_deterministic():
    assert gen_er(60, 9) == gen_er(60, 9)
    a = gen_planted(60, 9, 3)
    b = gen_planted(60, 9, 3)
    assert a.graph == b.graph and np.array_equal(a.labels, b.labels)
    c = gen_contaminated(40, 6, 5, 0.7, 3)
    d = gen_contaminated(40, 6, 5, 0.7, 3)
    assert c.graph == d.graph and np.array_equal(c.labels, d.labels)


def test_planted_clique_is_complete():
    inst = gen_planted(50, 12, 4)
    inst.validate()
    dense = inst.graph.to_dense()
    sub = dense[:12, :12]
    assert (sub | np.eye(12, dtype=bool)).all()


def test_planted_k_equals_n_is_complete_graph():
    inst = gen_planted(9, 9, 0)
    assert num_edges(inst.graph) == math.comb(9, 2)


def test_planted_k1_matches_er_bits():
    # With no internal clique pairs the planted draw is the plain coin matrix.
    inst = gen_planted(40, 1, 11)
    assert inst.graph == gen_er(40, 11)


def test_figure_scale_instance():
    inst = gen_planted(5000, 70, 0)
    assert inst.n == 5000 and inst.k == 70
    deg = inst.graph.deg_into(np.arange(inst.n) < inst.k)
    assert (deg[:70] == 69).all()


def test_planted_rejects_k_above_n():
    with pytest.raises(ValueError):
        gen_planted(5, 6, 0)


def test_coupled_edges_are_additive():
    g0, inst = gen_coupled(80, 10, 5)
    d0, d1 = g0.to_dense(), inst.graph.to_dense()
    assert (d1 | d0 == d1).all()  # every edge of G0 is in G
    extra = d1 & ~d0
    us, vs = np.nonzero(extra)
    assert us.size > 0
    assert (us < 10).all() and (vs < 10).all()


def test_coupled_k1_graphs_equal():
    g0, inst = gen_coupled(30, 1, 2)
    assert g0 == inst.graph


def test_coupled_er_side_matches_gen_er():
    g0, _ = gen_coupled(64, 8, 17)
    assert g0 == gen_er(64, 17)


def test_coupled_agree_off_clique():
    g0, inst = gen_coupled(100, 12, 3)
    d0, d1 = g0.to_dense(), inst.graph.to_dense()
    off = np.ones(100, dtype=bool)
    off[:12] = False
    assert np.array_equal(d0[np.ix_(off, off)], d1[np.ix_(off, off)])
    # degrees of non-clique vertices into the non-clique part agree
    assert np.array_equal(d0[off].sum(1) - d0[np.ix_(off, ~off)].sum(1),
                          d1[off].sum(1) - d1[np.ix_(off, ~off)].sum(1))


def test_contaminated_q_half_reduces_to_planted():
    inst = gen_contaminated(60, 10, 8, 0.5, 21)
    plain = gen_planted(60, 10, 21)
    assert inst.graph == plain.graph
    assert np.array_equal(inst.labels[:10], plain.labels[:10])


def test_contaminated_m_zero_identical_to_planted():
    inst = gen_contaminated(60, 10, 0, 0.9, 21)
    plain = gen_planted(60, 10, 21)
    assert inst.graph == plain.graph
    assert np.array_equal(inst.labels, plain.labels)
    assert inst.contamination is None


def test_contaminated_boosts_v_set_degrees():
    # Degree-expectation oracle: q = 0.6 lifts v_set means above the rest.
    boosted, plain = [], []
    for seed in range(3):
        inst = gen_contaminated(2000, 120, 200, 0.6, seed)
        deg = inst.graph.degrees()
        boosted.append(deg[120:320].mean())
        plain.append(deg[320:].mean())
    assert min(boosted) > max(plain) + 100


def test_contaminated_explicit_v_set():
    pc = gen_planted(40, 6, 9).labels[:6]
    free = [v for v in range(40) if v not in set(pc.tolist())]
    inst = gen_contaminated(40, 6, 4, 0.8, 9, v_set=free[:4])
    assert sorted(inst.labels[6:10].tolist()) == sorted(free[:4])
    with pytest.raises(ValueError):
        gen_contaminated(40, 6, 4, 0.8, 9, v_set=[int(pc[0])] + free[:3])


def test_contaminated_parameter_validation():
    with pytest.raises(ValueError):
        gen_contaminated(40, 6, 4, 0.4, 0)
    with pytest.raises(ValueError):
        gen_contaminated(40, 6, 4, 1.0, 0)
    with pytest.raises(ValueError):
        gen_contaminated(10, 6, 5, 0.6, 0)


def test_off_clique_density_is_half():
    # Pooled fair-coin check across 100 seeds at 5 sigma.
    n, k = 50, 5
    trials = edges = 0
    for seed in range(100):
        inst = gen_planted(n, k, seed)
        dense = inst.graph.to_dense()
        upper = np.triu(dense, 1)
        upper[:k, :k] = False
        edges += int(upper.sum())
        trials += math.comb(n, 2) - math.comb(k, 2)
    assert abs(edges - trials / 2) < 5 * math.sqrt(trials / 4)


def test_graph_queries_match_dense(rng):
    inst = gen_planted(33, 7, 1)
    dense = inst.graph.to_dense()
    for x in range(33):
        assert np.array_equal(inst.graph.row01(x).view(bool), dense[x])
    members = rng.random(33) < 0.4
    deg = inst.graph.deg_into(members)
    for x in range(33):
        assert deg[x] == py_deg_into(dense, x, np.flatnonzero(members))
    assert not dense.diagonal().any()


def test_deg_into_needs_no_n_by_n_temporaries():
    # rows & mask and its popcount would each be n^2 / 8 = 8 MB here
    n = 8000
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 256, (n, n // 8), dtype=np.uint8)
    graph = Graph(n, rows)
    member = rng.random(n) < 0.5
    tracemalloc.start()
    try:
        deg = graph.deg_into(member)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expect = np.bitwise_count(rows & np.packbits(member)).sum(axis=1)
    assert deg.dtype == np.int64 and np.array_equal(deg, expect)
    assert peak < 2**20


def test_graph_is_immutable():
    g = gen_er(10, 0)
    with pytest.raises(ValueError):
        g.packed_rows[0, 0] = 1


def test_rows_are_read_only():
    for graph in (gen_er(200, 0), Graph(200, gen_er(200, 0).packed_rows)):
        for x in (0, 5, 5):  # a built row, then the same row from the cache
            with pytest.raises(ValueError):
                graph.row01(x)[1] = 1
            with pytest.raises(ValueError):
                graph.row01(x).view(bool)[1] = True


def test_repr_draws_no_rows():
    g = gen_er(200, 0)
    assert repr(g) == "Graph(n=200, rows not drawn)" and g._rows is None
    g.packed_rows
    assert repr(g) == f"Graph(n=200, edges={num_edges(g)})"


def _eager(graph):
    return Graph(graph.n, graph.packed_rows.copy())


def test_past_n_over_16_rows_answers_come_from_the_packed_rows():
    n = 160  # so n/16 = 10 rows are built alone
    g0, inst = gen_coupled(n, 12, 4)
    graph = inst.graph
    eager = _eager(gen_coupled(n, 12, 4)[1].graph)
    lazy = {x: graph.row01(x) for x in range(3, 13)}  # clique rows and not
    assert graph._rows is None and g0._rows is None
    for x in range(3, 13):  # the twin reads the same rows: no new builds
        g0.row01(x)
    assert g0._rows is None
    assert g0.row01(13)[3] == eager.row01(13)[3]  # an 11th row
    assert g0._rows is not None and graph._rows is None
    for x, row in lazy.items():
        assert np.array_equal(row, graph.row01(x))
        assert np.array_equal(row, eager.row01(x))
    assert graph._rows is not None  # its source was drawn for the twin
    assert np.array_equal(graph.packed_rows, eager.packed_rows)
    assert np.array_equal(g0.packed_rows, gen_er(n, 4).packed_rows)


@pytest.mark.parametrize("members", [10, 11])
def test_degrees_into_more_than_n_over_16_members_use_the_packed_rows(members):
    n = 160
    inst = gen_planted(n, 20, 9)
    member = np.zeros(n, dtype=bool)
    member[np.linspace(0, n - 1, members).astype(int)] = True
    deg = inst.graph.deg_into(member)
    assert (inst.graph._rows is None) == (members <= n // 16)
    assert np.array_equal(deg, _eager(inst.graph).deg_into(member))


def test_lazy_and_eager_graphs_write_the_same_files(tmp_path, monkeypatch):
    inst = gen_planted(150, 13, 2)
    eager = PlantedInstance(_eager(gen_planted(150, 13, 2).graph), inst.k,
                            inst.labels, None, inst.seed)
    pairs = [(inst, eager), (gen_er(150, 3), _eager(gen_er(150, 3)))]
    # the writers read packed_rows, not n rows built one by one
    monkeypatch.setattr(graphs._CoinRows, "build", lambda self, x: (
        pytest.fail("a writer built a row alone")))
    for i, (lazy, eager) in enumerate(pairs):
        for write in (save_graph, write_edge_list):
            write(tmp_path / "lazy", lazy)
            write(tmp_path / "eager", eager)
            assert ((tmp_path / "lazy").read_bytes()
                    == (tmp_path / "eager").read_bytes()), (i, write.__name__)


def test_binary_roundtrip(tmp_path):
    for obj in (gen_er(21, 5), gen_planted(21, 6, 5),
                gen_contaminated(21, 6, 4, 0.75, 5)):
        path = tmp_path / "g.bin"
        save_graph(path, obj)
        back = load_graph(path)
        if isinstance(obj, Graph):
            assert back == obj
        else:
            assert isinstance(back, PlantedInstance)
            assert back.graph == obj.graph
            assert back.k == obj.k
            assert np.array_equal(back.labels, obj.labels)
            if obj.contamination:
                assert back.contamination == obj.contamination


def test_edge_list_roundtrip(tmp_path):
    g = gen_er(25, 8)
    path = tmp_path / "g.txt"
    write_edge_list(path, g)
    assert read_edge_list(path, n=25) == g


def test_edge_list_uses_original_labels(tmp_path):
    inst = gen_planted(15, 5, 3)
    path = tmp_path / "inst.txt"
    write_edge_list(path, inst)
    back = read_edge_list(path, n=15)
    # relabeling the instance back to original labels reproduces the file
    dense = inst.graph.to_dense()
    orig = np.zeros_like(dense)
    lab = inst.labels
    orig[np.ix_(lab, lab)] = dense
    assert np.array_equal(back.to_dense(), orig)


def test_edge_list_streams_without_dense_arrays(tmp_path):
    # the dense n x n matrix alone is n^2 bytes, the all-edges array more
    n = 4000
    inst = gen_planted(n, 60, 1)
    inst.graph.packed_rows  # draw the graph before measuring the writer
    path = tmp_path / "g.txt"
    tracemalloc.start()
    try:
        write_edge_list(path, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n // 8
    assert path.read_bytes().count(b"\n") == num_edges(inst.graph)


def _set_bits(path, row, byte, bits):
    """OR ``bits`` into one byte of a saved graph's packed rows."""
    header, payload = path.read_bytes().split(b"\n", 1)
    n = json.loads(header)["n"]
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(n, -1).copy()
    rows[row, byte] |= bits
    path.write_bytes(header + b"\n" + rows.tobytes())


def test_load_rejects_asymmetric_adjacency(tmp_path):
    path = tmp_path / "g.bin"
    save_graph(path, graph_from_edges(13, [(0, 1)]))
    _set_bits(path, 0, 0, 0b0010_0000)  # edge 0 -> 2 only
    with pytest.raises(ValueError, match="symmetric"):
        load_graph(path)


def test_load_rejects_self_loop(tmp_path):
    path = tmp_path / "g.bin"
    save_graph(path, gen_er(13, 2))
    _set_bits(path, 9, 1, 0b0100_0000)  # edge 9 -> 9
    with pytest.raises(ValueError, match="self-loop"):
        load_graph(path)


def test_load_rejects_padding_bits(tmp_path):
    path = tmp_path / "g.bin"
    save_graph(path, gen_planted(13, 4, 1))
    _set_bits(path, 0, 1, 0b0000_0111)  # vertices 13..15
    with pytest.raises(ValueError, match="padding"):
        load_graph(path)


@pytest.mark.parametrize("n, row, byte, bits, match", [
    (130, 3, 12, 0b0000_1000, "symmetric"),   # edge 3 -> 100, a later row block
    (130, 100, 0, 0b0001_0000, "symmetric"),  # edge 100 -> 3
    (130, 129, 16, 0b0100_0000, "self-loop"),  # edge 129 -> 129, the last block
    (130, 77, 16, 0b0000_0001, "padding"),    # vertex 135 of 130
    (300, 3, 36, 0b0010_0000, "symmetric"),   # edge 3 -> 290, the second pass
    (300, 290, 0, 0b0001_0000, "symmetric"),  # edge 290 -> 3
    (300, 260, 37, 0b0001_0000, "symmetric"),  # edge 260 -> 299, both in it
    (300, 258, 32, 0b0001_0000, "symmetric"),  # edge 258 -> 259, one tile
    (300, 299, 37, 0b0001_0000, "self-loop"),  # edge 299 -> 299
    (300, 277, 37, 0b0000_0001, "padding"),   # vertex 303, the last pass
    (300, 10, 37, 0b0000_0010, "padding"),    # vertex 302, the first pass
])
def test_load_checks_every_row_block(tmp_path, n, row, byte, bits, match):
    # blocks of 256 rows are bit-transposed, so n = 300 has two
    path = tmp_path / "g.bin"
    save_graph(path, graph_from_edges(n, [(0, 1), (64, 127)]))
    _set_bits(path, row, byte, bits)
    with pytest.raises(ValueError, match=match):
        load_graph(path)


def test_load_never_holds_a_dense_matrix(tmp_path):
    # a dense boolean n x n matrix alone is n^2 bytes; the file is n^2 / 8
    n = 8000
    path = tmp_path / "g.bin"
    inst = gen_planted(n, 90, 0)
    save_graph(path, inst)
    tracemalloc.start()
    try:
        back = load_graph(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.graph == inst.graph
    assert peak < n * n // 2
    # the payload is read once into the rows, which stay read-only
    assert peak < n * ((n + 7) // 8) + 512 * n
    assert not back.graph.packed_rows.flags.writeable


@pytest.mark.parametrize("cut", [1, 375, -1, -375])
def test_load_rejects_a_payload_of_the_wrong_size(tmp_path, cut):
    path = tmp_path / "g.bin"
    save_graph(path, gen_planted(300, 20, 2))
    data = path.read_bytes()
    path.write_bytes(data[:-cut] if cut > 0 else data + b"\0" * -cut)
    with pytest.raises(ValueError, match="payload size does not match header"):
        load_graph(path)


def _edit_header(path, **fields):
    header, payload = path.read_bytes().split(b"\n", 1)
    header = json.dumps({**json.loads(header), **fields}).encode("ascii")
    path.write_bytes(header + b"\n" + payload)


def test_load_rejects_labels_that_are_not_a_permutation(tmp_path):
    path = tmp_path / "g.bin"
    save_graph(path, gen_planted(12, 3, 4))
    _edit_header(path, labels=[0] * 12)
    with pytest.raises(ValueError, match="permutation"):
        load_graph(path)


def test_load_rejects_k_beyond_the_planted_clique(tmp_path):
    path = tmp_path / "g.bin"
    inst = gen_planted(12, 3, 4)
    assert not inst.graph.row01(3)[4]  # so vertices 0..4 are no clique
    save_graph(path, inst)
    _edit_header(path, k=5)
    with pytest.raises(ValueError, match="clique"):
        load_graph(path)


_DROP = object()  # a header field to leave out
_BAD_HEADERS = [
    ("planted", dict(n=-5)),
    ("planted", dict(n="8")),
    ("planted", dict(n=True)),
    ("planted", dict(n=0)),
    ("planted", dict(n=12.0)),
    ("planted", dict(n=_DROP)),
    ("er", dict(n=None)),
    ("planted", dict(model="gnp")),
    ("planted", dict(model=_DROP)),
    ("planted", dict(k="3")),
    ("planted", dict(k=True)),
    ("planted", dict(k=0)),
    ("planted", dict(k=13)),
    ("planted", dict(k=_DROP)),
    ("planted", dict(m=-1)),
    ("planted", dict(m=10)),  # k + m > n
    ("planted", dict(m="0")),
    ("contaminated", dict(q=1.0)),
    ("contaminated", dict(q="0.7")),
    ("contaminated", dict(q=None)),
    ("planted", dict(seed=-1)),
    ("planted", dict(seed=2**64)),
    ("planted", dict(seed="4")),
    ("planted", dict(seed=None)),
    ("planted", dict(labels=_DROP)),
    ("planted", dict(labels=None)),
    ("planted", dict(labels=list(range(11)))),
    ("planted", dict(labels=[*range(11), 11.0])),
    ("planted", dict(labels=[*range(11), "11"])),
]


@pytest.mark.parametrize("model, fields", _BAD_HEADERS, ids=[
    f"{model}-{name}-{'dropped' if v is _DROP else repr(v)[-12:]}"
    for model, fields in _BAD_HEADERS for name, v in fields.items()])
def test_load_names_a_malformed_header_field(tmp_path, model, fields):
    path = tmp_path / "g.bin"
    save_graph(path, {"er": gen_er(12, 4), "planted": gen_planted(12, 3, 4),
                      "contaminated": gen_contaminated(12, 3, 4, 0.7, 4)}[model])
    header, payload = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(header), **fields}
    header = {name: v for name, v in header.items() if v is not _DROP}
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
    (name,) = fields
    with pytest.raises(ValueError, match=f"^graph header field '{name}' must be "):
        load_graph(path)


@pytest.mark.parametrize("header", [b"[1, 2]", b'"pcgraph-v1"', b"null"])
def test_load_rejects_a_header_that_is_no_object(tmp_path, header):
    path = tmp_path / "g.bin"
    path.write_bytes(header + b"\n")
    with pytest.raises(ValueError, match="graph header must be a JSON object"):
        load_graph(path)


def test_load_reads_fields_it_does_not_use_unchecked(tmp_path):
    # an er file holds no clique, and a plain planted one no contamination
    for obj, fields in ((gen_er(12, 4), dict(k="3", labels=None, seed=None)),
                        (gen_planted(12, 3, 4), dict(q="0.7"))):
        path = tmp_path / "g.bin"
        save_graph(path, obj)
        _edit_header(path, **fields)
        back = load_graph(path)
        assert (back if isinstance(obj, Graph) else back.graph) == \
            (obj if isinstance(obj, Graph) else obj.graph)


def test_validate_passes_generated_instances():
    for inst in (gen_planted(70, 66, 1), gen_contaminated(70, 10, 60, 0.7, 2),
                 gen_planted(9, 1, 0)):
        inst.validate()


@pytest.mark.parametrize("edge", [(-1, 2), (2, 5), (7, 0)])
def test_read_edge_list_rejects_negative_label(tmp_path, edge):
    path = tmp_path / "g.txt"
    path.write_text(f"0 1\n{edge[0]} {edge[1]}\n")
    with pytest.raises(ValueError, match="outside"):
        read_edge_list(path, n=5)


@pytest.mark.parametrize("n", [1, 7, 64, 65, 130])
def test_edge_list_roundtrip_across_byte_edges(tmp_path, n):
    path = tmp_path / "g.txt"
    for g in (gen_er(n, n), graph_from_edges(n, [(0, n - 1)] if n > 1 else [])):
        write_edge_list(path, g)
        assert read_edge_list(path, n=n) == g
        if num_edges(g) and g.degrees()[-1]:
            assert read_edge_list(path) == g  # n inferred from the largest label


def test_read_edge_list_needs_no_dense_arrays(tmp_path):
    # the packed rows it returns are n^2 / 8 bytes; the dense matrix was n^2
    # and the parsed list of about 10^6 edge tuples far more
    n = 2000
    path = tmp_path / "g.txt"
    g = gen_er(n, 3)
    write_edge_list(path, g)
    tracemalloc.start()
    try:
        back = read_edge_list(path, n=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == g
    assert peak < back.packed_rows.nbytes + n * n // 8


def test_read_edge_list_infers_n_in_one_pass(tmp_path, monkeypatch):
    # without n the packed rows grow to the largest label seen so far, so
    # the file is parsed once, within the same memory bound as with n
    n = 2000
    path = tmp_path / "g.txt"
    g = gen_planted(n, 40, 5).graph
    write_edge_list(path, g)
    passes = []
    chunks = graphs._edge_chunks
    monkeypatch.setattr(graphs, "_edge_chunks",
                        lambda *args: passes.append(args) or chunks(*args))
    tracemalloc.start()
    try:
        back = read_edge_list(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(passes) == 1
    assert back == read_edge_list(path, n=n) == g
    assert peak < back.packed_rows.nbytes + n * n // 8


def test_read_edge_list_grows_rows_in_a_later_chunk(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n" * 5000 + "7 130\n")
    assert read_edge_list(path) == graph_from_edges(131, [(0, 1), (7, 130)])


def test_read_edge_list_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# an edge list\n\n0 1\n   \n  # indented\n1 3\n")
    assert read_edge_list(path) == graph_from_edges(4, [(0, 1), (1, 3)])


@pytest.mark.parametrize("text, match", [
    ("0 1\n2 2\n", "self-loop"),
    ("0 1\n1 5\n", "outside"),
    ("0 1 2\n", "two labels"),
    ("3\n", "two labels"),
    ("0 1\n1 2 3\n", "columns"),
    ("0 x\n", "convert"),
    ("# nothing\n", "empty graph"),
])
def test_read_edge_list_rejects_bad_lines(tmp_path, text, match):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_edge_list(path, n=None if "nothing" in text else 5)


def test_read_edge_list_rejects_a_bad_line_in_a_later_chunk(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n" * 5000 + "4 4\n")
    with pytest.raises(ValueError, match="self-loop"):
        read_edge_list(path)
