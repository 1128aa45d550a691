import json
import math

import numpy as np
import pytest

from plantedclique import (Graph, PlantedInstance, gen_contaminated,
                           gen_coupled, gen_er, gen_planted, load_graph,
                           read_edge_list, save_graph, write_edge_list)

from conftest import py_deg_into


def test_single_vertex_has_no_edges():
    g = gen_er(1, 7)
    assert g.n == 1
    assert g.num_edges() == 0


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
    hits = sum(gen_er(2, seed).num_edges() for seed in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_edge_count_concentration():
    # Binomial moments oracle: C(200,2) fair coins per graph.
    pairs = math.comb(200, 2)
    sigma = math.sqrt(pairs * 0.25)
    for seed in range(100):
        assert abs(gen_er(200, seed).num_edges() - pairs / 2) < 4 * sigma


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
    assert inst.graph.num_edges() == math.comb(9, 2)


def test_planted_k1_matches_er_bits():
    # With no internal clique pairs the planted draw is the plain coin matrix.
    inst = gen_planted(40, 1, 11)
    assert inst.graph == gen_er(40, 11)


def test_figure_scale_instance():
    inst = gen_planted(5000, 70, 0)
    assert inst.n == 5000 and inst.k == 70
    deg = inst.graph.deg_into(inst.pc_mask())
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
    assert np.array_equal(inst.pc_original, plain.pc_original)


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
    pc = gen_planted(40, 6, 9).pc_original
    free = [v for v in range(40) if v not in set(pc.tolist())]
    inst = gen_contaminated(40, 6, 4, 0.8, 9, v_set=free[:4])
    assert sorted(inst.v_set_original.tolist()) == sorted(free[:4])
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
        assert np.array_equal(inst.graph.row_bool(x), dense[x])
    members = rng.random(33) < 0.4
    deg = inst.graph.deg_into(members)
    for x in range(33):
        assert deg[x] == py_deg_into(dense, x, np.flatnonzero(members))
    assert inst.graph.has_edge(0, 1) == bool(dense[0, 1])
    assert not inst.graph.has_edge(4, 4)


def test_graph_is_immutable():
    g = gen_er(10, 0)
    with pytest.raises(ValueError):
        g.packed_rows[0, 0] = 1


def test_from_dense_validates():
    with pytest.raises(ValueError):
        Graph.from_dense(np.ones((3, 3), dtype=bool))  # self-loops
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True
    with pytest.raises(ValueError):
        Graph.from_dense(bad)  # asymmetric


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


def _set_bits(path, row, byte, bits):
    """OR ``bits`` into one byte of a saved graph's packed rows."""
    header, payload = path.read_bytes().split(b"\n", 1)
    n = json.loads(header)["n"]
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(n, -1).copy()
    rows[row, byte] |= bits
    path.write_bytes(header + b"\n" + rows.tobytes())


def test_load_rejects_asymmetric_adjacency(tmp_path):
    path = tmp_path / "g.bin"
    save_graph(path, Graph.from_edges(13, [(0, 1)]))
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


@pytest.mark.parametrize("edge", [(-1, 2), (2, 5), (7, 0)])
def test_from_edges_rejects_out_of_range_labels(edge):
    with pytest.raises(ValueError, match="outside"):
        Graph.from_edges(5, [(0, 1), edge])


def test_read_edge_list_rejects_negative_label(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n-1 2\n")
    with pytest.raises(ValueError, match="outside"):
        read_edge_list(path, n=5)
