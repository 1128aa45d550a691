import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plantedclique import (CoupledResult, GammaParam, GibbsChain,
                           GradientDescent, Graph, Move, SubsetState,
                           Trajectory, apply_flip, gd_step, gen_contaminated,
                           gen_coupled, gen_er, gen_planted, gibbs_step,
                           init_state, local_min_check, replay, run_chain,
                           run_coupled_gd, run_peel, stream_rng)
from plantedclique import chains, graphs
from plantedclique.harness import ConfigError, ExperimentConfig
from plantedclique.chains import (TRAJECTORY_CSV_HEADER, _ChainDriver,
                                  _peel_step_u, _Uniforms)
from plantedclique.energy import SCALAR_FLIPS
from plantedclique.graphs import CHAIN_STREAM

from checkers import (gibbs_probabilities, verify_hamming_descent,
                      verify_removal_phase)
from conftest import (RowTrajectory, first_clique_add, graph_from_edges,
                      miss_probability, moves, py_scaled_energy,
                      terminal_members)

ONE_EDGE3 = graph_from_edges(3, [(0, 1)])
HOT_200 = 10 * math.log(200)  # low enough a temperature to hold the clique


class TestTiePolicy:
    def test_validation(self):
        """The config's tie_policy is a plateau budget: halt 0, drift:<b> b >= 1."""
        drift = "drift requires max_plateau_steps >= 1"
        for text, message in (("drift:0", drift), ("drift:-2", drift), (
                "wander", "tie policy must be 'halt' or 'drift:<steps>', got 'wander'")):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig(tie_policy=text).validate()
            assert err.value.errors == [("tie_policy", message)]
        assert ExperimentConfig(tie_policy="halt").chain_kind() == GradientDescent(0)
        assert ExperimentConfig(tie_policy="drift:3").chain_kind() == GradientDescent(3)
        assert GradientDescent() == GradientDescent(0)


class TestGdStep:
    def test_worked_example_removes_isolated_vertex(self):
        # deltas (gamma=2): remove 2 -> -4, remove 0 -> -1, remove 1 -> -1
        for seed in range(5):
            state = init_state(ONE_EDGE3, [0, 1, 2], GammaParam(2))
            move, _ = gd_step(state, stream_rng(seed, 2))
            assert move == Move("remove", 2, -4)

    def test_strict_local_min_halts(self):
        # the edge {0,1} is a strict local minimum here
        state = init_state(ONE_EDGE3, [0, 1], GammaParam(2))
        move, _ = gd_step(state, stream_rng(0, 2))
        assert move.kind == "stay" and state.size == 2

    def test_empty_set_halt_vs_drift(self):
        state = init_state(ONE_EDGE3, [], GammaParam(2))
        move, _ = gd_step(state, stream_rng(0, 2))
        assert move.kind == "stay"
        seen = set()
        for seed in range(40):
            state = init_state(ONE_EDGE3, [], GammaParam(2))
            move, _ = gd_step(state, stream_rng(seed, 2), 1)
            assert move.kind == "add" and move.scaled_delta == 0
            seen.add(move.vertex)
        assert seen == {0, 1, 2}  # uniform over all vertices

    def test_drift_budget_exhausted_halts(self):
        state = init_state(ONE_EDGE3, [], GammaParam(2))
        move, _ = gd_step(state, stream_rng(1, 2), 1,
                          plateau_used=1)
        assert move.kind == "stay"

    def test_tied_argmin_choices_all_occur(self):
        # two disjoint edges, full start: all four removals tie at delta -3
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        seen = set()
        for seed in range(60):
            state = init_state(g, range(4), GammaParam(2))
            assert set(state.all_flip_deltas().tolist()) == {-3}
            move, _ = gd_step(state, stream_rng(seed, 2))
            seen.add(move.vertex)
        assert seen == {0, 1, 2, 3}


class TestGibbsStep:
    def test_beta_validation(self):
        state = init_state(ONE_EDGE3, [0], GammaParam(2))
        with pytest.raises(ValueError):
            gibbs_step(state, -0.5, stream_rng(0, 2))
        with pytest.raises(ValueError):
            gibbs_step(state, math.inf, stream_rng(0, 2))
        with pytest.raises(ValueError):
            gibbs_step(state, math.nan, stream_rng(0, 2))

    def test_infinite_temperature_is_uniform(self):
        state = init_state(ONE_EDGE3, [0, 2], GammaParam(2))
        probs = gibbs_probabilities(state, 0.0)
        assert np.allclose(probs, np.full(4, 0.25), rtol=0, atol=0)

    def test_worked_example_probabilities(self):
        # candidate energies: self 3, drop 0 -> 2, drop 1 -> 2, drop 2 -> -1
        state = init_state(ONE_EDGE3, [0, 1, 2], GammaParam(2))
        probs = gibbs_probabilities(state, 1.0)
        weights = np.exp([-3.0, -2.0, -2.0, 1.0])
        assert np.allclose(probs, weights / weights.sum(), rtol=1e-12)

    def test_large_beta_matches_gd(self):
        for seed in range(25):
            g = gen_er(24, seed)
            members = np.flatnonzero(stream_rng(seed, 9).random(24) < 0.5)
            s1 = init_state(g, members, GammaParam(3))
            s2 = init_state(g, members, GammaParam(3))
            deltas = s1.all_flip_deltas()
            if (deltas == deltas.min()).sum() != 1:
                continue
            gd_move, _ = gd_step(s1, stream_rng(seed, 2))
            gb_move, _ = gibbs_step(s2, 50 * math.log(25), stream_rng(seed, 2))
            if gd_move.kind == "stay":
                assert gb_move.kind == "stay"
            else:
                assert gb_move == gd_move

    def test_detailed_balance_small(self):
        # nu(W) P(W,U) == nu(U) P(U,W) with nu from an independent recount
        gam = GammaParam(2)
        beta = 0.7
        g = gen_er(5, 3)
        dense = g.to_dense()
        masks = range(1 << 5)

        def H(mask):
            members = {i for i in range(5) if mask >> i & 1}
            return py_scaled_energy(dense, members, gam) / gam.q_den

        def neighbors(mask):
            return [mask] + [mask ^ (1 << i) for i in range(5)]

        def Z(mask):
            return sum(math.exp(-beta * H(m2)) for m2 in neighbors(mask))

        for mask in masks:
            state = init_state(g, [i for i in range(5) if mask >> i & 1], gam)
            probs = gibbs_probabilities(state, beta)
            nu_w = math.exp(-beta * H(mask)) * Z(mask)
            for i in range(5):
                other = mask ^ (1 << i)
                state_o = init_state(g, [j for j in range(5) if other >> j & 1], gam)
                probs_o = gibbs_probabilities(state_o, beta)
                lhs = nu_w * probs[1 + i]
                rhs = math.exp(-beta * H(other)) * Z(other) * probs_o[1 + i]
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def reference_run(instance, init, gamma, step, max_steps, record_every=1,
                  hold=0, stop_reason="absorbed") -> RowTrajectory:
    """A run as its chain defines it, one step per call of ``step(state)``,
    which applies a move and returns it (a stay too), or returns None to end
    the run with ``stop_reason``. Keeps a row every ``record_every`` steps
    plus the terminal row, and stops after ``max_steps`` or once the chain
    has stayed at the clique for ``hold`` further steps (0: never)."""
    graph, k = ((instance, 0) if isinstance(instance, Graph)
                else (instance.graph, instance.k))
    members = {"full": range(graph.n), "empty": ()}.get(init, init)
    state = init_state(graph, members, gamma)

    def overlap():
        n1 = int(state.member[:k].sum())
        return n1, state.size - n1, k > 0 and n1 == k and state.size == n1

    n1, n2, at_pc = overlap()
    row = (0, n1, n2, state.scaled_energy, "stay", -1)
    rows = [row]
    first_pc, run, reason, t = (0 if at_pc else None), 0, "max_steps", 0
    while t < max_steps:
        was_at_pc = at_pc
        move = step(state)
        if move is None:
            reason = stop_reason
            break
        t += 1
        n1, n2, at_pc = overlap()
        run = run + 1 if at_pc and was_at_pc else 0
        if at_pc and first_pc is None:
            first_pc = t
        row = (t, n1, n2, state.scaled_energy, move.kind,
               -1 if move.vertex is None else move.vertex)
        if t % record_every == 0:
            rows.append(row)
        if hold and run >= hold:
            reason = "held"
            break
    if rows[-1][0] != t:
        rows.append(row)
    return RowTrajectory(rows, {
        "absorbed": reason == "absorbed", "reached_pc": first_pc is not None,
        "steps": t, "first_pc_step": first_pc, "stop_reason": reason,
        "terminal_size": state.size, "terminal_n1": n1, "terminal_n2": n2})


def gibbs_steps(beta, seed):
    """The public three-argument ``gibbs_step``, one draw per step."""
    rng = stream_rng(seed, CHAIN_STREAM)
    return lambda state: gibbs_step(state, beta, rng)[0]


def gd_steps(plateau_budget, seed):
    """The public ``gd_step`` on a fresh copy of the state each step, so no
    key bound nor least-key class is ever carried; one draw per step, the
    move then applied; None on absorption."""
    rng, plateau = stream_rng(seed, CHAIN_STREAM), [0]

    def step(state):
        fresh = init_state(state.graph, state.member.copy(), state.gamma)
        move, _ = gd_step(fresh, rng, plateau_budget, plateau[0])
        plateau[0] += move.kind != "stay" and move.scaled_delta == 0
        if move.kind == "stay":
            return None
        apply_flip(state, move.vertex)
        return move
    return step


def peel_steps(k, threshold, seed):
    """Remove a uniformly random least-degree member, one draw per step,
    until at most ``threshold`` non-clique vertices are left."""
    rng = stream_rng(seed, CHAIN_STREAM)

    def step(state):
        members = np.flatnonzero(state.member)
        if members.size == 0 or members.size - (members < k).sum() <= threshold:
            return None
        u, degs = rng.random(), state.key[members]
        least = members[degs == degs.min()]
        x, energy = int(least[int(u * least.size)]), state.scaled_energy
        apply_flip(state, x)
        return Move("remove", x, state.scaled_energy - energy)
    return step


def reference_gibbs_run(instance, init, beta, gamma, max_steps, seed, hold,
                        record_every) -> RowTrajectory:
    return reference_run(instance, init, gamma, gibbs_steps(beta, seed),
                         max_steps, record_every, hold)


class TestEventSkippingGibbs:
    @pytest.mark.parametrize("beta", [0.5, 1, 2, 3, 5, 10, 30])
    @pytest.mark.parametrize("record_every", [1, 2, 3, 5, 7])
    def test_matches_one_draw_reference(self, beta, record_every):
        inst = gen_planted(40, 8, 3)
        args = (inst, "full", beta, GammaParam(4), 300, 3, 400, record_every)
        self._check(*args)

    @pytest.mark.parametrize("n, k, init, beta, max_steps, hold, every, seed", [
        # gibbs-hold shape: reach the clique, then a 10 n hold in stay runs
        (200, 30, "full", HOT_200, 4000, 2000, 1, 0),
        (200, 30, "full", HOT_200, 4000, 2000, 7, 1),
        # max_steps ends inside the hold's stay run
        (200, 30, "full", HOT_200, 1200, 2000, 3, 0),
        # the hold ends a stay run that is not a record_every multiple long
        (200, 30, "full", HOT_200, 4000, 333, 5, 2),
        (200, 30, "full", HOT_200, 4000, 1, 2, 2),
        # no hold: the chain stays at the clique until max_steps
        (200, 30, "full", HOT_200, 3000, 0, 4, 3),
        (100, 20, (0, 1, 2, 3, 50), 3.0, 800, 40, 2, 5),
        (100, 20, "empty", 3.0, 800, 40, 3, 6),
        (80, 0, "empty", 2.0, 500, 800, 3, 7),  # bare graph
    ])
    def test_matches_one_draw_reference_at_clique(self, n, k, init, beta,
                                                  max_steps, hold, every, seed):
        inst = gen_er(n, seed) if k == 0 else gen_planted(n, k, seed)
        self._check(inst, init, beta, GammaParam(4), max_steps, seed, hold,
                    every)

    @staticmethod
    def _check(inst, init, beta, gamma, max_steps, seed, hold, record_every):
        ref = reference_gibbs_run(inst, init, beta, gamma, max_steps, seed,
                                  hold, record_every)
        traj = run_chain(inst, init, GibbsChain(beta), gamma, max_steps, seed,
                         hold_window=hold, record_every=record_every)
        assert traj.csv_text() == ref.csv_text()
        assert traj.summary_dict() == ref.summary_dict()

    def test_buffered_uniforms_match_single_draws(self):
        ref = stream_rng(3, 2)
        singles = np.array([ref.random() for _ in range(30000)])
        src = _Uniforms(stream_rng(3, 2))
        calls = ([(0.0, 1)] * 3000 + [(2.0, 6000), (0.999, 10 ** 6), (0.5, 3)]
                 + [(0.9, 50)] * 100 + [(2.0, 4096), (0.0, 7)]
                 + [(-1.0, 5)] * 3000 + [(0.0, 10 ** 6)] * 3000)
        pos = one_draw_refills = 0
        for stay_below, limit in calls:
            buf = src.buf
            u = src.random(stay_below, limit)
            hits = np.flatnonzero(singles[pos:pos + limit] >= stay_below)
            pos += int(hits[0]) + 1 if hits.size else limit
            assert u == singles[pos - 1] and src.drawn == pos
            assert type(u) is float
            # a stay_below <= 0 call reads one draw, whatever its limit
            one_draw_refills += src.buf is not buf and stay_below <= 0 < limit - 1
        assert pos > 4 * 4096  # the calls crossed several refills
        assert one_draw_refills >= 1

    def test_one_delta_scan_per_visited_state(self, monkeypatch):
        # one support scan per visited state, each building few deltas
        scans = []
        real = SubsetState.all_flip_deltas

        def support_scan(self, upto, *rest):
            at, deltas = real(self, upto, *rest)
            scans.append(len(deltas))
            return at, deltas

        monkeypatch.setattr(SubsetState, "all_flip_deltas", support_scan)
        inst = gen_planted(200, 30, 0)
        traj = run_chain(inst, "full", GibbsChain(10 * math.log(200)),
                         GammaParam(4), 20000, 0, hold_window=10000)
        kinds = traj.kind[1:]
        stay = kinds == "stay"
        moved = int((~stay).sum())
        stay_runs = int(stay[0]) + int((stay[1:] & ~stay[:-1]).sum())
        assert traj.stop_reason == "held" and len(kinds) == traj.steps
        assert len(scans) <= moved + stay_runs + 1
        assert len(scans) < traj.steps / 10
        assert np.median(scans) < 200 / 10


class TestTracedNames:
    """The benchmark's tracer wraps ``chains.apply_flip``, ``chains.gibbs_step``
    and ``SubsetState.all_flip_deltas`` and reads each call as one unit of
    work: one flip per applied move, one Gibbs step per visited state and one
    support scan per Gibbs step."""

    @staticmethod
    def _count(monkeypatch, owner, name, calls):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    @pytest.mark.parametrize("kind, init", [
        (GradientDescent(), "full"), (GradientDescent(3), "empty"),
        (GibbsChain(10 * math.log(300)), "full"), (GibbsChain(0.5), "empty")],
        ids=["gd-full", "gd-empty", "gibbs-cold", "gibbs-warm"])
    def test_one_call_per_unit_of_work(self, monkeypatch, kind, init):
        calls = {}
        for owner, name in ((chains, "apply_flip"), (chains, "gibbs_step"),
                            (SubsetState, "all_flip_deltas")):
            self._count(monkeypatch, owner, name, calls)
        traj = run_chain(gen_planted(300, 40, 4), init, kind, GammaParam(4),
                         3000, 4, hold_window=200)
        moves = int(np.count_nonzero(traj.move_kind != "stay"))
        assert moves > 20 and calls["apply_flip"] == moves
        if isinstance(kind, GibbsChain):
            # a visit ends on a move, or on the run's last stays
            assert calls["gibbs_step"] == moves + (traj.kind[-1] == "stay") < traj.steps
            assert calls["all_flip_deltas"] == calls["gibbs_step"]
        else:
            assert "gibbs_step" not in calls and "all_flip_deltas" not in calls


def assert_rows_match(traj, ref, labels=None):
    """The expanded columns, the CSV and the summary equal the per-row
    reference's."""
    for name, col in ref.columns().items():
        assert getattr(traj, name).tolist() == col, name
    assert traj.csv_text(labels) == ref.csv_text(labels)
    assert traj.summary_dict() == ref.summary_dict()


class TestRunLengthTrajectory:
    """A stay run is one row of the run-length columns; the expansions and
    the CSV must still give one row per recorded step."""

    @pytest.mark.parametrize("init, policy", [
        ("full", GradientDescent(0)), ("empty", GradientDescent(0)),
        ("empty", GradientDescent(3)), ((0, 1, 40, 90), GradientDescent(1))])
    @pytest.mark.parametrize("record_every", [1, 3])
    def test_gd(self, init, policy, record_every):
        inst = gen_planted(150, 30, 4)
        traj = run_chain(inst, init, policy, GammaParam(4),
                         5000, 4, record_every=record_every)
        ref = reference_run(inst, init, GammaParam(4),
                            gd_steps(policy.plateau_budget, 4), 5000, record_every)
        assert traj.stay_rows.size == 0
        assert_rows_match(traj, ref, inst.labels)

    @pytest.mark.parametrize("record_every", [1, 3, 7, 5000])
    @pytest.mark.parametrize("max_steps, hold", [
        (12000, 10000),  # held: the hold is one stay run
        (1200, 2000),    # max_steps ends inside the hold's stay run
        (5003, 0)])      # no hold: stays to max_steps, past a 5000 multiple
    def test_gibbs(self, record_every, max_steps, hold):
        inst = gen_planted(200, 30, 0)
        traj = run_chain(inst, "full", GibbsChain(HOT_200), GammaParam(4),
                         max_steps, 0, hold_window=hold,
                         record_every=record_every)
        ref = reference_gibbs_run(inst, "full", HOT_200, GammaParam(4),
                                  max_steps, 0, hold, record_every)
        assert traj.stay_counts.sum() > traj.move_t.size  # mostly stays
        assert_rows_match(traj, ref, inst.labels)

    @pytest.mark.parametrize("beta, record_every", [(0.0, 1), (0.0, 4), (1.5, 3)])
    def test_gibbs_with_many_short_runs(self, beta, record_every):
        inst = gen_planted(12, 4, 1)
        traj = run_chain(inst, "empty", GibbsChain(beta), GammaParam(2), 600, 1,
                         hold_window=0, record_every=record_every)
        ref = reference_gibbs_run(inst, "empty", beta, GammaParam(2), 600, 1,
                                  0, record_every)
        assert traj.stay_rows.size > 10
        assert_rows_match(traj, ref, inst.labels)

    @pytest.mark.parametrize("stop", [None, 10])
    def test_peel(self, stop):
        inst = gen_planted(120, 20, 2)
        traj, _ = run_peel(inst, stop, 2, gamma=GammaParam(4))
        ref = reference_run(inst, "full", GammaParam(4),
                            peel_steps(20, stop or 0, 2), 120,
                            stop_reason="stopped")
        assert_rows_match(traj, ref, inst.labels)

    @pytest.mark.parametrize("init", ["empty", "full"])
    def test_coupled_sides(self, init):
        budget, gamma = 1, GammaParam(4)
        res = run_coupled_gd(150, 30, gamma, budget, 20000, 5, init=init)
        g0, inst = gen_coupled(150, 30, 5)
        for traj, graph in ((res.planted, inst.graph), (res.unplanted, g0)):
            ref = reference_run(dataclasses.replace(inst, graph=graph), init,
                                gamma, gd_steps(budget, 5), 20000)
            assert_rows_match(traj, ref)


class TestCsvWriter:
    """``to_csv`` renders the steps of every stay run at once (``_step_lines``)
    and splices each run's suffix into its lines."""

    @given(start=st.one_of(
               st.integers(0, 10**15),
               st.builds(lambda p, d: max(10**p + d, 0), st.integers(0, 15), st.integers(-60, 60))),
           length=st.integers(-3, 400), step=st.integers(1, 12),
           n1=st.integers(0, 10**4), n2=st.integers(0, 10**4),
           energy=st.one_of(st.integers(-10**9, 10**9), st.integers(-2**300, 2**300)))
    @example(start=1950, length=19994, step=1, n1=60, n2=0, energy=-7080)  # a hold
    @example(start=0, length=0, step=1, n1=0, n2=0, energy=0)  # no steps
    @example(start=10**15 - 5, length=10, step=1, n1=1, n2=2, energy=-(2**80))
    def test_step_lines_match_a_join(self, start, length, step, n1, n2, energy):
        ts = range(start, start + length, step)
        suffix = f",{n1},{n2},{energy},stay,\n"
        text, ends = chains._step_lines(np.arange(ts.start, ts.stop, ts.step, dtype=np.int64))
        assert text.replace("\n", suffix) == "".join(f"{t}{suffix}" for t in ts)
        assert ends.tolist() == [0, *itertools.accumulate(len(f"{t}\n") for t in ts)]

    def test_to_csv_writes_the_csv_text_into_a_file(self, tmp_path):
        # seed 2 does not hold the clique: short stay runs up to max_steps. The
        # last run follows an unrecorded move at 1489 and holds the grid step
        # 1491, then the terminal 1492
        inst = gen_planted(120, 20, 2)
        traj = run_chain(inst, "full", GibbsChain(60.0), GammaParam(4), 1492, 2,
                         hold_window=1000, record_every=7)
        assert traj.stay_rows.size > 100 and traj.steps == 1492
        assert traj.move_t[traj.stay_rows[-1]] == 1489 and traj.stay_counts[-1] == 3
        path = tmp_path / "traj.csv"
        with open(path, "w") as out:
            traj.to_csv(out, inst.labels)
        text = path.read_text()
        assert text == traj.csv_text(inst.labels)
        assert text == RowTrajectory(list(zip(
            traj.t.tolist(), traj.n1.tolist(), traj.n2.tolist(), traj.scaled_energy,
            traj.kind.tolist(), traj.vertex.tolist())), {}).csv_text(inst.labels)
        assert [line.split(",")[::4] for line in text.splitlines()[-3:]] == [
            ["1484", "stay"], ["1491", "stay"], ["1492", "stay"]]


class TestGdRun:
    """``run_chain`` takes a descent's moves in one driver call; it must
    equal the one-step public ``gd_step`` applied step by step, on sizes
    whose key buffer is padded past n, and when max_steps cuts it short."""

    @pytest.mark.parametrize("n, k", [(1, 1), (7, 3), (9, 3), (301, 30)])
    @pytest.mark.parametrize("init", ["full", "empty", "explicit"])
    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_matches_gd_steps(self, n, k, init, budget):
        inst, seed = gen_planted(n, k, n + budget), n + budget
        if init == "explicit":
            init = tuple(sorted({0, n // 3, n // 2, n - 1}))
        gamma = GammaParam(4)
        whole = run_chain(inst, init, GradientDescent(budget), gamma, 10**5, seed)
        assert whole.absorbed
        for record_every in (1, 3, 7):
            for max_steps in sorted({1, max(1, whole.steps // 2), 10**5}):
                traj = run_chain(inst, init, GradientDescent(budget), gamma,
                                 max_steps, seed, record_every=record_every)
                ref = reference_run(inst, init, gamma, gd_steps(budget, seed),
                                    max_steps, record_every)
                assert_rows_match(traj, ref, inst.labels)
                assert traj.stay_rows.size == 0


def small_instance(rng, n, graph, seed):
    """A planted instance, a cycle in random order (every key ties at a full
    start) or G(n, q) for ``graph`` = q."""
    if graph == "planted":
        return gen_planted(n, int(rng.integers(1, n + 1)), seed)
    if graph == "cycle":
        order = rng.permutation(n).tolist()
        return graph_from_edges(n, set(zip(order, order[1:] + order[:1])) if n > 2 else ())
    return graph_from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < graph])


class TestCarriedLeastClass:
    """A descent takes most removals from the least-key class its state
    carries across moves; on small, tie-heavy instances it must take the
    moves of ``gd_step`` on a fresh state each step. At gamma 11/10 adds
    compete with removals, so the carried class often loses to the add bound
    and the full scan decides; a full start on a cycle has classes of more
    than ``SCALAR_FLIPS``, of which only the bound is carried."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 40),
           st.sampled_from([0.0, 0.1, 0.5, 0.9, "cycle", "planted"]),
           st.sampled_from([GammaParam(11, 10), GammaParam(2), GammaParam(4),
                            GammaParam(7, 2)]),
           st.integers(0, 3), st.sampled_from(["full", "empty", "random", "explicit"]),
           st.sampled_from([1, 3]), st.one_of(st.integers(1, 40), st.just(10**4)))
    # a class of 40 whose least key falls; an add-delta equal to the class's
    @example(0, 40, "cycle", GammaParam(11, 10), 0, "full", 1, 10**4)
    @example(7, 39, 0.5, GammaParam(2), 0, "random", 1, 10**4)
    def test_matches_gd_steps(self, seed, n, graph, gamma, budget, init,
                              record_every, max_steps):
        rng = np.random.default_rng(seed)
        inst = small_instance(rng, n, graph, seed)
        if init == "random":
            init = tuple(np.flatnonzero(rng.random(n) < rng.random()).tolist())
        elif init == "explicit":
            init = tuple(sorted({0, n // 3, n // 2, n - 1}))
        traj = run_chain(inst, init, GradientDescent(budget), gamma, max_steps,
                         seed, record_every=record_every)
        ref = reference_run(inst, init, gamma, gd_steps(budget, seed),
                            max_steps, record_every)
        assert_rows_match(traj, ref, getattr(inst, "labels", None))


def fresh_gibbs_steps(beta, seed):
    """``gibbs_step`` on a fresh copy of the state each step, so no least-key
    class (nor key bound) is ever carried; the move is then applied."""
    rng = stream_rng(seed, CHAIN_STREAM)

    def step(state):
        fresh = init_state(state.graph, state.member.copy(), state.gamma)
        move = gibbs_step(fresh, beta, rng)[0]
        if move.vertex is not None:
            apply_flip(state, move.vertex)
        return move
    return step


def cold_scale(n):
    """The least scale = beta / q_den at which a Gibbs step is cold."""
    return math.log(n + 1) + 54 * math.log(2)


class _StubDraw:
    """An rng whose every uniform draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestColdGibbsCarriedClass:
    """A cold ``gibbs_step`` picks among the unit weights only, and reads
    them off the least-key class its state carries across removals;
    ``run_chain`` must take the moves of steps that see a fresh state every
    time."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 40),
           st.sampled_from([0.0, 0.1, 0.5, 0.9, "cycle", "planted"]),
           st.sampled_from([GammaParam(11, 10), GammaParam(2), GammaParam(4),
                            GammaParam(7, 2)]),
           st.sampled_from([1e-9, 0.5, 5, 100, -0.5]),  # -0.5: just below cold
           st.sampled_from(["full", "empty", "random"]), st.sampled_from([1, 3]),
           st.integers(0, 12), st.integers(1, 300))
    # a full start on a cycle: a class of 40, never carried
    @example(0, 40, "cycle", GammaParam(4), 5, "full", 1, 3, 300)
    def test_matches_fresh_steps(self, seed, n, graph, gamma, offset, init,
                                 record_every, hold, max_steps):
        rng = np.random.default_rng(seed)
        inst = small_instance(rng, n, graph, seed)
        if init == "random":
            init = tuple(np.flatnonzero(rng.random(n) < rng.random()).tolist())
        beta = (cold_scale(n) + offset) * gamma.q_den
        traj = run_chain(inst, init, GibbsChain(beta), gamma, max_steps, seed,
                         hold_window=hold, record_every=record_every)
        ref = reference_run(inst, init, gamma, fresh_gibbs_steps(beta, seed),
                            max_steps, record_every, hold)
        assert_rows_match(traj, ref, getattr(inst, "labels", None))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 60), st.integers(0, 5))
    def test_peel_matches_fresh_scans(self, seed, n, stop):
        inst = gen_planted(n, int(np.random.default_rng(seed).integers(1, n + 1)), seed)
        traj, _ = run_peel(inst, stop, seed, gamma=GammaParam(4))
        ref = reference_run(inst, "full", GammaParam(4),
                            peel_steps(inst.k, stop, seed), n + 1, stop_reason="stopped")
        assert_rows_match(traj, ref, inst.labels)

    def test_cold_step_carries_the_class(self):
        inst, gam = gen_planted(300, 30, 1), GammaParam(4)
        state = init_state(inst.graph, range(300), gam)
        rng, carried = stream_rng(1, CHAIN_STREAM), 0
        for _ in range(200):
            gibbs_step(state, 10 * math.log(300), rng)
            if state.least is not None:
                carried += 1
                key = state.key
                assert state.least == np.flatnonzero(key == key.min()).tolist()
        assert carried > 50

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 30), st.sampled_from([0.1, 0.5, 0.9]),
           st.sampled_from([GammaParam(11, 10), GammaParam(2), GammaParam(4)]))
    @example(1, 5, 0.5, GammaParam(2))  # the least remove-delta ties an add-delta, -2
    def test_scans_read_a_carried_class(self, seed, n, q, gamma):
        rng = np.random.default_rng(seed)
        graph = graph_from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                     if rng.random() < q])
        members = rng.random(n) < rng.random()
        members[int(rng.integers(n))] = True
        state, plain = (init_state(graph, members.copy(), gamma) for _ in range(2))
        key = state.key
        least = np.flatnonzero(key == key.min()).tolist()
        if len(least) > 30:
            return
        state.lo_bound, state.least = int(key.min()), least
        extremes = state._extremes(math.inf)
        assert extremes == plain._extremes(math.inf)
        lo, d_lo, hi, d_hi = extremes
        for upto in {d_lo - 1, d_lo, min(d_lo, d_hi, 0), d_lo + 7, d_hi, math.inf}:
            got, want = (s.all_flip_deltas(upto, (lo, hi)) for s in (state, plain))
            assert type(got[0]) is type(want[0]) and type(got[1]) is type(want[1])
            assert np.array_equal(np.asarray(got[1]), np.asarray(want[1]))
            assert (got[0] is None) == (want[0] is None)
            assert got[0] is None or np.array_equal(got[0], want[0])
        assert state.best_flips()[0] == plain.best_flips()[0]

    @staticmethod
    def _full_support_pick(state, beta, r):
        """The vertex a draw r past the stay picks by the cumsum of every flip
        that may weigh above 0.0."""
        stay, total, at, flips, _ = chains._gibbs_support(state, beta)
        j = int((np.asarray(flips) / total).cumsum().searchsorted(r - stay / total, side="right"))
        return j if at is None else int(at[j])

    def test_draw_at_the_stay_takes_the_full_support(self):
        # all 20 vertices in U; keys 1 at vertices 0 and 19, 0 elsewhere. gamma 4:
        # removing 1..18 weighs 1.0, removing 0 or 19 exp(-5 scale) > 0.0, and the
        # stay exp(-76 scale) = 0.0. A draw of exactly 0.0 is not a stay and lands on
        # the first flip, vertex 0, not on the first unit, vertex 1.
        graph, gam, beta = graph_from_edges(20, [(0, 19)]), GammaParam(4), 100.0
        state = init_state(graph, range(20), gam)
        stay, _, at, flips, _ = chains._gibbs_support(state, beta)
        assert beta > cold_scale(20) and stay == 0.0 and at is None
        assert 0.0 < flips[0] < 2.0**-54 and flips[1] == 1.0
        assert self._full_support_pick(state, beta, 0.0) == 0
        assert gibbs_step(state, beta, _StubDraw(0.0))[0] == Move("remove", 0, -71)
        assert state.least is None
        # other draws past the stay pick among the units, as the full support does
        for r in (2.0**-50, 0.25, 0.5, 1 - 2.0**-53):
            state = init_state(graph, range(20), gam)
            x = self._full_support_pick(state, beta, r)
            assert 1 <= x <= 18
            assert gibbs_step(state, beta, _StubDraw(r))[0] == Move("remove", x, -76)


    @pytest.mark.parametrize("other", ["apply_flip", "gd_step", "replay"])
    def test_other_flips_keep_the_class_true(self, other):
        inst, gam, beta = gen_planted(200, 25, 3), GammaParam(4), 10 * math.log(200)
        state = init_state(inst.graph, range(200), gam)
        rng, steps = stream_rng(3, CHAIN_STREAM), 0
        while state.least is None or len(state.least) < 2:
            steps += gibbs_step(state, beta, rng)[0].vertex is not None
        if other == "apply_flip":  # a removal outside the class
            apply_flip(state, int(np.flatnonzero(state.member)[-1]))
        elif other == "gd_step":
            assert gd_step(state, rng)[0].kind == "remove"
        else:  # the same moves replayed: only replay's own flips
            traj = run_chain(inst, "full", GibbsChain(beta), gam, steps, 3)
            replayed = replay(inst, traj, gam)
            assert np.array_equal(replayed.key, state.key)
            state = replayed
        assert_carried_bounds(state)
        fresh = init_state(inst.graph, state.member.copy(), gam)
        for seed in range(20):  # moves as from a state that carries nothing
            a = gibbs_step(state, beta, stream_rng(seed, CHAIN_STREAM))[0]
            b = gibbs_step(fresh, beta, stream_rng(seed, CHAIN_STREAM))[0]
            assert a == b and np.array_equal(state.key, fresh.key)
            assert_carried_bounds(state)


def assert_carried_bounds(state):
    """``lo_bound`` and ``hi_bound`` bound the keys; ``least`` is every
    vertex at the least key, which is then ``lo_bound``."""
    key = state.key
    assert state.lo_bound is None or state.lo_bound <= key.min()
    assert state.hi_bound is None or state.hi_bound >= key.max()
    if state.least is not None:
        assert state.least == np.flatnonzero(key == key.min()).tolist()
        assert state.lo_bound == key.min() and len(state.least) <= SCALAR_FLIPS


class TestStateCarriesTheLeastClass:
    """``SubsetState`` is the one keeper of the least-key class: whatever
    flips it takes, from whichever caller, the class it carries is true."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 40),
           st.sampled_from([0.1, 0.5, 0.9, "cycle", "planted"]),
           st.sampled_from([GammaParam(11, 10), GammaParam(2), GammaParam(4)]),
           st.sampled_from(["full", "empty", "random"]),
           st.lists(st.tuples(st.sampled_from(["add", "remove", "remove", "gd", "cold",
                                               "warm", "peel", "replay", "query"]),
                              st.integers(0, 2**16)), max_size=60))
    # a full start on a cycle: a class of 40, of which only the bound is kept
    @example(0, 40, "cycle", GammaParam(4), "full", [("peel", 5)] * 3 + [("gd", 1)] * 3)
    def test_any_flip_sequence(self, seed, n, graph, gamma, init, ops):
        rng = np.random.default_rng(seed)
        inst = small_instance(rng, n, graph, seed)
        g = getattr(inst, "graph", inst)
        members = (range(n) if init == "full" else () if init == "empty"
                   else np.flatnonzero(rng.random(n) < 0.5))
        state = init_state(g, members, gamma)
        for op, v in ops:
            inside = np.flatnonzero(state.member)
            outside = np.flatnonzero(~state.member)
            draws = stream_rng(v, CHAIN_STREAM)
            if op == "add" and outside.size:
                apply_flip(state, int(outside[v % outside.size]))
            elif op == "remove" and inside.size:
                apply_flip(state, int(inside[v % inside.size]))
            elif op == "gd":
                gd_step(state, draws, 1)
            elif op in ("cold", "warm"):
                beta = (cold_scale(n) + 1) * gamma.q_den if op == "cold" else 0.5
                gibbs_step(state, beta, draws)
            elif op == "peel" and inside.size:
                degs = state.key[inside]
                x = _peel_step_u(state, v / 2**17).vertex
                assert x in inside[degs == degs.min()]
            elif op == "replay":
                traj = run_chain(g, tuple(inside.tolist()), GradientDescent(1), gamma,
                                 1 + v % 5, v)
                state = replay(g, traj, gamma)
            elif op == "query":
                fresh = init_state(g, state.member.copy(), gamma)
                got, want = state.best_flips(), fresh.best_flips()
                assert got[0] == want[0] and list(got[1]) == list(want[1])
                if inside.size:
                    assert list(state.least_class()) == list(fresh.least_class())
            assert np.array_equal(state.key, init_state(g, state.member.copy(), gamma).key)
            assert_carried_bounds(state)


class TestPeelIdentity:
    def test_gd_from_full_peels_until_an_add_competes(self):
        """With one seed, gd from the full set applies ``run_peel``'s
        removals up to its first step where a best add ties or beats the best
        removal: before it, both pick with one draw among the least-key class.
        That step is read off the replayed state, for each seed."""
        gamma = GammaParam(4)
        for seed in range(3):
            inst = gen_planted(200, 30, seed)
            gd = run_chain(inst, "full", GradientDescent(), gamma, 10**4, seed)
            peel, _ = run_peel(inst, None, seed, gamma=gamma)
            state = init_state(inst.graph, range(200), gamma)
            switch = 0
            while switch < gd.steps:
                _, d_lo, _, d_hi = state._extremes(math.inf)
                if d_hi <= d_lo:
                    break
                switch += 1
                apply_flip(state, int(gd.move_vertex[switch]))
            same = min(switch, peel.steps)
            assert same > 100
            assert gd.move_kind[1:same + 1].tolist() == ["remove"] * same
            assert np.array_equal(gd.move_vertex[:same + 1], peel.move_vertex[:same + 1])
            assert np.array_equal(gd.move_energy[:same + 1], peel.move_energy[:same + 1])


class TestRunChain:
    def test_pc_equals_v_absorbs_at_step_zero(self):
        inst = gen_planted(8, 8, 0)
        traj = run_chain(inst, "full", GradientDescent(), GammaParam(2), 10, 0)
        assert traj.absorbed and traj.steps == 0
        assert traj.reached_pc and traj.first_pc_step == 0

    @pytest.mark.parametrize("init, message", [
        ("half", "unknown init 'half'"), ((3, 30), "vertex out of range"),
        ((-1, 2), "vertex out of range")], ids=["string", "past-n", "negative"])
    def test_bad_init_is_rejected(self, init, message):
        # the init string is checked by the driver, its vertices by init_state
        inst = gen_planted(30, 5, 0)
        with pytest.raises(ValueError, match=message):
            run_chain(inst, init, GradientDescent(), GammaParam(4), 10, 0)

    def test_small_planted_success(self):
        ok = 0
        for seed in range(5):
            inst = gen_planted(200, 30, seed)
            traj = run_chain(inst, "full", GradientDescent(), GammaParam(4),
                             400, seed)
            ok += traj.reached_pc and traj.first_pc_step <= 200 + 60
        assert ok >= 4

    def test_gd_energy_strictly_decreases(self):
        inst = gen_planted(150, 25, 2)
        traj = run_chain(inst, "full", GradientDescent(), GammaParam(4), 400, 2)
        energies = traj.scaled_energy.tolist()
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert "stay" not in traj.kind[1:]

    def test_replay_matches_every_recorded_energy(self):
        inst = gen_planted(100, 20, 5)
        gam = GammaParam(4)
        traj = run_chain(inst, "full", GradientDescent(), gam, 300, 5)
        replay(inst, traj, gam)  # raises at the first row it disagrees with
        assert np.all(np.abs(np.diff(traj.n1 + traj.n2)) <= 1)

    def test_terminal_energy_matches_oracle(self):
        inst = gen_planted(100, 20, 5)
        gam = GammaParam(4)
        traj = run_chain(inst, "full", GradientDescent(), gam, 300, 5)
        members = terminal_members(traj, inst.n)
        assert traj.scaled_energy[-1] == \
            py_scaled_energy(inst.graph.to_dense(), members, gam)

    def test_energies_stay_exact_beyond_int64(self):
        # this gamma's q_den is 10**15, so the full set's scaled energy is
        # far above 2**63; an int64 column would wrap or raise
        inst = gen_planted(300, 20, 0)
        gam = GammaParam.from_value("3.000000000000001")
        traj = run_chain(inst, "full", GradientDescent(), gam, 1000, 0)
        rows = traj.csv_text().strip().split("\n")[1:]
        energies = [int(row.split(",")[3]) for row in rows]
        assert max(energies) > 2 ** 63
        assert energies == traj.scaled_energy.tolist()
        assert replay(inst, traj, gam).scaled_energy == energies[-1]

    def test_absorbed_terminal_state_is_absorbing(self):
        inst = gen_planted(120, 12, 7)
        gam = GammaParam(4)
        traj = run_chain(inst, "empty", GradientDescent(1),
                         gam, 2000, 7)
        assert traj.absorbed
        terminal = replay(inst, traj, gam)
        report = local_min_check(inst.graph, np.flatnonzero(terminal.member), gam)
        assert report.is_absorbing

    def test_explicit_init(self):
        inst = gen_planted(50, 10, 1)
        traj = run_chain(inst, range(10), GradientDescent(), GammaParam(3), 50, 1)
        assert traj.n1[0] == 10 and traj.n2[0] == 0
        assert traj.first_pc_step == 0
        # unsorted, repeated vertices: counted once, from the built state
        traj = run_chain(inst, (4, 3, 20, 3), GradientDescent(), GammaParam(3), 50, 1)
        assert (traj.n1[0], traj.n2[0], traj.init_spec) == (2, 1, (3, 4, 20))

    def test_max_steps_reported_not_raised(self):
        inst = gen_planted(100, 15, 3)
        traj = run_chain(inst, "full", GibbsChain(beta=0.0), GammaParam(2), 25, 3)
        assert traj.stop_reason == "max_steps" and traj.steps == 25

    def test_gibbs_reaches_and_holds_pc(self):
        inst = gen_planted(150, 30, 4)
        beta = 10 * math.log(150)
        traj = run_chain(inst, "full", GibbsChain(beta), GammaParam(4), 2000, 4,
                         hold_window=300)
        assert traj.stop_reason == "held"
        assert traj.reached_pc and traj.terminal_n1 == 30 and traj.terminal_n2 == 0
        assert traj.steps == traj.first_pc_step + 300

    def test_negative_hold_window_rejected(self):
        # a negative hold once ended the run as "held" after one step
        inst = gen_planted(40, 8, 0)
        with pytest.raises(ValueError, match="hold_window"):
            run_chain(inst, "full", GibbsChain(1.0), GammaParam(4), 100, 0,
                      hold_window=-1)

    def test_gibbs_stay_moves_recorded(self):
        inst = gen_planted(30, 6, 2)
        traj = run_chain(inst, "empty", GibbsChain(0.0), GammaParam(2), 60, 2)
        assert "stay" in traj.kind[1:]  # ~1/(n+1) of infinite-temperature moves

    def test_bare_graph_runs(self):
        g = gen_er(60, 11)
        traj = run_chain(g, "empty", GradientDescent(1),
                         GammaParam(4), 500, 11)
        assert traj.absorbed and not traj.reached_pc
        assert not traj.n1.any()

    def test_record_every_downsamples_but_keeps_terminal(self):
        inst = gen_planted(100, 20, 9)
        full = run_chain(inst, "full", GradientDescent(), GammaParam(4), 300, 9)
        thin = run_chain(inst, "full", GradientDescent(), GammaParam(4), 300, 9,
                         record_every=7)
        assert thin.t[:2].tolist() == [0, 7]
        assert thin.t[-1] == full.steps
        assert thin.steps == full.steps
        assert len(thin.t) < len(full.t)

    @pytest.mark.parametrize("record_every", [0, -3])
    def test_record_every_below_one_rejected(self, record_every):
        inst = gen_planted(40, 8, 0)
        with pytest.raises(ValueError, match="record_every"):
            run_chain(inst, "full", GradientDescent(), GammaParam(4), 100, 0,
                      record_every=record_every)

    def test_csv_format(self):
        inst = gen_planted(40, 8, 6)
        traj = run_chain(inst, "full", GradientDescent(), GammaParam(3), 100, 6)
        text = traj.csv_text(inst.labels)
        lines = text.strip().split("\n")
        assert lines[0] == TRAJECTORY_CSV_HEADER
        assert len(lines) == len(traj.t) + 1
        t, n1, n2, e, kind, vertex = lines[1].split(",")
        assert (t, kind, vertex) == ("0", "stay", "")
        # vertex column is in original labels
        assert lines[2].split(",")[5] == str(inst.labels[traj.vertex[1]])


class TestPeel:
    def test_path_graph_min_degree_tie(self):
        from plantedclique import PlantedInstance
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        inst = PlantedInstance(g, 1, np.arange(3))
        seen = set()
        for seed in range(30):
            traj, _ = run_peel(inst, stop=None, seed=seed)
            first = traj.vertex[1]
            assert first in (0, 2)  # degree-1 endpoints
            seen.add(first)
        assert seen == {0, 2}

    def test_peel_runs_to_stop_threshold(self):
        inst = gen_planted(200, 40, 3)
        traj, diag = run_peel(inst, stop=20, seed=3)
        assert traj.terminal_n2 <= 20
        assert diag.tau0 == traj.steps
        assert len(diag.counts) == diag.tau0 + 1

    def test_peel_diagnostics(self):
        inst = gen_planted(300, 60, 1)
        traj, diag = run_peel(inst, stop=30, seed=1, c1=3.0)
        assert diag.retained is not None and diag.retained <= set(range(60))
        assert set(diag.removal_times) >= set(range(60))
        assert all(t <= diag.tau0 for t in diag.removal_times.values())
        # most of the clique keeps its degree advantage at this scale
        assert len(diag.retained) >= 54

    def test_most_of_clique_retains_degree_margin(self):
        # Monte Carlo: with a few-sqrt(n) slack, at least 90% of the clique
        # keeps its degree above the expected excess until removal or stop
        good = 0
        for seed in range(5):
            inst = gen_planted(2000, 90, seed)
            _, diag = run_peel(inst, stop=80, seed=seed, c1=3.0)
            good += len(diag.retained) >= 0.9 * 90
        assert good >= 3

    def test_peel_replay_matches_every_recorded_energy(self):
        inst = gen_planted(120, 20, 4)
        gam = GammaParam(3)
        traj, _ = run_peel(inst, stop=15, seed=4, gamma=gam)
        replay(inst, traj, gam)  # raises at the first row it disagrees with

    def test_peel_terminal_energy_matches_oracle(self):
        inst = gen_planted(120, 20, 4)
        gam = GammaParam(3)
        traj, _ = run_peel(inst, stop=15, seed=4, gamma=gam)
        members = terminal_members(traj, inst.n)
        assert traj.scaled_energy[-1] == \
            py_scaled_energy(inst.graph.to_dense(), members, gam)

    def test_contaminated_counts_have_three_parts(self):
        from plantedclique import gen_contaminated
        inst = gen_contaminated(120, 20, 15, 0.7, 2)
        traj, diag = run_peel(inst, stop=10, seed=2, c1=2.0)
        assert len(diag.counts[0]) == 3
        assert diag.counts[0] == (20, 15, 85)

    def test_peel_matches_gd_removals_under_shared_seed(self):
        # while many non-clique vertices remain, gd's argmin removal set is
        # exactly the min-degree set, so a shared seed gives identical moves
        inst = gen_planted(300, 40, 5)
        gam = GammaParam(4)
        threshold = 60
        traj_gd = run_chain(inst, "full", GradientDescent(), gam, 600, 5)
        traj_peel, _ = run_peel(inst, stop=threshold, seed=5)
        # row i applies step i, taken while n2 was the previous row's
        steps = zip(traj_gd.n2[:-1], traj_gd.kind[1:], traj_gd.vertex[1:],
                    traj_peel.vertex[1:])
        for n2, kind, v_gd, v_peel in steps:
            if n2 <= threshold:
                break
            assert kind == "remove" and v_gd == v_peel


class TestResumedRun:
    """A run taken in several ``_ChainDriver.run`` calls, each resuming where
    the last stopped, ends as one call does: the coupled lockstep reference
    steps its chains this way."""

    @pytest.fixture(params=["every-step", "random"])
    def split(self, request, monkeypatch):
        """A call that turns every later ``_ChainDriver.run`` call into calls
        that stop at each step, or at random increments of 1 to 8, then at
        the call's own end; it returns the list of the cuts taken."""
        rng, calls, whole = np.random.default_rng(11), [], _ChainDriver.run

        def cuts():
            if request.param == "every-step":
                return itertools.count(1)
            return itertools.accumulate(iter(lambda: int(rng.integers(1, 9)), None))

        def run(self, chain, max_steps, hold=0):
            for cut in cuts():
                if cut >= max_steps:
                    break
                calls.append(cut)
                reason = whole(self, chain, cut, hold)
                if reason != "max_steps":
                    return reason
            return whole(self, chain, max_steps, hold)

        def start():
            monkeypatch.setattr(_ChainDriver, "run", run)
            return calls
        return start

    @staticmethod
    def assert_same_run(parts, whole):
        """The same CSV and summary, and the same run-length rows."""
        assert parts.csv_text() == whole.csv_text()
        assert parts.summary_dict() == whole.summary_dict()
        for name in ("move_t", "stay_rows", "stay_counts"):
            assert getattr(parts, name).tolist() == getattr(whole, name).tolist(), name

    @pytest.mark.parametrize("init", ["full", "empty"])
    @pytest.mark.parametrize("budget", [0, 3])
    @pytest.mark.parametrize("max_steps", [60, 20000])
    def test_gradient_descent(self, split, init, budget, max_steps):
        args = (gen_planted(150, 25, 2), init, GradientDescent(budget),
                GammaParam(4), max_steps, 2)
        whole = run_chain(*args)
        calls = split()
        parts = run_chain(*args)
        assert calls
        self.assert_same_run(parts, whole)

    @pytest.mark.parametrize("n, k, init, beta, max_steps, hold, seed", [
        (200, 30, "full", HOT_200, 4000, 2000, 0),  # cold: stays, then held
        (200, 30, "full", HOT_200, 1200, 2000, 0),  # max_steps inside the hold
        (100, 20, "empty", 3.0, 800, 40, 6),  # warm
        (80, 0, "empty", 2.0, 500, 800, 7)])  # warm, a bare graph
    @pytest.mark.parametrize("record_every", [1, 3])
    def test_gibbs(self, split, n, k, init, beta, max_steps, hold, seed, record_every):
        instance = gen_planted(n, k, seed) if k else gen_er(n, seed)
        args = (instance, init, GibbsChain(beta), GammaParam(4), max_steps, seed)
        kwargs = dict(hold_window=hold, record_every=record_every)
        whole = run_chain(*args, **kwargs)
        calls = split()
        parts = run_chain(*args, **kwargs)
        assert len(calls) > 10
        self.assert_same_run(parts, whole)

    @pytest.mark.parametrize("c1", [None, 2.0])
    def test_peel(self, split, c1):
        inst = gen_contaminated(120, 20, 20, 0.7, 3)
        whole, diag = run_peel(inst, stop=10, seed=3, c1=c1)
        calls = split()
        parts, parts_diag = run_peel(inst, stop=10, seed=3, c1=c1)
        assert len(calls) > 10
        self.assert_same_run(parts, whole)
        assert parts_diag == diag


class _SharedDraw:
    """Stands in for the generator: every chain made with it reads the
    draw last set in ``u``."""

    u = None

    def random(self):
        return self.u


class _LockstepDescent:
    """A driver and its persistent descent chain, taken one step per call."""

    def __init__(self, graph, k, init, gamma, plateau_budget, draw):
        self.driver = _ChainDriver(graph, k, init, gamma)
        moves = chains._descent(self.driver.state, draw, plateau_budget)
        next(moves)
        self.chain, self.reason = moves.send, "max_steps"

    def step(self, t):
        """Step t on the shared draw, as a Move read off the driver's row;
        None once absorbed."""
        if self.reason == "absorbed":
            return None
        energy = self.driver.state.scaled_energy
        self.reason = self.driver.run(self.chain, t)
        if self.reason == "absorbed":
            return None
        _, _, _, after, kind, x = self.driver.rows[-1]
        return Move(kind, x, after - energy)


def lockstep_coupled_gd(n, k, gamma, plateau_budget, max_steps, seed, init):
    """Reference for ``run_coupled_gd``: one loop steps both chains one move
    at a time, hands draw t of CHAIN_STREAM to step t of each and compares
    the moves."""
    g0, instance = gen_coupled(n, k, seed)
    rng, draw = stream_rng(seed, CHAIN_STREAM), _SharedDraw()
    a, b = (_LockstepDescent(g, k, init, gamma, plateau_budget, draw)
            for g in (instance.graph, g0))
    tau = 0 if a.driver.n1 > 0 else None
    first_div = None
    for t in range(1, max_steps + 1):
        if a.reason == b.reason == "absorbed":
            break
        draw.u = rng.random()
        move_a, move_b = a.step(t), b.step(t)
        if first_div is None and move_a != move_b:
            first_div = t
        if tau is None and a.driver.n1 > 0:
            tau = t
    traj_a, traj_b = a.driver.finish(a.reason), b.driver.finish(b.reason)
    before_tau_ok = first_div is None or tau is None or first_div >= tau
    through_ok = (first_div is None and a.reason == b.reason == "absorbed"
                  and np.array_equal(a.driver.state.member, b.driver.state.member))
    return CoupledResult(traj_a, traj_b, tau, first_div, before_tau_ok, through_ok)


class TestCoupled:
    def test_matches_the_lockstep_reference(self):
        seen = set()
        for (n, k), seed, budget, init, max_steps, gamma in itertools.product(
                ((16, 8), (60, 10), (150, 30)), range(3),
                (0, 1, 3),
                ("empty", "full"), (7, 20000),
                (GammaParam(2), GammaParam(4), GammaParam(7, 2))):
            args = (n, k, gamma, budget, max_steps, seed)
            res = run_coupled_gd(*args, init=init)
            ref = lockstep_coupled_gd(*args, init)
            for f in dataclasses.fields(CoupledResult):
                got, want = getattr(res, f.name), getattr(ref, f.name)
                if isinstance(want, Trajectory):
                    assert got.csv_text() == want.csv_text(), (f.name, args, init)
                    assert got.summary_dict() == want.summary_dict()
                    assert got.init_spec == want.init_spec
                else:
                    assert got == want, (f.name, args, init)
            a, b, t = res.planted, res.unplanted, res.first_divergence
            seen.add("none" if t is None
                     else "missing row" if t == min(a.t.size, b.t.size)
                     else "move" if (a.kind[t], a.vertex[t]) != (b.kind[t], b.vertex[t])
                     else "delta only")
        assert seen == {"none", "missing row", "move", "delta only"}

    def test_max_steps_zero_raises_before_drawing_a_row(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew a graph row")
        monkeypatch.setattr(graphs, "_packed_coins", refuse)
        monkeypatch.setattr(graphs._CoinRows, "build", refuse)
        for init in ("empty", "full"):
            with pytest.raises(ValueError, match="max_steps"):
                run_coupled_gd(60, 10, GammaParam(4), 1, 0, 0,
                               init=init)

    def test_k1_trajectories_identical(self):
        res = run_coupled_gd(40, 1, GammaParam(4), 1, 500, 3)
        assert res.first_divergence is None
        assert res.identical_before_tau and res.identical_through_absorption
        assert moves(res.planted) == moves(res.unplanted)

    def test_identical_before_tau(self):
        for seed in range(8):
            res = run_coupled_gd(150, 30, GammaParam(4), 1,
                                 2000, seed)
            assert res.identical_before_tau
            # the planted chain touches the clique when its twin first does
            assert res.tau == first_clique_add(res.unplanted, 30)

    def test_planted_side_is_the_empty_init_run(self):
        for seed in range(8):
            res = run_coupled_gd(150, 30, GammaParam(4), 1,
                                 2000, seed)
            alone = run_chain(gen_planted(150, 30, seed), "empty",
                              GradientDescent(1),
                              GammaParam(4), 2000, seed)
            assert res.planted.csv_text() == alone.csv_text()

    def test_miss_probability_hand_count(self):
        # 3-subsets of 10 vertices avoiding 4 given ones: C(6, 3) of C(10, 3)
        assert miss_probability(10, 3, 4) == Fraction(20, 120)
        assert miss_probability(10, 3, 8) == 0

    def test_tau_detection(self):
        # full init touches the clique immediately
        res = run_coupled_gd(30, 5, GammaParam(4), 0, 100, 1,
                             init="full")
        assert res.tau == 0


class TestCheckers:
    def test_removal_phase_and_hamming_reports(self):
        inst = gen_planted(400, 60, 8)
        gam = GammaParam(4)
        traj = run_chain(inst, "full", GradientDescent(), gam, 800, 8)
        assert traj.reached_pc
        rep = verify_removal_phase(inst, traj, gam, n2_threshold=80)
        assert rep.ok and rep.checked_steps > 100
        ham = verify_hamming_descent(traj, inst.k, gam, xi=0.2)
        assert ham.ok and ham.entered_step is not None

    def test_full_init_never_absorbs_in_large_n2_region(self):
        # the region with many non-clique survivors has no absorbing states,
        # so a full start can only stop after peeling it away
        threshold = 40 * math.log2(400)
        for seed in range(5):
            inst = gen_planted(400, 35, seed)
            traj = run_chain(inst, "full", GradientDescent(), GammaParam(4),
                             1000, seed)
            assert traj.absorbed
            assert traj.terminal_n2 <= threshold

    def test_replay_reproduces_terminal_state(self):
        inst = gen_planted(100, 18, 4)
        gam = GammaParam(4)
        traj = run_chain(inst, "full", GradientDescent(), gam, 300, 4)
        terminal = replay(inst, traj, gam)
        assert terminal.size == traj.terminal_size
        assert int(terminal.member[:18].sum()) == traj.terminal_n1


class TestDeltaCacheUse:
    """Chains read the cached flip deltas; none rebuilds them per step."""

    @staticmethod
    def _steps(step, n=130, init="full", count=60):
        inst = gen_planted(n, 20, 5)
        state = init_state(inst.graph, np.full(n, init == "full"), GammaParam(7, 2))
        for _ in range(count):
            energy = state.scaled_energy
            move = step(state)
            if move.kind == "stay":
                assert move.scaled_delta == 0 and state.scaled_energy == energy
                continue
            assert move.scaled_delta == state.scaled_energy - energy
            yield move

    def test_gd_move_delta_is_the_energy_change(self):
        rng = stream_rng(1, 2)
        budget = 5
        kinds = {m.kind for m in self._steps(
            lambda st: gd_step(st, rng, budget)[0], init="empty")}
        assert "add" in kinds

    @pytest.mark.parametrize("max_stays", [1, 50])
    def test_gibbs_move_delta_is_the_energy_change(self, max_stays):
        rng = stream_rng(2, 2) if max_stays == 1 else _Uniforms(stream_rng(2, 2))
        kinds = {m.kind for m in self._steps(
            lambda st: gibbs_step(st, 0.3, rng, max_stays=max_stays)[0],
            init="empty", count=200)}
        assert kinds == {"add", "remove"}

    def test_peel_move_delta_is_the_energy_change(self):
        rng = stream_rng(3, 2)
        moved = list(self._steps(lambda st: _peel_step_u(st, rng.random())))
        assert len(moved) == 60 and all(m.kind == "remove" for m in moved)

    def test_gd_run_builds_degrees_once(self, monkeypatch):
        degree_builds, keys, states, carried = [], [], [], []
        real_deg_into = Graph.deg_into
        real_best = SubsetState.best_flips
        monkeypatch.setattr(Graph, "deg_into", lambda self, member: (
            degree_builds.append(1) or real_deg_into(self, member)))
        monkeypatch.setattr(SubsetState, "best_flips", lambda self: (
            keys.append((self.key, self.key.copy())) or states.append(self)
            or carried.append(self.least is not None) or real_best(self)))
        monkeypatch.setattr(SubsetState, "all_flip_deltas", lambda self: (
            pytest.fail("a gd step read every delta")))
        inst = gen_planted(400, 50, 2)
        traj = run_chain(inst, "full", GradientDescent(), GammaParam(4), 10**4, 2)
        assert traj.absorbed and traj.steps > 300
        assert len(degree_builds) == 1  # init_state's
        # about half the moves read the carried least-key class, with no pass
        assert 3 * sum(carried) > traj.steps
        # one key array, updated in place: every scan saw new values in it
        assert all(k is keys[0][0] for k, _ in keys)
        assert all(s is states[0] for s in states)
        assert all(not np.array_equal(a, b)
                   for (_, a), (_, b) in zip(keys, keys[1:]))
        monkeypatch.undo()
        fresh = init_state(inst.graph, states[0].member.copy(), GammaParam(4))
        assert np.array_equal(keys[0][0], fresh.key)

    def test_checkers_never_derive_every_degree(self, monkeypatch):
        inst = gen_planted(300, 50, 6)
        gam = GammaParam(4)
        traj = run_chain(inst, "full", GradientDescent(), gam, 10**4, 6)
        builds, real_deg_into = [], Graph.deg_into
        monkeypatch.setattr(Graph, "deg_into", lambda self, member: (
            builds.append(1) or real_deg_into(self, member)))
        rep = verify_removal_phase(inst, traj, gam, n2_threshold=60)
        assert rep.ok and rep.checked_steps > 100
        _, diag = run_peel(inst, stop=30, seed=6, c1=3.0)
        assert len(diag.retained) >= 45
        assert len(builds) == 2  # each init_state's, then the keys
