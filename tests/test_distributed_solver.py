import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from lapflow.graph_core import StandardSplitting, WeightedGraph, generate, ground, laplacian
from lapflow import distributed_solver, netsim, newton_flow
from lapflow.newton_flow import OptimizeConfig, dual_hessian, dual_state, make_flow_problem, optimize
from lapflow.netsim import Simulator, ViolationError
from lapflow.reference_solver import direct_solve, richardson_iterates, richardson_iterations
from lapflow.spectral import EPS_D, chain_length, estimate_condition, estimated_chain
from lapflow.distributed_solver import (
    FullCommEngine,
    RHopEngine,
    edist_rsolve,
    support_graph,
)
from conftest import full_engine, grounded_random, mnorm_rel_error, rhop_engine, wide_ratio_system
from oracles import (
    cheapest_ladders,
    dense,
    dense_chain_z,
    floyd_warshall_hops,
    pernode_full_rsolve,
    pernode_rhop_rsolve,
    sandwich_exponent,
)


def grounded_path(n, ref=0):
    return ground(laplacian(generate("path", {"n": n})), ref)


def grounded_grid(rows, cols):
    return ground(laplacian(generate("grid", {"rows": rows, "cols": cols})), 0)


def grounded_barbell(clique, path_len):
    return ground(laplacian(generate("barbell", {"clique": clique, "path_len": path_len})), 0)


def chain_d(s, safety=1.05):
    kappa = estimate_condition(s) * safety
    return chain_length(max(kappa, 1.0))


def dense_esolve(s, d, b, eps):
    """Richardson refinement of the dense chain operator dense_chain_z(s, d)."""
    Z, M = dense_chain_z(s, d), dense(s)
    *_, y = richardson_iterates(lambda v: Z @ v, lambda y: M @ y, b, eps)
    return y


def closed_form_rounds(d, q, R):
    """Rounds of one R-hop eps-solve: (q+1) crude solves, q M-applies, setup.

    (q+1) * 2 * sum_{i<d} c(2^i) + q + 1 + 2(R-1), with c(e) = e when e < R
    and e/R otherwise.
    """
    crude = 2 * sum(2 ** i if 2 ** i < R else 2 ** i // R for i in range(d))
    return (q + 1) * crude + q + 1 + 2 * (R - 1)


class TestSupportGraph:
    def test_edges_follow_offdiagonal_pattern(self):
        s = grounded_random(10, 18, seed=2, w_min=0.5, w_max=2.0)
        g = support_graph(s)
        assert g.n == s.n
        A = s.A.toarray()
        for (i, j, w) in g.edges:
            assert A[i, j] == w
        assert 2 * g.m == np.count_nonzero(A)


class TestEngineConstruction:
    def test_accepts_chainspec(self):
        s = grounded_path(5)
        spec = chain_length(20.0)
        eng = full_engine(s, spec)
        assert eng.d == spec.d

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            full_engine(grounded_path(5), -1)

    @pytest.mark.parametrize("d", [2.5, 2.7, math.nan, math.inf])
    def test_rejects_non_integral_d(self, d):
        # one rule for both engines: never truncated to 2
        s = grounded_path(5)
        for build in (lambda: rhop_engine(s, d, 1), lambda: full_engine(s, d)):
            with pytest.raises(ValueError, match="^chain length must be an integer >= 0, got %s$" % d):
                build()
        assert rhop_engine(s, 2.0, 1).d == full_engine(s, 2.0).d == 2

    def test_runs_on_the_simulator_it_is_given(self):
        s = grounded_path(6)
        sim = Simulator(support_graph(s), 2)
        eng = RHopEngine(s, 2, sim)
        assert eng.sim is sim and eng.transcript is sim.transcript and eng.R == 2
        assert FullCommEngine(s, 2, sim.fresh()).transcript.runs[0] == sim.transcript.runs[0]

    def test_rejects_a_network_that_is_not_the_support(self):
        s = grounded_path(6)
        edges = support_graph(s).edges
        # an extra edge would be charged in every round without a check
        wider = Simulator(WeightedGraph(s.n, edges + [(0, 2, 1.0)]), 2)
        with pytest.raises(ValueError, match="edges that the splitting does not"):
            RHopEngine(s, 2, wider)
        # a missing one is an entry between nodes no path joins
        with pytest.raises(ViolationError, match="reaches hop inf beyond radius 1"):
            FullCommEngine(s, 2, Simulator(WeightedGraph(s.n, edges[1:])))

    def test_rejects_a_bad_right_hand_side(self):
        # refused before any solve round: a NaN would run every round into a
        # NaN x, and the d = 0 chain would broadcast a length-1 b to every node
        s = ground(laplacian(generate("grid", {"rows": 4, "cols": 4})), 0)
        b = np.ones(s.n)
        b[5] = math.nan
        with pytest.raises(ValueError, match="b has a non-finite entry"):
            edist_rsolve(s, b, estimated_chain(s), 1, 1e-2)
        eng = full_engine(s, 0)
        setup = eng.transcript.rounds
        with pytest.raises(ValueError, match="b has wrong length"):
            eng.rsolve([1.0])
        assert eng.transcript.rounds == setup

    def test_rhop_requires_power_of_two(self):
        s = grounded_path(5)
        # a fractional R is rejected, not truncated to a power of two
        for bad in (3, 6, 12, 1.5, 2.9, math.nan, math.inf):
            with pytest.raises(ValueError):
                rhop_engine(s, 2, bad)
        for ok in (1, 2, 4, 8, 2.0):
            assert rhop_engine(s, 2, ok).R == ok

    def test_large_system_stays_sparse(self):
        s = grounded_random(250, 500, seed=0)
        eng = full_engine(s, 3)
        assert sparse.issparse(eng._op_P1.matrix)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(s.n)
        want = dense_chain_z(s, 3) @ b
        got = eng.rsolve(b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_nearly_dense_rhop_powers_are_promoted(self):
        # the 1-hop operators stay CSR, while the radius-4 power holds 95%
        # of all entries and is stored dense
        s = ground(laplacian(generate("random", {"n": 220, "m": 660}, seed=0)), 0)
        b = np.random.default_rng(0).standard_normal(s.n)
        x, eng = edist_rsolve(s, b, estimated_chain(s), 4, 1e-2)
        assert sparse.issparse(eng._op_P1.matrix) and sparse.issparse(eng._op_M.matrix)
        assert isinstance(eng._op_C0.matrix, np.ndarray)
        assert mnorm_rel_error(s, x, direct_solve(s, b)) <= 1e-2
        tr = eng.transcript
        assert (tr.rounds, tr.messages_total, tr.max_hop_used) == (5151, 740047716, 4)


class TestEquivalence:
    def test_diagonal_system(self):
        s = StandardSplitting([2.0, 4.0, 8.0], np.zeros((3, 3)))
        x = full_engine(s, 2).rsolve([2.0, 4.0, 8.0])
        assert np.allclose(x, [1.0, 1.0, 1.0])

    def test_three_implementations_agree(self, rng):
        for seed, (n, m) in [(0, (10, 18)), (1, (16, 34)), (2, (24, 60))]:
            s = grounded_random(n, m, seed=seed, w_min=1.0, w_max=5.0)
            d = chain_d(s)
            b = rng.standard_normal(s.n)
            x_ref = dense_chain_z(s, d.d) @ b
            x_full = full_engine(s, d).rsolve(b)
            scale = np.linalg.norm(x_ref)
            assert np.linalg.norm(x_full - x_ref) <= 1e-9 * scale
            for R in (1, 2, 4):
                eng = rhop_engine(s, d, R)
                x_r = eng.rsolve(b)
                assert np.linalg.norm(x_r - x_ref) <= 1e-9 * scale
                assert eng.transcript.max_hop_used <= R

    def test_esolve_matches_reference(self, rng):
        s = grounded_random(14, 30, seed=5)
        d = chain_d(s)
        b = rng.standard_normal(s.n)
        for eps in (0.5, 1e-2):
            want = dense_esolve(s, d.d, b, eps)
            got = full_engine(s, d).esolve(b, eps)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            got_r, eng = edist_rsolve(s, b, d, 2, eps)
            assert np.linalg.norm(got_r - want) <= 1e-8 * np.linalg.norm(want)
            assert eng.transcript.max_hop_used <= 2

    def test_esolve_meets_eps_target(self, rng):
        s = grounded_random(20, 50, seed=8, w_min=1.0, w_max=10.0)
        d = chain_d(s)
        b = rng.standard_normal(s.n)
        xstar = direct_solve(s, b)
        for R, eps in ((1, 0.5), (2, 1e-2), (4, 1e-4)):
            xt, _ = edist_rsolve(s, b, d, R, eps)
            assert mnorm_rel_error(s, xt, xstar) <= eps

    def test_wide_radius_reduces_to_full_comm(self, rng):
        s = grounded_random(12, 24, seed=11)
        d = 3
        b = rng.standard_normal(s.n)
        x_full = full_engine(s, d).rsolve(b)
        x_r = rhop_engine(s, d, 8).rsolve(b)  # R >= 2^{d-1}
        assert np.linalg.norm(x_r - x_full) <= 1e-12 * np.linalg.norm(x_full)


# The R-hop engine is left out: kappa reaches 6.2e5 here (k = 3), so d = 22
# and R = 1 would need about 2^22 rounds per crude solve.
@pytest.mark.parametrize("k", range(6))
class TestWeightRatio:
    def test_crude_operators_sandwich_and_agree(self, k):
        s = wide_ratio_system(k)
        d = chain_d(s)
        eng = full_engine(s, d)
        z_ref = dense_chain_z(s, d.d)
        z_full = np.column_stack([eng.rsolve(e) for e in np.eye(s.n)])
        assert sandwich_exponent(z_ref, dense(s)) <= EPS_D
        assert sandwich_exponent(z_full, dense(s)) <= EPS_D
        assert np.linalg.norm(z_full - z_ref) <= 1e-9 * np.linalg.norm(z_ref)

    def test_esolves_meet_eps(self, k):
        s = wide_ratio_system(k)
        d = chain_d(s)
        b = np.random.default_rng(k).standard_normal(s.n)
        xstar = direct_solve(s, b)
        x_ref = dense_esolve(s, d.d, b, 1e-4)
        x_full = full_engine(s, d).esolve(b, 1e-4)
        assert mnorm_rel_error(s, x_ref, xstar) <= 1e-4
        assert mnorm_rel_error(s, x_full, xstar) <= 1e-4


class TestPerNodeExecution:
    def test_full_comm_values_and_messages(self, rng):
        for seed, (n, m) in [(0, (8, 12)), (1, (12, 20))]:
            s = grounded_random(n, m, seed=seed, w_min=0.5, w_max=2.0)
            d = 4
            b = rng.standard_normal(s.n)
            eng = full_engine(s, d)
            setup = eng.transcript.messages_total
            x_eng = eng.rsolve(b)
            delta = eng.transcript.messages_total - setup
            x_ref, msgs = pernode_full_rsolve(s, b, d)
            assert np.linalg.norm(x_eng - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
            assert delta == msgs

    def test_rhop_values_messages_and_hops(self, rng):
        s = grounded_path(8)
        d = 4
        b = rng.standard_normal(s.n)
        for R in (1, 2, 4):
            eng = rhop_engine(s, d, R)
            setup = eng.transcript.messages_total
            x_eng = eng.rsolve(b)
            delta = eng.transcript.messages_total - setup
            x_ref, msgs, hop = pernode_rhop_rsolve(s, b, d, R)
            assert np.linalg.norm(x_eng - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
            assert delta == msgs
            assert hop <= R
            assert eng.transcript.max_hop_used <= R


def as_dense(mat):
    return mat.toarray() if sparse.issparse(mat) else mat


class TestRowRoutines:
    """The cached radius-R row of P^R, and Q^R = D^{-1} P^R D read off it."""

    def test_radius_one_rows_are_walk_matrices(self):
        s = grounded_random(9, 16, seed=4, w_min=0.5, w_max=3.0)
        P = s.A.toarray() / s.D[None, :]
        Q = s.A.toarray() / s.D[:, None]
        eng = rhop_engine(s, 0, 1)
        rows0 = as_dense(eng._op_C0.matrix)
        assert np.allclose(rows0, P, atol=1e-15)
        assert np.allclose(rows0 * s.D[None, :] / s.D[:, None], Q, atol=1e-15)

    def test_path4_squared_rows(self):
        s = ground(laplacian(generate("path", {"n": 5})), 4)  # path on 4 nodes
        P = s.A.toarray() / s.D[None, :]
        Q = s.A.toarray() / s.D[:, None]
        eng = rhop_engine(s, 0, 2)
        rows0 = as_dense(eng._op_C0.matrix)
        assert np.abs(rows0 - P @ P).max() <= 1e-12
        assert np.abs(rows0 * s.D[None, :] / s.D[:, None] - Q @ Q).max() <= 1e-12
        # support stays inside the 2-hop neighborhoods
        hops = floyd_warshall_hops(support_graph(s))
        assert not ((rows0 != 0) & (hops > 2)).any()
        assert eng.transcript.max_hop_used <= 2

    @pytest.mark.parametrize("R", [2, 4, 8])
    def test_scaled_power_is_q_power(self, R):
        # D^{-1} C0 D against Q^R from dense algebra, at weight ratio 1e6
        s = wide_ratio_system(2)
        Q = s.A.toarray() / s.D[:, None]
        eng = rhop_engine(s, 0, R)
        c0 = as_dense(eng._op_C0.matrix)
        want = np.linalg.matrix_power(Q, R)
        got = c0 * s.D[None, :] / s.D[:, None]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert ((got != 0) == (want != 0)).all()

    @pytest.mark.parametrize("ratio", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("R", [2, 4, 8])
    def test_setup_charges_match_row_supports(self, R, ratio):
        # one diagonal exchange, then the R-1 row-extension rounds of each of
        # the P and Q routines: in round k node v sends its row of P^k (or
        # Q^k) to each neighbor, so a round costs sum_v deg(v) nnz_v
        s = wide_ratio_system(3, ratio)
        A = s.A.toarray()
        P, Q = A / s.D[None, :], A / s.D[:, None]
        deg = (floyd_warshall_hops(support_graph(s)) == 1).sum(axis=0)
        want = [(int(deg.sum()), 1, 1)]
        for walk in (P, Q):
            for k in range(1, R):
                nnz = np.count_nonzero(np.linalg.matrix_power(walk, k), axis=1)
                want.append((int(deg @ nnz), 1, 1))
        eng = rhop_engine(s, 3, R)
        assert eng.transcript.runs == want


class TestOperatorStorage:
    """certify alone decides dense or CSR storage of the engine operators."""

    def test_sparse_system_keeps_csr_clique_is_dense(self):
        path = grounded_path(20)
        clique = ground(laplacian(WeightedGraph(10, [(i, j, 1.0) for i in range(10)
                                                   for j in range(i + 1, 10)])), 0)
        for eng in (rhop_engine(path, 2, 1), full_engine(path, 2)):
            for op in (eng._op_P1, eng._op_M):
                assert sparse.issparse(op.matrix) and op.matrix.format == "csr"
        rhop = rhop_engine(clique, 2, 2)
        full = full_engine(clique, 2)
        for op in (rhop._op_P1, rhop._op_M, rhop._op_C0, *(op for op, _ in full._levels)):
            assert isinstance(op.matrix, np.ndarray)


class TestLevelTable:
    """Each engine's one level table: level i runs P^{2^i} as one batch of rounds."""

    def check_level(self, eng, i, op, count):
        # op^count is P^{2^i}, and _apply_p charges `count` rounds at op's radius
        walk, power = (m.toarray() if sparse.issparse(m) else m for m in (eng._op_P1.matrix, op.matrix))
        want = np.linalg.matrix_power(walk, 2 ** i)
        assert np.allclose(np.linalg.matrix_power(power, count), want, rtol=1e-12, atol=1e-15)
        v = np.random.default_rng(i).standard_normal(eng.sim.n)
        runs, rounds = len(eng.transcript.runs), eng.transcript.rounds
        assert np.allclose(eng._apply_p(i, v), want @ v, rtol=1e-12, atol=1e-14)
        assert eng.transcript.rounds - rounds == count
        assert [run[2] for run in eng.transcript.runs[runs:]] == [count]

    def test_full_comm_level_is_one_round_at_radius_two_to_the_i(self):
        s = grounded_random(12, 24, seed=4)
        eng = full_engine(s, 5)
        assert len(eng._levels) == 5
        for i, (op, count) in enumerate(eng._levels):
            assert count == 1 and op.radius == 2 ** i
            self.check_level(eng, i, op, count)

    @pytest.mark.parametrize("R", [1, 2, 4, 8])
    def test_rhop_level_is_one_hop_below_r_and_radius_r_from_r(self, R):
        s = grounded_path(30)
        eng = rhop_engine(s, 6, R)
        assert len(eng._levels) == 6
        for i, (op, count) in enumerate(eng._levels):
            if 2 ** i < R:
                assert op is eng._op_P1 and count == 2 ** i
            else:
                assert op is eng._op_C0 and count == 2 ** i // R
            self.check_level(eng, i, op, count)

    @pytest.mark.parametrize("R, d", [(1, 7), (4, 7), (8, 5)])
    def test_plan_strides_exactly_the_radius_r_batches(self, R, d, monkeypatch):
        # esolve at 1e-4 runs q + 1 crude solves, a forward and a backward
        # pass each; a bare rsolve runs one. stride is asked once, for the
        # table's radius-R levels only (at R = 8, d = 5 the one-hop level
        # of 4 rounds is not among them), on the operator those levels run.
        s = grounded_path(40)
        q = richardson_iterations(1e-4)
        calls = []
        real = Simulator.stride

        def spy(sim, op, batches):
            calls.append((op, dict(batches)))
            return real(sim, op, batches)

        monkeypatch.setattr(Simulator, "stride", spy)
        b = np.ones(s.n)
        for solve, passes in (("esolve", 2 * (q + 1)), ("rsolve", 2)):
            eng = rhop_engine(s, d, R)
            eng.esolve(b, 1e-4) if solve == "esolve" else eng.rsolve(b)
            eng.rsolve(b)
            want = {2 ** i // R: passes for i in range(d) if 2 ** i >= R}
            assert calls == [(eng._op_C0, want)], solve
            del calls[:]
        full_engine(s, d).esolve(b, 1e-4)
        assert calls == []


class TestMessageAccounting:
    def test_messages_affine_in_iteration_count(self, rng):
        s = grounded_random(12, 24, seed=6)
        d = chain_d(s)
        b = rng.standard_normal(s.n)
        totals = {}
        for eps in (0.5, 0.1, 1e-2):
            q = richardson_iterations(eps)
            _, eng = edist_rsolve(s, b, d, 2, eps)
            totals[q] = eng.transcript.messages_total
        assert set(totals) == {1, 2, 4}
        slope = totals[2] - totals[1]
        assert totals[4] - totals[2] == 2 * slope
        assert slope > 0

    def test_marks_snapshot_each_iteration(self, rng):
        s = grounded_random(10, 20, seed=7)
        b = rng.standard_normal(s.n)
        eng = rhop_engine(s, 3, 1)
        msgs = [eng.transcript.messages_total
                for _ in richardson_iterates(eng.rsolve, eng.apply_M, b, 1e-2)]
        q = richardson_iterations(1e-2)
        # the crude solve, then q iterates
        assert len(msgs) == q + 1
        assert all(b2 > a2 for a2, b2 in zip(msgs, msgs[1:]))
        # equal per-iteration cost: the same rounds repeat every iteration
        gaps = {b2 - a2 for a2, b2 in zip(msgs, msgs[1:])}
        assert len(gaps) == 1

    @pytest.mark.parametrize(
        "s", [grounded_path(8), grounded_random(10, 20, seed=7)], ids=["path8", "random10"]
    )
    def test_esolve_round_schedule(self, s, rng):
        b = rng.standard_normal(s.n)
        d = chain_d(s).d
        eps = 1e-2
        q = richardson_iterations(eps)
        assert d >= 1
        for R in (1, 2, 4):
            _, eng = edist_rsolve(s, b, d, R, eps)
            assert eng.transcript.rounds == closed_form_rounds(d, q, R)
        eng = full_engine(s, d)
        eng.esolve(b, eps)
        assert eng.transcript.rounds == d + (q + 1) * 2 * d + q

    @pytest.mark.parametrize("R, rounds, messages, max_hop", [
        (1, 315, 13860, 1),
        (2, 167, 26136, 2),
        (4, 111, 35932, 4),
        (None, 59, 26590, 6),
    ], ids=["R1", "R2", "R4", "full"])
    def test_esolve_totals_pinned(self, R, rounds, messages, max_hop):
        # absolute simulated cost of whole eps-solves on the 4x4 grid
        s = ground(laplacian(generate("grid", {"rows": 4, "cols": 4})), 0)
        b = np.random.default_rng(0).standard_normal(s.n)
        if R is None:
            eng = full_engine(s, 5)
            eng.esolve(b, 1e-2)
        else:
            _, eng = edist_rsolve(s, b, 5, R, 1e-2)
        tr = eng.transcript
        assert (tr.rounds, tr.messages_total, tr.max_hop_used) == (rounds, messages, max_hop)

    @pytest.mark.parametrize("system, R", [
        (system, R) for system in ("grid", "cut_path") for R in (1, 2, 4, 8, None)
    ], ids=[prefix + R for prefix in ("", "cut_path-") for R in ("R1", "R2", "R4", "R8", "full")])
    def test_solve_runs_one_per_chain_level(self, system, R):
        # the solve phase of an eps-solve on the 4x4 grid, and on the path 9
        # grounded at node 4, whose support falls apart in two, run for run:
        # each chain level is one batch of identical rounds, never split up.
        # On the split support R = 8 and full communication pass reach.
        if system == "grid":
            s = ground(laplacian(generate("grid", {"rows": 4, "cols": 4})), 0)
        else:
            s = grounded_path(9, 4)
        b = np.random.default_rng(0).standard_normal(s.n)
        d, eps = 5, 1e-2
        hops = floyd_warshall_hops(support_graph(s))

        def run(radius, count):
            # every node gathers from radius hops, a value h hops away costs h
            within = (hops > 0) & (hops <= radius)
            return (int(hops[within].sum()), int(hops[within].max()), count)

        if R is None:
            eng, setup = full_engine(s, d), 1 + (d - 1)
            eng.esolve(b, eps)
            levels = [run(2 ** i, 1) for i in range(d)]
        else:
            _, eng = edist_rsolve(s, b, d, R, eps)
            setup = 1 + 2 * (R - 1)
            levels = [run(1, 2 ** i) if 2 ** i < R else run(R, 2 ** i // R) for i in range(d)]
        crude = levels + levels[::-1]  # forward pass, then backward
        # chi = crude solve, then q times an M round and a crude solve
        want = crude + ([run(1, 1)] + crude) * richardson_iterations(eps)
        assert eng.transcript.runs[setup:] == want

    @pytest.mark.parametrize("R", [1, 2])
    def test_batched_kernel_solve_bit_identical(self, R, monkeypatch):
        # certify keeps the grid's operators CSR, so the crude solve's batches
        # run the CSR kernel; the plain `matrix @ x` loop is the single-round
        # arithmetic
        s = ground(laplacian(generate("grid", {"rows": 15, "cols": 15})), 0)
        b = np.random.default_rng(3).standard_normal(s.n)
        fast, fast_eng = edist_rsolve(s, b, 6, R, 1e-2)
        assert sparse.issparse(fast_eng._op_P1.matrix) and sparse.issparse(fast_eng._op_C0.matrix)
        monkeypatch.setattr(netsim, "_csr_matvec", None)
        slow, slow_eng = edist_rsolve(s, b, 6, R, 1e-2)
        assert fast.tobytes() == slow.tobytes()
        assert fast_eng.transcript.runs == slow_eng.transcript.runs

    def test_strict_violation_surfaces(self):
        s = grounded_path(6)
        eng = rhop_engine(s, 2, 1)
        P = eng._op_P1.matrix
        with pytest.raises(ViolationError):
            eng.sim.account_round(2)
        with pytest.raises(ViolationError):
            eng.sim.certify(P @ P, 2)


def first_random_hessian():
    """The grounded first Newton Hessian of the exp-cost flow on random 300/900."""
    p = make_flow_problem(generate("random", {"n": 300, "m": 900}, seed=0))
    return ground(dual_hessian(dual_state(np.zeros(p.n), p), p), 0)


def complete_bipartite(k):
    """K_{k,k} with D = k + 1; at R = 2 its ball holds every pair, P^2 half of them."""
    g = WeightedGraph(2 * k, [(i, j, 1.0) for i in range(k) for j in range(k, 2 * k)])
    return StandardSplitting(np.full(2 * k, k + 1.0), laplacian(g).A)


def sparse_row_power(one_hop, R):
    """(P^R, per-round row supports) by R-1 sparse-sparse products one_hop @ c."""
    c, payloads = one_hop, []
    for _ in range(1, R):
        payloads.append(np.diff(c.indptr))
        c = one_hop @ c
    return c, payloads


class TestRowExtension:
    """Dense row extension once the radius-R ball is dense, with the sparse products' bits."""

    CASES = {
        "random_hessian_r4": (first_random_hessian, 4, [True], np.ndarray),
        "bipartite_r2": (lambda: complete_bipartite(10), 2, [True, False], sparse.csr_matrix),
        "grid_r2": (lambda: grounded_grid(20, 20), 2, [False], sparse.csr_matrix),
        "grid_r4": (lambda: grounded_grid(20, 20), 4, [False], sparse.csr_matrix),
        "barbell_r8": (lambda: grounded_barbell(10, 10), 8, [False], sparse.csr_matrix),
        # R = 8 is past the reach of this barbell: its ball holds every pair
        "small_barbell_r8": (lambda: grounded_barbell(6, 3), 8, [True], np.ndarray),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_operator_and_transcript_match_sparse_products(self, case, monkeypatch):
        build, R, gates, stored = self.CASES[case]
        s = build()
        calls = []
        real = distributed_solver._row_extension

        def spy(one_hop, radius, dense):
            calls.append(dense)
            return real(one_hop, radius, dense)

        monkeypatch.setattr(distributed_solver, "_row_extension", spy)
        eng = rhop_engine(s, 3, R)
        # the oracle: sparse-sparse products, certified and charged on a
        # simulator of their own
        sim = Simulator(support_graph(s), R)
        one_hop = s.A.multiply(1.0 / s.D[None, :]).tocsr()
        c, payloads = sparse_row_power(one_hop, R)
        sim.account_round(1)
        for payload in payloads * 2:
            sim.account_round(1, payload=payload)
        want = sim.certify(c, R).matrix
        got = eng._op_C0.matrix
        assert calls == gates
        assert type(got) is type(want) is stored
        if sparse.issparse(want):
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert eng.transcript.runs == sim.transcript.runs
        for dense in (False, True):
            _, rows = real(one_hop, R, dense)
            assert len(rows) == len(payloads)
            assert all(np.array_equal(a, b) for a, b in zip(rows, payloads))

    def test_sparse_ball_builds_no_square_array(self):
        # grid 50 x 60 at R = 2: a sparse ball keeps every product sparse,
        # far below the 72 MB of one n x n float64 array
        s = grounded_grid(50, 60)
        sim = Simulator(support_graph(s), 2)
        tracemalloc.start()
        try:
            RHopEngine(s, 2, sim)  # d = 2: one round per level, no stride
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s.n * s.n * 8 // 20


def plain_engines(monkeypatch):
    """Make every engine built after this call round-by-round: the rule picks no ladder."""
    monkeypatch.setattr(netsim, "ladder_lengths", lambda *args, **kwargs: ())


def spy_ladder_rule(monkeypatch):
    """Record the (n, nnz, batches, lengths, dense) of every ladder_lengths call."""
    calls = []
    real = netsim.ladder_lengths

    def spy(n, nnz, batches, lengths, dense=False):
        calls.append((n, nnz, dict(batches), list(lengths), dense))
        return real(n, nnz, batches, lengths, dense=dense)

    monkeypatch.setattr(netsim, "ladder_lengths", spy)
    return calls


def ladder_systems():
    """(id, system, R, its ladder for an eps-solve at 1e-4, its ladder for one crude solve)."""
    return [
        ("grid_20x20_r1", ground(laplacian(generate("grid", {"rows": 20, "cols": 20})), 0), 1,
         (128, 2048), (128, 512)),
        ("random_300_900_r4", grounded_random(300, 900, seed=0), 4, (8, 64), (4, 16)),
        ("path_150_r4", grounded_path(150), 4, (128, 2048), (128, 2048)),
    ]


class TestStridedChain:
    """Chain levels of at least the lowest rung run as products with certified powers."""

    def grid(self):
        s = ground(laplacian(generate("grid", {"rows": 20, "cols": 20})), 0)
        return s, chain_length(estimate_condition(s) * 1.05).d

    def test_grid_r1_builds_a_stride(self):
        s, d = self.grid()
        eng = rhop_engine(s, d, 1)
        # sized for the call that runs it, so built at its first crude solve
        assert eng._op_C0.stride is None
        eng.esolve(np.ones(s.n), 1e-4)
        op = eng._op_C0
        assert [length for length, _ in op.stride] == [128, 2048]
        for _, power in op.stride:
            assert isinstance(power, np.ndarray) and power.shape == (s.n, s.n)

    @pytest.mark.parametrize("case", ladder_systems(), ids=lambda case: case[0])
    def test_ladder_is_the_cheapest_for_the_passes_that_run(self, case, monkeypatch):
        # esolve at 1e-4 runs q + 1 = 8 crude solves, 16 passes of every
        # level; a bare rsolve runs 2. The rule gets each level's batch
        # 2^i / R once, with its passes, and the lengths whose check needs
        # no new ball; its pick is the cheapest by brute force.
        _, s, R, want_esolve, want_rsolve = case
        d = chain_length(estimate_condition(s) * 1.05).d
        b = np.random.default_rng(8).standard_normal(s.n)
        calls = spy_ladder_rule(monkeypatch)
        q = richardson_iterations(1e-4)
        for solve, passes, want in (("esolve", 2 * (q + 1), want_esolve), ("rsolve", 2, want_rsolve)):
            eng = rhop_engine(s, d, R)
            cached = set(eng.sim._balls)
            eng.esolve(b, 1e-4) if solve == "esolve" else eng.rsolve(b)
            x = eng.esolve(b, 1e-4)  # the ladder is built once
            assert len(calls) == 1
            n, nnz, batches, lengths, dense = calls[-1]
            op = eng._op_C0
            assert (n, nnz, dense) == (s.n, op.matrix.size if dense else op.matrix.nnz,
                                       isinstance(op.matrix, np.ndarray))
            assert batches == {2 ** i // R: passes for i in range(d) if 2 ** i >= R}
            top = 2 ** (d - 1) // R
            assert lengths == [2 ** k for k in range(1, d) if 2 ** k <= top
                               and (2 ** k * R >= eng.sim.reach or 2 ** k * R in cached)]
            least, best = cheapest_ladders(n, nnz, batches, lengths, dense)
            ladder = tuple(length for length, _ in op.stride)
            assert ladder == want and ladder in best, solve
            assert mnorm_rel_error(s, x, direct_solve(s, b)) <= 1e-4
            del calls[:]

    def test_path_rungs_build_no_ball_below_reach(self):
        # grounded path 150 at R = 4: reach is 296 hops. Offered every
        # length, the rule would take a rung of 64 (256 hops), whose check
        # would build the ball at 256 hops; it takes 128 instead and the
        # checks build no ball at all
        s = grounded_path(150)
        d = chain_length(estimate_condition(s) * 1.05).d
        eng = rhop_engine(s, d, 4)
        eng.esolve(np.ones(s.n), 1e-4)
        sim, op = eng.sim, eng._op_C0
        ladder = [length for length, _ in op.stride]
        assert sim.reach == 296 and ladder == [128, 2048]
        assert all(length * 4 >= sim.reach for length in ladder)
        assert sorted(sim._balls) == [1, 4]
        batches = {2 ** i // 4: 16 for i in range(2, d)}
        every = [2 ** k for k in range(1, d - 2)]
        assert netsim.ladder_lengths(s.n, op.matrix.nnz, batches, every)[0] * 4 < sim.reach

    def test_dense_random_r4_gets_its_rung_by_the_rule(self, monkeypatch):
        s = grounded_random(300, 900, seed=0)
        d = chain_length(estimate_condition(s) * 1.05).d
        eng = rhop_engine(s, d, 4)
        b = np.random.default_rng(6).standard_normal(s.n)
        x = eng.esolve(b, 1e-4)
        op = eng._op_C0
        assert isinstance(op.matrix, np.ndarray)
        levels = {2 ** i // 4: 16 for i in range(2, d)}
        lengths = [2 ** k for k in range(1, d - 2) if 2 ** k * 4 >= eng.sim.reach]
        ladder = netsim.ladder_lengths(s.n, op.matrix.size, levels, lengths, dense=True)
        assert len(ladder) == 2 and ladder[0] >= 2
        assert [length for length, _ in op.stride] == list(ladder)
        assert mnorm_rel_error(s, x, direct_solve(s, b)) <= 1e-4
        plain_engines(monkeypatch)
        plain = rhop_engine(s, d, 4)
        y = plain.esolve(b, 1e-4)
        assert plain._op_C0.stride is None
        assert eng.transcript.runs == plain.transcript.runs
        assert np.linalg.norm(x - y) <= 1e-9 * np.linalg.norm(y)

    def test_grid_r1_eps_solve_meets_target_with_closed_form_rounds(self, monkeypatch):
        s, d = self.grid()
        b = np.random.default_rng(5).standard_normal(s.n)
        eps = 1e-4
        x, eng = edist_rsolve(s, b, d, 1, eps)
        assert eng._op_C0.stride is not None
        assert mnorm_rel_error(s, x, direct_solve(s, b)) <= eps
        tr = eng.transcript
        assert tr.rounds == closed_form_rounds(d, richardson_iterations(eps), 1)
        assert tr.max_hop_used == 1
        # the round-by-round engine charges the same runs
        plain_engines(monkeypatch)
        y, plain = edist_rsolve(s, b, d, 1, eps)
        assert plain._op_C0.stride is None
        assert tr.runs == plain.transcript.runs
        assert np.linalg.norm(x - y) <= 1e-9 * np.linalg.norm(y)

    @pytest.mark.parametrize("R", [2, 4])
    def test_sddm_newton_runs_identical_without_a_ladder(self, R, monkeypatch):
        # every Newton step's engine charges the same runs with its ladder
        # as round by round, and the steps agree to roundoff
        def run():
            engines = []
            monkeypatch.setattr(newton_flow, "RHopEngine",
                                lambda *a: engines.append(RHopEngine(*a)) or engines[-1])
            p = make_flow_problem(generate("random", {"n": 120, "m": 360}, seed=3))
            trace = optimize(p, "sddm_newton", OptimizeConfig(R=R))
            assert trace.converged
            return engines, trace

        engines, trace = run()
        assert all(eng._op_C0.stride is not None for eng in engines)
        plain_engines(monkeypatch)
        plain, plain_trace = run()
        assert all(eng._op_C0.stride is None for eng in plain)
        assert [eng.transcript.runs for eng in engines] == [eng.transcript.runs for eng in plain]
        assert trace.column("messages") == plain_trace.column("messages")
        assert np.allclose(trace.column("feasibility"), plain_trace.column("feasibility"),
                           rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("d", [0, 1])
    def test_short_chain_builds_no_stride(self, d):
        # d = 1 has one chain level, a batch of 2^0 / R rounds at most
        s, _ = self.grid()
        for R in (1, 2):
            eng = rhop_engine(s, d, R)
            eng.esolve(np.ones(s.n), 1e-4)
            assert eng._op_C0.stride is None
