import numpy as np
import pytest
from scipy import sparse

from lapflow.graph_core import StandardSplitting, WeightedGraph, generate, ground, laplacian
from lapflow.netsim import ViolationError
from lapflow.reference_solver import (
    InverseChainView,
    direct_solve,
    parallel_esolve,
    parallel_rsolve,
    richardson_iterates,
    richardson_iterations,
)
from lapflow.spectral import EPS_D, approx_order_check, chain_length, estimate_condition
from lapflow.distributed_solver import (
    DENSE_LIMIT,
    FullCommEngine,
    RHopEngine,
    distr_esolve,
    distr_rsolve,
    edist_rsolve,
    rdist_rsolve,
    support_graph,
)
from conftest import grounded_random, mnorm_rel_error
from oracles import floyd_warshall_hops, pernode_full_rsolve, pernode_rhop_rsolve


def grounded_path(n, ref=0):
    return ground(laplacian(generate("path", {"n": n})), ref)


def chain_d(s, safety=1.05):
    kappa = estimate_condition(s, tol=1e-8) * safety
    return chain_length(max(kappa, 1.0), "estimated")


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
        eng = FullCommEngine(s, spec)
        assert eng.d == spec.d

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            FullCommEngine(grounded_path(5), -1)

    def test_rhop_requires_power_of_two(self):
        s = grounded_path(5)
        for bad in (3, 6, 12):
            with pytest.raises(ValueError):
                RHopEngine(s, 2, bad)
        for ok in (1, 2, 4, 8):
            RHopEngine(s, 2, ok)

    def test_large_system_stays_sparse(self):
        s = grounded_random(250, 500, seed=0)
        eng = FullCommEngine(s, 3)
        assert s.n > DENSE_LIMIT
        assert sparse.issparse(eng._op_P1.matrix)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(s.n)
        want = parallel_rsolve(InverseChainView(s, 3), b)
        got = eng.rsolve(b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestEquivalence:
    def test_diagonal_system(self):
        s = StandardSplitting([2.0, 4.0, 8.0], np.zeros((3, 3)))
        x, eng = distr_rsolve(s, [2.0, 4.0, 8.0], 2)
        assert np.allclose(x, [1.0, 1.0, 1.0])

    def test_three_implementations_agree(self, rng):
        for seed, (n, m) in [(0, (10, 18)), (1, (16, 34)), (2, (24, 60))]:
            s = grounded_random(n, m, seed=seed, w_min=1.0, w_max=5.0)
            d = chain_d(s)
            b = rng.standard_normal(s.n)
            x_ref = parallel_rsolve(InverseChainView(s, d), b)
            x_full, _ = distr_rsolve(s, b, d)
            scale = np.linalg.norm(x_ref)
            assert np.linalg.norm(x_full - x_ref) <= 1e-9 * scale
            for R in (1, 2, 4):
                x_r, eng = rdist_rsolve(s, b, d, R)
                assert np.linalg.norm(x_r - x_ref) <= 1e-9 * scale
                assert eng.transcript.max_hop_used <= R

    def test_esolve_matches_reference(self, rng):
        s = grounded_random(14, 30, seed=5)
        d = chain_d(s)
        b = rng.standard_normal(s.n)
        for eps in (0.5, 1e-2):
            want = parallel_esolve(InverseChainView(s, d), b, eps)
            got, _ = distr_esolve(s, b, d, eps)
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
        x_full, _ = distr_rsolve(s, b, d)
        x_r, _ = rdist_rsolve(s, b, d, 8)  # R >= 2^{d-1}
        assert np.linalg.norm(x_r - x_full) <= 1e-12 * np.linalg.norm(x_full)


def wide_ratio_system(k):
    """Grounded random graph, n = 8 + 3k and m = 2n, whose weights span exactly 1 to 1e6."""
    n = 8 + 3 * k
    g = generate("random", {"n": n, "m": 2 * n}, seed=k)
    w = 10.0 ** np.random.default_rng(k).uniform(0.0, 6.0, g.m)
    w[w.argmin()], w[w.argmax()] = 1.0, 1e6
    g = WeightedGraph(n, [(i, j, wt) for (i, j, _), wt in zip(g.edges, w)])
    assert g.w_max / g.w_min == 1e6
    return ground(laplacian(g), 0)


# The R-hop engine is left out: kappa reaches 6.2e5 here (k = 3), so d = 22
# and R = 1 would need about 2^22 rounds per crude solve.
@pytest.mark.parametrize("k", range(6))
class TestWeightRatio:
    def test_crude_operators_sandwich_and_agree(self, k):
        s = wide_ratio_system(k)
        d = chain_d(s)
        chain, eng = InverseChainView(s, d), FullCommEngine(s, d)
        z_ref = np.column_stack([parallel_rsolve(chain, e) for e in np.eye(s.n)])
        z_full = np.column_stack([eng.rsolve(e) for e in np.eye(s.n)])
        minv = np.linalg.inv(s.dense())
        assert approx_order_check(minv, z_ref, EPS_D, probes=100, seed=k)
        assert approx_order_check(minv, z_full, EPS_D, probes=100, seed=k)
        assert np.linalg.norm(z_full - z_ref) <= 1e-9 * np.linalg.norm(z_ref)

    def test_esolves_meet_eps(self, k):
        s = wide_ratio_system(k)
        d = chain_d(s)
        b = np.random.default_rng(k).standard_normal(s.n)
        xstar = direct_solve(s, b)
        x_ref = parallel_esolve(InverseChainView(s, d), b, 1e-4)
        x_full, _ = distr_esolve(s, b, d, 1e-4)
        assert mnorm_rel_error(s, x_ref, xstar) <= 1e-4
        assert mnorm_rel_error(s, x_full, xstar) <= 1e-4


class TestPerNodeExecution:
    def test_full_comm_values_and_messages(self, rng):
        for seed, (n, m) in [(0, (8, 12)), (1, (12, 20))]:
            s = grounded_random(n, m, seed=seed, w_min=0.5, w_max=2.0)
            d = 4
            b = rng.standard_normal(s.n)
            eng = FullCommEngine(s, d)
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
            eng = RHopEngine(s, d, R)
            setup = eng.transcript.messages_total
            x_eng = eng.rsolve(b)
            delta = eng.transcript.messages_total - setup
            x_ref, msgs, hop = pernode_rhop_rsolve(s, b, d, R)
            assert np.linalg.norm(x_eng - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
            assert delta == msgs
            assert hop <= R
            assert eng.transcript.max_hop_used <= R


class TestRowRoutines:
    def test_radius_one_rows_are_walk_matrices(self):
        s = grounded_random(9, 16, seed=4, w_min=0.5, w_max=3.0)
        P = s.A.toarray() / s.D[None, :]
        Q = s.A.toarray() / s.D[:, None]
        eng = RHopEngine(s, 0, 1)
        rows0, rows1 = eng._op_C0.matrix, eng._op_C1.matrix
        assert np.allclose(np.asarray(rows0), P, atol=1e-15)
        assert np.allclose(np.asarray(rows1), Q, atol=1e-15)

    def test_path4_squared_rows(self):
        s = ground(laplacian(generate("path", {"n": 5})), 4)  # path on 4 nodes
        P = s.A.toarray() / s.D[None, :]
        Q = s.A.toarray() / s.D[:, None]
        eng = RHopEngine(s, 0, 2)
        rows0, rows1 = eng._op_C0.matrix, eng._op_C1.matrix
        assert np.abs(np.asarray(rows0) - P @ P).max() <= 1e-12
        assert np.abs(np.asarray(rows1) - Q @ Q).max() <= 1e-12
        # support stays inside the 2-hop neighborhoods
        hops = floyd_warshall_hops(support_graph(s))
        assert not ((np.asarray(rows0) != 0) & (hops > 2)).any()
        assert eng.transcript.max_hop_used <= 2


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
        eng = RHopEngine(s, 3, 1)
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
            crude = 2 * sum(2 ** i if 2 ** i < R else 2 ** i // R for i in range(d))
            assert eng.transcript.rounds == 1 + 2 * (R - 1) + (q + 1) * crude + q
        _, eng = distr_esolve(s, b, d, eps)
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
            _, eng = distr_esolve(s, b, 5, 1e-2)
        else:
            _, eng = edist_rsolve(s, b, 5, R, 1e-2)
        tr = eng.transcript
        assert (tr.rounds, tr.messages_total, tr.max_hop_used) == (rounds, messages, max_hop)

    def test_strict_violation_surfaces(self):
        s = grounded_path(6)
        eng = RHopEngine(s, 2, 1)
        P = eng._op_P1.matrix
        with pytest.raises(ViolationError):
            eng.sim.account_round(2)
        with pytest.raises(ViolationError):
            eng.sim.certify(P @ P, 2)

