import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, splu

from lapflow import spectral
from lapflow.graph_core import StandardSplitting, generate, ground, laplacian
from lapflow.newton_flow import convergence_constants, dual_hessian, dual_state, make_flow_problem, optimize
from lapflow.reference_solver import direct_solve
from lapflow.spectral import (
    CHAIN_C,
    EPS_D,
    ChainSpec,
    ConvergenceError,
    chain_length,
    estimate_condition,
    validate_sddm,
)
from conftest import grounded_random
from oracles import dense


def path_graph(n):
    return generate("path", {"n": n})


class TestValidateSDDM:
    def test_grounded_path_is_sddm(self):
        report = validate_sddm(ground(laplacian(path_graph(3)), 2))
        assert report.diagonally_dominant
        assert report.positive_definite
        assert bool(report)

    def test_laplacian_is_sdd_not_sddm(self):
        report = validate_sddm(laplacian(path_graph(3)))
        assert report.diagonally_dominant
        assert not report.strict_rows.any()
        assert not report.positive_definite
        assert not bool(report)

    def test_dominance_failure(self):
        s = StandardSplitting([1.0, 1.0], [[0.0, 2.0], [2.0, 0.0]])
        report = validate_sddm(s)
        assert not report.diagonally_dominant
        assert not report.positive_definite
        assert not bool(report)
        assert report.row_slack[0] == -1.0

    def test_split_support_truthiness_follows_positive_definite(self):
        # grounding a path of 7 at its middle node leaves two paths of 3,
        # each with one strict row: positive definite, support not connected
        report = validate_sddm(ground(laplacian(path_graph(7)), 3))
        assert report.positive_definite
        assert bool(report)
        # a diagonal system: every node its own component, every row strict
        assert bool(validate_sddm(StandardSplitting(np.ones(4), np.zeros((4, 4)))))
        # a grounded path beside a floating one: one component has no strict row
        L = laplacian(path_graph(3))
        A = sparse.block_diag([ground(L, 0).A, L.A])
        s = StandardSplitting(np.concatenate([ground(L, 0).D, L.D]), A)
        report = validate_sddm(s)
        assert report.diagonally_dominant and report.strict_rows.any()
        assert not report.positive_definite
        assert not bool(report)

    def test_row_slack_values(self):
        report = validate_sddm(ground(laplacian(path_graph(3)), 2))
        assert np.allclose(report.row_slack, [0.0, 1.0])
        assert list(report.strict_rows) == [False, True]

    @pytest.mark.parametrize("w", [1e-9, 1e-12])
    def test_tolerance_scales_with_small_weights(self, w):
        # the strict-row test is relative to max D; an absolute floor of 1
        # would call a grounded path of tiny weights singular
        g = generate("path", {"n": 5, "w_min": w, "w_max": w})
        report = validate_sddm(ground(laplacian(g), 0))
        assert list(report.strict_rows) == [True, False, False, False]
        assert report.positive_definite
        assert not validate_sddm(laplacian(g)).positive_definite


class TestEstimateCondition:
    def test_identity(self):
        s = StandardSplitting(np.ones(5), np.zeros((5, 5)))
        assert estimate_condition(s) == pytest.approx(1.0, abs=1e-9)

    def test_grounded_path2(self):
        s = ground(laplacian(path_graph(2)), 0)
        assert estimate_condition(s) == pytest.approx(1.0, abs=1e-9)

    def test_grounded_path5_matches_dense(self):
        s = ground(laplacian(path_graph(5)), 0)
        eig = np.linalg.eigvalsh(dense(s))
        exact = eig.max() / eig.min()
        est = estimate_condition(s)
        assert abs(est - exact) <= 1e-6 * exact

    def test_singular_laplacian_rejected(self):
        with pytest.raises(ValueError, match="ground"):
            estimate_condition(laplacian(path_graph(6)))

    def test_convergence_error_carries_rayleigh(self, monkeypatch):
        def no_convergence(*args, **kw):
            raise ArpackNoConvergence("no convergence", np.array([7.5]), np.zeros((12, 1)))

        monkeypatch.setattr(spectral, "eigsh", no_convergence)
        s = grounded_random(12, 24, seed=5)
        with pytest.raises(ConvergenceError, match="largest eigenvalue") as err:
            estimate_condition(s)
        assert isinstance(err.value.rayleigh, dict)
        assert err.value.rayleigh == {"lambda_max": 7.5}

    def test_rejects_non_sdd(self):
        s = StandardSplitting([1.0, 1.0], [[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            estimate_condition(s)

    @pytest.mark.parametrize("system", ["path150", "grid20x20", "random60_150", "newton_hessian"])
    def test_matches_dense_eigenvalue_ratio(self, system):
        if system == "path150":
            s = ground(laplacian(path_graph(150)), 0)
        elif system == "grid20x20":
            s = ground(laplacian(generate("grid", {"rows": 20, "cols": 20})), 0)
        elif system == "random60_150":
            s = ground(laplacian(generate("random", {"n": 60, "m": 150}, seed=3)), 0)
        else:
            p = make_flow_problem(generate("random", {"n": 300, "m": 900}, seed=0))
            lam = 0.1 * np.random.default_rng(1).standard_normal(p.n)
            s = ground(dual_hessian(dual_state(lam, p), p), 0)
        eig = np.linalg.eigvalsh(dense(s))
        exact = eig.max() / eig.min()
        assert estimate_condition(s) == pytest.approx(exact, rel=1e-9, abs=0)


class TestChainLength:
    def test_frozen_constants(self):
        assert CHAIN_C == 4
        assert EPS_D == pytest.approx(0.018485446826, abs=1e-12)
        assert EPS_D < math.log(2.0) / 3.0

    def test_kappa_one(self):
        assert chain_length(1.0) == ChainSpec(kappa=1.0, d=2)

    def test_kappa_thousand(self):
        assert chain_length(1000.0).d == 12

    def test_rejects_kappa_below_one(self):
        with pytest.raises(ValueError):
            chain_length(0.5)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1.0, 1e9), st.floats(1.0, 1e9))
    def test_monotone_in_kappa(self, k1, k2):
        lo, hi = min(k1, k2), max(k1, k2)
        assert chain_length(lo).d <= chain_length(hi).d

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_non_finite_kappa_named(self, kappa):
        # nan used to fail in int() and inf with an OverflowError
        with pytest.raises(ValueError, match="kappa must be finite and >= 1, got %r" % kappa):
            chain_length(kappa)
        # ChainSpec's own check was kappa < 1, which nan and inf both passed
        with pytest.raises(ValueError, match="kappa must be finite and >= 1, got %r" % kappa):
            ChainSpec(kappa=kappa, d=1)

    def test_chainspec_validation(self):
        with pytest.raises(ValueError):
            ChainSpec(kappa=0.9, d=1)
        with pytest.raises(ValueError):
            ChainSpec(kappa=2.0, d=-1)


# the settings of every numeric factorization sparse_lu runs
NUMERIC = ("NATURAL", spectral.SUPERLU_RELAX, spectral.SUPERLU_PANEL_SIZE)


def recording_factorizations(monkeypatch):
    """Lists of the shapes sparse_lu orders and of the (permc_spec, relax, panel_size) of each splu call."""
    orders, specs = [], []
    real_order, real_splu = spectral._min_degree_order, spectral.splu

    def order(C):
        orders.append(C.shape)
        return real_order(C)

    def factor(A, **kw):
        specs.append((kw.get("permc_spec"), kw.get("relax"), kw.get("panel_size")))
        return real_splu(A, **kw)

    monkeypatch.setattr(spectral, "_min_degree_order", order)
    monkeypatch.setattr(spectral, "splu", factor)
    return orders, specs


def grounded_family(kind):
    """A grounded Laplacian per kind; "split" is path 9 grounded at node 4, a support of two components."""
    if kind == "split":
        return ground(laplacian(path_graph(9)), 4)
    params = {"path": {"n": 30}, "grid": {"rows": 8, "cols": 9},
              "barbell": {"clique": 8, "path_len": 6}, "random": {"n": 300, "m": 900}}[kind]
    return ground(laplacian(generate(kind, params, seed=2)), 0)


def exact_trace_csv(g):
    """CSV text of exact_newton on a fresh flow problem on g."""
    out = io.StringIO()
    optimize(make_flow_problem(g), "exact_newton").to_csv(out)
    return out.getvalue()


class TestOneFactorization:
    def test_both_exact_factorizations_use_one_ordering(self, monkeypatch):
        spectral._last_order = None
        orders, specs = recording_factorizations(monkeypatch)
        s = grounded_random(40, 100, seed=1)
        estimate_condition(s)
        direct_solve(s, np.ones(s.n))
        assert orders == [(s.n, s.n)]
        assert specs == [NUMERIC, NUMERIC]

    def test_exact_newton_orders_its_hessian_once(self, monkeypatch):
        p = make_flow_problem(generate("random", {"n": 60, "m": 150}, seed=3))
        convergence_constants(p)  # the Laplacian spectrum, on a pattern of its own, is cached on p
        spectral._last_order = None
        orders, specs = recording_factorizations(monkeypatch)
        trace = optimize(p, "exact_newton")
        assert trace.converged and trace.iterations >= 2
        assert orders == [(p.n - 1, p.n - 1)]
        assert specs == [NUMERIC] * trace.iterations

    def test_cold_and_warm_cache_give_the_same_bits(self):
        s = grounded_random(80, 200, seed=4)
        b = np.random.default_rng(5).standard_normal(s.n)
        spectral._last_order = None
        cold = direct_solve(s, b), estimate_condition(s)
        warm = direct_solve(s, b), estimate_condition(s)
        spectral._last_order = None
        cleared = direct_solve(s, b), estimate_condition(s)
        for x, kappa in (warm, cleared):
            assert x.tobytes() == cold[0].tobytes()
            assert kappa == cold[1]

    def test_exact_newton_trace_does_not_depend_on_the_cache(self):
        g = generate("random", {"n": 50, "m": 120}, seed=6)
        spectral._last_order = None
        cold = exact_trace_csv(g)
        warm = exact_trace_csv(g)
        spectral._last_order = None
        assert warm == cold
        assert exact_trace_csv(g) == cold

    @pytest.mark.parametrize("kind", ["path", "grid", "barbell", "random", "split"])
    def test_fill_and_ordering_match_splu(self, kind):
        M = grounded_family(kind).matrix().tocsc()
        ref = splu(M, permc_spec="MMD_AT_PLUS_A", relax=spectral.SUPERLU_RELAX,
                   panel_size=spectral.SUPERLU_PANEL_SIZE)
        lu = spectral.sparse_lu(M)
        assert lu.factors.L.nnz + lu.factors.U.nnz == ref.L.nnz + ref.U.nnz
        # the ordering is spilu's perm_c, inverted: splu's own
        assert np.array_equal(np.argsort(lu.q), ref.perm_c)
        b = np.arange(M.shape[0], dtype=float)
        assert np.linalg.norm(M @ lu.solve(b) - b) <= 1e-10 * np.linalg.norm(b)

    def test_non_canonical_input_is_left_unchanged(self):
        # column 0 lists row 1 before row 0, column 1 holds row 1 twice (2 + 2)
        data, indices, indptr = np.array([-1.0, 3.0, -1.0, 2.0, 2.0]), np.array([1, 0, 0, 1, 1]), np.array([0, 2, 5])
        M = sparse.csc_matrix((data.copy(), indices.copy(), indptr.copy()), shape=(2, 2))
        x = spectral.sparse_lu(M).solve(np.array([2.0, 3.0]))
        assert np.allclose(np.array([[3.0, -1.0], [-1.0, 4.0]]) @ x, [2.0, 3.0])
        assert np.array_equal(M.data, data) and np.array_equal(M.indices, indices)
        assert np.array_equal(M.indptr, indptr)

    def test_a_new_pattern_replaces_the_kept_ordering(self, monkeypatch):
        spectral._last_order = None
        orders, _ = recording_factorizations(monkeypatch)
        for n in (5, 5, 6, 6, 5):
            spectral.sparse_lu(ground(laplacian(path_graph(n)), 0).matrix())
        assert orders == [(4, 4), (5, 5), (4, 4)]


class TestSpectralInvariants:
    def test_walk_matrix_eigenvalues_inside_kappa_band(self):
        for seed in range(4):
            s = grounded_random(12, 30, seed=seed, w_min=0.5, w_max=4.0)
            M = dense(s)
            eig = np.linalg.eigvalsh(M)
            kappa = eig.max() / eig.min()
            sym = s.A.toarray() / np.sqrt(np.outer(s.D, s.D))
            walk = np.linalg.eigvalsh(sym)
            assert np.abs(walk).max() <= 1.0 - 1.0 / kappa + 1e-9

    def test_m_between_diagonal_multiples(self, rng):
        s = grounded_random(15, 40, seed=2, w_min=0.2, w_max=3.0)
        M = dense(s)
        for _ in range(50):
            v = rng.standard_normal(s.n)
            qm = v @ M @ v
            qd = v @ (s.D * v)
            assert 0.0 - 1e-12 <= qm <= 2.0 * qd + 1e-12
