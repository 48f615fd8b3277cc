import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from lapflow.graph_core import StandardSplitting, generate, ground, laplacian
from lapflow.reference_solver import (
    CG_MAX_ITERATIONS,
    RICHARDSON_CONTRACTION,
    RICHARDSON_RATE,
    KeptFactors,
    crude_solve,
    direct_solve,
    richardson_iterates,
    richardson_iterations,
)
from lapflow.spectral import EPS_D, chain_length, estimate_condition, validate_sddm
from conftest import grounded_random, mnorm, mnorm_rel_error, wide_ratio_system
from oracles import dense, dense_chain_z, dense_solve, sandwich_exponent, splitting_from_matrix


def path_graph(n):
    return generate("path", {"n": n})


def chain_for(s, safety=1.02):
    kappa = estimate_condition(s) * safety
    return chain_length(kappa).d


def rsolve(s, d, b):
    """crude_solve on the dense walk powers P^{2^i}, P = A D^{-1}."""
    P = s.A.toarray() / s.D
    return crude_solve(b, s.D, d, lambda i, v: np.linalg.matrix_power(P, 2 ** i) @ v)


def esolve(s, d, b, eps):
    """The last Richardson iterate over the dense-power crude solve."""
    M = s.matrix()
    *_, y = richardson_iterates(lambda v: rsolve(s, d, v), lambda y: M @ y, b, eps)
    return y


class TestDirectSolve:
    def test_scaled_identity(self):
        s = StandardSplitting([2.0, 2.0], np.zeros((2, 2)))
        assert np.allclose(direct_solve(s, [4.0, 6.0]), [2.0, 3.0])

    def test_grounded_path3(self):
        s = ground(laplacian(path_graph(3)), 2)
        assert np.allclose(direct_solve(s, [1.0, 0.0]), [2.0, 1.0])

    def test_singular_laplacian_rejected(self):
        s = laplacian(path_graph(3))
        with pytest.raises(ValueError, match="ground"):
            direct_solve(s, [1.0, 0.0, -1.0])

    def test_residual_guarantee(self):
        s = grounded_random(30, 80, seed=3, w_min=0.1, w_max=10.0)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(s.n)
        x = direct_solve(s, b)
        assert np.linalg.norm(dense(s) @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_rejects_indefinite(self):
        s = StandardSplitting([1.0, 1.0], [[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            direct_solve(s, [1.0, 0.0])

    def test_rejects_wrong_length(self):
        s = StandardSplitting([1.0, 1.0], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            direct_solve(s, [1.0, 2.0, 3.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                direct_solve(s, [1.0, bad])


SPARSE_SYSTEMS = {
    "random_300_900": lambda: grounded_random(300, 900, seed=0),
    "random_900_2700": lambda: grounded_random(900, 2700, seed=1),
    **{"weight_ratio_1e6_k%d" % k: lambda k=k: wide_ratio_system(k) for k in range(6)},
}


class TestSparseDirectSolve:
    """direct_solve factors the sparse M once; no n x n array on the way."""

    @pytest.mark.parametrize("name", SPARSE_SYSTEMS)
    def test_no_dense_matrix_and_agrees_with_dense_oracle(self, monkeypatch, name):
        s = SPARSE_SYSTEMS[name]()
        b = np.random.default_rng(7).standard_normal(s.n)

        def forbidden(*args, **kwargs):
            raise AssertionError("direct_solve formed a dense n x n matrix")

        with monkeypatch.context() as mp:
            for fmt in (scipy.sparse.csr_matrix, scipy.sparse.csc_matrix):
                mp.setattr(fmt, "toarray", forbidden)
                mp.setattr(fmt, "todense", forbidden)
            mp.setattr(scipy.linalg, "lu_factor", forbidden)
            x = direct_solve(s, b)
        assert np.linalg.norm(s.matrix() @ x - b) <= 1e-10 * np.linalg.norm(b)
        xo, M = dense_solve(s, b)
        # forward error of a backward-stable solve: a small multiple of cond(M) * unit roundoff
        bound = 100 * np.finfo(float).eps * np.linalg.cond(M)
        assert np.linalg.norm(x - xo) <= bound * np.linalg.norm(xo)


class FakeFactors:
    """Stand-in factors whose solve is a given map."""

    def __init__(self, solve):
        self.solve = solve


def forbidden(b):
    raise AssertionError("factors of another matrix pattern were used")


def pattern_of(s):
    M = s.matrix()
    return M.shape, M.indptr.tobytes(), M.indices.tobytes()


class TestKeptFactors:
    """direct_solve with a holder: CG on kept factors of the same pattern, else factor, solve and refine."""

    def test_an_empty_holder_gets_the_factors_and_the_same_bits(self):
        s = grounded_random(40, 100, seed=2)
        b = np.random.default_rng(3).standard_normal(s.n)
        kept = KeptFactors()
        assert direct_solve(s, b, kept).tobytes() == direct_solve(s, b).tobytes()
        assert kept.factored and kept.cg_iterations == 0
        assert kept.pattern == pattern_of(s)
        # the same system again: solved by CG on the kept factors
        lu = kept.lu
        x = direct_solve(s, 2.0 * b, kept)
        assert not kept.factored and kept.lu is lu and 1 <= kept.cg_iterations <= 2
        assert np.linalg.norm(s.matrix() @ x - 2.0 * b) <= 1e-10 * np.linalg.norm(2.0 * b)

    @pytest.mark.parametrize("other", [
        lambda: grounded_random(40, 100, seed=2, ref=5),  # another shape
        lambda: grounded_random(41, 100, seed=7),  # the same shape, another pattern
    ])
    def test_factors_of_another_shape_or_pattern_are_never_used(self, other):
        s = grounded_random(41, 100, seed=2)
        t = other()
        assert pattern_of(t) != pattern_of(s)
        b = np.random.default_rng(4).standard_normal(s.n)
        kept = KeptFactors(pattern=pattern_of(t), lu=FakeFactors(forbidden))
        assert direct_solve(s, b, kept).tobytes() == direct_solve(s, b).tobytes()
        assert kept.factored and kept.cg_iterations == 0
        assert kept.pattern == pattern_of(s) and not isinstance(kept.lu, FakeFactors)

    def test_a_breakdown_falls_back_to_factoring(self):
        s = grounded_random(41, 100, seed=2)
        b = np.random.default_rng(4).standard_normal(s.n)
        for bad in (lambda r: np.full_like(r, math.nan), lambda r: -r):
            kept = KeptFactors(pattern=pattern_of(s), lu=FakeFactors(bad))
            assert direct_solve(s, b, kept).tobytes() == direct_solve(s, b).tobytes()
            assert kept.factored and kept.cg_iterations == 0

    def test_the_iteration_cap_falls_back_to_factoring(self):
        # unpreconditioned CG needs more than the cap on the grounded 20 x 20 grid
        s = ground(laplacian(generate("grid", {"rows": 20, "cols": 20})), 0)
        b = np.random.default_rng(5).standard_normal(s.n)
        kept = KeptFactors(pattern=pattern_of(s), lu=FakeFactors(lambda r: r.copy()))
        assert direct_solve(s, b, kept).tobytes() == direct_solve(s, b).tobytes()
        assert kept.factored and kept.cg_iterations == CG_MAX_ITERATIONS


class TestRichardsonIterations:
    def test_rate_constant(self):
        assert RICHARDSON_RATE == pytest.approx(1.347377348329, abs=1e-12)
        # the rate is ln(1/c) of the one contraction constant, bit for bit
        assert RICHARDSON_CONTRACTION == 2.0 ** (1.0 / 3.0) - 1.0
        assert RICHARDSON_RATE == math.log(1.0 / (2.0 ** (1.0 / 3.0) - 1.0))

    def test_frozen_counts(self):
        table = {0.5: 1, 0.1: 2, 1e-2: 4, 1e-4: 7, 2.0 ** -14: 8}
        for eps, q in table.items():
            assert richardson_iterations(eps) == q

    def test_tenfold_tightening_adds_two(self):
        assert richardson_iterations(0.05) - richardson_iterations(0.5) == 2

    def test_domain(self):
        for bad in (0.0, -0.1, 0.6, 1.0):
            with pytest.raises(ValueError):
                richardson_iterations(bad)


class TestParallelRSolve:
    """The paper's parallel RSolve: crude_solve on dense walk powers."""

    def test_diagonal_system_is_exact(self):
        s = StandardSplitting([2.0, 4.0], np.zeros((2, 2)))
        assert np.allclose(rsolve(s, 3, [2.0, 4.0]), [1.0, 1.0])

    def test_zero_length_chain_is_jacobi(self):
        s = ground(laplacian(path_graph(4)), 0)
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(rsolve(s, 0, b), b / s.D)

    def test_matches_dense_recursion(self, rng):
        for seed, (n, m) in [(0, (8, 14)), (1, (12, 25)), (2, (16, 40))]:
            s = grounded_random(n, m, seed=seed, w_min=0.5, w_max=3.0)
            d = chain_for(s)
            Z = dense_chain_z(s, d)
            b = rng.standard_normal(s.n)
            want = Z @ b
            got = rsolve(s, d, b)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_operator_identity_small(self):
        # vector recursion applied to basis vectors reproduces the dense
        # chain operator entry for entry
        s = grounded_random(10, 18, seed=4)
        d = chain_for(s)
        Z = dense_chain_z(s, d)
        got = np.column_stack([rsolve(s, d, e) for e in np.eye(s.n)])
        assert np.abs(got - Z).max() <= 1e-10

    def test_crude_sandwich(self):
        s = ground(laplacian(path_graph(5)), 0)
        d = chain_for(s)
        z0 = np.column_stack([rsolve(s, d, e) for e in np.eye(s.n)])
        assert sandwich_exponent(z0, dense(s)) <= EPS_D

    def test_crude_quality_bound(self, rng):
        s = grounded_random(14, 30, seed=6, w_min=0.5, w_max=2.0)
        d = chain_for(s)
        bound = 2.0 * (math.exp(EPS_D) - 1.0) * math.exp(EPS_D)
        for _ in range(25):
            b = rng.standard_normal(s.n)
            xstar = direct_solve(s, b)
            xt = rsolve(s, d, b)
            lhs = mnorm(s, xt - xstar) ** 2
            assert lhs <= bound * mnorm(s, xstar) ** 2 * (1 + 1e-9)

    def test_chain_links_stay_solvable(self):
        # one squaring step D - A D^{-1} A keeps diagonal dominance and
        # positive definiteness, although its support falls apart into the
        # two parity classes
        s = ground(laplacian(path_graph(6)), 0)
        M1 = np.diag(s.D) - s.A.toarray() @ np.diag(1.0 / s.D) @ s.A.toarray()
        s1 = splitting_from_matrix(M1)
        report = validate_sddm(s1)
        assert report.diagonally_dominant
        assert report.positive_definite
        assert bool(report)


class TestParallelESolve:
    """The paper's parallel ESolve: richardson_iterates over the dense-power RSolve."""

    def test_meets_target_on_path(self, rng):
        s = ground(laplacian(path_graph(10)), 0)
        d = chain_for(s)
        b = rng.standard_normal(s.n)
        xstar = direct_solve(s, b)
        for eps in (0.5, 1e-2, 1e-4):
            xt = esolve(s, d, b, eps)
            assert mnorm_rel_error(s, xt, xstar) <= eps

    def test_matches_manual_richardson(self, rng):
        s = grounded_random(12, 25, seed=9)
        d = chain_for(s)
        b = rng.standard_normal(s.n)
        eps = 1e-2
        M = s.matrix()
        chi = rsolve(s, d, b)
        y = chi.copy()
        for _ in range(richardson_iterations(eps)):
            y = y - rsolve(s, d, M @ y) + chi
        assert np.allclose(esolve(s, d, b, eps), y, atol=0, rtol=1e-14)

    def test_contraction_factor(self, rng):
        # every Richardson step contracts the M-norm error by at least the
        # guaranteed factor 2^{1/3} - 1 (with realized chains it is far
        # smaller); ratios are measured against the direct solution
        s = grounded_random(15, 35, seed=12, w_min=0.5, w_max=4.0)
        d = chain_for(s)
        b = rng.standard_normal(s.n)
        xstar = direct_solve(s, b)
        M = s.matrix()
        chi = rsolve(s, d, b)
        y = chi.copy()
        errs = [mnorm(s, y - xstar)]
        for _ in range(8):
            y = y - rsolve(s, d, M @ y) + chi
            errs.append(mnorm(s, y - xstar))
        for before, after in zip(errs, errs[1:]):
            if before <= 1e-13 * mnorm(s, xstar):
                break
            assert after / before <= 0.26 + 1e-6

    def test_eps_domain(self):
        s = ground(laplacian(path_graph(4)), 0)
        d = chain_for(s)
        with pytest.raises(ValueError):
            esolve(s, d, np.ones(3), 0.6)
