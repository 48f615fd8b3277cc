import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lapflow.graph_core import WeightedGraph, generate, laplacian, load_edge_list
from lapflow.newton_flow import (
    ConvergenceConstants,
    DivergenceError,
    DualState,
    EdgeCost,
    FlowProblem,
    OptimizeConfig,
    Trace,
    alpha_star,
    classify_phase,
    convergence_constants,
    dual_hessian,
    dual_state,
    dual_value,
    exp_cost,
    load_flow_problem,
    make_flow_problem,
    newton_direction,
    optimize,
    primal_recovery,
    quadratic_cost,
    save_flow_problem,
    strict_decrement_bound,
)
from oracles import fd_gradient, fd_hessian, pinv_quadform, matrix_lnorm


def flow_on(kind, params, seed=None, cost="exp", magnitude=1.0, x_box=5.0):
    g = generate(kind, params, seed=seed)
    return make_flow_problem(g, cost=cost, magnitude=magnitude, x_box=x_box)


def random_flow(n, m, seed, cost="exp", magnitude=1.0):
    return flow_on("random", {"n": n, "m": m}, seed=seed, cost=cost, magnitude=magnitude)


class TestEdgeCosts:
    def test_exp_values_at_zero(self):
        c = exp_cost()
        assert c.value(0.0) == pytest.approx(2.0)
        assert c.deriv(0.0) == pytest.approx(0.0)
        assert c.second(0.0) == pytest.approx(2.0)
        assert c.gamma == 2.0
        assert c.Gamma == pytest.approx(2.0 * math.cosh(5.0))
        assert c.delta == 0.25

    def test_exp_inverse_point(self):
        c = exp_cost()
        assert c.inv_deriv(2.0 * math.sinh(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_constants(self):
        c = quadratic_cost()
        assert c.gamma == c.Gamma == 1.0
        assert c.delta == 0.0
        assert c.value(3.0) == pytest.approx(4.5)
        assert c.inv_deriv(1.25) == 1.25

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-10.0, 10.0))
    def test_inverse_round_trip(self, y):
        for c in (exp_cost(), quadratic_cost()):
            x = c.inv_deriv(y)
            assert abs(float(c.deriv(x)) - y) <= 1e-10 * max(1.0, abs(y))

    def test_derivative_consistency(self):
        h = 1e-6
        for c in (exp_cost(), quadratic_cost()):
            for x in (-2.0, -0.3, 0.0, 1.7):
                fd = (c.value(x + h) - c.value(x - h)) / (2 * h)
                assert float(c.deriv(x)) == pytest.approx(fd, abs=1e-7)
                fd2 = (c.deriv(x + h) - c.deriv(x - h)) / (2 * h)
                assert float(c.second(x)) == pytest.approx(fd2, abs=1e-6)


class TestFlowProblem:
    def test_rejects_unbalanced_sources(self):
        g = generate("path", {"n": 3})
        with pytest.raises(ValueError):
            FlowProblem(g, [1.0, 0.0, 0.0], exp_cost())
        with pytest.raises(ValueError):
            FlowProblem(g, [1.0, math.nan, -1.0], exp_cost())

    def test_rejects_wrong_cost_count(self):
        g = generate("path", {"n": 3})
        with pytest.raises(ValueError):
            FlowProblem(g, [1.0, 0.0, -1.0], [exp_cost()])
        with pytest.raises(ValueError):
            FlowProblem(g, [1.0, 0.0, -1.0], [exp_cost()] * g.m)

    def test_incidence_columns(self):
        p = FlowProblem(generate("path", {"n": 3}), np.zeros(3), exp_cost())
        inc = p.incidence.toarray()
        assert inc.shape == (3, 2)
        assert np.allclose(inc.sum(axis=0), 0.0)
        # tail +1 at the lower id, head -1 at the higher id
        assert inc[0, 0] == 1.0 and inc[1, 0] == -1.0
        assert list(zip(p._tails.tolist(), p._heads.tolist())) == [(0, 1), (1, 2)]

    def test_incidence_gives_unweighted_laplacian(self):
        g = generate("random", {"n": 8, "m": 14}, seed=9)
        p = FlowProblem(g, np.zeros(g.n), exp_cost())
        L = (p.incidence @ p.incidence.T).toarray()
        unit = WeightedGraph(g.n, [(i, j, 1.0) for (i, j, _) in g.edges])
        assert np.allclose(L, laplacian(unit).dense())

    def test_default_endpoints_are_diameter_pair(self):
        p = flow_on("path", {"n": 5})
        assert p.b[0] == 1.0
        assert p.b[4] == -1.0
        assert np.count_nonzero(p.b) == 2

    def test_unweighted_laplacian_ignores_weights(self):
        g = generate("path", {"n": 4, "w_min": 3.0, "w_max": 3.0})
        p = make_flow_problem(g)
        L = p.unweighted_laplacian()
        assert np.allclose(np.diag(L), [1.0, 2.0, 2.0, 1.0])
        assert np.allclose(L.sum(axis=1), 0.0)

    def test_lnorm(self):
        p = flow_on("path", {"n": 3})
        v = np.array([1.0, 0.0, -1.0])
        L = p.unweighted_laplacian()
        assert p.lnorm(v) == pytest.approx(math.sqrt(v @ L @ v))

    def test_file_round_trip(self, tmp_path):
        p = random_flow(8, 14, seed=3, magnitude=2.0)
        path = tmp_path / "prob.txt"
        save_flow_problem(p, str(path))
        q = load_flow_problem(str(path))
        assert q.graph.edges == p.graph.edges
        assert np.array_equal(q.b, p.b)
        assert q.cost.name == "exp"
        assert q.cost.param == p.cost.param
        lam = np.linspace(-0.1, 0.1, p.n)
        assert dual_value(lam, q) == pytest.approx(dual_value(lam, p), rel=1e-12)

    def test_load_rejects_missing_cost(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 1 1.0\nb 1.0 -1.0\n")
        with pytest.raises(ValueError):
            load_flow_problem(str(path))

    def test_load_rejects_unusable_exp_box(self, tmp_path):
        for box in ("0.0", "-1.0", "nan", "1000.0"):
            path = tmp_path / "bad.txt"
            path.write_text("2 1\n0 1 1.0\nb 1.0 -1.0\ncost exp %s\n" % box)
            with pytest.raises(ValueError, match="box"):
                load_flow_problem(str(path))


# lines of tokens from the vocabulary of the two file formats, plus any float
_TOKEN = st.one_of(
    st.integers(-2, 6).map(str),
    st.floats().map(repr),
    st.sampled_from(["b", "cost", "exp", "quadratic", "flux", "1.0", "-1.0", "0.5"]),
)
_FILE_TEXT = st.lists(st.lists(_TOKEN, max_size=5).map(" ".join), max_size=8).map("\n".join)


class TestParserFuzz:
    @settings(max_examples=80, deadline=None)
    @given(_FILE_TEXT)
    def test_parsers_return_or_raise_value_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "in.txt"
        path.write_text(text)
        for load in (load_edge_list, load_flow_problem):
            try:
                load(str(path))
            except ValueError:
                pass


class TestPrimalRecovery:
    def test_zero_dual_gives_zero_flow(self):
        p = flow_on("path", {"n": 4})
        assert np.allclose(primal_recovery(np.zeros(4), p), 0.0)

    def test_exp_unit_flow(self):
        p = flow_on("path", {"n": 2})
        lam = np.array([2.0 * math.sinh(1.0), 0.0])
        assert primal_recovery(lam, p) == pytest.approx([1.0], abs=1e-12)

    def test_quadratic_is_difference(self):
        p = flow_on("path", {"n": 3}, cost="quadratic")
        lam = np.array([3.0, 1.0, -2.0])
        assert np.allclose(primal_recovery(lam, p), [2.0, 3.0])


class TestDualCalculus:
    def test_gradient_at_zero_is_minus_b(self):
        p = random_flow(10, 18, seed=1, magnitude=1.5)
        st0 = dual_state(np.zeros(p.n), p)
        assert np.allclose(st0.g, -p.b)

    def test_gradient_sums_to_zero(self):
        p = random_flow(12, 22, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            st0 = dual_state(rng.standard_normal(p.n) * 0.3, p)
            assert abs(st0.g.sum()) <= 1e-10

    def test_dual_value_at_zero(self):
        p = flow_on("path", {"n": 3})
        # x(0) = 0, so q(0) = -sum_e Phi(0) = -2E
        assert dual_value(np.zeros(3), p) == pytest.approx(-4.0)

    def test_gradient_matches_finite_differences(self):
        for seed in (0, 1):
            p = random_flow(9, 15, seed=seed, magnitude=0.8)
            rng = np.random.default_rng(seed)
            lam = rng.standard_normal(p.n) * 0.2
            st0 = dual_state(lam, p)
            assert np.abs(st0.g - fd_gradient(p, lam)).max() <= 1e-5

    def test_hessian_matches_finite_differences(self):
        p = random_flow(8, 13, seed=4, magnitude=0.5)
        rng = np.random.default_rng(1)
        lam = rng.standard_normal(p.n) * 0.2
        H = dual_hessian(dual_state(lam, p), p).dense()
        assert np.abs(H - fd_hessian(p, lam)).max() <= 1e-4

    def test_hessian_annihilates_ones(self):
        p = random_flow(11, 20, seed=5)
        H = dual_hessian(dual_state(np.linspace(-0.2, 0.2, p.n), p), p).dense()
        assert np.abs(H @ np.ones(p.n)).max() <= 1e-12
        assert np.allclose(H, H.T)

    def test_quadratic_hessian_is_unweighted_laplacian(self):
        p = flow_on("grid", {"rows": 2, "cols": 3}, cost="quadratic")
        H = dual_hessian(dual_state(np.zeros(p.n), p), p).dense()
        assert np.allclose(H, p.unweighted_laplacian())

    def test_exp_hessian_at_zero_is_half_laplacian(self):
        p = flow_on("path", {"n": 4})
        H = dual_hessian(dual_state(np.zeros(4), p), p).dense()
        assert np.allclose(H, 0.5 * p.unweighted_laplacian())

    def test_invalid_curvature_reported(self):
        flat = EdgeCost(
            "flat",
            value=lambda x: np.asarray(x, float),
            deriv=lambda x: np.ones_like(np.asarray(x, float)),
            second=lambda x: np.zeros_like(np.asarray(x, float)),
            inv_deriv=lambda y: np.asarray(y, float),
            gamma=0.0,
            Gamma=0.0,
            delta=0.0,
        )
        p = FlowProblem(generate("path", {"n": 2}), [1.0, -1.0], flat)
        with pytest.raises(RuntimeError, match="edge 0"):
            dual_hessian(dual_state(np.zeros(2), p), p)
        # zero curvature constants are rejected before any step is taken
        with pytest.raises(ValueError, match="gamma"):
            optimize(p, "add_neumann")
        # the truncated-Neumann baseline shares the same weight checks; give
        # the cost usable constants so that optimize gets to its first step
        flat.gamma = flat.Gamma = 1.0
        with pytest.raises(RuntimeError, match="edge 0"):
            optimize(p, "add_neumann")

    def test_hessian_lipschitz_in_laplacian_norm(self):
        # ||H(u) - H(v)||_L <= B ||u - v||_L with B = mun delta/(gamma sqrt(mu2))
        p = random_flow(10, 18, seed=6, magnitude=0.8)
        consts = convergence_constants(p)
        L = p.unweighted_laplacian()
        rng = np.random.default_rng(2)
        for _ in range(6):
            u = rng.standard_normal(p.n) * 0.3
            v = u + rng.standard_normal(p.n) * 0.2
            Hu = dual_hessian(dual_state(u, p), p).dense()
            Hv = dual_hessian(dual_state(v, p), p).dense()
            lhs = matrix_lnorm(Hu - Hv, L)
            assert lhs <= consts.B * p.lnorm(u - v) * (1 + 1e-9)

    def test_taylor_remainder_bound(self):
        p = random_flow(9, 16, seed=7, magnitude=0.8)
        consts = convergence_constants(p)
        rng = np.random.default_rng(3)
        for _ in range(6):
            lam = rng.standard_normal(p.n) * 0.3
            step = rng.standard_normal(p.n) * 0.2
            s0 = dual_state(lam, p)
            s1 = dual_state(lam + step, p)
            H = dual_hessian(s0, p).dense()
            rem = s1.g - s0.g - H @ step
            assert p.lnorm(rem) <= 0.5 * consts.B * p.lnorm(step) ** 2 * (1 + 1e-9)


class TestConstants:
    def test_alpha_star_perfect_conditioning(self):
        assert alpha_star(1.0, 1.0, 4.0, 4.0, 0.0) == 1.0

    def test_alpha_star_quarter_ratios(self):
        assert alpha_star(1.0, 2.0, 1.0, 2.0, 0.0) == pytest.approx(1.0 / 16.0)

    def test_alpha_star_rejects_large_eps(self):
        with pytest.raises(ValueError):
            alpha_star(1.0, 1.0, 1.0, 4.0, 0.3)  # bound is 1/4

    def test_exp_problem_constants(self):
        p = random_flow(10, 20, seed=8)
        c = convergence_constants(p, eps=1e-4)
        assert c.gamma == 2.0
        assert c.delta == 0.25
        assert 0 < c.mu2 <= c.mun
        assert 0 < c.alpha_star <= 1.0
        assert 0 < c.xi < 1.0
        assert c.zeta > 0
        assert 0 < c.eta0 < c.eta1 < math.inf
        assert strict_decrement_bound(c) < 0

    def test_quadratic_problem_has_no_finite_band(self):
        p = flow_on("path", {"n": 4}, cost="quadratic")
        c = convergence_constants(p)
        assert c.B == 0.0
        assert c.zeta == 0.0
        assert c.eta0 == c.eta1 == math.inf

    def test_constants_dataclass_guard(self):
        with pytest.raises(ValueError):
            ConvergenceConstants(
                gamma=1.0, Gamma=1.0, delta=0.1, B=1.0, mu2=1.0, mun=1.0,
                alpha_star=1.0, xi=0.5, zeta=1.0, eta0=2.0, eta1=1.0,
            )


class TestNewtonDirection:
    def test_zero_gradient_gives_zero_direction(self):
        p = FlowProblem(generate("path", {"n": 3}), np.zeros(3), exp_cost())
        st0 = dual_state(np.zeros(3), p)
        d = newton_direction(st0, p, eps=0.0)
        assert np.allclose(d, 0.0)

    def test_rejects_unbalanced_gradient(self):
        p = flow_on("path", {"n": 3})
        bogus = DualState(lam=np.zeros(3), x_of_lambda=np.zeros(2), g=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            newton_direction(bogus, p, eps=0.0)

    def test_exact_direction_matches_pseudoinverse(self):
        p = random_flow(12, 24, seed=9, magnitude=1.2)
        rng = np.random.default_rng(4)
        st0 = dual_state(rng.standard_normal(p.n) * 0.2, p)
        H = dual_hessian(st0, p).dense()
        want = -np.linalg.pinv(H) @ st0.g
        got = newton_direction(st0, p, eps=0.0)
        assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(want))
        assert abs(got.mean()) <= 1e-12

    def test_sddm_direction_close_in_hessian_norm(self):
        p = random_flow(12, 24, seed=9, magnitude=1.2)
        rng = np.random.default_rng(4)
        st0 = dual_state(rng.standard_normal(p.n) * 0.2, p)
        H = dual_hessian(st0, p).dense()
        exact = newton_direction(st0, p, eps=0.0)
        report = {}
        approx = newton_direction(st0, p, eps=1e-4, R=1, report=report)
        diff = approx - exact
        hnorm = lambda v: math.sqrt(max(0.0, float(v @ H @ v)))
        assert hnorm(diff) <= 1e-3 * hnorm(exact)
        assert report["eps_prime"] == pytest.approx(
            (2.0 ** (1.0 / 3.0) - 1.0) ** (richardson_q(1e-4) + 1)
        )
        assert report["messages"] > 0
        assert report["rounds"] > 0

    def test_full_distributed_mode(self):
        p = random_flow(10, 18, seed=10)
        st0 = dual_state(np.zeros(p.n), p)
        exact = newton_direction(st0, p, eps=0.0)
        approx = newton_direction(st0, p, eps=1e-4, R=None)
        assert np.linalg.norm(approx - exact) <= 1e-3 * np.linalg.norm(exact)

    def test_rank_one_shift_matches_pseudoinverse_quadform(self):
        p = random_flow(8, 14, seed=11)
        H = dual_hessian(dual_state(np.zeros(p.n), p), p).dense()
        pinv = np.linalg.pinv(H)
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.standard_normal(p.n)
            v -= v.mean()
            assert pinv_quadform(H, v) == pytest.approx(float(v @ pinv @ v), rel=1e-9)


def richardson_q(eps):
    from lapflow.reference_solver import richardson_iterations

    return richardson_iterations(eps)


class TestOptimize:
    def test_rejects_unknown_method(self):
        p = flow_on("path", {"n": 3})
        with pytest.raises(ValueError):
            optimize(p, method="bfgs")

    def test_rejects_unknown_step(self):
        p = flow_on("path", {"n": 3})
        with pytest.raises(ValueError):
            optimize(p, "exact_newton", OptimizeConfig(step="wild", max_iters=5))

    def test_rejects_negative_max_iters(self):
        p = flow_on("path", {"n": 3})
        with pytest.raises(ValueError, match="max_iters must be >= 0"):
            optimize(p, "exact_newton", OptimizeConfig(max_iters=-1))

    def test_rejects_invalid_feas_threshold(self):
        p = flow_on("path", {"n": 3})
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="feas_threshold must be >= 0"):
                optimize(p, "exact_newton", OptimizeConfig(feas_threshold=bad))

    def test_already_feasible_start_takes_zero_iterations(self):
        g = generate("path", {"n": 3})
        p = FlowProblem(g, np.zeros(3), exp_cost())
        trace = optimize(p, "exact_newton")
        assert trace.converged
        assert trace.iterations == 0
        assert trace.rows[0]["feasibility"] == 0.0

    def test_quadratic_cost_converges_in_one_newton_step(self):
        p = flow_on("path", {"n": 5}, cost="quadratic")
        cfg = OptimizeConfig(step="fixed", alpha=1.0, feas_threshold=1e-10, max_iters=3)
        trace = optimize(p, "exact_newton", cfg)
        assert trace.converged
        assert trace.iterations == 1

    def test_all_methods_reach_threshold(self):
        p = random_flow(12, 25, seed=12)
        counts = {}
        for method in ("sddm_newton", "exact_newton", "subgradient", "add_neumann"):
            cfg = OptimizeConfig(feas_threshold=1e-3, max_iters=5000, R=None)
            trace = optimize(p, method, cfg)
            assert trace.converged, method
            counts[method] = trace.iterations
            assert trace.rows[-1]["feasibility"] <= 1e-3
            assert trace.rows[-1]["step"] == 0.0
            assert trace.rows[-1]["messages"] == 0
        assert counts["exact_newton"] <= counts["add_neumann"] <= counts["subgradient"]

    def test_dual_decreases_under_backtracking(self):
        p = random_flow(10, 20, seed=13)
        trace = optimize(p, "exact_newton", OptimizeConfig(feas_threshold=1e-6, max_iters=50))
        assert trace.converged
        for a, b in zip(trace.dual, trace.dual[1:]):
            assert b <= a + 1e-12

    def test_subgradient_needs_order_of_magnitude_more(self):
        # classic fixed-step subgradient against the Newton scheme; with a
        # line search the subgradient would not be the usual baseline
        p = random_flow(20, 60, seed=1, magnitude=2.0)
        newton = optimize(p, "sddm_newton",
                          OptimizeConfig(feas_threshold=1e-2, max_iters=200000, R=None))
        sub = optimize(p, "subgradient",
                       OptimizeConfig(step="fixed", feas_threshold=1e-2,
                                      max_iters=200000))
        assert newton.converged and sub.converged
        assert sub.iterations >= 10 * newton.iterations

    def test_divergence_error_carries_trace(self):
        p = flow_on("path", {"n": 3}, cost="quadratic")
        cfg = OptimizeConfig(step="fixed", alpha=10.0, max_iters=2000, feas_threshold=1e-12)
        with pytest.raises(DivergenceError) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                optimize(p, "subgradient", cfg)
        assert isinstance(err.value.trace, Trace)
        assert len(err.value.trace.rows) > 1

    def test_stalled_line_search_raises(self, monkeypatch):
        import lapflow.newton_flow as nf

        # +g is an ascent direction, so no step size gives a decrease
        monkeypatch.setattr(nf, "newton_direction", lambda state, problem, **kw: state.g)
        p = random_flow(10, 18, seed=16)
        with pytest.raises(DivergenceError, match="line search"):
            optimize(p, "exact_newton", OptimizeConfig(max_iters=5))

    @pytest.mark.parametrize("method, step", [
        ("subgradient", "backtracking"),
        ("add_neumann", "backtracking"),
        ("exact_newton", "backtracking"),
        ("exact_newton", "fixed"),
    ])
    def test_each_dual_point_evaluated_once(self, monkeypatch, method, step):
        import lapflow.newton_flow as nf

        seen = []
        real = nf.dual_state

        def recording(lam, problem):
            seen.append(np.asarray(lam, dtype=float).tobytes())
            return real(lam, problem)

        monkeypatch.setattr(nf, "dual_state", recording)
        p = random_flow(10, 18, seed=17)
        trace = optimize(p, method, OptimizeConfig(step=step, feas_threshold=1e-3,
                                                   max_iters=200))
        assert trace.iterations >= 1
        assert len(seen) == len(set(seen))

    def test_warm_start_from_solution(self):
        p = random_flow(8, 14, seed=14)
        first = optimize(p, "exact_newton", OptimizeConfig(feas_threshold=1e-9, max_iters=60))
        assert first.converged
        again = optimize(
            p, "exact_newton",
            OptimizeConfig(feas_threshold=1e-6, max_iters=60,
                           lambda0=first.final_state.lam),
        )
        assert again.converged
        assert again.iterations == 0

    def test_alpha_star_step_rejects_eps_beyond_bound(self):
        # eps = 1e-3 is above this problem's bound of about 4.1e-4
        p = make_flow_problem(generate("barbell", {"clique": 8, "path_len": 6}))
        with pytest.raises(ValueError, match="eps=0.001 is outside"):
            optimize(p, "sddm_newton", OptimizeConfig(eps=1e-3, step="alpha_star"))

    def test_fixed_subgradient_default_step(self):
        p = random_flow(10, 18, seed=15)
        consts = convergence_constants(p)
        trace = optimize(p, "subgradient", OptimizeConfig(step="fixed", max_iters=3))
        assert trace.rows[0]["step"] == pytest.approx(consts.gamma / consts.mun)


class TestTraceCSV:
    def test_columns_and_comments(self):
        p = random_flow(8, 14, seed=16)
        for R, mode in ((1, "rhop_distributed"), (None, "full_distributed")):
            trace = optimize(p, "sddm_newton",
                             OptimizeConfig(feas_threshold=1e-3, max_iters=50, R=R))
            buf = io.StringIO()
            trace.to_csv(buf, extra_header={"instance": "random(8,14)"})
            lines = buf.getvalue().splitlines()
            comments = [ln for ln in lines if ln.startswith("# ")]
            assert any(ln == "# method=sddm_newton" for ln in comments)
            assert any(ln.startswith("# eps=") for ln in comments)
            assert "# solver_mode=%s" % mode in comments
            assert any(ln == "# instance=random(8,14)" for ln in comments)
            # eps = 1e-4 is inside this problem's bound, so no fallback is named
            assert not any(ln.startswith("# consts_eps=") for ln in comments)
            header = [ln for ln in lines if not ln.startswith("#")][0]
            assert header == "iter,objective,feasibility,grad_lnorm,step,phase,messages"
            body = [ln for ln in lines if not ln.startswith("#")][1:]
            assert len(body) == len(trace.rows)
            assert body[0].startswith("0,")

    def test_fallback_constants_named(self):
        # eps = 1e-3 is above this problem's bound of about 4.1e-4
        p = make_flow_problem(generate("barbell", {"clique": 8, "path_len": 6}))
        trace = optimize(p, "sddm_newton", OptimizeConfig(eps=1e-3, max_iters=0))
        assert trace.consts.eps == 0.0
        assert trace.header_items()["consts_eps"] == 0.0

    def test_deterministic_bytes(self):
        outs = []
        for _ in range(2):
            p = random_flow(8, 14, seed=16)
            trace = optimize(p, "exact_newton", OptimizeConfig(feas_threshold=1e-4, max_iters=30))
            buf = io.StringIO()
            trace.to_csv(buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]


def band_instance():
    # clique with a tight flow box and sources sized so the run starts above
    # the eta1 threshold, passes through the narrow quadratic band and ends
    # terminal; flows stay inside the box so Gamma really bounds Phi''
    g = generate("random", {"n": 4, "m": 6}, seed=0)
    b = np.array([6.9, 0.0, 0.0, -6.9])
    return FlowProblem(g, b, exp_cost(x_box=3.0))


class TestPhases:
    def test_labels_partition_and_order(self):
        p = band_instance()
        consts = convergence_constants(p, eps=0.0)
        cfg = OptimizeConfig(step="alpha_star", feas_threshold=1e-5, max_iters=2500)
        trace = optimize(p, "exact_newton", cfg)
        assert trace.converged
        report = classify_phase(trace, consts)
        assert len(report.labels) == len(trace.rows)
        assert sum(report.counts.values()) == len(report.labels)
        # contiguous blocks in phase order
        blocks = [report.labels[0]]
        for lab in report.labels[1:]:
            if lab != blocks[-1]:
                blocks.append(lab)
        order = {"strict": 0, "quadratic": 1, "terminal": 2}
        assert all(order[a] < order[b] for a, b in zip(blocks, blocks[1:]))
        assert report.labels[0] == "strict"
        assert report.labels[-1] == "terminal"
        assert report.counts["strict"] >= 1
        assert report.counts["quadratic"] >= 1
        assert report.counts["terminal"] >= 1
        assert math.isfinite(report.N1_bound) and report.N1_bound > 0
        assert math.isfinite(report.N2_bound)
        assert math.isfinite(report.terminal_radius) and report.terminal_radius > 0
