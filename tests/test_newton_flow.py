import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from lapflow import netsim, spectral
from lapflow.graph_core import WeightedGraph, generate, ground, laplacian, load_edge_list
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
from lapflow.newton_flow import _hessian_weights
from lapflow.spectral import estimated_chain
from conftest import full_engine, rhop_engine
from oracles import dense, fd_gradient, fd_hessian, pinv_quadform, matrix_lnorm


def flow_on(kind, params, seed=None, cost="exp", magnitude=1.0):
    g = generate(kind, params, seed=seed)
    return make_flow_problem(g, cost=cost, magnitude=magnitude)


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
        assert np.allclose(L, dense(laplacian(unit)))

    def test_default_endpoints_are_diameter_pair(self):
        p = flow_on("path", {"n": 5})
        assert p.b[0] == 1.0
        assert p.b[4] == -1.0
        assert np.count_nonzero(p.b) == 2

    @pytest.mark.parametrize("given, named", [
        (dict(source=-1), "source must be an integer in [0, 4), got -1"),
        (dict(sink=4), "sink must be an integer in [0, 4), got 4"),
        (dict(source=1.5), "source must be an integer in [0, 4), got 1.5"),
        (dict(source=2, sink=2), "source and sink must differ, both are 2"),
    ])
    def test_bad_endpoints_named(self, given, named):
        # -1 used to wrap to node 3, source == sink built b = 0, and 4 or 1.5 died in indexing
        with pytest.raises(ValueError, match=re.escape(named)):
            make_flow_problem(generate("path", {"n": 4}), **given)

    def test_integral_float_endpoints_accepted(self):
        p = make_flow_problem(generate("path", {"n": 4}), source=2.0, sink=0.0)
        assert list(p.b) == [-1.0, 0.0, 1.0, 0.0]

    def test_unweighted_laplacian_ignores_weights(self):
        g = generate("path", {"n": 4, "w_min": 3.0, "w_max": 3.0})
        p = make_flow_problem(g)
        assert sparse.issparse(p.unweighted_laplacian())  # no n x n array in a flow problem
        L = dense(p.unweighted_laplacian())
        assert np.allclose(np.diag(L), [1.0, 2.0, 2.0, 1.0])
        assert np.allclose(L.sum(axis=1), 0.0)

    def test_lnorm(self):
        p = flow_on("path", {"n": 3})
        v = np.array([1.0, 0.0, -1.0])
        L = dense(p.unweighted_laplacian())
        assert p.lnorm(v) == pytest.approx(math.sqrt(v @ L @ v))
        # ||A'v|| with A'v gathered per arc: the bits of incidence.T @ v and its 2-norm
        q = random_flow(40, 90, seed=5)
        w = np.random.default_rng(5).standard_normal(q.n)
        assert q.lnorm(w) == np.linalg.norm(q.incidence.T @ w)
        assert q.lnorm(w) == pytest.approx(math.sqrt(w @ dense(q.unweighted_laplacian()) @ w), rel=1e-12)

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

    @pytest.mark.parametrize("text, named", [
        ("4 3 9\n0 1 1.0\n1 2 1.0\n2 3 1.0\nb 1.0 0.0 0.0 -1.0\ncost exp\n",
         "header line '4 3 9' needs the form 'n m'"),
        ("2 1\n0 1 1.0 7\nb 1.0 -1.0\ncost exp\n",
         "edge line '0 1 1.0 7' needs the form 'i j w'"),
        # a parameter the cost does not read would be lost on save
        ("2 1\n0 1 1.0\nb 1.0 -1.0\ncost quadratic 3.0\n",
         "cost 'quadratic' takes no parameter, got 3.0"),
    ], ids=["header", "edge", "quadratic_parameter"])
    def test_load_names_malformed_line(self, tmp_path, text, named):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(named)):
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
        H = dense(dual_hessian(dual_state(lam, p), p))
        assert np.abs(H - fd_hessian(p, lam)).max() <= 1e-4

    def test_hessian_annihilates_ones(self):
        p = random_flow(11, 20, seed=5)
        H = dense(dual_hessian(dual_state(np.linspace(-0.2, 0.2, p.n), p), p))
        assert np.abs(H @ np.ones(p.n)).max() <= 1e-12
        assert np.allclose(H, H.T)

    def test_quadratic_hessian_is_unweighted_laplacian(self):
        p = flow_on("grid", {"rows": 2, "cols": 3}, cost="quadratic")
        H = dense(dual_hessian(dual_state(np.zeros(p.n), p), p))
        assert np.allclose(H, dense(p.unweighted_laplacian()))

    def test_exp_hessian_at_zero_is_half_laplacian(self):
        p = flow_on("path", {"n": 4})
        H = dense(dual_hessian(dual_state(np.zeros(4), p), p))
        assert np.allclose(H, 0.5 * dense(p.unweighted_laplacian()))

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

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "curvature invalid"),
        (0.0, "curvature invalid"),
        (-1.0, "curvature invalid"),
        (math.inf, "curvature invalid"),
        (5e-324, "weight not finite"),  # subnormal: 1/Phi'' overflows to inf
        # the edge of the unchecked path: from the smallest normal double up,
        # 1/Phi'' is finite; below it the checks run, and a subnormal with a
        # finite reciprocal passes them
        (np.finfo(float).tiny, None),
        (1e-308, None),
    ], ids=["nan", "zero", "negative", "inf", "subnormal", "tiny", "subnormal_finite_weight"])
    def test_first_bad_edge_named(self, bad, message):
        # edges 2 and 4 of the path are bad (or, with no message, merely
        # small); the message names edge 2
        curvature = np.ones(6)
        curvature[[2, 4]] = bad
        probe = EdgeCost(
            "probe",
            value=lambda x: 0.5 * np.square(x),
            deriv=lambda x: x,
            second=lambda x: curvature.copy(),
            inv_deriv=lambda y: y,
            gamma=1.0,
            Gamma=1.0,
            delta=0.0,
        )
        b = np.zeros(7)
        b[0], b[6] = 1.0, -1.0
        p = FlowProblem(generate("path", {"n": 7}), b, probe)
        state = dual_state(np.zeros(7), p)
        if message is None:
            # numpy warnings raised in lapflow fail the test (pyproject.toml)
            w, D = _hessian_weights(state, p)
            assert w.tobytes() == (1.0 / curvature).tobytes()
            assert w[2] == w[4] == 1.0 / bad < math.inf
            dual_hessian(state, p)
            return
        with pytest.raises(RuntimeError, match=re.escape("Hessian %s on edge 2" % message)):
            _hessian_weights(state, p)
        with pytest.raises(RuntimeError, match=re.escape("Hessian %s on edge 2" % message)):
            dual_hessian(state, p)

    def test_hessian_lipschitz_in_laplacian_norm(self):
        # ||H(u) - H(v)||_L <= B ||u - v||_L with B = mun delta/(gamma sqrt(mu2))
        p = random_flow(10, 18, seed=6, magnitude=0.8)
        consts = convergence_constants(p)
        L = dense(p.unweighted_laplacian())
        rng = np.random.default_rng(2)
        for _ in range(6):
            u = rng.standard_normal(p.n) * 0.3
            v = u + rng.standard_normal(p.n) * 0.2
            Hu = dense(dual_hessian(dual_state(u, p), p))
            Hv = dense(dual_hessian(dual_state(v, p), p))
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
            H = dense(dual_hessian(s0, p))
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

    def test_nan_eps_rejected(self):
        # nan fails every comparison, so it must not slip past the range check
        with pytest.raises(ValueError, match="eps=nan is outside"):
            alpha_star(2.0, 148.0, 0.5, 3.4, math.nan)
        with pytest.raises(ValueError, match="eps=nan is outside"):
            convergence_constants(random_flow(10, 20, seed=8), math.nan)

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


class TestSpectrumOncePerProblem:
    """The unweighted Laplacian's (mu2, mun) is computed once per problem, by Lanczos."""

    def test_one_lanczos_pair_across_methods_and_fallback(self, monkeypatch):
        p = flow_on("barbell", {"clique": 6, "path_len": 4})
        calls = []
        real = spectral.eigsh

        def counted(op, *args, **kw):
            calls.append(op.shape)
            return real(op, *args, **kw)

        monkeypatch.setattr(spectral, "eigsh", counted)
        traces = [optimize(p, "exact_newton"), optimize(p, "sddm_newton"),
                  # eps 1e-3 is beyond this problem's bound: constants fall back to eps = 0
                  optimize(p, "sddm_newton", OptimizeConfig(eps=1e-3))]
        assert all(t.converged for t in traces)
        assert traces[2].header_items()["consts_eps"] == 0.0
        # mun and mu2 on the n x n Laplacian, once; the grounded Hessians'
        # condition estimates run on n - 1 nodes
        assert [shape for shape in calls if shape == (p.n, p.n)] == [(p.n, p.n)] * 2

    @pytest.mark.parametrize("kind, params, seed", [
        ("path", {"n": 2}, None),
        ("path", {"n": 3}, None),
        ("path", {"n": 150}, None),
        ("grid", {"rows": 20, "cols": 20}, None),
        ("barbell", {"clique": 20, "path_len": 20}, None),
        ("random", {"n": 300, "m": 900}, 0),
    ])
    def test_spectrum_matches_dense_eigvalsh(self, kind, params, seed):
        p = flow_on(kind, params, seed=seed)
        evals = np.linalg.eigvalsh(dense(p.unweighted_laplacian()))
        mu2, mun = p.spectrum()
        assert mu2 == pytest.approx(evals[1], rel=1e-10, abs=0)
        assert mun == pytest.approx(evals[-1], rel=1e-10, abs=0)

    @pytest.mark.parametrize("eps", [0.0, 1e-4])
    def test_constants_equal_an_uncached_evaluation(self, eps):
        p = random_flow(30, 70, seed=4)
        first = convergence_constants(p, eps)
        assert convergence_constants(p, eps) == first
        fresh = FlowProblem(p.graph, p.b, p.cost)
        assert convergence_constants(fresh, eps) == first

    @pytest.mark.parametrize("failing_call, end, label", [
        (0, "largest", "mun"),
        (1, "second-smallest", "inv_mu2_shifted"),
    ])
    def test_lanczos_failure_is_loud(self, monkeypatch, failing_call, end, label):
        p = flow_on("barbell", {"clique": 6, "path_len": 4})
        calls = []
        real = spectral.eigsh

        def fails_once(op, *args, **kw):
            calls.append(op.shape)
            if len(calls) - 1 == failing_call:
                raise ArpackNoConvergence("no convergence", np.array([0.25]), np.zeros((p.n, 1)))
            return real(op, *args, **kw)

        monkeypatch.setattr(spectral, "eigsh", fails_once)
        with pytest.raises(spectral.ConvergenceError, match="the %s eigenvalue" % end) as err:
            optimize(p, "exact_newton")
        assert err.value.rayleigh[label] == 0.25
        assert len(err.value.rayleigh) == failing_call + 1
        assert p._spectrum is None  # nothing cached: the next run asks ARPACK again


class TestScale:
    def test_exact_newton_at_ten_thousand_nodes(self):
        # a dense L alone is 763 MiB here; endpoints are given, so no diameter search runs
        g = generate("grid", {"rows": 100, "cols": 100})
        p = make_flow_problem(g, source=0, sink=g.n - 1)
        tracemalloc.start()
        try:
            consts = convergence_constants(p)
            trace = optimize(p, "exact_newton")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.converged
        assert 0 < consts.mu2 < consts.mun
        assert peak < 200 * 2 ** 20


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
        H = dense(dual_hessian(st0, p))
        want = -np.linalg.pinv(H) @ st0.g
        got = newton_direction(st0, p, eps=0.0)
        assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(want))
        assert abs(got.mean()) <= 1e-12

    def test_sddm_direction_close_in_hessian_norm(self):
        p = random_flow(12, 24, seed=9, magnitude=1.2)
        rng = np.random.default_rng(4)
        st0 = dual_state(rng.standard_normal(p.n) * 0.2, p)
        H = dense(dual_hessian(st0, p))
        exact = newton_direction(st0, p, eps=0.0)
        report = {}
        approx = newton_direction(st0, p, eps=1e-4, R=1, report=report)
        diff = approx - exact
        hnorm = lambda v: math.sqrt(max(0.0, float(v @ H @ v)))
        assert hnorm(diff) <= 1e-3 * hnorm(exact)
        # bit for bit the contraction 2^{1/3} - 1 to the power q + 1
        assert report["eps_prime"] == (2.0 ** (1.0 / 3.0) - 1.0) ** (richardson_q(1e-4) + 1)
        assert report["messages"] > 0
        assert report["rounds"] > 0

    def test_full_distributed_mode(self):
        p = random_flow(10, 18, seed=10)
        st0 = dual_state(np.zeros(p.n), p)
        exact = newton_direction(st0, p, eps=0.0)
        approx = newton_direction(st0, p, eps=1e-4, R=None)
        assert np.linalg.norm(approx - exact) <= 1e-3 * np.linalg.norm(exact)

    def test_fractional_ref_node_named(self):
        # 2.5 used to ground nothing, and direct_solve then blamed the grounding
        p = random_flow(10, 18, seed=15)
        st0 = dual_state(np.zeros(p.n), p)
        for eps in (0.0, 1e-4):
            with pytest.raises(ValueError, match="ref_node must be an integer in \\[0, 10\\), got 2.5"):
                newton_direction(st0, p, eps=eps, ref_node=2.5)
        as_float = newton_direction(st0, p, eps=1e-4, R=2, ref_node=2.0)
        assert np.array_equal(as_float, newton_direction(st0, p, eps=1e-4, R=2, ref_node=2))

    def test_rank_one_shift_matches_pseudoinverse_quadform(self):
        p = random_flow(8, 14, seed=11)
        H = dense(dual_hessian(dual_state(np.zeros(p.n), p), p))
        pinv = np.linalg.pinv(H)
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.standard_normal(p.n)
            v -= v.mean()
            assert pinv_quadform(H, v) == pytest.approx(float(v @ pinv @ v), rel=1e-9)


class TestOneNetworkPerProblem:
    """Newton steps share one network per problem, ground node and R."""

    @pytest.mark.parametrize("R", [4, None])
    def test_optimize_builds_one_simulator(self, monkeypatch, R):
        built = []
        real = netsim.Simulator.__init__

        def counted(self, graph, R=None):
            built.append((graph.n, R))
            real(self, graph, R)

        monkeypatch.setattr(netsim.Simulator, "__init__", counted)
        p = random_flow(30, 70, seed=4)
        trace = optimize(p, "sddm_newton", OptimizeConfig(R=R))
        assert trace.converged and trace.iterations >= 3
        assert built == [(p.n - 1, R)]
        again = optimize(p, "sddm_newton", OptimizeConfig(R=R))
        assert len(built) == 1 and again.rows == trace.rows

    @pytest.mark.parametrize("kind, params, R, ground_node", [
        ("random", {"n": 30, "m": 70}, 4, 0),
        ("random", {"n": 30, "m": 70}, None, 5),
        # path node 7 is a cut node: G minus it falls apart into two parts
        ("barbell", {"clique": 6, "path_len": 4}, 2, 7),
    ])
    def test_each_step_counts_as_on_its_own_network(self, monkeypatch, kind, params, R,
                                                     ground_node):
        import lapflow.newton_flow as nf

        steps = []
        real = nf.newton_direction

        def recording(state, problem, **kw):
            out = real(state, problem, **kw)
            steps.append((state, dict(kw["report"])))
            return out

        engines = []
        for name in ("RHopEngine", "FullCommEngine"):
            cls = getattr(nf, name)
            monkeypatch.setattr(nf, name, lambda *a, cls=cls: engines.append(cls(*a)) or engines[-1])
        monkeypatch.setattr(nf, "newton_direction", recording)
        p = flow_on(kind, params, seed=4)
        trace = optimize(p, "sddm_newton", OptimizeConfig(R=R, ground_node=ground_node))
        assert trace.converged and trace.iterations >= 3
        assert len(steps) == len(engines) == trace.iterations
        for (state, report), eng in zip(steps, engines):
            Hg = ground(dual_hessian(state, p), ground_node)
            spec = estimated_chain(Hg)
            own = full_engine(Hg, spec) if R is None else rhop_engine(Hg, spec, R)
            own.esolve(-np.delete(state.g, ground_node), 1e-4)
            assert (report["rounds"], report["messages"]) == (own.transcript.rounds,
                                                              own.transcript.messages_total)
            assert eng.transcript.runs == own.transcript.runs
            assert eng.sim._balls is engines[0].sim._balls


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
        with pytest.raises(ValueError, match="max_iters must be an integer >= 0, got -1"):
            optimize(p, "exact_newton", OptimizeConfig(max_iters=-1))

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
    def test_rejects_non_integral_max_iters(self, bad):
        p = flow_on("path", {"n": 3})
        with pytest.raises(ValueError, match="^max_iters must be an integer >= 0, got %s$" % bad):
            optimize(p, "exact_newton", OptimizeConfig(max_iters=bad))

    def test_integral_float_max_iters_accepted(self):
        p = random_flow(10, 18, seed=15)
        as_float = optimize(p, "subgradient", OptimizeConfig(max_iters=3.0))
        as_int = optimize(p, "subgradient", OptimizeConfig(max_iters=3))
        assert as_float.iterations == 3
        assert as_float.rows == as_int.rows

    @pytest.mark.parametrize("eps", [0.0, -1.0, 0.7, math.nan])
    def test_sddm_newton_eps_checked_before_any_step(self, eps):
        # exact directions are exact_newton's; with max_iters=0 no Newton
        # step runs, so only the check at the top of optimize can refuse these
        p = random_flow(10, 18, seed=15)
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1/2\]"):
            optimize(p, "sddm_newton", OptimizeConfig(eps=eps, max_iters=0))
        # the other methods do not read eps
        assert optimize(p, "exact_newton", OptimizeConfig(eps=eps, max_iters=0)).iterations == 0

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
        cfg = OptimizeConfig(step="fixed", feas_threshold=1e-10, max_iters=3)
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
        # the truncated-Neumann direction at the fixed step 1 overshoots
        # ever further on this instance until the exp cost overflows
        p = flow_on("path", {"n": 3}, magnitude=1e3)
        cfg = OptimizeConfig(step="fixed", max_iters=2000, feas_threshold=1e-12)
        with pytest.raises(DivergenceError) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                optimize(p, "add_neumann", cfg)
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

    @pytest.mark.parametrize("cost", ["exp", "quadratic"])
    def test_each_dual_point_costed_once(self, monkeypatch, cost):
        # the exp cost's curvature is its value: the Hessian weights reuse
        # the per-arc costs of the dual point instead of running it again
        import lapflow.newton_flow as nf

        calls = {"value": 0, "second": 0, "dual_state": 0}

        def counting(name, fn):
            def spy(x):
                calls[name] += 1
                return fn(x)
            return spy

        p = flow_on("barbell", {"clique": 8, "path_len": 6}, cost=cost)
        c = p.cost
        if cost == "exp":
            assert c.second is c.value
            c.value = c.second = counting("value", c.value)
        else:
            c.value, c.second = counting("value", c.value), counting("second", c.second)
        real = nf.dual_state

        def recording(lam, problem):
            calls["dual_state"] += 1
            return real(lam, problem)

        monkeypatch.setattr(nf, "dual_state", recording)
        trace = optimize(p, "add_neumann", OptimizeConfig(feas_threshold=1e-3, max_iters=400))
        assert trace.iterations >= 10
        assert calls["value"] == calls["dual_state"] > trace.iterations
        assert calls["second"] == (0 if cost == "exp" else trace.iterations)

    def test_alpha_star_step_rejects_eps_beyond_bound(self):
        # eps = 1e-3 is above this problem's bound of about 4.1e-4
        p = make_flow_problem(generate("barbell", {"clique": 8, "path_len": 6}))
        with pytest.raises(ValueError, match="eps=0.001 is outside"):
            optimize(p, "sddm_newton", OptimizeConfig(eps=1e-3, step="alpha_star"))

    def test_non_integral_radius_rejected(self):
        # R = 2.9 must not run as R = 2 under a trace header reading R=2.9
        p = random_flow(10, 18, seed=15)
        with pytest.raises(ValueError, match="integer"):
            optimize(p, "sddm_newton", OptimizeConfig(R=2.9, max_iters=3))

    @pytest.mark.parametrize("R", [2.9, 0, -1, math.nan])
    def test_radius_checked_before_any_step(self, R):
        # with max_iters=0 no Newton step builds an engine, so only the
        # check at the top of optimize can refuse these
        p = random_flow(10, 18, seed=15)
        with pytest.raises(ValueError, match="R must be"):
            optimize(p, "sddm_newton", OptimizeConfig(R=R, max_iters=0))

    @pytest.mark.parametrize("R", [3, 6, 12.0])
    def test_non_power_of_two_radius_checked_before_any_step(self, R):
        # RHopEngine rejects these at the first Newton step; with
        # max_iters=0 there is none, so only the check up front can
        p = random_flow(10, 18, seed=15)
        with pytest.raises(ValueError, match="R must be a power of two"):
            optimize(p, "sddm_newton", OptimizeConfig(R=R, max_iters=0))
        # other methods run no engine
        assert optimize(p, "exact_newton", OptimizeConfig(R=R, max_iters=0)).iterations == 0

    def test_non_integral_ground_node_rejected(self, monkeypatch):
        # 2.5 names no node; direct_solve's grounding message would hide that
        p = random_flow(10, 18, seed=15)
        with pytest.raises(ValueError,
                           match=re.escape("ground_node must be an integer in [0, 10), got 2.5")):
            optimize(p, "exact_newton", OptimizeConfig(ground_node=2.5, max_iters=3))
        as_float = optimize(p, "exact_newton", OptimizeConfig(ground_node=2.0, max_iters=3))
        as_int = optimize(p, "exact_newton", OptimizeConfig(ground_node=2, max_iters=3))
        assert as_float.rows == as_int.rows
        # nor does 99 of 10 nodes: the Newton methods used to fail at their
        # first step, naming ref_node, and the other two ran and converged.
        # Every method refuses it before any work.
        import lapflow.newton_flow as nf

        def no_work(*args):
            raise AssertionError("optimize started work on a bad ground_node")

        monkeypatch.setattr(nf, "convergence_constants", no_work)
        for method in ("sddm_newton", "exact_newton", "subgradient", "add_neumann"):
            for bad in (99, 10, -1):
                with pytest.raises(ValueError,
                                   match=re.escape("ground_node must be an integer in [0, 10), got %d" % bad)):
                    optimize(p, method, OptimizeConfig(ground_node=bad, max_iters=3))

    def test_fixed_subgradient_default_step(self):
        p = random_flow(10, 18, seed=15)
        consts = convergence_constants(p)
        trace = optimize(p, "subgradient", OptimizeConfig(step="fixed", max_iters=3))
        assert trace.rows[0]["step"] == pytest.approx(consts.gamma / consts.mun)


def trace_bytes(trace):
    """Trace rows, dual values and final lambda as one byte string."""
    rows = "\n".join(Trace.format_row(row) for row in trace.rows)
    return (rows + repr(trace.dual)).encode() + trace.final_state.lam.tobytes()


def signed_zero_vector(rng, size):
    v = rng.standard_normal(size)
    v[::5] = 0.0
    v[2::5] = -0.0
    return v


class TestKernelPath:
    """The dual loop's incidence products run in netsim's guarded CSR kernel."""

    PROBLEMS = [("grid", {"rows": 5, "cols": 6}, None),
                ("random", {"n": 30, "m": 80}, 4),
                ("barbell", {"clique": 8, "path_len": 6}, None)]

    @pytest.mark.parametrize("kind, params, seed", PROBLEMS)
    def test_laplacian_arrays_are_those_of_the_csr_transpose(self, kind, params, seed):
        # L = A A' from incidence.T, which scipy converts to CSR for the
        # product: the arrays of the product with the explicit CSR transpose
        p = flow_on(kind, params, seed=seed)
        got = p.unweighted_laplacian()
        want = p.incidence @ p.incidence.T.tocsr()
        assert got.format == "csr"
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("kind, params, seed", PROBLEMS)
    def test_arc_differences_are_the_transpose_product_bits(self, kind, params, seed):
        # on vectors with no -0.0 (zeros included) the gather gives the
        # bits of the kernel product with A'
        p = flow_on(kind, params, seed=seed)
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.standard_normal(p.n)
            v[::5] = 0.0
            assert p.arc_differences(v).tobytes() == (p.incidence.T @ v).tobytes()
            assert p.arc_differences(v).tobytes() == (p.incidence.T.tocsr() @ v).tobytes()

    def test_arc_differences_keep_a_negative_zero_tail(self):
        # the one place the two differ: on arc (0, 1) the gather gives
        # -0.0 - 0.0 = -0.0, the kernel 0.0 + -0.0 + -0.0 = +0.0
        p = flow_on("path", {"n": 3})
        v = np.array([-0.0, 0.0, 0.0])
        got, want = p.arc_differences(v), p.incidence.T @ v
        assert got.tolist() == want.tolist() == [0.0, 0.0]
        assert np.signbit(got).tolist() == [True, False]
        assert np.signbit(want).tolist() == [False, False]

    @pytest.mark.parametrize("kind, params, seed", PROBLEMS)
    def test_kernel_products_match_matmul_bits(self, kind, params, seed, monkeypatch):
        p = flow_on(kind, params, seed=seed)
        rng = np.random.default_rng(5)
        calls = []
        real = netsim._csr_matvec
        assert real is not None

        def spy(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(netsim, "_csr_matvec", spy)
        for _ in range(5):
            x = signed_zero_vector(rng, p.E)
            lam = signed_zero_vector(rng, p.n)
            # signbits included: tobytes tells -0.0 from 0.0
            assert netsim.csr_apply(p.incidence, x).tobytes() == (p.incidence @ x).tobytes()
            dual_state(lam, p)
        # A x once per check and once per dual_state; A' is a gather, no kernel call
        assert calls == [(p.n, p.E)] * 10

    @pytest.mark.parametrize("kind, params, seed", PROBLEMS)
    @pytest.mark.parametrize("cost", ["exp", "quadratic"])
    def test_dual_oracle_is_the_plain_composition(self, kind, params, seed, cost):
        # every field of a dual point has the bits of the textbook formulas,
        # and so do the Hessian weights read from its per-arc costs
        p = flow_on(kind, params, seed=seed, cost=cost)
        A, c = p.incidence, p.cost
        rng = np.random.default_rng(6)
        for _ in range(5):
            lam = rng.standard_normal(p.n)
            lam[::5] = 0.0  # zeros, but no -0.0, where the gather and A' differ in sign
            x = c.inv_deriv(A.T @ lam)
            g = A @ x - p.b
            costs = c.value(x)
            objective = costs.sum()
            value = lam @ g - objective
            state = dual_state(lam, p)
            assert state.x_of_lambda.tobytes() == x.tobytes()
            assert state.g.tobytes() == g.tobytes()
            assert state.arc_costs.tobytes() == costs.tobytes()
            assert np.float64(state.objective).tobytes() == objective.tobytes()
            assert np.float64(state.value).tobytes() == value.tobytes()
            w = 1.0 / c.second(x)
            D = (np.bincount(p._tails, weights=w, minlength=p.n)
                 + np.bincount(p._heads, weights=w, minlength=p.n))
            # a state built by hand has no per-arc costs: the curvature is evaluated
            for st in (state, DualState(lam, x, g)):
                got_w, got_D = _hessian_weights(st, p)
                assert got_w.tobytes() == w.tobytes()
                assert got_D.tobytes() == D.tobytes()

    def test_add_neumann_builds_no_transpose(self, monkeypatch):
        p = flow_on("barbell", {"clique": 8, "path_len": 6})
        p.spectrum()  # L = A A' is built from incidence.T once, before the loop
        calls = []
        real = p.incidence.transpose

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(p.incidence, "transpose", counting)
        trace = optimize(p, "add_neumann", OptimizeConfig(feas_threshold=1e-2, max_iters=200))
        assert trace.iterations > 10
        assert calls == []

    @pytest.mark.parametrize("method, step", [("add_neumann", "backtracking"),
                                              ("subgradient", "backtracking"),
                                              ("subgradient", "fixed"),
                                              ("add_neumann", "fixed")])
    @pytest.mark.parametrize("cost", ["exp", "quadratic"])
    def test_fallback_traces_identical(self, method, step, cost, monkeypatch):
        p = flow_on("barbell", {"clique": 8, "path_len": 6}, cost=cost)
        cfg = OptimizeConfig(step=step, feas_threshold=1e-3, max_iters=400)
        calls = []
        real = netsim._csr_matvec

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(netsim, "_csr_matvec", spy)
        fast = optimize(p, method, cfg)
        assert len(calls) >= fast.iterations
        monkeypatch.setattr(netsim, "_csr_matvec", None)
        slow = optimize(p, method, cfg)
        assert fast.iterations >= 10
        assert trace_bytes(fast) == trace_bytes(slow)


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

    @pytest.mark.parametrize("method, extra", [
        ("sddm_newton", {"eps", "R", "solver_mode"}),
        ("exact_newton", set()),
        ("subgradient", set()),
        ("add_neumann", {"neumann_terms"}),
    ])
    def test_header_keys_per_method(self, method, extra):
        p = random_flow(8, 14, seed=16)
        trace = optimize(p, method, OptimizeConfig(step="fixed", max_iters=0))
        assert set(trace.header_items()) == {"method", "step", "feas_threshold",
                                             "max_iters"} | extra

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
