"""Acceptance battery.

One test per numbered criterion; each prints a single PASS line with the
measured quantities (visible under `pytest -s`). Tolerances and budgets are
stated inline and are not relaxed anywhere else.
"""

import math
import time

import numpy as np
import pytest

from lapflow.graph_core import WeightedGraph, generate, ground, laplacian
from lapflow.spectral import EPS_D, chain_length, estimate_condition
from lapflow.reference_solver import RICHARDSON_RATE, direct_solve, richardson_iterates
from lapflow.distributed_solver import edist_rsolve
from lapflow.netsim import Simulator, ViolationError
from lapflow.newton_flow import (
    FlowProblem,
    OptimizeConfig,
    classify_phase,
    convergence_constants,
    dual_hessian,
    dual_state,
    exp_cost,
    make_flow_problem,
    newton_direction,
    optimize,
    strict_decrement_bound,
)
from conftest import full_engine, mnorm, rhop_engine
from oracles import dense, dense_chain_z, fd_gradient, fd_hessian, pinv_quadform, sandwich_exponent


def spec_for(s, safety=1.05):
    kappa = estimate_condition(s) * safety
    return chain_length(max(1.0, kappa)), kappa


def grounded(kind, params, seed=None, ref=0):
    return ground(laplacian(generate(kind, params, seed=seed)), ref)


def test_criterion_01_solver_accuracy_batch():
    # 50 random grounded systems, weights in [1,10], full eps x R grid
    t0 = time.time()
    solves = 0
    for k in range(50):
        n = 10 + (k * 90) // 49
        m = min(3 * n, n * (n - 1) // 2)
        s = grounded("random", {"n": n, "m": m, "w_min": 1.0, "w_max": 10.0}, seed=k)
        spec, _ = spec_for(s)
        rng = np.random.default_rng(100 + k)
        b = rng.standard_normal(s.n)
        xstar = direct_solve(s, b)
        denom = mnorm(s, xstar)
        for eps in (0.5, 0.1, 1e-2, 1e-4):
            for R in (1, 2, 4):
                x, _ = edist_rsolve(s, b, spec, R, eps)
                assert mnorm(s, x - xstar) <= eps * denom * (1 + 1e-9)
                solves += 1
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    print("criterion 1 PASS: %d solves met their eps target in %.1fs" % (solves, elapsed))


def test_criterion_02_crude_operator_sandwich():
    instances = [
        grounded("path", {"n": 12}),
        grounded("path", {"n": 30}, ref=11),
        grounded("grid", {"rows": 5, "cols": 6}),
        grounded("barbell", {"clique": 5, "path_len": 5}, ref=3),
        grounded("random", {"n": 25, "m": 70, "w_min": 0.5, "w_max": 5.0}, seed=2),
        grounded("random", {"n": 30, "m": 90, "w_min": 1.0, "w_max": 10.0}, seed=3),
        grounded("scale_free", {"n": 20}, seed=4),
    ]
    worst = 0.0
    for s in instances:
        spec = spec_for(s)[0]
        for eng in (full_engine(s, spec), rhop_engine(s, spec, 2)):
            z0 = np.column_stack([eng.rsolve(e) for e in np.eye(s.n)])
            alpha = sandwich_exponent(z0, dense(s))
            assert alpha <= EPS_D
            worst = max(worst, alpha)
    print("criterion 2 PASS: both engines' assembled crude operators met the e^{+-eps_d} "
          "sandwich exactly on %d instances, worst exponent %.2e <= %.3f"
          % (len(instances), worst, EPS_D))


def test_criterion_03_implementation_equivalence():
    kinds = ("random", "path", "grid", "barbell", "scale_free")
    worst = 0.0
    for k in range(50):
        n = 8 + (k % 17) * 2
        kind = kinds[k % 5]
        if kind == "random":
            g = generate("random", {"n": n, "m": min(3 * n, n * (n - 1) // 2),
                                    "w_min": 0.5, "w_max": 4.0}, seed=k)
        elif kind == "path":
            g = generate("path", {"n": n})
        elif kind == "grid":
            g = generate("grid", {"rows": 3, "cols": max(2, n // 3)})
        elif kind == "barbell":
            g = generate("barbell", {"clique": max(3, n // 4), "path_len": max(2, n // 4)})
        else:
            g = generate("scale_free", {"n": n}, seed=k)
        s = ground(laplacian(g), 0)
        spec, _ = spec_for(s)
        rng = np.random.default_rng(k)
        b = rng.standard_normal(s.n)
        x_ref = dense_chain_z(s, spec.d) @ b
        scale = np.linalg.norm(x_ref)
        x_dist = full_engine(s, spec).rsolve(b)
        worst = max(worst, np.linalg.norm(x_dist - x_ref) / scale)
        for R in (1, 2, 4):
            x_r = rhop_engine(s, spec, R).rsolve(b)
            worst = max(worst, np.linalg.norm(x_r - x_ref) / scale)
    assert worst <= 1e-9
    print("criterion 3 PASS: both engines agree with the dense chain operator on 50 "
          "instances, worst relative gap %.2e" % worst)


def test_criterion_04_locality_soundness():
    # engines enforce the radius on every gather, so completing at all proves
    # zero violations; transcripts additionally bound the realized hop count
    cases = [
        ("path", {"n": 12}, None),
        ("grid", {"rows": 4, "cols": 5}, None),
        ("random", {"n": 24, "m": 70}, 5),
        ("barbell", {"clique": 4, "path_len": 6}, None),
    ]
    used = {}
    for R in (1, 2, 4, 8):
        for kind, params, seed in cases:
            s = grounded(kind, params, seed=seed)
            spec, _ = spec_for(s)
            rng = np.random.default_rng(R)
            b = rng.standard_normal(s.n)
            _, eng = edist_rsolve(s, b, spec, R, 1e-2)
            assert eng.transcript.max_hop_used <= R
            used[R] = max(used.get(R, 0), eng.transcript.max_hop_used)
    g = generate("path", {"n": 5})
    sim = Simulator(g, R=1)
    P2 = np.linalg.matrix_power(g.adjacency_matrix().toarray(), 2)
    with pytest.raises(ViolationError):
        sim.account_round(2)
    with pytest.raises(ViolationError):
        sim.certify(P2, 2)
    print("criterion 4 PASS: max hop used per R = %s; over-radius round and operator rejected" % used)


def test_criterion_05_richardson_iteration_law():
    s = grounded("random", {"n": 20, "m": 50, "w_min": 1.0, "w_max": 3.0}, seed=5)
    spec, _ = spec_for(s)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(s.n)
    xstar = direct_solve(s, b)
    base = mnorm(s, xstar)
    qs, lninv, worst_ratio = [], [], 0.0
    for k in range(1, 15):
        eps = 2.0 ** -k
        eng = rhop_engine(s, spec, 1)
        x0, *iterates = richardson_iterates(eng.rsolve, eng.apply_M, b, eps)
        qs.append(len(iterates))
        lninv.append(k * math.log(2.0))
        errs = [mnorm(s, xt - xstar) for xt in [x0] + iterates]
        for before, after in zip(errs, errs[1:]):
            if before <= 1e-13 * base:
                break
            worst_ratio = max(worst_ratio, after / before)
    slope = float(np.polyfit(lninv, qs, 1)[0])
    target = 1.0 / RICHARDSON_RATE
    assert abs(slope - target) <= 0.15 * target
    assert worst_ratio <= 0.26 + 1e-6
    print("criterion 5 PASS: q slope %.4f vs %.4f (within 15%%), "
          "worst contraction %.2e <= 0.26" % (slope, target, worst_ratio))


def test_criterion_06_dual_calculus():
    problems = [
        make_flow_problem(generate("random", {"n": 10, "m": 20}, seed=6)),
        make_flow_problem(generate("random", {"n": 15, "m": 30}, seed=7)),
        make_flow_problem(generate("grid", {"rows": 3, "cols": 4})),
    ]
    worst_g = worst_h = worst_ones = 0.0
    for p in problems:
        rng = np.random.default_rng(p.n)
        for _ in range(3):
            lam = rng.standard_normal(p.n)
            lam = 0.3 * (lam - lam.mean())
            state = dual_state(lam, p)
            worst_g = max(worst_g, float(np.abs(fd_gradient(p, lam) - state.g).max()))
            H = dense(dual_hessian(state, p))
            worst_h = max(worst_h, float(np.abs(fd_hessian(p, lam) - H).max()))
            worst_ones = max(worst_ones, float(np.abs(H @ np.ones(p.n)).max()))
    assert worst_g <= 1e-5
    assert worst_h <= 1e-4
    assert worst_ones <= 1e-12
    print("criterion 6 PASS: FD gradient %.1e, FD Hessian %.1e, |H 1| %.1e"
          % (worst_g, worst_h, worst_ones))


def test_criterion_07_newton_fidelity():
    t0 = time.time()
    p = make_flow_problem(generate("random", {"n": 20, "m": 60}, seed=0))
    cfg = lambda: OptimizeConfig(feas_threshold=1e-5, max_iters=200, eps=1e-4, R=1)
    sddm = optimize(p, "sddm_newton", cfg())
    exact = optimize(p, "exact_newton", cfg())
    assert sddm.converged and exact.converged
    fs = sddm.column("feasibility")
    fe = exact.column("feasibility")
    worst = 0.0
    for k in range(min(len(fs), len(fe))):
        worst = max(worst, abs(fs[k] - fe[k]) / fe[k])
        if fe[k] <= 1e-5:
            break
    elapsed = time.time() - t0
    assert worst <= 0.01
    assert elapsed <= 30.0
    print("criterion 7 PASS: feasibility traces within %.1e relative, %.1fs" % (worst, elapsed))


def test_criterion_08_baseline_ordering():
    cases = [
        ("random", {"n": 20, "m": 60}, 0),
        ("random", {"n": 50, "m": 150}, 0),
        ("barbell", {"clique": 20, "path_len": 20}, 0),
        ("barbell", {"clique": 40, "path_len": 40}, 0),
    ]
    summary = []
    for kind, params, seed in cases:
        p = make_flow_problem(generate(kind, params, seed=seed))
        counts = {}
        for method in ("sddm_newton", "exact_newton", "add_neumann", "subgradient"):
            cfg = OptimizeConfig(feas_threshold=1e-2, max_iters=300000, R=None)
            trace = optimize(p, method, cfg)
            assert trace.converged, (kind, params, method)
            counts[method] = trace.iterations
        assert counts["sddm_newton"] <= counts["exact_newton"] * 1.05
        assert counts["exact_newton"] * 1.05 < counts["add_neumann"]
        assert counts["add_neumann"] < counts["subgradient"]
        summary.append("%s%s %s" % (kind, sorted(params.values()), counts))
    print("criterion 8 PASS: " + "; ".join(summary))


def test_criterion_09_convergence_phases():
    # clique with a tight flow box; sources sized so the run starts strict,
    # passes through the narrow quadratic band and ends terminal
    g = generate("random", {"n": 4, "m": 6}, seed=0)
    p = FlowProblem(g, np.array([6.9, 0.0, 0.0, -6.9]), exp_cost(x_box=3.0))
    consts = convergence_constants(p, eps=0.0)
    cfg = OptimizeConfig(step="alpha_star", feas_threshold=1e-5, max_iters=2500)
    trace = optimize(p, "exact_newton", cfg)
    assert trace.converged
    report = classify_phase(trace, consts)
    gl = trace.column("grad_lnorm")
    bound = strict_decrement_bound(consts)
    strict_pairs = quad_pairs = 0
    for k in range(len(gl) - 1):
        if gl[k] > consts.eta1:
            delta = trace.dual[k + 1] - trace.dual[k]
            assert delta <= bound + 1e-9 * abs(bound)
            strict_pairs += 1
        elif consts.eta0 <= gl[k] <= consts.eta1:
            assert gl[k + 1] <= gl[k] ** 2 / consts.eta1 * (1 + 1e-9)
            quad_pairs += 1
    assert strict_pairs >= 1 and quad_pairs >= 1
    print("criterion 9 PASS: %d strict steps met the decrement bound, %d banded "
          "pairs met the quadratic bound (counts %s)" % (strict_pairs, quad_pairs,
                                                         report.counts))


def test_criterion_10_realized_solve_sandwich():
    eps = 0.1
    band = math.exp(eps ** 2)
    problems = [
        make_flow_problem(generate("random", {"n": 12, "m": 25}, seed=8)),
        make_flow_problem(generate("random", {"n": 20, "m": 50}, seed=4)),
        make_flow_problem(generate("grid", {"rows": 4, "cols": 5})),
    ]
    for p in problems:
        # a realized Hessian half an exact Newton step away from the origin
        state0 = dual_state(np.zeros(p.n), p)
        d0 = newton_direction(state0, p, eps=0.0)
        state = dual_state(0.5 * d0, p)
        H = dual_hessian(state, p)
        Hg = ground(H, 0)
        keep = np.arange(1, p.n)
        spec, _ = spec_for(Hg)
        rng = np.random.default_rng(p.n)
        for _ in range(100):
            v = rng.standard_normal(p.n)
            v -= v.mean()
            y, _ = edist_rsolve(Hg, v[keep], spec, 1, eps)
            x = np.zeros(p.n)
            x[keep] = y
            x -= x.mean()
            ref = pinv_quadform(dense(H), v)
            assert ref > 0
            qf = float(v @ x)
            assert qf <= band * ref * (1 + 1e-12)
            assert qf >= ref / band * (1 - 1e-12)
    print("criterion 10 PASS: realized solve operator met the e^{+-eps^2} "
          "quadratic-form sandwich, 100 probes on %d instances" % len(problems))


def test_criterion_11_message_count_shape():
    # complete graph with one weakly attached node: dense support keeps the
    # per-round message count flat in R while kappa ~ 1e3 makes the kappa/R
    # term dominate, so the predicted shape is observable
    edges = []
    for i in range(10):
        for j in range(i + 1, 10):
            edges.append((i, j, 1e-3 if 9 in (i, j) else 1.0))
    g = WeightedGraph(10, edges)
    s = ground(laplacian(g), 0)
    spec, kappa = spec_for(s)
    d_max = int(np.diff(g.adjacency_matrix().indptr).max())  # the largest degree
    rng = np.random.default_rng(3)
    b = rng.standard_normal(s.n)
    rs = np.array([1, 2, 4, 8])
    per_iter = []
    for R in rs:
        eng = rhop_engine(s, spec, int(R))
        deltas = np.diff([eng.transcript.messages_total
                          for _ in richardson_iterates(eng.rsolve, eng.apply_M, b, 0.5)])
        per_iter.append(float(np.mean(deltas)))
    y = np.array(per_iter)
    model = kappa / rs + rs * d_max
    C = float(y @ model / (model @ model))
    resid = y - C * model
    r2 = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
    assert C > 0
    assert r2 >= 0.9
    print("criterion 11 PASS: messages per iteration ~ C(kappa/R + R d_max) "
          "with C=%.0f, R^2=%.3f" % (C, r2))
