"""Minimum-cost network flow by dual descent.

The dual function q(lambda) = lambda'(A x(lambda) - b) - sum_e Phi_e(x(lambda))
is convex and minimized; its gradient is the flow-conservation violation
g = A x(lambda) - b and its Hessian is the weighted Laplacian with edge
weights 1/Phi''. Newton directions are obtained by grounding a reference
node and solving the SDDM subsystem with the distributed solvers (or the
direct oracle), then re-inserting zero and shifting to mean zero.

Each dual point is evaluated once, by dual_state (Armijo trials included,
and primal_recovery reads its x): x = [Phi']^{-1}(A' lambda), g = A x - b,
the per-arc costs Phi(x), their sum (the objective) and q. The state keeps
the per-arc costs, and for the exp cost, whose curvature is its value
(Phi'' = Phi), the Hessian weights 1/Phi'' are read from them instead of
evaluating the cost again.

The dual loop's products with A run in scipy's compiled CSR kernel
through netsim.csr_product, on the incidence that FlowProblem builds and
checks once; its products with A' are one gather per arc,
FlowProblem.arc_differences, behind dual_state, the Laplacian seminorm
and the Neumann baseline. No n x n array is formed: the spectral
constants come from Lanczos on the sparse L = A A'.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .graph_core import (
    StandardSplitting,
    diameter_endpoints,
    ground,
    laplacian,
    open_target,
    read_edge_list,
    save_edge_list,
    whole,
    write_csv,
)
from .reference_solver import (
    RICHARDSON_CONTRACTION,
    KeptFactors,
    _check_rhs,
    direct_solve,
    richardson_iterations,
)
from .spectral import estimated_chain, laplacian_spectrum
from .distributed_solver import FullCommEngine, RHopEngine, check_rhop_radius, support_graph
from .netsim import Simulator, check_radius, csr_product

__all__ = [
    "EdgeCost",
    "exp_cost",
    "quadratic_cost",
    "FlowProblem",
    "make_flow_problem",
    "load_flow_problem",
    "problem_from_lines",
    "save_flow_problem",
    "DualState",
    "dual_state",
    "primal_recovery",
    "dual_hessian",
    "dual_value",
    "ConvergenceConstants",
    "convergence_constants",
    "alpha_star",
    "strict_decrement_bound",
    "newton_direction",
    "OptimizeConfig",
    "Trace",
    "DivergenceError",
    "optimize",
    "PhaseReport",
    "classify_phase",
]


class EdgeCost:
    """Evaluators and curvature constants of one strictly convex edge cost.

    Parameters
    ----------
    name : str
    value, deriv, second, inv_deriv : callables
        Phi, Phi', Phi'' and the inverse of Phi', all vectorized: an array
        of flows in, an array of the same shape out. Pass one function as
        both value and second when Phi'' = Phi: the Hessian weights then
        reuse the per-arc costs that each dual evaluation computes.
    gamma, Gamma : float
        Curvature bounds gamma <= Phi'' <= Gamma on the working domain.
    delta : float
        Lipschitz constant of 1/Phi''.

    Since gamma > 0, Phi' is a bijection of the reals, so inv_deriv is
    defined everywhere.
    """

    def __init__(self, name, value, deriv, second, inv_deriv,
                 gamma, Gamma, delta, param=None):
        self.name = name
        self.value = value
        self.deriv = deriv
        self.second = second
        self.inv_deriv = inv_deriv
        self.gamma = float(gamma)
        self.Gamma = float(Gamma)
        self.delta = float(delta)
        self.param = param


def exp_cost(x_box=5.0):
    """Cost e^x + e^{-x}; Gamma is evaluated over the flow box [-x_box, x_box].

    Phi'' = Phi, so one function is both value and second: the Hessian
    weights are the reciprocals of the per-arc costs of the dual state.
    """
    if not 0.0 < x_box <= 700.0:  # Gamma = 2 cosh(x_box) overflows a float above about 710
        raise ValueError("exp cost box must lie in (0, 700], got %r" % x_box)
    phi = lambda x: np.exp(x) + np.exp(-x)  # noqa: E731
    return EdgeCost(
        "exp",
        value=phi,
        deriv=lambda x: np.exp(x) - np.exp(-x),
        second=phi,
        inv_deriv=lambda y: np.arcsinh(0.5 * y),
        gamma=2.0,
        Gamma=2.0 * math.cosh(x_box),
        delta=0.25,  # max |d/dx (1/(2 cosh x))| attained at sinh x = 1
        param=float(x_box),
    )


def quadratic_cost():
    """Cost x^2/2; the dual is an exactly quadratic function."""
    return EdgeCost(
        "quadratic",
        value=lambda x: 0.5 * np.square(x),
        deriv=lambda x: np.asarray(x, dtype=float),
        second=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        inv_deriv=lambda y: np.asarray(y, dtype=float),
        gamma=1.0,
        Gamma=1.0,
        delta=0.0,
    )


_COST_FACTORIES = {"exp": exp_cost, "quadratic": quadratic_cost}


def make_cost(name, param=None):
    """Cost factory by name: 'exp' (optional box) or 'quadratic' (no parameter)."""
    if name not in _COST_FACTORIES:
        raise ValueError("unknown cost %r" % name)
    if param is None:
        return _COST_FACTORIES[name]()
    if name != "exp":
        raise ValueError("cost %r takes no parameter, got %r" % (name, param))
    return exp_cost(param)


class FlowProblem:
    """Minimum-cost flow instance min sum_e Phi(x_e) s.t. A x = b.

    Parameters
    ----------
    graph : WeightedGraph
        Connected, with at least one edge. Edge (i, j), i < j, is the arc
        from tail i to head j; the incidence matrix has +1 at the tail and
        -1 at the head of each arc.
    b : array_like
        Finite external sources, must sum to zero.
    cost : EdgeCost
        The one cost shared by all arcs.

    Attributes
    ----------
    n, E : int
        Node and arc counts.
    incidence : CSR matrix, shape (n, E)
        Built and checked for the compiled kernel once; never changed.
    """

    def __init__(self, graph, b, cost):
        b = _check_rhs(b, graph.n)
        if abs(b.sum()) > 1e-10 * max(1.0, np.abs(b).max()):
            raise ValueError("sources must sum to zero")
        if graph.m == 0:
            raise ValueError("flow problem needs at least one edge")
        if not graph.is_connected():
            raise ValueError("flow problem needs a connected graph")
        if not isinstance(cost, EdgeCost):
            raise ValueError("need one EdgeCost shared by all arcs")
        self.graph = graph
        self.b = b
        self.cost = cost
        self.n = graph.n
        self.E = graph.m
        self._tails = np.array([i for (i, _, _) in graph.edges], dtype=int)
        self._heads = np.array([j for (_, j, _) in graph.edges], dtype=int)
        # entries in arc order, tail before head
        self.incidence = sparse.csr_matrix(
            (np.tile([1.0, -1.0], self.E),
             (np.column_stack([self._tails, self._heads]).ravel(),
              np.repeat(np.arange(self.E), 2))),
            shape=(self.n, self.E),
        )
        self._apply_incidence = csr_product(self.incidence)
        self._lap = None
        self._spectrum = None
        self._networks = {}

    def unweighted_laplacian(self):
        """L = A A' of the incidence matrix as CSR (cached)."""
        if self._lap is None:
            self._lap = self.incidence @ self.incidence.T
        return self._lap

    def spectrum(self):
        """(mu2, mun): second-smallest and largest eigenvalue of the unweighted Laplacian,
        by Lanczos (spectral.laplacian_spectrum; cached)."""
        if self._spectrum is None:
            self._spectrum = laplacian_spectrum(self.unweighted_laplacian())
        return self._spectrum

    def network(self, ref_node, R):
        """Cached Simulator with radius R on G minus ref_node (maybe split); run engines on fresh() copies.

        It is the support graph of every grounded dual Hessian, which weighs each arc positively.
        """
        key = (ref_node, R)
        if key not in self._networks:
            self._networks[key] = Simulator(support_graph(ground(laplacian(self.graph), ref_node)), R)
        return self._networks[key]

    def arc_differences(self, v):
        """A'v gathered per arc as v_tail - v_head: the bits of incidence.T @ v but for
        the sign of a zero. That kernel sums from +0.0, so a -0.0 tail over a +0.0 head
        gives +0.0 there and -0.0 here; a v with no -0.0, such as a kernel sum (every
        Neumann term), gets the kernel's bits."""
        y = v.take(self._tails)
        y -= v.take(self._heads)
        return y

    def lnorm(self, v):
        """Laplacian seminorm sqrt(v' L v) = ||A'v||."""
        y = self.arc_differences(v)
        return math.sqrt(y.dot(y))


def make_flow_problem(g, cost="exp", magnitude=1.0, source=None, sink=None):
    """Flow instance on a graph with source/sink a diameter apart.

    Parameters
    ----------
    g : WeightedGraph
    cost : str or EdgeCost
        A name takes the cost's default; pass exp_cost(box) for another box.
    magnitude : float
        b[source] = +magnitude, b[sink] = -magnitude.
    source, sink : int, optional
        Two different nodes in [0, n); an integral float such as 2.0 is
        accepted. Default to the lexicographically smallest diameter pair.
    """
    if source is None or sink is None:
        u, v = diameter_endpoints(g)
        source = u if source is None else source
        sink = v if sink is None else sink
    source, sink = whole(source, "source", 0, g.n), whole(sink, "sink", 0, g.n)
    if source == sink:
        raise ValueError("source and sink must differ, both are %d" % source)
    b = np.zeros(g.n)
    b[source] += magnitude
    b[sink] -= magnitude
    if isinstance(cost, str):
        cost = make_cost(cost)
    return FlowProblem(g, b, cost)


def save_flow_problem(problem, target):
    """Write edge list, b vector and cost name in plain text to a path or file object."""
    with open_target(target) as fh:
        save_edge_list(problem.graph, fh)
        fh.write("b " + " ".join(repr(float(v)) for v in problem.b) + "\n")
        cost = problem.cost
        if cost.param is not None:
            fh.write("cost %s %r\n" % (cost.name, cost.param))
        else:
            fh.write("cost %s\n" % cost.name)


def load_flow_problem(path):
    """Read the plain-text problem format written by save_flow_problem.

    Raises ValueError on a malformed file: a bad header or edge line, or a
    'b' or 'cost' line that is missing, repeated or unknown.
    """
    return problem_from_lines(*read_edge_list(path))


def problem_from_lines(graph, lines):
    """The flow problem on graph with the 'b' and 'cost' lines that read_edge_list left over.

    `lines` holds token lists. Raises ValueError as load_flow_problem does.
    """
    rest = {}
    for tokens in lines:
        if tokens[0] not in ("b", "cost"):
            raise ValueError("unknown line %r" % " ".join(tokens))
        if tokens[0] in rest:
            raise ValueError("more than one %r line" % tokens[0])
        rest[tokens[0]] = tokens[1:]
    if len(rest) < 2:
        raise ValueError("problem file needs 'b' and 'cost' lines")
    if not 1 <= len(rest["cost"]) <= 2:
        raise ValueError("cost line needs a cost name and at most one parameter")
    name, param = rest["cost"][0], rest["cost"][1:]
    cost = make_cost(name, float(param[0]) if param else None)
    b = np.array([float(t) for t in rest["b"]])
    return FlowProblem(graph, b, cost)


@dataclass
class DualState:
    """Dual iterate: variables, flows x(lambda), gradient, objective, q and
    the per-arc costs Phi(x_e) that the objective sums.

    ``lam`` is the dual vector (called lambda in the docs; renamed because
    of the Python keyword). ``arc_costs`` is None on a state built by hand;
    the Hessian weights of a cost with Phi'' = Phi (exp_cost) read it when
    it is there and evaluate the curvature otherwise.
    """

    lam: np.ndarray
    x_of_lambda: np.ndarray
    g: np.ndarray
    objective: float = math.nan
    value: float = math.nan
    arc_costs: np.ndarray = None


def primal_recovery(lam, problem):
    """Per-arc primal flows x_e = [Phi']^{-1}(lambda_tail - lambda_head): dual_state's x."""
    return dual_state(lam, problem).x_of_lambda


def dual_state(lam, problem):
    """The DualState at lambda: x = [Phi']^{-1}(A' lambda), g = A x - b, the
    per-arc costs Phi(x), the objective as their sum and q = lambda'g - objective.

    The one evaluation of a dual point, Armijo trials included."""
    lam = np.asarray(lam, dtype=float).ravel()
    x = problem.cost.inv_deriv(problem.arc_differences(lam))
    g = problem._apply_incidence(x)
    g -= problem.b
    costs = problem.cost.value(x)
    obj = float(np.add.reduce(costs, axis=None))  # what ndarray.sum runs
    return DualState(lam, x, g, obj, float(lam.dot(g)) - obj, costs)


def dual_value(lam, problem):
    """q(lambda) = lambda'(A x(lambda) - b) - sum_e Phi_e(x_e(lambda))."""
    return dual_state(lam, problem).value


def _check_finite_positive(v, fault):
    # min and max first, as a nan fails either comparison; the first bad
    # edge is looked for only once the check has failed
    if not (v.min() > 0 and v.max() < math.inf):
        bad = int(np.flatnonzero(~((v > 0) & (v < math.inf)))[0])
        raise RuntimeError("Hessian %s on edge %d" % (fault, bad))


_TINY = np.finfo(float).tiny  # the smallest normal double


def _hessian_weights(state, problem):
    """Edge weights w = 1/Phi''(x_e(lambda)) and their node sums D.

    When the cost's curvature is its value (exp_cost), Phi'' is the state's
    per-arc costs; otherwise, or on a state without them, cost.second runs.
    Raises RuntimeError naming the first edge whose curvature is not finite
    and positive, or whose weight is not finite: a subnormal curvature's
    reciprocal may overflow.
    """
    cost = problem.cost
    if cost.second is cost.value and state.arc_costs is not None:
        dd = state.arc_costs
    else:
        dd = cost.second(state.x_of_lambda)
    dd = np.asarray(dd, dtype=float)
    # a finite curvature of at least the smallest normal double has a
    # finite reciprocal (a nan fails the first comparison)
    if dd.min() >= _TINY and dd.max() < math.inf:
        w = 1.0 / dd
    else:
        _check_finite_positive(dd, "curvature invalid")
        with np.errstate(over="ignore"):
            w = 1.0 / dd
        # the reciprocal of a finite positive curvature is positive
        if not w.max() < math.inf:
            raise RuntimeError("Hessian weight not finite on edge %d" % int(np.flatnonzero(w == math.inf)[0]))
    n = problem.n
    D = np.bincount(problem._tails, weights=w, minlength=n)
    D += np.bincount(problem._heads, weights=w, minlength=n)
    return w, D


def dual_hessian(state, problem):
    """Weighted Laplacian Hessian with edge weights 1/Phi''(x_e(lambda))."""
    w, D = _hessian_weights(state, problem)
    n = problem.n
    t, h = problem._tails, problem._heads
    A = sparse.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([t, h]), np.concatenate([h, t]))),
        shape=(n, n),
    )
    return StandardSplitting(D, A)


@dataclass
class ConvergenceConstants:
    """Theory constants of the dual Newton iteration on one problem.

    All spectral quantities refer to the unweighted Laplacian L = A A'.
    eps is the solver accuracy the eps-dependent members were evaluated at.
    """

    gamma: float
    Gamma: float
    delta: float
    B: float
    mu2: float
    mun: float
    alpha_star: float
    xi: float
    zeta: float
    eta0: float
    eta1: float
    eps: float = 0.0

    def __post_init__(self):
        if self.zeta > 0 and math.isfinite(self.eta1):
            if not (0 < self.eta0 < self.eta1) and self.eta0 != self.eta1:
                raise ValueError("phase thresholds must satisfy 0 < eta0 < eta1")


def alpha_star(gamma, Gamma, mu2, mun, eps):
    """Step size (e^{-eps^2}/(1+eps)^2) (gamma/Gamma * mu2/mun)^2, clipped to (0,1].

    eps must stay below (mu2/mun) sqrt(gamma/Gamma) for the terminal phase
    to contract.
    """
    bound = (mu2 / mun) * math.sqrt(gamma / Gamma)
    if not 0 <= eps < bound:  # False on nan
        raise ValueError(
            "eps=%g is outside [0, %g); pick a smaller solver accuracy" % (eps, bound)
        )
    val = (math.exp(-eps ** 2) / (1.0 + eps) ** 2) * ((gamma / Gamma) * (mu2 / mun)) ** 2
    return min(1.0, val)


def convergence_constants(problem, eps=0.0):
    """Evaluate the convergence constants of a problem at solver accuracy eps."""
    cost = problem.cost
    gamma, Gamma, delta = cost.gamma, cost.Gamma, cost.delta
    if not 0.0 < gamma <= Gamma < math.inf:
        raise ValueError("cost %r needs 0 < gamma <= Gamma < inf, got gamma=%g Gamma=%g"
                         % (cost.name, gamma, Gamma))
    mu2, mun = problem.spectrum()
    B = mun * delta / (gamma * math.sqrt(mu2))
    a = alpha_star(gamma, Gamma, mu2, mun, eps)
    xi = math.sqrt(max(0.0, 1.0 - a + a * eps * (mun / mu2) * math.sqrt(Gamma / gamma)))
    zeta = B * (a * Gamma * (1.0 + eps)) ** 2 / (2.0 * mu2 ** 2)
    if zeta > 0:
        eta0 = xi * (1.0 - xi) / zeta
        eta1 = (1.0 - xi) / zeta
    else:
        eta0 = eta1 = math.inf
    return ConvergenceConstants(
        gamma=gamma, Gamma=Gamma, delta=delta, B=B, mu2=mu2, mun=mun,
        alpha_star=a, xi=xi, zeta=zeta, eta0=eta0, eta1=eta1, eps=eps,
    )


def strict_decrement_bound(consts):
    """Guaranteed dual decrease per strict-phase step (a negative number)."""
    c = consts
    return -0.5 * (math.exp(-2.0 * c.eps ** 2) / (1.0 + c.eps) ** 2) * (
        c.gamma ** 3 / c.Gamma ** 2
    ) * (c.mu2 ** 2 / c.mun ** 4) * c.eta1 ** 2


def newton_direction(state, problem, eps=1e-4, R=1, ref_node=0, report=None, kept=None):
    """Approximate Newton direction d with H(lambda) d = -g.

    Grounds `ref_node`, solves the SDDM subsystem to accuracy eps with the
    R-hop engine (R=None: the full-communication engine; eps=0: exactly,
    with direct_solve, as exact_newton does), re-inserts 0 at the reference
    node and shifts the result to mean zero. An exact solve reads and
    refills `kept`, a KeptFactors that exact_newton makes once per run, so
    the run factors its first grounded Hessian and solves the later ones,
    which share its pattern, by CG on those factors (a fresh holder when
    None: factored once, for this step alone). When `report` is a dict it
    receives eps_prime (the guaranteed relative H-norm error of the
    direction, derived from eps), messages and rounds; for an exact step
    also factored (whether the step factored its Hessian) and cg_iterations.
    """
    g = state.g
    if abs(g.sum()) > 1e-8 * max(1.0, float(np.abs(g).max())):
        raise ValueError("dual gradient must sum to zero")
    H = dual_hessian(state, problem)
    Hg = ground(H, ref_node)
    rhs = -np.delete(g, int(ref_node))
    messages = 0
    rounds = 0
    if eps == 0:
        kept = KeptFactors() if kept is None else kept
        y = direct_solve(Hg, rhs, kept)
        eps_prime = 0.0
    else:
        spec = estimated_chain(Hg)
        sim = problem.network(ref_node, R).fresh()
        eng = FullCommEngine(Hg, spec, sim) if R is None else RHopEngine(Hg, spec, sim)
        y = eng.esolve(rhs, eps)
        messages = eng.transcript.messages_total
        rounds = eng.transcript.rounds
        q = richardson_iterations(eps)
        eps_prime = RICHARDSON_CONTRACTION ** (q + 1)
    d = np.insert(y, int(ref_node), 0.0)
    d -= d.mean()
    if report is not None:
        report.update(eps_prime=eps_prime, messages=messages, rounds=rounds)
        if eps == 0:
            report.update(factored=kept.factored, cg_iterations=kept.cg_iterations)
    return d


# N of the truncated-Neumann baseline
NEUMANN_TERMS = 2


@dataclass
class OptimizeConfig:
    """Knobs of the dual descent loop."""

    step: str = "backtracking"  # fixed | alpha_star | backtracking
    feas_threshold: float = 1e-5
    max_iters: int = 500
    eps: float = 1e-4  # solver accuracy for sddm_newton, in (0, 1/2]
    R: int = 1  # hop radius of the sddm_newton solver; None is full communication
    ground_node: int = 0


class DivergenceError(RuntimeError):
    """Objective became non-finite or the line search stalled; carries the trace so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class Trace:
    """Per-iteration record of one optimization run."""

    COLUMNS = ("iter", "objective", "feasibility", "grad_lnorm", "step", "phase", "messages")

    def __init__(self, method, config, consts):
        self.method = method
        self.config = config
        self.consts = consts
        self.rows = []
        self.dual = []
        self.converged = False
        self.final_state = None

    def add(self, row, dual_val):
        self.rows.append(row)
        self.dual.append(dual_val)

    def column(self, name):
        return [row[name] for row in self.rows]

    @property
    def iterations(self):
        """Number of update steps taken."""
        return max(0, len(self.rows) - 1)

    def header_items(self):
        cfg = self.config
        items = {
            "method": self.method,
            "step": cfg.step,
            "feas_threshold": cfg.feas_threshold,
            "max_iters": cfg.max_iters,
        }
        if self.method == "sddm_newton":
            mode = "full_distributed" if cfg.R is None else "rhop_distributed"
            items.update(eps=cfg.eps, R=cfg.R, solver_mode=mode)
            if self.consts.eps != cfg.eps:
                items.update(consts_eps=self.consts.eps)
        if self.method == "add_neumann":
            items.update(neumann_terms=NEUMANN_TERMS)
        return items

    @staticmethod
    def format_row(row):
        """One CSV line (without newline) of a row, in COLUMNS order."""
        return "%d,%r,%r,%r,%r,%s,%d" % (
            row["iter"], row["objective"], row["feasibility"],
            row["grad_lnorm"], row["step"], row["phase"], row["messages"],
        )

    def to_csv(self, target, extra_header=None):
        """Write the trace with the resolved configuration as # comments."""
        items = self.header_items()
        if extra_header:
            items.update(extra_header)
        write_csv(target, items, self.COLUMNS, map(self.format_row, self.rows))


def _phase_label(gl, consts):
    if gl > consts.eta1:
        return "strict"
    if gl >= consts.eta0:
        return "quadratic"
    return "terminal"


def _armijo(problem, state, direction, alpha0, c1=1e-4, shrink=0.5):
    """Backtrack from alpha0 to the first Armijo step; return (alpha, its DualState),
    or (alpha, None) once alpha falls to 1e-12."""
    slope = float(state.g.dot(direction))
    alpha = alpha0
    while alpha > 1e-12:
        trial = dual_state(state.lam + alpha * direction, problem)
        if trial.value <= state.value + c1 * alpha * slope:
            return alpha, trial
        alpha *= shrink
    return alpha, None


def optimize(problem, method="sddm_newton", config=None):
    """Run dual descent from lambda = 0 until ||A x(lambda) - b|| meets the threshold.

    Parameters
    ----------
    problem : FlowProblem
    method : str
        sddm_newton | exact_newton | subgradient | add_neumann.
    config : OptimizeConfig, optional

    Returns
    -------
    Trace
        Per-iteration objective, feasibility, Laplacian gradient norm, step,
        phase label and message count; `converged` tells whether the
        threshold was met within max_iters.
    """
    if method not in ("sddm_newton", "exact_newton", "subgradient", "add_neumann"):
        raise ValueError("unknown method %r" % method)
    cfg = config or OptimizeConfig()
    if cfg.step not in ("fixed", "alpha_star", "backtracking"):
        raise ValueError("unknown step policy %r" % cfg.step)
    max_iters = whole(cfg.max_iters, "max_iters", 0)
    if not cfg.feas_threshold >= 0:
        raise ValueError("feas_threshold must be >= 0")
    check_radius(cfg.R)
    if method == "sddm_newton":
        richardson_iterations(cfg.eps)  # ValueError unless 0 < eps <= 1/2
        if cfg.R is not None:
            check_rhop_radius(cfg.R)
    ground_node = whole(cfg.ground_node, "ground_node", 0, problem.n)
    eps = cfg.eps if method == "sddm_newton" else 0.0
    try:
        consts = convergence_constants(problem, eps)
    except ValueError:
        # eps is beyond the theory's bound: no alpha_star step exists, other
        # steps fall back to the eps = 0 constants (named in the trace header)
        if cfg.step == "alpha_star":
            raise
        consts = convergence_constants(problem, 0.0)
    trace = Trace(method, cfg, consts)
    one_hop = 2 * problem.E
    if cfg.step == "fixed":
        alpha = consts.gamma / consts.mun if method == "subgradient" else 1.0
    elif cfg.step == "alpha_star":
        alpha = consts.alpha_star
    else:
        alpha = 0.5  # backtracking warm-starts at twice the last accepted step

    threshold = cfg.feas_threshold
    backtracking = cfg.step == "backtracking"
    lnorm, differences = problem.lnorm, problem.arc_differences
    apply_incidence = problem._apply_incidence
    kept = KeptFactors()  # the exact steps' factors, for this run only
    state = dual_state(np.zeros(problem.n), problem)
    for k in range(max_iters + 1):
        g = state.g
        feas = math.sqrt(g.dot(g))  # what np.linalg.norm computes
        gl = lnorm(g)
        if not (math.isfinite(state.objective) and math.isfinite(feas)):
            raise DivergenceError("objective diverged at iteration %d" % k, trace)
        done = feas <= threshold or k == max_iters
        if done:
            step, messages = 0.0, 0
        else:
            solver_msgs = 0
            if method in ("sddm_newton", "exact_newton"):
                report = {}
                direction = newton_direction(state, problem, eps=eps, R=cfg.R,
                                             ref_node=ground_node, report=report, kept=kept)
                solver_msgs = report.get("messages", 0)
            elif method == "subgradient":
                direction = -g
            else:  # add_neumann
                # H = inc diag(w) inc' applied matrix-free: A_H t = D_H t - H t
                w, D_H = _hessian_weights(state, problem)
                t = g / D_H
                acc = t.copy()
                for _ in range(NEUMANN_TERMS):
                    ht = apply_incidence(w * differences(t))
                    t = D_H * t
                    t -= ht
                    t /= D_H
                    acc += t
                direction = -acc
                solver_msgs = NEUMANN_TERMS * one_hop

            if backtracking:
                alpha, nxt = _armijo(problem, state, direction, alpha0=min(1.0, 2.0 * alpha))
                if nxt is None:
                    raise DivergenceError("line search found no decrease at iteration %d" % k,
                                          trace)
            else:
                nxt = dual_state(state.lam + alpha * direction, problem)
            step, messages = float(alpha), int(solver_msgs + one_hop)
        trace.add(dict(iter=k, objective=state.objective, feasibility=feas, grad_lnorm=gl,
                       step=step, phase=_phase_label(gl, consts), messages=messages),
                  state.value)
        if done:
            trace.converged = feas <= threshold
            break
        state = nxt

    trace.final_state = state
    return trace


@dataclass
class PhaseReport:
    """Phase labels plus the iteration-count bounds evaluated on a trace."""

    labels: list
    counts: dict
    N1_bound: float
    N2_bound: float
    terminal_radius: float


def classify_phase(trace, consts):
    """Label every recorded iteration and evaluate the phase-count bounds.

    Thresholds eta0/eta1 act on the recorded ||g||_L. N1 bounds the strict
    phase via the dual gap of the trace, N2 the quadratic phase via the
    contraction ratio at its first iteration; the terminal radius is the
    guaranteed ||g||_L ceiling of the last phase.
    """
    gls = trace.column("grad_lnorm")
    labels = [_phase_label(gl, consts) for gl in gls]
    counts = {name: labels.count(name) for name in ("strict", "quadratic", "terminal")}
    eps = consts.eps
    hat = (consts.mun / consts.mu2) * math.sqrt(consts.Gamma / consts.gamma)
    slack = 1.0 - eps * hat

    n1 = math.inf
    if trace.dual and slack > 0:
        gap = trace.dual[0] - min(trace.dual)
        c1 = 2.0 * consts.xi ** 2 * (1.0 + eps) ** 2 * gap * consts.Gamma ** 2 / consts.gamma
        n1 = c1 * consts.mun ** 2 / consts.mu2 ** 3 / slack ** 2

    n2 = math.inf
    first_quadratic = next((t for t, lab in enumerate(labels) if lab == "quadratic"), None)
    if first_quadratic is not None and math.isfinite(consts.eta1):
        r = gls[first_quadratic] / consts.eta1
        inner = 1.0 - consts.alpha_star * slack
        if 0 < r < 1 and 0 < inner < 1:
            n2 = math.log2(0.5 * math.log2(inner) / math.log2(r))

    radius = math.inf
    if slack > 0 and consts.xi > 0:
        radius = (
            2.0 * slack * consts.mun * math.sqrt(consts.mu2)
            / (math.exp(-eps ** 2) * consts.gamma * consts.xi)
        )
    return PhaseReport(
        labels=labels, counts=counts, N1_bound=n1, N2_bound=n2, terminal_radius=radius
    )
