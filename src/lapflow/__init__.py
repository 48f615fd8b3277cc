"""Distributed SDDM solvers and dual Newton flow optimization on graphs."""

from .graph_core import (
    StandardSplitting,
    WeightedGraph,
    diameter_endpoints,
    generate,
    ground,
    hop_distances,
    laplacian,
    load_edge_list,
    save_edge_list,
)
from .spectral import (
    CHAIN_C,
    EPS_D,
    ChainSpec,
    ConvergenceError,
    OrderCheckResult,
    SDDMReport,
    approx_order_check,
    chain_length,
    condition_bound,
    estimate_condition,
    estimated_chain,
    validate_sddm,
)
from .reference_solver import (
    RICHARDSON_RATE,
    InverseChainView,
    direct_solve,
    parallel_esolve,
    parallel_rsolve,
    richardson_iterations,
)
from .netsim import (
    LocalOperator,
    Simulator,
    SimTranscript,
    ViolationError,
)
from .distributed_solver import (
    FullCommEngine,
    RHopEngine,
    distr_esolve,
    distr_rsolve,
    edist_rsolve,
    rdist_rsolve,
    support_graph,
)
from .newton_flow import (
    ConvergenceConstants,
    DivergenceError,
    DualState,
    EdgeCost,
    FlowProblem,
    OptimizeConfig,
    PhaseReport,
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

__version__ = "0.1.0"
