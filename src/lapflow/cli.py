"""Command-line front end.

Four subcommands: `solve` runs the R-hop solver on a standalone grounded
system, `flow` optimizes one flow problem, `bench` compares all methods on
one problem, `scale` sweeps a graph family and reports message growth.
Every CSV embeds the resolved configuration as `# key=value` comments.
Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

import argparse
import logging
import math
import os
import sys

import numpy as np

from .graph_core import generate, ground, laplacian, load_edge_list, open_target, read_edge_list
from .spectral import ConvergenceError, estimated_chain
from .reference_solver import direct_solve, richardson_iterations
from .distributed_solver import check_rhop_radius, edist_rsolve
from .newton_flow import (
    DivergenceError,
    OptimizeConfig,
    Trace,
    make_flow_problem,
    optimize,
    problem_from_lines,
)

__all__ = ["header_items", "cmd_solve", "cmd_flow", "cmd_bench", "cmd_scale", "main"]

log = logging.getLogger("lapflow")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_METHODS = {
    "sddm-newton": "sddm_newton",
    "exact-newton": "exact_newton",
    "subgradient": "subgradient",
    "add": "add_neumann",
}


# each --graph kind -> {generate param: the option it is read from};
# "file" reads only the path of its edge list
_GRAPH_KINDS = {
    "path": {"n": "n"},
    "grid": {"rows": "rows", "cols": "cols"},
    "barbell": {"clique": "clique", "path_len": "path_len"},
    "random": {"n": "n", "m": "edges"},
    "scale-free": {"n": "n"},
    "file": {"path": "file"},
}
_GRAPH_OPTIONS = dict.fromkeys(dest for params in _GRAPH_KINDS.values() for dest in params.values())


def header_items(cfg):
    """The graph-describing `# key=value` items a solve, flow or bench CSV starts with."""
    items = dict(command=cfg.command, graph=cfg.graph, seed=cfg.seed)
    items.update((dest, getattr(cfg, dest)) for dest in _GRAPH_KINDS[cfg.graph].values())
    return items


def _graph_params(parser, cfg):
    """cfg.graph's params, read from exactly the options that kind uses.

    A usage error names an option the kind needs and was not given, or one
    it was given and does not read.
    """
    reads = _GRAPH_KINDS[cfg.graph]
    for dest in _GRAPH_OPTIONS:
        used = dest in reads.values()
        if used != (getattr(cfg, dest) is not None):
            parser.error("--%s is %s --graph %s" % (dest.replace("_", "-"),
                         "required for" if used else "not used by", cfg.graph))
    return {param: getattr(cfg, dest) for param, dest in reads.items()}


def _build_graph(parser, cfg):
    params = _graph_params(parser, cfg)
    if cfg.graph == "file":
        return load_edge_list(**params)
    return generate(cfg.graph, params, seed=cfg.seed)


def _check_ground(parser, cfg, n):
    """Usage error naming --ground unless it is a node of the n-node graph."""
    if not 0 <= cfg.ground_node < n:
        parser.error("--ground must lie in [0, %d), got %d" % (n, cfg.ground_node))


def _write_comments(fh, items):
    for key in items:
        fh.write("# %s=%s\n" % (key, items[key]))


def _checked_solve(g, ground_node, seed, R, eps):
    """Ground g's Laplacian, eps-solve it for a seeded b with the R-hop engine, check x.

    Returns (s, b, spec, x, eng, rel), where rel is x's M-norm error
    relative to the sparse-LU solution.
    """
    s = ground(laplacian(g), ground_node)
    b = np.random.default_rng(seed).standard_normal(s.n)
    spec = estimated_chain(s)
    x, eng = edist_rsolve(s, b, spec, R, eps)
    xstar = direct_solve(s, b)
    M = s.matrix()
    err = x - xstar
    rel = math.sqrt(float(err @ (M @ err)) / float(xstar @ (M @ xstar)))
    return s, b, spec, x, eng, rel


def _misses_eps(rel, eps):
    return not rel <= eps * (1 + 1e-9)


def cmd_solve(cfg, parser=None):
    """Solve one grounded system with the R-hop solver and emit the solution."""
    g = _build_graph(parser, cfg)
    _check_ground(parser, cfg, g.n)
    s, b, spec, x, eng, rel = _checked_solve(g, cfg.ground_node, cfg.seed, cfg.rhop, cfg.eps)
    log.info("solve: n=%d kappa~%.3g d=%d", s.n, spec.kappa, spec.d)
    residual = float(np.linalg.norm(s.matrix() @ x - b))
    items = header_items(cfg)
    items.update(
        eps=cfg.eps, R=cfg.rhop, ground=cfg.ground_node,
        kappa_estimate=repr(spec.kappa), chain_d=spec.d,
        residual=repr(residual),
        rounds=eng.transcript.rounds,
        messages=eng.transcript.messages_total,
        max_hop_used=eng.transcript.max_hop_used,
        mnorm_rel_error=repr(rel),
    )
    with open_target(cfg.out or sys.stdout) as fh:
        _write_comments(fh, items)
        fh.write("node,x\n")
        for k in range(x.shape[0]):
            fh.write("%d,%r\n" % (k, float(x[k])))
    print("solve: n=%d residual=%.3e messages=%d" % (s.n, residual, eng.transcript.messages_total))
    if _misses_eps(rel, cfg.eps):
        print("numerical failure: mnorm_rel_error %r exceeds eps %r" % (rel, cfg.eps), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _build_problem(parser, cfg):
    """The flow problem of --graph; a problem file brings its own b and cost."""
    given = {key: getattr(cfg, key) for key in ("cost", "magnitude") if getattr(cfg, key) is not None}
    if cfg.graph != "file":
        return make_flow_problem(_build_graph(parser, cfg), **given)
    g, rest = read_edge_list(**_graph_params(parser, cfg))
    if not rest:  # a bare edge list
        return make_flow_problem(g, **given)
    if given:
        parser.error("%s not used with a problem file, which sets its own b and cost"
                     % " and ".join("--" + key for key in given))
    return problem_from_lines(g, rest)


def _problem_items(cfg, problem):
    """header_items, then the problem's cost, --magnitude when given, and its size."""
    items = header_items(cfg)
    items["cost"] = problem.cost.name
    if cfg.magnitude is not None:
        items["magnitude"] = cfg.magnitude
    items.update(nodes=problem.n, arcs=problem.E)
    return items


def _flow_config(cfg):
    return OptimizeConfig(
        step=cfg.step.replace("-", "_"),
        feas_threshold=cfg.feas_threshold,
        max_iters=cfg.max_iters,
        eps=cfg.eps,
        R=cfg.rhop,
        ground_node=cfg.ground_node,
    )


def cmd_flow(cfg, parser=None):
    """Optimize one flow problem and emit its trace."""
    problem = _build_problem(parser, cfg)
    _check_ground(parser, cfg, problem.n)
    method = _METHODS[cfg.method]
    extra = _problem_items(cfg, problem)
    try:
        trace = optimize(problem, method, _flow_config(cfg))
    except DivergenceError as exc:
        exc.trace.to_csv(cfg.out or sys.stdout, extra_header=extra)
        print("flow: diverged (%s); partial trace written" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    trace.to_csv(cfg.out or sys.stdout, extra_header=extra)
    msgs = sum(trace.column("messages"))
    print(
        "flow: method=%s iterations=%d converged=%s messages=%d"
        % (method, trace.iterations, trace.converged, msgs)
    )
    return EXIT_OK if trace.converged else EXIT_NUMERICAL


def cmd_bench(cfg, parser=None):
    """Run every method on the same problem and emit one combined trace CSV.

    Each method's resolved settings follow the graph items as
    `# <method>.<key>=<value>` comments.
    """
    problem = _build_problem(parser, cfg)
    _check_ground(parser, cfg, problem.n)
    extra = _problem_items(cfg, problem)
    traces = {}
    for method in ("sddm_newton", "exact_newton", "add_neumann", "subgradient"):
        try:
            trace = optimize(problem, method, _flow_config(cfg))
        except DivergenceError as exc:
            trace = exc.trace
        traces[method] = trace
        extra.update(("%s.%s" % (method, key), val) for key, val in trace.header_items().items())
    with open_target(cfg.out or sys.stdout) as fh:
        _write_comments(fh, extra)
        fh.write("method," + ",".join(Trace.COLUMNS) + "\n")
        for method, trace in traces.items():
            for row in trace.rows:
                fh.write("%s,%s\n" % (method, Trace.format_row(row)))
            msgs = sum(trace.column("messages"))
            print(
                "bench: method=%s iterations=%d converged=%s messages=%d"
                % (method, trace.iterations, trace.converged, msgs)
            )
    return EXIT_OK


def _scale_instance(family, size, seed):
    if family == "path":
        return generate("path", {"n": size}, seed=seed), size
    if family == "grid":
        rows = max(2, int(round(math.sqrt(size))))
        cols = max(2, int(math.ceil(size / rows)))
        return generate("grid", {"rows": rows, "cols": cols}, seed=seed), rows * cols
    if family == "scale-free":
        return generate("scale_free", {"n": size}, seed=seed), size
    raise ValueError("unknown family %r" % family)


def cmd_scale(cfg, parser=None):
    """Sweep a family of sizes, fit the message-count growth exponent, check each solve."""
    try:
        sizes = [int(tok) for tok in (cfg.sizes or "").split(",") if tok.strip()]
    except ValueError:
        parser.error("--sizes must be a comma-separated list of integers")
    if not sizes:
        parser.error("--sizes must list at least one size")
    rows, misses = [], []
    for size in sizes:
        g, n_actual = _scale_instance(cfg.family, size, cfg.seed)
        *_, eng, rel = _checked_solve(g, 0, cfg.seed, cfg.rhop, cfg.eps)
        rows.append(
            (n_actual, eng.transcript.rounds, eng.transcript.messages_total,
             richardson_iterations(cfg.eps))
        )
        if _misses_eps(rel, cfg.eps):
            misses.append((n_actual, rel))
        log.info("scale: n=%d messages=%d", n_actual, rows[-1][2])
    slope = float("nan")
    if len({r[0] for r in rows}) >= 2:
        xs = np.log([r[0] for r in rows])
        ys = np.log([max(1, r[2]) for r in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    items = dict(command=cfg.command, seed=cfg.seed, family=cfg.family, eps=cfg.eps, R=cfg.rhop,
                 loglog_slope=repr(slope))
    with open_target(cfg.out or sys.stdout) as fh:
        _write_comments(fh, items)
        fh.write("n,rounds,messages,iterations\n")
        for row in rows:
            fh.write("%d,%d,%d,%d\n" % row)
    print("scale: family=%s slope=%.3f" % (cfg.family, slope))
    for n_actual, rel in misses:
        print("numerical failure: n=%d mnorm_rel_error %r exceeds eps %r" % (n_actual, rel, cfg.eps),
              file=sys.stderr)
    return EXIT_NUMERICAL if misses else EXIT_OK


def _parser():
    """Each subcommand accepts exactly the options it reads."""
    parser = argparse.ArgumentParser(
        prog="lapflow",
        description="Distributed SDDM solving and dual Newton flow optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand runs R-hop or Newton solves to --eps
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--seed", type=int, default=0)
    base.add_argument("--eps", type=float, default=1e-4)
    base.add_argument("--rhop", type=int, default=1)
    base.add_argument("--out")
    # solve, flow and bench: one graph from --graph, grounded at --ground
    graph = argparse.ArgumentParser(add_help=False, parents=[base])
    graph.add_argument("--graph", default="path", choices=list(_GRAPH_KINDS))
    for dest in _GRAPH_OPTIONS:  # --n --rows --cols --clique --path-len --edges --file
        graph.add_argument("--" + dest.replace("_", "-"), dest=dest, type=str if dest == "file" else int)
    graph.add_argument("--ground", type=int, default=0, dest="ground_node")
    # flow and bench: a flow problem on that graph and the optimizer's settings
    problem = argparse.ArgumentParser(add_help=False, parents=[graph])
    problem.add_argument("--max-iters", type=int, default=500, dest="max_iters")
    problem.add_argument("--feas-threshold", type=float, default=1e-5, dest="feas_threshold")
    problem.add_argument("--step", default="backtracking",
                         choices=["fixed", "alpha-star", "backtracking"])
    # None: make_flow_problem's exp cost and magnitude 1.0; a problem file sets its own
    problem.add_argument("--cost", choices=["exp", "quadratic"])
    problem.add_argument("--magnitude", type=float)
    sub.add_parser("solve", parents=[graph], help="solve one grounded SDDM system")
    flow = sub.add_parser("flow", parents=[problem], help="optimize one flow problem")
    flow.add_argument("--method", default="sddm-newton", choices=sorted(_METHODS))
    sub.add_parser("bench", parents=[problem], help="compare all methods on one problem")
    scale = sub.add_parser("scale", parents=[base], help="sweep sizes of one family")
    scale.add_argument("--family", default="path", choices=["path", "grid", "scale-free"])
    scale.add_argument("--sizes", help="comma-separated node counts")
    return parser


def _validate(parser, ns):
    """Usage error naming a bad --seed, --eps, --rhop, --feas-threshold, --max-iters or --magnitude."""
    if ns.seed < 0:
        parser.error("--seed must be >= 0, got %d" % ns.seed)
    if not (0.0 < ns.eps <= 0.5):
        parser.error("--eps must lie in (0, 0.5]")
    if not getattr(ns, "feas_threshold", 0.0) >= 0.0:
        parser.error("--feas-threshold must be >= 0")
    if getattr(ns, "max_iters", 0) < 0:
        parser.error("--max-iters must be >= 0, got %d" % ns.max_iters)
    if not math.isfinite(getattr(ns, "magnitude", None) or 0.0):
        parser.error("--magnitude must be finite, got %s" % ns.magnitude)
    try:
        check_rhop_radius(ns.rhop)
    except ValueError as exc:
        parser.error("--rhop: %s" % exc)


def main(argv=None):
    level = os.environ.get("LF_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")
    parser = _parser()
    cfg = parser.parse_args(argv)
    _validate(parser, cfg)
    handlers = {"solve": cmd_solve, "flow": cmd_flow, "bench": cmd_bench, "scale": cmd_scale}
    try:
        return handlers[cfg.command](cfg, parser)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, DivergenceError, RuntimeError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
