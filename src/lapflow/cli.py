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

from .graph_core import generate, ground, laplacian, load_edge_list, open_target
from .spectral import ConvergenceError, estimated_chain
from .reference_solver import direct_solve, richardson_iterations
from .distributed_solver import edist_rsolve
from .newton_flow import (
    DivergenceError,
    OptimizeConfig,
    Trace,
    load_flow_problem,
    make_flow_problem,
    optimize,
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


def header_items(cfg):
    """The graph-describing `# key=value` items every CSV starts with."""
    items = dict(command=cfg.command, graph=cfg.graph, seed=cfg.seed)
    for key in ("n", "rows", "cols", "clique", "path_len", "edges", "file"):
        val = getattr(cfg, key)
        if val is not None:
            items[key] = val
    return items


def _require(parser, cfg, names):
    for name in names:
        if getattr(cfg, name) is None:
            parser.error("--%s is required for --graph %s" % (name.replace("_", "-"), cfg.graph))


def _build_graph(parser, cfg):
    params = {}
    if cfg.graph == "path":
        _require(parser, cfg, ["n"])
        params["n"] = cfg.n
    elif cfg.graph == "grid":
        _require(parser, cfg, ["rows", "cols"])
        params.update(rows=cfg.rows, cols=cfg.cols)
    elif cfg.graph == "barbell":
        _require(parser, cfg, ["clique", "path_len"])
        params.update(clique=cfg.clique, path_len=cfg.path_len)
    elif cfg.graph == "random":
        _require(parser, cfg, ["n", "edges"])
        params.update(n=cfg.n, m=cfg.edges)
    elif cfg.graph == "scale-free":
        _require(parser, cfg, ["n"])
        params["n"] = cfg.n
    elif cfg.graph == "file":
        _require(parser, cfg, ["file"])
        return load_edge_list(cfg.file)
    else:
        parser.error("unknown graph kind %r" % cfg.graph)
    return generate(cfg.graph, params, seed=cfg.seed)


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
    if cfg.graph == "file":
        _require(parser, cfg, ["file"])
        try:
            return load_flow_problem(cfg.file)
        except ValueError as exc:
            # a bare edge list is accepted too; any other file keeps its own error
            try:
                g = load_edge_list(cfg.file)
            except ValueError:
                raise exc from None
            return make_flow_problem(g, cost=cfg.cost, magnitude=cfg.magnitude)
    g = _build_graph(parser, cfg)
    return make_flow_problem(g, cost=cfg.cost, magnitude=cfg.magnitude)


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
    method = _METHODS[cfg.method]
    extra = header_items(cfg)
    extra.update(cost=problem.cost.name, nodes=problem.n, arcs=problem.E)
    trace = None
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
    extra = header_items(cfg)
    extra.update(cost=problem.cost.name, nodes=problem.n, arcs=problem.E)
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
    if not cfg.sizes:
        parser.error("--sizes must list at least one size")
    try:
        sizes = [int(tok) for tok in cfg.sizes.split(",") if tok.strip()]
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
    items = header_items(cfg)
    del items["graph"]  # scale builds its graphs from --family
    items.update(family=cfg.family, eps=cfg.eps, R=cfg.rhop, loglog_slope=repr(slope))
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
    parser = argparse.ArgumentParser(
        prog="lapflow",
        description="Distributed SDDM solving and dual Newton flow optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", default="path",
                        choices=["path", "grid", "barbell", "random", "scale-free", "file"])
    common.add_argument("--n", type=int)
    common.add_argument("--rows", type=int)
    common.add_argument("--cols", type=int)
    common.add_argument("--clique", type=int)
    common.add_argument("--path-len", type=int, dest="path_len")
    common.add_argument("--edges", type=int)
    common.add_argument("--file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--eps", type=float, default=1e-4)
    common.add_argument("--rhop", type=int, default=1)
    common.add_argument("--max-iters", type=int, default=500, dest="max_iters")
    common.add_argument("--feas-threshold", type=float, default=1e-5, dest="feas_threshold")
    common.add_argument("--step", default="backtracking",
                        choices=["fixed", "alpha-star", "backtracking"])
    common.add_argument("--out")
    common.add_argument("--ground", type=int, default=0, dest="ground_node")
    common.add_argument("--method", default="sddm-newton", choices=sorted(_METHODS))
    common.add_argument("--cost", default="exp", choices=["exp", "quadratic"])
    common.add_argument("--magnitude", type=float, default=1.0)
    sub.add_parser("solve", parents=[common], help="solve one grounded SDDM system")
    sub.add_parser("flow", parents=[common], help="optimize one flow problem")
    sub.add_parser("bench", parents=[common], help="compare all methods on one problem")
    scale = sub.add_parser("scale", parents=[common], help="sweep sizes of one family")
    scale.add_argument("--family", default="path", choices=["path", "grid", "scale-free"])
    scale.add_argument("--sizes", help="comma-separated node counts")
    return parser


def _resolve(parser, ns):
    """Validate --eps and --feas-threshold and round --rhop down to a power of two, in place."""
    if not (0.0 < ns.eps <= 0.5):
        parser.error("--eps must lie in (0, 0.5]")
    if not ns.feas_threshold >= 0.0:
        parser.error("--feas-threshold must be >= 0")
    if ns.rhop < 1:
        parser.error("--rhop must be >= 1")
    if ns.rhop & (ns.rhop - 1):
        down = 2 ** int(math.floor(math.log2(ns.rhop)))
        print("warning: --rhop %d is not a power of two; using %d" % (ns.rhop, down),
              file=sys.stderr)
        ns.rhop = down
    return ns


def main(argv=None):
    level = os.environ.get("LF_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")
    parser = _parser()
    ns = parser.parse_args(argv)
    cfg = _resolve(parser, ns)
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
