"""One benchmark workload in its own process; started by perfbench/run.py.

Usage (normally through run.py, which pins the BLAS threads first):

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|smoke] [--spawned-at MONOTONIC] [--import-samples S1,S2]

Prints a few '# ' lines for people, then as its last line one JSON object
with the keys correct, attempted, failed and metrics. The metric names and
units come from BENCHMARK.json: end_to_end with --trace 0, per_layer with
--trace 1. Every run also writes its full record, and for --trace 1 the
spans, under .bench_build/perfbench/ in the checkout.
"""

import time

_T_PROCESS = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lapflow as lf  # noqa: E402
from lapflow import newton_flow  # noqa: E402

import hostspeed  # noqa: E402
from probe import Tracer  # noqa: E402

_T_IMPORTED = time.monotonic()
# the host's speed during the imports, taken right after them
_IMPORT_PROBES = [hostspeed.INTERPRETER.time_s() for _ in range(hostspeed.EDGE_PROBES)]

OUT_DIR = ROOT / ".bench_build" / "perfbench"
MAX_SETUPS = 5
SETUP_REPEAT_BUDGET_S = 3.0


def import_s(spawned_at):
    """Normalized time from `spawned_at` (time.monotonic()) to the end of this module's imports."""
    return (_T_IMPORTED - spawned_at) * hostspeed.INTERPRETER.factor(_IMPORT_PROBES)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def closed_form_rounds(d, q, R):
    """Rounds of one R-hop eps-solve: (q+1) crude solves, q M-applies, setup.

    (q+1) * 2 * sum_{i<d} c(2^i) + q + 1 + 2(R-1), with c(e) = e when e < R
    and e/R otherwise.
    """
    crude = 2 * sum((2 ** i) if 2 ** i < R else (2 ** i) // R for i in range(d))
    return (q + 1) * crude + q + 1 + 2 * (R - 1)


def relabel(g, rng):
    """Same topology under a random node labelling and edge order.

    Returns (graph, perm) where perm[old] is the new id. The flow workloads
    draw their inputs this way so that the seed changes the arrays the
    program sees but not the amount of work.
    """
    perm = rng.permutation(g.n)
    edges = [(int(perm[i]), int(perm[j]), w) for (i, j, w) in g.edges]
    order = rng.permutation(len(edges))
    return lf.WeightedGraph(g.n, [edges[k] for k in order]), perm


class Workload:
    """One workload: build(seed) once, then op() repeatedly, verify() each op.

    verify returns the op's exact counts (rounds, messages, dual_iters) or
    raises CheckFailed.
    """

    name = None
    SIZES = None
    # the host-speed probe that mirrors the op's hot path (hostspeed.py)
    PROBE = hostspeed.INTERPRETER

    def __init__(self, size):
        self.params = self.SIZES[size]

    def hooks(self):
        """Context manager held around all ops of a run."""
        return contextlib.nullcontext()

    def reference(self, state):
        """Data that verify compares against, computed once outside the timing."""
        return None

    def next_input(self, state, rng):
        """Per-op input, drawn outside the timing."""
        return None


class SolveGridR1(Workload):
    """eps=1e-4 R-hop solve on the 20x20 grid, grounded at node 0, R=1."""

    name = "solve_grid_r1"
    SIZES = {"full": {"rows": 20, "cols": 20}, "smoke": {"rows": 4, "cols": 4}}
    R = 1
    EPS = 1e-4

    def build(self, seed):
        g = lf.generate("grid", self.params)
        return lf.ground(lf.laplacian(g), 0)

    def next_input(self, system, rng):
        return rng.standard_normal(system.n)

    def op(self, system, b):
        kappa = lf.estimate_condition(system) * 1.05
        spec = lf.chain_length(kappa, "estimated")
        x, eng = lf.edist_rsolve(system, b, spec, R=self.R, eps=self.EPS)
        return x, spec.d, eng.transcript

    def verify(self, system, ref, b, out):
        x, d, transcript = out
        xstar = lf.direct_solve(system, b)
        err = mnorm(system, x - xstar) / mnorm(system, xstar)
        if not err <= self.EPS:
            raise CheckFailed("M-norm relative error %.3e > eps %g" % (err, self.EPS))
        if transcript.max_hop_used != self.R:
            raise CheckFailed("max_hop_used %d != R=%d" % (transcript.max_hop_used, self.R))
        want = closed_form_rounds(d, lf.richardson_iterations(self.EPS), self.R)
        if transcript.rounds != want:
            raise CheckFailed("rounds %d != closed form %d" % (transcript.rounds, want))
        return {"rounds": transcript.rounds, "messages": transcript.messages_total, "dual_iters": 0}


def mnorm(s, v):
    return math.sqrt(float(v @ (s.D * v) - v @ (s.A @ v)))


class _NewtonRounds:
    """Sums the simulated rounds that newton_direction reports to optimize.

    optimize keeps only the messages of each Newton step; the rounds are in
    the report dict it passes and then drops. Installed for the whole run,
    timed or traced: one extra Python call per Newton iteration.
    """

    def __init__(self):
        self.rounds = 0
        self._orig = None

    def __enter__(self):
        orig = self._orig = newton_flow.newton_direction

        def counted(state, problem, **kwargs):
            report = kwargs.get("report")
            if report is None:
                report = kwargs["report"] = {}
            out = orig(state, problem, **kwargs)
            self.rounds += report.get("rounds", 0)
            return out

        newton_flow.newton_direction = counted
        return self

    def __exit__(self, *exc):
        newton_flow.newton_direction = self._orig


class _FlowWorkload(Workload):
    """Flow problem on a fixed topology, relabelled by the seed.

    Source and sink are the lexicographically smallest diameter pair of the
    topology before relabelling, and the grounded node follows node 0, so
    every seed gives the same problem up to the labelling.
    """

    kind = None
    GRAPH_SEED = 0

    def build(self, seed):
        g0 = lf.generate(self.kind, self.params, seed=self.GRAPH_SEED)
        u, v = lf.diameter_endpoints(g0)
        g, perm = relabel(g0, np.random.default_rng([seed, 0]))
        problem = lf.make_flow_problem(g, "exp", source=int(perm[u]), sink=int(perm[v]))
        return problem, int(perm[0])

    @staticmethod
    def messages(traces):
        return int(sum(sum(t.column("messages")) for t in traces))


class NewtonRandomR4(_FlowWorkload):
    """sddm_newton with R=4 on random n=300, m=900 (graph seed 0)."""

    name = "newton_random_r4"
    kind = "random"
    SIZES = {"full": {"n": 300, "m": 900}, "smoke": {"n": 12, "m": 30}}

    PROBE = hostspeed.MATVEC

    def __init__(self, size):
        super().__init__(size)
        self.rounds = _NewtonRounds()

    def hooks(self):
        return self.rounds

    def config(self, ground_node):
        return lf.OptimizeConfig(R=4, eps=1e-4, feas_threshold=1e-5, ground_node=ground_node)

    def reference(self, state):
        problem, ground_node = state
        trace = lf.optimize(problem, "exact_newton", self.config(ground_node))
        if not trace.converged:
            raise CheckFailed("exact_newton reference did not converge")
        return trace.column("feasibility")

    def op(self, state, _):
        problem, ground_node = state
        before = self.rounds.rounds
        trace = lf.optimize(problem, "sddm_newton", self.config(ground_node))
        return trace, self.rounds.rounds - before

    def verify(self, state, fe, _, out):
        trace, rounds = out
        if fe is None:
            raise CheckFailed("no exact_newton reference to compare with")
        if not trace.converged:
            raise CheckFailed("sddm_newton did not converge")
        fs = trace.column("feasibility")
        # acceptance criterion 07: feasibility trace within 1% of exact Newton
        worst = 0.0
        for k in range(min(len(fs), len(fe))):
            worst = max(worst, abs(fs[k] - fe[k]) / fe[k])
            if fe[k] <= 1e-5:
                break
        if worst > 0.01:
            raise CheckFailed("feasibility trace %.3e relative off exact_newton" % worst)
        return {"rounds": rounds, "messages": self.messages([trace]), "dual_iters": trace.iterations}


class BaselinesBarbell(_FlowWorkload):
    """add_neumann then subgradient (backtracking) on barbell 20/20."""

    name = "baselines_barbell"
    kind = "barbell"
    SIZES = {"full": {"clique": 20, "path_len": 20}, "smoke": {"clique": 4, "path_len": 2}}

    def op(self, state, _):
        problem, _ground = state
        cfg = lambda: lf.OptimizeConfig(feas_threshold=1e-2, max_iters=300000)  # noqa: E731
        return (lf.optimize(problem, "add_neumann", cfg()),
                lf.optimize(problem, "subgradient", cfg()))

    def verify(self, state, ref, _, out):
        add, sub = out
        if not (add.converged and sub.converged):
            raise CheckFailed("baseline did not converge (add=%s, subgradient=%s)"
                              % (add.converged, sub.converged))
        if not add.iterations < sub.iterations:
            raise CheckFailed("add_neumann took %d >= subgradient %d iterations"
                              % (add.iterations, sub.iterations))
        return {"rounds": 0, "messages": self.messages(out),
                "dual_iters": add.iterations + sub.iterations}


class ExactNewtonLarge(_FlowWorkload):
    """exact_newton on random n=2000, m=6000 (graph seed 0: 539 draws)."""

    name = "exact_newton_large"
    kind = "random"
    SIZES = {"full": {"n": 2000, "m": 6000}, "smoke": {"n": 30, "m": 90}}
    # mostly dense LAPACK, which no probe mirrors; MATVEC steadied its
    # run medians best (README.md)
    PROBE = hostspeed.MATVEC

    def op(self, state, _):
        problem, ground_node = state
        cfg = lf.OptimizeConfig(feas_threshold=1e-5, ground_node=ground_node)
        return lf.optimize(problem, "exact_newton", cfg)

    def verify(self, state, ref, _, trace):
        if not trace.converged:
            raise CheckFailed("exact_newton did not converge")
        return {"rounds": 0, "messages": self.messages([trace]), "dual_iters": trace.iterations}


WORKLOADS = {w.name: w for w in (SolveGridR1, NewtonRandomR4, BaselinesBarbell, ExactNewtonLarge)}


def run_ops(wl, state, ref, rng, seconds, tracer=None, speed=None):
    """Run ops until their summed wall time reaches `seconds` (at least one).

    Only wl.op is timed; drawing the input and verifying the output happen
    outside. With `speed` (an entered HostSpeed) an op's "s" is its
    normalized time and "raw_s" its wall time; without, both are wall time.
    Returns one record per op: seconds, ok, counts or error, and for traced
    ops the wrapped-call counts of that op.
    """
    records = []
    spent = 0.0
    while True:
        inp = wl.next_input(state, rng)
        calls_before = tracer.calls("op") if tracer else None
        out = err = None
        timed = speed.region() if speed is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with timed as r:
                if tracer is None:
                    out = wl.op(state, inp)
                else:
                    with tracer.root("op"):
                        out = wl.op(state, inp)
        except Exception:  # a failed op is counted, never raised
            err = traceback.format_exc()
        dt = time.perf_counter() - t0
        if speed is None:
            rec = {"s": dt, "raw_s": dt, "ok": False}
        else:
            rec = {"s": r.s, "raw_s": r.raw_s, "host_factor": r.host_factor, "ok": False}
        spent += rec["raw_s"]
        if err is None:
            try:
                rec["counts"] = wl.verify(state, ref, inp, out)
                rec["ok"] = True
            except Exception:
                err = traceback.format_exc()
        if err is not None:
            rec["error"] = err
            sys.stderr.write("perfbench: %s op %d failed:\n%s" % (wl.name, len(records), err))
        if tracer is not None:
            after = tracer.calls("op")
            rec["calls"] = {k: v - calls_before.get(k, 0) for k, v in sorted(after.items()) if k != "op"}
        del out
        records.append(rec)
        if spent >= seconds:
            return records


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "lapflow").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip()


def environment(args):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "lapflow_src_sha256": source_digest(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def exact_count_mismatches(records, key):
    """Messages naming every passed op whose `key` entry differs from the first one's."""
    seen = [(i, r[key]) for i, r in enumerate(records) if r["ok"] and key in r]
    return ["op %d %s %s != op %d %s" % (i, key, s, seen[0][0], seen[0][1])
            for i, s in seen if s != seen[0][1]]


def cross_run_mismatches(env, counts, calls):
    """Compare exact counts with earlier runs of the same source, size and seed.

    The store lives in .bench_build/perfbench/counts.json; a new entry is
    added when none exists.
    """
    path = OUT_DIR / "counts.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    key = "%s|%s|seed=%d|src=%s" % (env["workload"], env["size"], env["seed"], env["lapflow_src_sha256"])
    entry = store.setdefault(key, {})
    bad = []
    for name, mine in (("counts", counts), ("calls", calls)):
        if mine is None:
            continue
        if name in entry and entry[name] != mine:
            bad.append("%s differ from an earlier run: %s != %s" % (name, mine, entry[name]))
        entry.setdefault(name, mine)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return bad


def per_op_mean(records, key):
    vals = [r["counts"][key] for r in records if r["ok"]]
    return statistics.fmean(vals) if vals else 0.0


def end_to_end(records, setup_s):
    times = [r["s"] for r in records]
    ok = sum(r["ok"] for r in records)
    return {
        "ops_per_s": ok / sum(times),
        "op_s.p50": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_messages_per_op": per_op_mean(records, "messages"),
    }


def per_layer(tracer, untraced, traced):
    """Per-layer metrics of a traced run; op metrics are per traced op."""
    n = len(traced)
    setup = lambda name: tracer.stats.get(("setup", name), [0, 0.0, 0.0])  # noqa: E731
    op = lambda name: tracer.stats.get(("op", name), [0, 0.0, 0.0])  # noqa: E731
    first = next((r for r in traced if r["ok"]), traced[0])
    calls = lambda name: first["calls"].get(name, 0)  # noqa: E731
    values = tracer.values.get("op", {})
    iters = per_op_mean(traced, "dual_iters")
    untraced_rate = len(untraced) / sum(r["s"] for r in untraced)
    traced_rate = n / sum(r["s"] for r in traced)
    everything = untraced + traced
    return {
        "graph_core.generate_s": setup("graph_core.generate")[1],
        "graph_core.diameter_endpoints_s": setup("graph_core.diameter_endpoints")[1],
        "graph_core.ground_s": op("graph_core.ground")[1] / n,
        "spectral.estimate_condition_s": op("spectral.estimate_condition")[1] / n,
        "spectral.estimate_condition_calls": calls("spectral.estimate_condition"),
        "spectral.chain_d": values.get("spectral.chain_d", 0) / n,
        "reference_solver.direct_solve_s": op("reference_solver.direct_solve")[1] / n,
        "reference_solver.direct_solve_calls": calls("reference_solver.direct_solve"),
        "reference_solver.richardson_q": values.get("reference_solver.richardson_q", 0),
        "netsim.simulator_init_s": op("netsim.simulator_init")[1] / n,
        "netsim.certify_s": op("netsim.certify")[1] / n,
        "netsim.account_round_calls": calls("netsim.account_round"),
        "netsim.account_round_self_s": op("netsim.account_round")[2] / n,
        "netsim.apply_round_s": op("netsim.apply_round")[1] / n,
        "netsim.apply_round_nnz": values.get("netsim.apply_round_nnz", 0) / n,
        "netsim.apply_round_bytes": values.get("netsim.apply_round_bytes", 0) / n,
        "netsim.max_hop_used": values.get("netsim.max_hop_used", 0),
        "distributed_solver.engine_setup_s": op("distributed_solver.engine_setup")[1] / n,
        "distributed_solver.rsolve_calls": calls("distributed_solver.rsolve"),
        "distributed_solver.rsolve_s": op("distributed_solver.rsolve")[1] / n,
        "distributed_solver.richardson_self_s": op("distributed_solver.esolve")[2] / n,
        "newton_flow.make_flow_problem_s": setup("newton_flow.make_flow_problem")[1],
        "newton_flow.convergence_constants_s": op("newton_flow.convergence_constants")[1] / n,
        "newton_flow.newton_direction_self_s": op("newton_flow.newton_direction")[2] / n,
        "newton_flow.dual_hessian_s": op("newton_flow.dual_hessian")[1] / n,
        "newton_flow.dual_state_calls": calls("newton_flow.dual_state"),
        "newton_flow.dual_state_s": op("newton_flow.dual_state")[1] / n,
        "newton_flow.primal_recovery_s": op("newton_flow.primal_recovery")[1] / n,
        "newton_flow.dual_value_calls": calls("newton_flow.dual_value"),
        "newton_flow.lnorm_s": op("newton_flow.lnorm")[1] / n,
        "newton_flow.dual_state_per_iter": calls("newton_flow.dual_state") / iters if iters else 0.0,
        "newton_flow.armijo_trials_per_iter": calls("newton_flow.dual_value") / iters if iters else 0.0,
        "sim_rounds_per_op": per_op_mean(everything, "rounds"),
        "dual_iters_per_op": iters,
        "fail_ratio": sum(not r["ok"] for r in everything) / len(everything),
        "trace.op_s": op("op")[1] / n,
        "trace.uncovered_s": op("op")[2] / n,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead": untraced_rate / traced_rate - 1.0,
    }


def fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--spawned-at", type=float, default=_T_PROCESS,
                   help="time.monotonic() of the launcher just before it started this process")
    p.add_argument("--import-samples", default="",
                   help="comma-separated import times of other fresh processes, for setup_s")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if Path(lf.__file__).resolve().parent != SRC / "lapflow":
        sys.exit("perfbench: lapflow was imported from %s, not from %s" % (lf.__file__, SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload](args.size)
    env = environment(args)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    rng = np.random.default_rng([args.seed, 1])

    builds = []
    if tracer is None:
        # median of several set-ups; the ones that take seconds run once
        speed = hostspeed.HostSpeed(hostspeed.INTERPRETER)
        raw = 0.0
        with speed:
            while len(builds) < MAX_SETUPS and raw < SETUP_REPEAT_BUDGET_S:
                with speed.region() as r:
                    state = wl.build(args.seed)
                builds.append(r.s)
                raw += r.raw_s
    else:
        with tracer, tracer.root("setup"):
            state = wl.build(args.seed)
    imports = [import_s(args.spawned_at)] + [float(t) for t in args.import_samples.split(",") if t]
    setup_s = statistics.median(imports) + (statistics.median(builds) if builds else 0.0)

    try:
        ref = wl.reference(state)
    except Exception:  # every op then fails its verdict
        sys.stderr.write("perfbench: reference for %s failed:\n%s" % (wl.name, traceback.format_exc()))
        ref = None

    with wl.hooks():
        if tracer is None:
            with hostspeed.HostSpeed(wl.PROBE) as op_speed:
                records = run_ops(wl, state, ref, rng, args.seconds, speed=op_speed)
            untraced = traced = None
        else:
            untraced = run_ops(wl, state, ref, rng, args.seconds / 2)
            with tracer:
                traced = run_ops(wl, state, ref, rng, args.seconds / 2, tracer)
            records = untraced + traced

    failed = sum(not r["ok"] for r in records)
    problems = exact_count_mismatches(records, "counts")
    if traced is not None:
        problems += exact_count_mismatches(traced, "calls")
    ok_records = [r for r in records if r["ok"]]
    if ok_records:
        first_calls = next((r["calls"] for r in ok_records if "calls" in r), None)
        problems += cross_run_mismatches(env, ok_records[0]["counts"], first_calls)
    for msg in problems:
        sys.stderr.write("perfbench: EXACT COUNT MISMATCH on %s: %s\n" % (wl.name, msg))

    if tracer is None:
        values = end_to_end(records, setup_s)
        wanted = spec["end_to_end"]
    else:
        values = per_layer(tracer, untraced, traced)
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        sys.exit("perfbench: non-finite metrics %s" % bad)

    counts = ok_records[0]["counts"] if ok_records else {}
    info = {
        "fail_ratio": sum(not r["ok"] for r in records) / len(records),
        "sim_rounds_per_op": counts.get("rounds"),
        "sim_messages_per_op": counts.get("messages"),
        "dual_iters_per_op": counts.get("dual_iters"),
        "op_samples": len(records),
        "setup_samples": len(builds),
    }
    record = {"env": env, "metrics": metrics, "info": info, "ops": records,
              "setup_builds_s": builds, "import_s": imports,
              "count_mismatches": problems}
    if tracer is not None:
        record["stats"] = [[root, name] + st for (root, name), st in sorted(tracer.stats.items())]
        record["values"] = tracer.values
        record["spans"] = tracer.spans
    name = "run-%s-%s-seed%d-trace%d.json" % (wl.name, args.size, args.seed, args.trace)
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=float))

    print("# perfbench %s size=%s seed=%d trace=%d" % (wl.name, args.size, args.seed, args.trace))
    print("# env %s" % json.dumps(env, sort_keys=True))
    print("# ops attempted=%d failed=%d; op_s.p50 is the median of %d op(s); setup_s adds the median"
          " of %d import(s) and of %d build(s)" % (len(records), failed, len(records), len(imports), len(builds)))
    if tracer is None:
        print("# times are normalized for the host's speed (perfbench/hostspeed.py): median host factor %.3f,"
              " median wall time of an op %.4f s" % (statistics.median(r["host_factor"] for r in records),
                                                     statistics.median(r["raw_s"] for r in records)))
    print("# exact counts per op: sim_rounds_per_op=%s sim_messages_per_op=%s dual_iters_per_op=%s fail_ratio=%s"
          % (info["sim_rounds_per_op"], info["sim_messages_per_op"], info["dual_iters_per_op"],
             fmt(info["fail_ratio"])))
    for msg in problems:
        print("# EXACT COUNT MISMATCH: %s" % msg)
    for mname, m in metrics.items():
        print("# %s = %s %s" % (mname, fmt(m["value"]), m["unit"]))
    result = {"correct": failed == 0 and not problems, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
