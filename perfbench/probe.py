"""Spans around lapflow's layers, installed from outside the package.

Inside its `with` block a Tracer replaces the public functions and methods
named in LAYER_TARGETS with timing wrappers, and it puts the originals back
on leaving. Calls are timed only inside a root span ("setup" or
"op") that the benchmark opens; outside one the wrapper calls straight
through. Per (root, span name) it keeps calls, total seconds and self
seconds (total minus the wrapped calls made inside). Low-frequency spans are
also kept one by one with start, end and parent; the high-frequency ones are
only aggregated, so memory stays bounded on runs with 10^6 rounds.
"""

import contextlib
import functools
import sys
import time
import weakref

from scipy import sparse

from lapflow import distributed_solver, graph_core, netsim, newton_flow, reference_solver, spectral

# calls per op reach 10^4..10^6: aggregated, never recorded one by one
HIGH_FREQUENCY = frozenset({
    "netsim.account_round",
    "netsim.apply_round",
    "newton_flow.dual_state",
    "newton_flow.primal_recovery",
    "newton_flow.dual_value",
    "newton_flow.lnorm",
})


def _add_chain_d(values, args, result):
    values["spectral.chain_d"] = values.get("spectral.chain_d", 0) + result.d


def _max_richardson_q(values, args, result):
    values["reference_solver.richardson_q"] = max(values.get("reference_solver.richardson_q", 0), result)


def _max_hop(values, args, result):
    hop = args[0].transcript.max_hop_used
    values["netsim.max_hop_used"] = max(values.get("netsim.max_hop_used", 0), hop)


_operator_cost = weakref.WeakKeyDictionary()


def operator_cost(op):
    """(multiply-adds, bytes touched) of one apply_round with LocalOperator op.

    Multiply-adds are the stored entries the kernel visits: nnz for a sparse
    matrix, every entry for a dense one. Bytes are computed, not measured:
    the matrix arrays plus one read of x and one write of the result.
    """
    cost = _operator_cost.get(op)
    if cost is None:
        mat = op.matrix
        rows, cols = mat.shape
        if sparse.issparse(mat):
            mat = mat.tocsr()
            mads = int(mat.nnz)
            nbytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        else:
            mads = int(mat.size)
            nbytes = mat.nbytes
        cost = (mads, nbytes + 8 * (rows + cols))
        _operator_cost[op] = cost
    return cost


def _apply_round_cost(values, args, result):
    mads, nbytes = operator_cost(args[1])
    values["netsim.apply_round_nnz"] = values.get("netsim.apply_round_nnz", 0) + mads
    values["netsim.apply_round_bytes"] = values.get("netsim.apply_round_bytes", 0) + nbytes


# (span name, owner, attribute, value hook); the owner is a module for
# functions, whose every reference inside lapflow gets replaced, or a class
# for methods
LAYER_TARGETS = [
    ("graph_core.generate", graph_core, "generate", None),
    ("graph_core.laplacian", graph_core, "laplacian", None),
    ("graph_core.ground", graph_core, "ground", None),
    ("graph_core.diameter_endpoints", graph_core, "diameter_endpoints", None),
    ("spectral.estimate_condition", spectral, "estimate_condition", None),
    ("spectral.chain_length", spectral, "chain_length", _add_chain_d),
    ("reference_solver.direct_solve", reference_solver, "direct_solve", None),
    ("reference_solver.richardson_iterations", reference_solver, "richardson_iterations", _max_richardson_q),
    ("netsim.simulator_init", netsim.Simulator, "__init__", None),
    ("netsim.certify", netsim.Simulator, "certify", None),
    ("netsim.account_round", netsim.Simulator, "account_round", None),
    ("netsim.apply_round", netsim.Simulator, "apply_round", _apply_round_cost),
    ("distributed_solver.engine_setup", distributed_solver.RHopEngine, "__init__", None),
    ("distributed_solver.rsolve", distributed_solver.RHopEngine, "rsolve", None),
    ("distributed_solver.esolve", distributed_solver._EngineBase, "esolve", _max_hop),
    ("newton_flow.make_flow_problem", newton_flow, "make_flow_problem", None),
    ("newton_flow.convergence_constants", newton_flow, "convergence_constants", None),
    ("newton_flow.newton_direction", newton_flow, "newton_direction", None),
    ("newton_flow.dual_hessian", newton_flow, "dual_hessian", None),
    ("newton_flow.dual_state", newton_flow, "dual_state", None),
    ("newton_flow.primal_recovery", newton_flow, "primal_recovery", None),
    ("newton_flow.dual_value", newton_flow, "dual_value", None),
    ("newton_flow.lnorm", newton_flow.FlowProblem, "lnorm", None),
]


def _lapflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lapflow" or name.startswith("lapflow."))]


class Tracer:
    """Collects spans from the wrapped layers while installed.

    Attributes
    ----------
    stats : dict
        (root, span name) -> [calls, total_s, self_s]. Roots are recorded
        under their own name, so a root's self time is the part of it that
        no wrapped layer covers.
    values : dict
        root -> {metric: number} filled by the value hooks.
    spans : list of (name, root, start, end, parent)
        Low-frequency and root spans; parent indexes this list (-1: none).
    """

    def __init__(self):
        self.stats = {}
        self.values = {}
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        """Install the wrappers."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _lapflow_modules()
        for name, owner, attr, hook in LAYER_TARGETS:
            orig = owner.__dict__[attr]
            wrapped = self._wrap(name, orig, hook)
            if isinstance(owner, type):
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        """Put the originals back."""
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    @contextlib.contextmanager
    def root(self, name):
        """Open a root span; wrapped calls inside it are timed."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        index = len(self.spans)
        self.spans.append(None)
        # root frame: [child seconds, span index, root name]
        frame = [0.0, index, name]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            st = self._stat(name, name)
            st[0] += 1
            st[1] += t1 - t0
            st[2] += t1 - t0 - frame[0]
            self.spans[index] = (name, name, t0, t1, -1)

    def calls(self, root):
        """{span name: calls} recorded so far under `root`."""
        return {name: st[0] for (r, name), st in self.stats.items() if r == root}

    def _stat(self, root, name):
        st = self.stats.get((root, name))
        if st is None:
            st = self.stats[(root, name)] = [0, 0.0, 0.0]
        return st

    def _wrap(self, name, fn, hook):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        stat = self._stat
        record = name not in HIGH_FREQUENCY
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            # frame: [child seconds, nearest recorded span index]
            frame = [0.0, parent[1]]
            if record:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                root = stack[0][2]
                st = stat(root, name)
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if record:
                    spans[frame[1]] = (name, root, t0, t1, parent[1])
            if hook is not None:
                hook(values.setdefault(stack[0][2], {}), args, result)
            return result

        return wrapper
