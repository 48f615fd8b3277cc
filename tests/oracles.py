"""Independent oracles the tests compare against.

Everything here is deliberately written from first principles (dense
algebra, Floyd-Warshall, finite differences, genuine per-node message
passing) rather than reusing the library's own computation paths.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

from lapflow.graph_core import StandardSplitting
from lapflow.distributed_solver import support_graph


def floyd_warshall_hops(g):
    """All-pairs unweighted hop distances by the Floyd-Warshall recurrence.

    Step k relaxes every pair through node k at once; row and column k do
    not change during step k, so this is the classic triple loop.
    """
    n = g.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for (i, j, _) in g.edges:
        dist[i, j] = dist[j, i] = 1.0
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def per_round(runs):
    """SimTranscript.runs expanded to (messages, max_hop) lists, one entry per round.

    The same form as PerNodeNetwork's messages_per_round and max_hop_per_round.
    """
    messages = [msg for msg, _, count in runs for _ in range(count)]
    hops = [hop for _, hop, count in runs for _ in range(count)]
    return messages, hops


class OracleViolation(RuntimeError):
    """A node program broke the round discipline or the radius limit."""


class PerNodeNetwork:
    """Scalar per-node round executor on floyd_warshall_hops.

    run_round(step_fn) calls step_fn(k) for k = 0..n-1. A step reads
    previous-round values through gather/own and stages new ones through
    publish; they become visible when the round ends (double buffering).
    A gather of radius r by node k delivers the value of every other node
    within r hops and charges h messages for a value that travels h hops.
    R=None lifts the radius limit (full communication).
    """

    def __init__(self, g, R=None):
        self.n = g.n
        self.R = R
        self.hops = floyd_warshall_hops(g)
        self.messages_per_round = []
        self.max_hop_per_round = []
        self._visible = {}
        self._staged = None  # list of (field, node, value) inside a round

    def seed_field(self, field, values):
        """Install round-0 state for `field`: values[k] is node k's own datum."""
        if self._staged is not None:
            raise OracleViolation("cannot seed fields inside a round")
        self._visible[field] = {k: float(values[k]) for k in range(self.n)}

    def publish(self, k, field, value):
        if self._staged is None:
            raise OracleViolation("publish outside of a round")
        self._staged.append((field, k, float(value)))

    def own(self, k, field):
        return self._visible[field][k]

    def gather(self, k, r, field):
        """Dict node id -> previous-round value of `field`, over nodes within r hops of k."""
        if self._staged is None:
            raise OracleViolation("gather outside of a round")
        if r < 1:
            raise ValueError("gather radius must be >= 1")
        if self.R is not None and r > self.R:
            raise OracleViolation("node %d requested radius %d > R=%d" % (k, r, self.R))
        bucket = self._visible.get(field, {})
        out = {}
        for v in range(self.n):
            hop = self.hops[k, v]
            if v == k or hop > r:
                continue
            if v not in bucket:
                raise OracleViolation("node %d missing field %r wanted by node %d" % (v, field, k))
            out[v] = bucket[v]
            self._messages += int(hop)
            self._max_hop = max(self._max_hop, int(hop))
        return out

    def run_round(self, step_fn):
        if self._staged is not None:
            raise OracleViolation("rounds cannot nest")
        self._staged, self._messages, self._max_hop = [], 0, 0
        try:
            for k in range(self.n):
                step_fn(k)
        finally:
            staged, self._staged = self._staged, None
        for field, k, value in staged:
            self._visible.setdefault(field, {})[k] = value
        self.messages_per_round.append(self._messages)
        self.max_hop_per_round.append(self._max_hop)


def random_graph_draws(n, m, seed, w_min=1.0, w_max=1.0):
    """Edge list of generate("random") by its original redraw loop.

    Draws m distinct pairs of the upper triangle until they connect all n
    nodes (checked by union-find), then draws the weights from the same
    stream. Returns (edges, number of draws).
    """
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    draws = 0
    while True:
        draws += 1
        pick = rng.choice(iu.shape[0], size=m, replace=False)
        pairs = [(int(iu[t]), int(ju[t])) for t in pick]
        root = list(range(n))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for (i, j) in pairs:
            root[find(i)] = find(j)
        if len({find(v) for v in range(n)}) == 1:
            break
    if w_min == w_max:
        ws = [float(w_min)] * m
    else:
        ws = [float(w) for w in rng.uniform(w_min, w_max, size=m)]
    return [(i, j, w) for (i, j), w in zip(pairs, ws)], draws


def splitting_from_matrix(M):
    """Standard splitting D - A read off a dense SDD matrix."""
    M = np.asarray(M, dtype=float)
    D = np.diag(M).copy()
    A = -(M - np.diag(D))
    return StandardSplitting(D, A)


def dense(splitting):
    """M = diag(D) - A of a splitting as a dense n x n array, built here from D and A;
    a sparse matrix (such as FlowProblem.unweighted_laplacian()) comes back as its array."""
    if scipy.sparse.issparse(splitting):
        return splitting.toarray()
    return np.diag(np.asarray(splitting.D, dtype=float)) - splitting.A.toarray()


def dense_solve(splitting, b):
    """x = M^{-1} b by a dense LAPACK solve of M = diag(D) - A."""
    M = dense(splitting)
    return np.linalg.solve(M, np.asarray(b, dtype=float)), M


def dense_chain_z(splitting, d):
    """Crude-inverse operator of the power chain, built by the matrix
    recursion Z_i = (1/2)[D^-1 + (I + D^-1 A_i) Z_{i+1} (I + A_i D^-1)]
    with A_{i+1} = A_i D^-1 A_i and Z_d = D^-1."""
    D = splitting.D
    n = D.shape[0]
    Dinv = np.diag(1.0 / D)
    mats = [splitting.A.toarray()]
    for _ in range(d - 1):
        mats.append(mats[-1] @ Dinv @ mats[-1])
    Z = Dinv.copy()
    eye = np.eye(n)
    for i in range(d - 1, -1, -1):
        Ai = mats[i]
        Z = 0.5 * (Dinv + (eye + Dinv @ Ai) @ Z @ (eye + Ai @ Dinv))
    return Z


def sandwich_exponent(Z, M):
    """Least alpha with e^-alpha M^-1 <= Z <= e^alpha M^-1 in the Loewner order.

    The quadratic form of Z is that of its symmetric part, so this is
    max |ln lambda| over the generalized eigenvalues of sym(Z) v =
    lambda M^-1 v, by dense LAPACK; inf when sym(Z) is not positive definite.
    """
    lam = scipy.linalg.eigvalsh(0.5 * (Z + Z.T), np.linalg.inv(M))
    return float(np.abs(np.log(lam)).max()) if lam.min() > 0 else np.inf


def pinv_quadform(L, v, delta=1.0):
    """v' pinv(L) v for v in the all-ones complement, via the rank-one
    completion (L + delta 11')^{-1} = pinv(L) + 11'/(delta n^2)."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    shifted = L + delta * np.ones((n, n))
    return float(v @ np.linalg.solve(shifted, v))


def matrix_lnorm(X, L):
    """Operator norm of X in the Laplacian norm, restricted to 1-perp."""
    lam, U = np.linalg.eigh(np.asarray(L, dtype=float))
    lam = np.where(lam > 1e-12 * lam.max(), lam, 0.0)
    root = U @ np.diag(np.sqrt(lam)) @ U.T
    inv_root = U @ np.diag([1.0 / s if s > 0 else 0.0 for s in np.sqrt(lam)]) @ U.T
    return float(np.linalg.norm(root @ X @ inv_root, 2))


def fd_gradient(problem, lam, h=1e-6):
    """Central finite differences of the dual objective."""
    from lapflow.newton_flow import dual_value

    lam = np.asarray(lam, dtype=float)
    out = np.zeros(problem.n)
    for i in range(problem.n):
        step = np.zeros(problem.n)
        step[i] = h
        out[i] = (dual_value(lam + step, problem) - dual_value(lam - step, problem)) / (2 * h)
    return out


def fd_hessian(problem, lam, h=1e-6):
    """Central finite differences of the dual gradient."""
    from lapflow.newton_flow import dual_state

    lam = np.asarray(lam, dtype=float)
    cols = []
    for i in range(problem.n):
        step = np.zeros(problem.n)
        step[i] = h
        gp = dual_state(lam + step, problem).g
        gm = dual_state(lam - step, problem).g
        cols.append((gp - gm) / (2 * h))
    return np.column_stack(cols)


def _dense_walk_powers(splitting, d):
    D = splitting.D
    P = splitting.A.toarray() / D[None, :]
    pows = [P]
    for _ in range(1, max(1, d)):
        pows.append(pows[-1] @ pows[-1])
    return pows  # pows[s] = P^(2^s)


def pernode_full_rsolve(splitting, b0, d):
    """Crude solve executed node-by-node on PerNodeNetwork.

    Every node runs a step function that reads only gathered previous-round
    values plus its own rows of the walk powers; the backward pass exchanges
    diagonally rescaled values so no remote diagonal entries are needed.
    Returns (x0, messages) where messages covers the 2d solve rounds only.
    """
    g = support_graph(splitting)
    sim = PerNodeNetwork(g)
    n = g.n
    D = splitting.D
    pows = _dense_walk_powers(splitting, d)
    b0 = np.asarray(b0, dtype=float)

    sim.seed_field("b_0", {k: float(b0[k]) for k in range(n)})
    local_b = {0: {k: float(b0[k]) for k in range(n)}}
    for i in range(1, d + 1):
        radius = 2 ** (i - 1)
        row = pows[i - 1]

        def forward(k, i=i, radius=radius, row=row):
            vals = sim.gather(k, radius, "b_%d" % (i - 1))
            vals[k] = sim.own(k, "b_%d" % (i - 1))
            acc = vals[k] + sum(row[k, j] * vals[j] for j in vals)
            sim.publish(k, "b_%d" % i, acc)

        sim.run_round(forward)
        local_b[i] = {k: sim.own(k, "b_%d" % i) for k in range(n)}

    x = {k: local_b[d][k] / D[k] for k in range(n)}
    sim.seed_field("w_%d" % d, {k: D[k] * x[k] for k in range(n)})
    for i in range(d - 1, -1, -1):
        radius = 2 ** i
        row = pows[i]

        def backward(k, i=i, radius=radius, row=row):
            vals = sim.gather(k, radius, "w_%d" % (i + 1))
            vals[k] = sim.own(k, "w_%d" % (i + 1))
            eta = sum(row[k, j] * vals[j] for j in vals) / D[k]
            xi_k = 0.5 * (local_b[i][k] / D[k] + vals[k] / D[k] + eta)
            sim.publish(k, "w_%d" % i, D[k] * xi_k)

        sim.run_round(backward)
    out = np.array([sim.own(k, "w_0") / D[k] for k in range(n)])
    return out, sum(sim.messages_per_round)


def pernode_rhop_rsolve(splitting, b0, d, R):
    """R-hop crude solve executed node-by-node on PerNodeNetwork with radius R.

    Powers of the walk matrices are applied either one hop at a time or in
    strides of the cached radius-R rows, mirroring the chained-exchange
    scheme; gathers never exceed radius R.
    """
    g = support_graph(splitting)
    sim = PerNodeNetwork(g, R)
    n = g.n
    D = splitting.D
    P = splitting.A.toarray() / D[None, :]
    PR = np.linalg.matrix_power(P, R)
    b0 = np.asarray(b0, dtype=float)

    state = {"field": "f0", "vals": {k: float(b0[k]) for k in range(n)}}
    counter = [0]

    def apply_power(vec, row, radius):
        # one gather round applying `row` (supported within `radius`) to vec
        name = "t%d" % counter[0]
        counter[0] += 1
        sim.seed_field(name, vec)
        out = {}

        def step(k):
            vals = sim.gather(k, radius, name)
            vals[k] = sim.own(k, name)
            out[k] = sum(row[k, j] * vals[j] for j in vals)
            sim.publish(k, name + "_out", out[k])

        sim.run_round(step)
        return out

    def chain(vec, exponent, row1, rowR):
        u = vec
        if exponent < R:
            for _ in range(exponent):
                u = apply_power(u, row1, 1)
        else:
            for _ in range(exponent // R):
                u = apply_power(u, rowR, R)
        return u

    QR = (PR * D[None, :]) / D[:, None]
    Q1 = (P * D[None, :]) / D[:, None]
    levels = [dict(state["vals"])]
    b = dict(state["vals"])
    for i in range(1, d + 1):
        u = chain(b, 2 ** (i - 1), P, PR)
        b = {k: b[k] + u[k] for k in range(n)}
        levels.append(b)
    x = {k: levels[d][k] / D[k] for k in range(n)}
    for i in range(d - 1, -1, -1):
        eta = chain(x, 2 ** i, Q1, QR)
        x = {k: 0.5 * (levels[i][k] / D[k] + x[k] + eta[k]) for k in range(n)}
    out = np.array([x[k] for k in range(n)])
    return out, sum(sim.messages_per_round), max(sim.max_hop_per_round, default=0)


# the stride ladder's cost model, in dense gemm multiply-adds: a multiply-add
# of a dense round (and of a product with a rung) weighs 4, one of a CSR
# round 32
DENSE_ROUND, CSR_ROUND = 4, 32


def ladder_cost(n, nnz, batches, ladder, dense):
    """Modelled cost of running `batches` ({count: runs}) with `ladder` (lengths, ascending).

    log2 of the top rung's length squarings of n^3, one n^2 read per rung
    for its check, and per run of each batch its rounds split as
    apply_round splits them: whole top rungs, then whole lower rungs, taken
    one at a time, then plain rounds of nnz multiply-adds.
    """
    total = 0
    if ladder:
        total = int(np.log2(ladder[-1])) * n ** 3 + len(ladder) * n * n * DENSE_ROUND
    for count, runs in batches.items():
        left, products = count, 0
        for length in sorted(ladder, reverse=True):
            while left >= length:
                left -= length
                products += 1
        total += runs * (left * nnz * (DENSE_ROUND if dense else CSR_ROUND) + products * n * n * DENSE_ROUND)
    return total


def cheapest_ladders(n, nnz, batches, lengths, dense):
    """(least cost, every ladder of that cost) over no ladder, (s,) and (t, s), t < s, from `lengths`."""
    candidates = [()] + [(s,) for s in lengths] + [(t, s) for s in lengths for t in lengths if t < s]
    costs = {ladder: ladder_cost(n, nnz, batches, ladder, dense) for ladder in candidates}
    least = min(costs.values())
    return least, {ladder for ladder, cost in costs.items() if cost == least}
