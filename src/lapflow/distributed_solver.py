"""Distributed solvers on the simulator: full-communication and R-hop variants.

Both engines run the reference solver's own chain recursion (crude_solve)
and Richardson loop (richardson_iterates); an engine only supplies the
power appliers, which run as synchronous rounds on netsim with per-round
message charges:

* FullCommEngine squares the walk operator d times (each node extends its
  row using rows gathered from the half-power radius), then each solve runs
  d forward and d backward gather rounds.
* RHopEngine first caches each node's rows of (A0 D0^{-1})^R and
  (D0^{-1} A0)^R through R-1 one-hop row-extension rounds, then applies
  powers 2^{i-1} either as repeated 1-hop products (exponent below R) or as
  exponent/R strided R-hop products, on a simulator that rejects any
  round wider than R.

Backward-pass values are published D-scaled, so no node ever needs diagonal
entries from beyond its 1-hop neighborhood.
"""

import numpy as np
from scipy import sparse

from .graph_core import WeightedGraph
from .netsim import Simulator
from .reference_solver import DENSE_LIMIT, crude_solve, richardson_iterates

__all__ = [
    "FullCommEngine",
    "RHopEngine",
    "support_graph",
    "distr_rsolve",
    "distr_esolve",
    "rdist_rsolve",
    "edist_rsolve",
]


def support_graph(splitting):
    """Communication graph of a splitting: one edge per off-diagonal entry."""
    coo = sparse.triu(splitting.A, k=1).tocoo()
    edges = list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    return WeightedGraph(splitting.n, edges)


def _row_nnz(mat):
    if sparse.issparse(mat):
        return np.diff(mat.tocsr().indptr)
    return np.count_nonzero(mat, axis=1)


class _EngineBase:
    """Shared machinery: the simulator, walk operators and the Richardson loop.

    The simulator runs on the support graph with gather radius R; R=None is
    full communication.
    """

    def __init__(self, splitting, d, R=None):
        self.splitting = splitting
        self.d = int(getattr(d, "d", d))
        if self.d < 0:
            raise ValueError("chain length must be nonnegative")
        self.D = splitting.D
        self.sim = sim = Simulator(support_graph(splitting), R)
        n = splitting.n
        P1 = splitting.A.multiply(1.0 / self.D[None, :]).tocsr()  # P[k,j] = A[k,j]/D[j]
        Q1 = splitting.A.multiply(1.0 / self.D[:, None]).tocsr()  # Q[k,j] = A[k,j]/D[k]
        M = splitting.matrix()
        if n <= DENSE_LIMIT:
            P1, Q1, M = P1.toarray(), Q1.toarray(), M.toarray()
        # one 1-hop round: neighbors exchange diagonal entries, after which
        # every node can form its rows of P and Q
        sim.account_round(1)
        self._op_P1 = sim.certify(P1, 1)
        self._op_Q1 = sim.certify(Q1, 1)
        self._op_M = sim.certify(M, 1)

    @property
    def transcript(self):
        return self.sim.transcript

    def apply_M(self, y):
        """One 1-hop round computing M0 y."""
        return self.sim.apply_round(self._op_M, y)

    def esolve(self, b0, eps):
        """Preconditioned Richardson refinement of the crude solver.

        Runs q = richardson_iterations(eps) outer iterations. To watch a
        solve, iterate richardson_iterates(self.rsolve, self.apply_M, b0, eps)
        and read self.transcript between yields.
        """
        *_, y = richardson_iterates(self.rsolve, self.apply_M, b0, eps)
        return y


class FullCommEngine(_EngineBase):
    """Unrestricted-communication solver: squared-power chain on netsim.

    Parameters
    ----------
    splitting : StandardSplitting
    d : int or ChainSpec
    """

    def __init__(self, splitting, d):
        super().__init__(splitting, d)
        # cache P^{2^s} for s = 0..d-1; squaring round s gathers rows of the
        # half power from radius 2^{s-1}
        self._ops = [self._op_P1]
        for s in range(1, self.d):
            prev = self._ops[-1].matrix
            self.sim.account_round(2 ** (s - 1), payload=_row_nnz(prev))
            self._ops.append(self.sim.certify(prev @ prev, 2 ** s))

    def _apply_p(self, s, v):
        return self.sim.apply_round(self._ops[s], v)

    def _apply_q(self, s, x):
        # published values are D-scaled, so Q^p x = (P^p (D x)) / D without
        # remote diagonal knowledge
        return self.sim.apply_round(self._ops[s], self.D * x) / self.D

    def rsolve(self, b0):
        """Crude solve; d forward and d backward gather rounds."""
        return crude_solve(b0, self.D, self.d, self._apply_p, self._apply_q)


class RHopEngine(_EngineBase):
    """Strictly R-hop solver with cached radius-R row powers.

    Parameters
    ----------
    splitting : StandardSplitting
    d : int or ChainSpec
    R : int
        Hop radius, a power of two.
    """

    def __init__(self, splitting, d, R):
        R = int(R)
        if R < 1 or (R & (R - 1)) != 0:
            raise ValueError("R must be a power of two")
        self.R = R
        super().__init__(splitting, d, R)
        # Part One: rows of P^R and Q^R by 1-hop row extension, R-1 rounds
        # per routine (the published payload is each node's current row)
        cached = []
        for op in (self._op_P1, self._op_Q1):
            one_hop = c = op.matrix
            for _ in range(1, R):
                self.sim.account_round(1, payload=_row_nnz(c))
                c = one_hop @ c
            cached.append(self.sim.certify(c, R))
        self._op_C0, self._op_C1 = cached

    def _chain(self, vec, exponent, op1, opR):
        # apply the exponent-th power of the 1-hop operator: straight 1-hop
        # products below R, strides of the cached radius-R power otherwise
        u = vec
        if exponent < self.R:
            for _ in range(exponent):
                u = self.sim.apply_round(op1, u)
        else:
            for _ in range(exponent // self.R):
                u = self.sim.apply_round(opR, u)
        return u

    def rsolve(self, b0):
        """Crude solve under strict R-hop locality."""
        return crude_solve(
            b0, self.D, self.d,
            lambda i, v: self._chain(v, 2 ** i, self._op_P1, self._op_C0),
            lambda i, v: self._chain(v, 2 ** i, self._op_Q1, self._op_C1),
        )


def distr_rsolve(splitting, b0, d):
    """Full-communication crude solve; returns (x0, engine)."""
    eng = FullCommEngine(splitting, d)
    return eng.rsolve(b0), eng


def distr_esolve(splitting, b0, d, eps):
    """Full-communication eps-approximate solve; returns (x, engine)."""
    eng = FullCommEngine(splitting, d)
    return eng.esolve(b0, eps), eng


def rdist_rsolve(splitting, b0, d, R):
    """R-hop crude solve; returns (x0, engine)."""
    eng = RHopEngine(splitting, d, R)
    return eng.rsolve(b0), eng


def edist_rsolve(splitting, b0, d, R, eps):
    """R-hop eps-approximate solve; returns (x, engine)."""
    eng = RHopEngine(splitting, d, R)
    return eng.esolve(b0, eps), eng
