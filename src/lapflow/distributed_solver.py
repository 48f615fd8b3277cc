"""Distributed solvers on the simulator: full-communication and R-hop variants.

Both engines run the reference solver's own chain recursion (crude_solve)
and Richardson loop (richardson_iterates); an engine only supplies the
walk-power applier apply_p(i, v) = P^{2^i} v with P = A0 D0^{-1}, which runs
as synchronous rounds on netsim with per-round message charges. The
backward pass applies Q = D0^{-1} A0 as P on D-scaled values
(Q^p = D0^{-1} P^p D0), so no node ever needs diagonal entries from beyond
its 1-hop neighborhood. Each engine builds one level table, `_levels`: per
chain level i a certified operator and a round count whose power is P^{2^i},
which apply_p runs as one batch of identical rounds:

* FullCommEngine squares the walk operator d times (each node extends its
  row using rows gathered from the half-power radius); level i is one
  gather round of P^{2^i}.
* RHopEngine first caches each node's row of P^R through R-1 one-hop
  row-extension rounds, and charges the protocol's R-1 rounds for the row of
  Q^R too (same support, so the same payloads). Level i is 2^i one-hop
  rounds of P below R and 2^i/R rounds of P^R from R on, on a simulator
  that rejects any round wider than R, so nearly all rounds sit in the top
  levels. Before its first crude solve the engine asks netsim once for a
  stride ladder of the radius-R operator (Simulator.stride), passing the
  batches of the table's radius-R levels and how many passes will run
  them: 2(q+1) for esolve's q+1 crude solves, 2 for a bare rsolve. The
  ladder is at most two certified powers, op^t and op^s. Batches of at
  least t rounds are then computed with a few products by them, while every
  one of their rounds is still charged at radius R, so the transcript is
  the one of the round-by-round computation.

Each engine runs on the Simulator it is given; FlowProblem.network builds one per topology.
One byte rule, netsim.stores_dense, decides whether an operator is stored
dense or CSR: Simulator.certify applies it, and RHopEngine reads it to run
its row extension in the form certify will store.
"""

import numpy as np
from scipy import sparse

from .graph_core import WeightedGraph
from .netsim import Simulator, check_radius, stores_dense
from .reference_solver import crude_solve, richardson_iterates, richardson_iterations
from .spectral import check_chain_length

__all__ = [
    "FullCommEngine",
    "RHopEngine",
    "support_graph",
    "check_rhop_radius",
    "edist_rsolve",
]


def support_graph(splitting):
    """Communication graph of a splitting: one edge per off-diagonal entry."""
    coo = sparse.triu(splitting.A, k=1).tocoo()
    edges = list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    return WeightedGraph(splitting.n, edges)


def check_rhop_radius(R):
    """R as an int power of two, the one rule for RHopEngine's radius.

    check_radius's rule, with None (full communication) and integers that
    are not powers of two also raising ValueError.
    """
    R = check_radius(R)
    if R is None or (R & (R - 1)) != 0:
        raise ValueError("R must be a power of two, got %r" % (R,))
    return R


def _row_nnz(mat):
    if sparse.issparse(mat):
        return np.diff(mat.tocsr().indptr)
    return np.count_nonzero(mat, axis=1)


def _row_extension(one_hop, R, dense):
    # (P^R, the row supports published in rounds 1..R-1) by R-1 products
    # one_hop @ c, against a dense c from the first product on when `dense`.
    # A CSR one_hop times a dense c sums each entry over one_hop's row in
    # the order sparse @ sparse (csr_matmat) does, so the values are the
    # same bits; csr_matmat drops exact zeros, so the supports are the same.
    c, payloads = one_hop, []
    for _ in range(1, R):
        payloads.append(_row_nnz(c))
        if dense and sparse.issparse(c):
            c = c.toarray()
        c = one_hop @ c
    return c, payloads


class _EngineBase:
    """Shared machinery: the simulator, walk operators and the Richardson loop.

    `sim` runs on the support graph of the splitting with gather radius sim.R
    (None: full communication); its transcript records this engine's rounds.
    """

    def __init__(self, splitting, d, sim):
        self.d = check_chain_length(d)
        self.D = splitting.D
        self.sim = sim
        P1 = splitting.A.multiply(1.0 / self.D[None, :]).tocsr()  # P[k,j] = A[k,j]/D[j]
        self._op_P1 = sim.certify(P1, 1)  # every entry lies on an edge of sim's graph
        if sim.adjacency.nnz != P1.count_nonzero():
            raise ValueError("simulator graph has edges that the splitting does not")
        # one 1-hop round: neighbors exchange diagonal entries, after which
        # every node can form its rows of P and Q
        sim.account_round(1)
        self._op_M = sim.certify(splitting.matrix(), 1)

    @property
    def transcript(self):
        return self.sim.transcript

    def apply_M(self, y):
        """One 1-hop round computing M0 y."""
        return self.sim.apply_round(self._op_M, y)

    def _apply_p(self, i, v):
        """P^{2^i} v as one batch: `count` rounds of level i's operator in the subclass's `_levels`."""
        op, count = self._levels[i]
        return self.sim.apply_round(op, v, count=count)

    def _plan(self, solves):
        """Hook run before a call's crude solves, told how many the call runs; no-op here."""

    def esolve(self, b0, eps):
        """Preconditioned Richardson refinement of the crude solver.

        Runs q = richardson_iterations(eps) outer iterations, q + 1 crude
        solves. To watch a solve, iterate richardson_iterates(self.rsolve,
        self.apply_M, b0, eps) and read self.transcript between yields (an
        RHopEngine then sizes its ladder for one crude solve).
        """
        self._plan(richardson_iterations(eps) + 1)
        *_, y = richardson_iterates(self.rsolve, self.apply_M, b0, eps)
        return y


class FullCommEngine(_EngineBase):
    """Unrestricted-communication solver: squared-power chain on netsim.

    Out of scope at scale: it holds the d squared powers P^{2^s}, which
    fill in to dense n x n operators (a 494 MiB tracemalloc peak on
    random 2000/6000, d = 16). RHopEngine is the engine for large graphs.

    Parameters
    ----------
    splitting : StandardSplitting
    d : int or ChainSpec
    sim : Simulator
        Network on the support graph; R=None lets the squarings reach any radius.
    """

    def __init__(self, splitting, d, sim):
        super().__init__(splitting, d, sim)
        # level s applies the cached P^{2^s} in one round; squaring round s
        # gathers rows of the half power from radius 2^{s-1}
        self._levels = [(self._op_P1, 1)]
        for s in range(1, self.d):
            prev = self._levels[-1][0].matrix
            self.sim.account_round(2 ** (s - 1), payload=_row_nnz(prev))
            self._levels.append((self.sim.certify(prev @ prev, 2 ** s), 1))

    def rsolve(self, b0):
        """Crude solve; d forward and d backward gather rounds."""
        return crude_solve(b0, self.D, self.d, self._apply_p)


class RHopEngine(_EngineBase):
    """Strictly R-hop solver with cached radius-R row powers.

    The R-1 row-extension products run against a dense row power when the
    radius-R hop ball is dense by certify's byte rule (netsim.stores_dense
    on the ball's pairs and the diagonal), and stay sparse otherwise, so a
    sparse ball never makes an n x n array. A dense P^R goes to certify as
    the array it stores; when the rule stores P^R as CSR although its ball
    is dense (K_{10,10} at R = 2), the products are redone sparse, so the
    CSR keeps csr_matmat's index order and the kernel its summation order.

    The stride ladder of the radius-R power is built once, before the
    first crude solve, for the traffic of the call that runs it: every
    chain level's batch 2^i/R (2^i >= R), run in 2(q+1) passes by esolve
    at eps and in 2 by a bare rsolve (netsim.ladder_lengths prices it).

    Parameters
    ----------
    splitting : StandardSplitting
    d : int or ChainSpec
    sim : Simulator
        Network on the support graph; its R, a power of two, is the hop radius.
    """

    def __init__(self, splitting, d, sim):
        self.R = R = check_rhop_radius(sim.R)
        super().__init__(splitting, d, sim)
        # Part One: rows of P^R by 1-hop row extension, R-1 rounds in which
        # each node publishes its current row. The protocol's Q routine runs
        # R-1 more such rounds; supp(Q^k) = supp(P^k), so they are charged
        # with the same payloads, and Q^R = D^{-1} P^R D needs no operator
        one_hop, n = self._op_P1.matrix, sim.n
        # the ball at R is the one the rounds at R are charged from
        dense = R > 1 and sparse.issparse(one_hop) and stores_dense(n, sim._ball(R)[0].nnz + n)
        c, payloads = _row_extension(one_hop, R, dense)
        if dense and not stores_dense(n, np.count_nonzero(c)):
            c, _ = _row_extension(one_hop, R, False)
        for payload in payloads * 2:  # the P routine's rounds, then the Q routine's
            self.sim.account_round(1, payload=payload)
        self._op_C0 = self.sim.certify(c, R)
        self._levels = [(self._op_P1, 2 ** i) if 2 ** i < R else (self._op_C0, 2 ** i // R)
                        for i in range(self.d)]
        self._laddered = False

    def _plan(self, solves):
        # the ladder, once: a forward and a backward pass per crude solve
        # run every radius-R level's batch
        if not self._laddered:
            batches = (count for op, count in self._levels if op is self._op_C0)
            self.sim.stride(self._op_C0, dict.fromkeys(batches, 2 * solves))
            self._laddered = True

    def rsolve(self, b0):
        """Crude solve under strict R-hop locality."""
        self._plan(1)
        return crude_solve(b0, self.D, self.d, self._apply_p)


def edist_rsolve(splitting, b0, d, R, eps):
    """R-hop eps-approximate solve on the support graph of splitting; returns (x, engine)."""
    eng = RHopEngine(splitting, d, Simulator(support_graph(splitting), R))
    return eng.esolve(b0, eps), eng
