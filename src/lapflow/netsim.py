"""Deterministic synchronous message-passing simulator with hop accounting.

Model: in each round every node gathers the previous-round values of the
nodes within some radius r and combines them. Delivering one value across
h hops costs h messages (store and forward), so a plain 1-hop round over the
whole graph costs exactly 2m messages. A simulator built with radius R
rejects any round wider than R; R=None is full communication, with no
radius limit.

There is one execution path, the collective round: ``certify`` proves once
that a matrix's support stays inside the r-hop mask, after which
``apply_round`` performs the whole-network gather-and-combine round as one
matrix-vector product. ``certify`` also picks the smaller storage: a sparse
matrix whose n x n array takes no more bytes than its CSR arrays is kept
dense, so nearly dense operators (radius-R powers that cover most of the
graph) run as BLAS matvecs. ``account_round`` charges a round whose combine
step is done by the caller (row-extension rounds). Both take a ``count`` of
identical rounds and charge the whole batch with one radius check and one
cached per-radius message total; ``apply_round`` runs a CSR operator's
``count`` products in scipy's compiled CSR kernel on two reused buffers
(``csr_apply``, which the dual loop in ``newton_flow`` shares).
The tests check both against an independent per-node executor
(``tests/oracles.py``) that runs each node's program on its own.
"""

import operator

import numpy as np
from scipy import sparse

from .graph_core import hop_matrix, open_target

try:  # scipy's compiled y += A x; private, so guarded
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:
    _csr_matvec = None

__all__ = [
    "check_radius",
    "csr_apply",
    "SimTranscript",
    "Simulator",
    "LocalOperator",
    "ViolationError",
]


class ViolationError(RuntimeError):
    """A round or an operator reaches beyond the permitted radius."""


def check_radius(R):
    """R as an int of at least 1, or None (full communication).

    Raises ValueError for a fractional or non-finite R (never truncated) and
    for R < 1; an integral float such as 2.0 is accepted.
    """
    if R is None:
        return None
    if not float(R).is_integer():
        raise ValueError("R must be an integer, got %r" % (R,))
    if R < 1:
        raise ValueError("R must be >= 1, got %r" % (R,))
    return int(R)


def csr_apply(mat, x, count=1):
    """mat^count x, bit for bit what `count` products `mat @ x` give.

    A float64 csr_matrix and a float64 vector of length mat.shape[1] (and a
    square matrix when count > 1) run in scipy's compiled CSR kernel on two
    reused buffers. The kernel computes y += A u without bounds checks, so
    the guards stay; from a zeroed y it is exactly what `mat @ u` computes.
    Anything else, or a scipy without the kernel, takes `mat @ x`. x itself
    is never written to.
    """
    # a class check, not sparse.issparse: the dual loop calls this for
    # vectors of a few hundred entries, where issparse's abstract-class check
    # costs a tenth of the whole product
    if (_csr_matvec is not None and count > 0 and isinstance(mat, sparse.csr_matrix)
            and mat.dtype == np.float64 and isinstance(x, np.ndarray)
            and x.dtype == np.float64 and x.shape == (mat.shape[1],)
            and (count == 1 or mat.shape[0] == mat.shape[1])):
        rows, cols = mat.shape
        u = np.zeros(rows)
        _csr_matvec(rows, cols, mat.indptr, mat.indices, mat.data, np.ascontiguousarray(x), u)
        if count > 1:
            y = np.empty(rows)
            for _ in range(count - 1):
                y.fill(0.0)
                _csr_matvec(rows, cols, mat.indptr, mat.indices, mat.data, u, y)
                u, y = y, u
        return u
    for _ in range(count):
        x = mat @ x
    return x


class SimTranscript:
    """Message counts and hop audit, kept as runs of identical rounds.

    Attributes
    ----------
    runs : list of (messages, max_hop, count)
        One record per batch of `count` identical rounds.
    rounds, messages_total, max_hop_used : int
        Running totals over all rounds.
    """

    def __init__(self):
        self.runs = []
        self.rounds = 0
        self.messages_total = 0
        self.max_hop_used = 0

    @property
    def messages_per_round(self):
        return [msg for msg, _, count in self.runs for _ in range(count)]

    @property
    def max_hop_per_round(self):
        return [hop for _, hop, count in self.runs for _ in range(count)]

    def append(self, messages, max_hop, count=1):
        """Record `count` rounds of `messages` messages each, reaching `max_hop`.

        `count` must be a non-negative integer; a rejected count records nothing.
        """
        count = operator.index(count)
        if count < 0:
            raise ValueError("round count must be >= 0, got %r" % (count,))
        messages, max_hop = int(messages), int(max_hop)
        self.runs.append((messages, max_hop, count))
        self.rounds += count
        self.messages_total += messages * count
        self.max_hop_used = max(self.max_hop_used, max_hop)

    def to_csv(self, target):
        """Write `round,messages,max_hop` rows; target is a path or file object."""
        with open_target(target) as fh:
            fh.write("round,messages,max_hop\n")
            for t, (msg, hop) in enumerate(zip(self.messages_per_round, self.max_hop_per_round), start=1):
                fh.write("%d,%d,%d\n" % (t, msg, hop))


class LocalOperator:
    """A matrix certified to combine only values from within `radius` hops."""

    def __init__(self, matrix, radius):
        self.matrix = matrix
        self.radius = radius


class Simulator:
    """Synchronous whole-network round executor over one graph.

    Parameters
    ----------
    graph : WeightedGraph
        Communication topology.
    R : int, optional
        Permitted gather radius, an integer of at least 1 (a fractional R is
        rejected, not truncated). None means full communication: rounds of
        any radius are allowed.
    """

    def __init__(self, graph, R=None):
        self.graph = graph
        self.R = check_radius(R)
        self.n = graph.n
        self.hops = hop_matrix(graph)
        self.transcript = SimTranscript()
        self._radius_cache = {}

    def _radius_stats(self, r):
        # per-node inbound relay cost c_r[v] = sum_{k != v, hop <= r} hop(k, v),
        # the largest hop actually inside any radius-r ball, and the message
        # total of a round in which every node sends one value
        key = int(min(r, self.n))
        if key not in self._radius_cache:
            mask = (self.hops <= key) & (self.hops > 0)
            costs = np.where(mask, self.hops, 0.0).sum(axis=0)
            max_hop = int(self.hops[mask].max()) if mask.any() else 0
            self._radius_cache[key] = (costs, max_hop, int(round(costs.sum())))
        return self._radius_cache[key]

    def _check_radius(self, r):
        if r < 1:
            raise ValueError("gather radius must be >= 1")
        if self.R is not None and r > self.R:
            raise ViolationError(
                "collective round requested radius %d > R=%d at round %d"
                % (r, self.R, self.transcript.rounds + 1)
            )

    def certify(self, matrix, radius):
        """Prove supp(matrix) lies inside the radius-hop mask; return a LocalOperator.

        The radius must also respect R. The proof makes later apply_round
        calls locality-sound without per-entry checks. A sparse matrix is
        stored dense when the n x n array takes no more bytes than its CSR
        arrays; a dense matrix stays dense.
        """
        if not sparse.issparse(matrix):
            matrix = np.asarray(matrix)
        n = self.n
        if matrix.shape != (n, n):
            raise ValueError("operator shape %r is not (%d, %d)" % (matrix.shape, n, n))
        self._check_radius(radius)
        dense = matrix.toarray() if sparse.issparse(matrix) else matrix
        outside = (dense != 0) & (self.hops > min(radius, n))
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ViolationError(
                "matrix entry (%d,%d) reaches hop %d beyond radius %d"
                % (i, j, int(self.hops[i, j]), radius)
            )
        if sparse.issparse(matrix):
            csr = matrix.tocsr()
            if dense.nbytes <= csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes:
                matrix = dense
        return LocalOperator(matrix, radius)

    def account_round(self, radius, payload=None, count=1):
        """Charge `count` identical whole-network gather rounds at `radius`.

        payload[v] is the number of scalars node v sends per round (default
        1). Returns nothing; the caller performs the equivalent combine step.
        """
        if count == 0:
            return
        self._check_radius(radius)
        costs, max_hop, messages = self._radius_stats(radius)
        if payload is not None:
            messages = int(round(float(costs @ np.asarray(payload, dtype=float))))
        self.transcript.append(messages, max_hop, count)

    def apply_round(self, op, x, count=1):
        """`count` rounds in which every node combines gathered values via its row of op.

        Returns op.matrix^count x; x itself is never written to.
        """
        self.account_round(op.radius, count=count)
        return csr_apply(op.matrix, x, count)
