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
matrix-vector product. ``account_round`` charges a round whose combine step
is done by the caller (row-extension rounds). The tests check both against
an independent per-node executor (``tests/oracles.py``) that runs each
node's program on its own.
"""

import numpy as np
from scipy import sparse

from .graph_core import hop_matrix, open_target

__all__ = [
    "SimTranscript",
    "Simulator",
    "LocalOperator",
    "ViolationError",
]


class ViolationError(RuntimeError):
    """A round or an operator reaches beyond the permitted radius."""


class SimTranscript:
    """Per-round message counts and hop audit.

    Attributes
    ----------
    messages_per_round : list of int
    max_hop_per_round : list of int
    """

    def __init__(self):
        self.messages_per_round = []
        self.max_hop_per_round = []

    @property
    def rounds(self):
        return len(self.messages_per_round)

    @property
    def messages_total(self):
        return int(sum(self.messages_per_round))

    @property
    def max_hop_used(self):
        return max(self.max_hop_per_round, default=0)

    def append(self, messages, max_hop):
        self.messages_per_round.append(int(messages))
        self.max_hop_per_round.append(int(max_hop))

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
        Permitted gather radius, at least 1. None means full communication:
        rounds of any radius are allowed.
    """

    def __init__(self, graph, R=None):
        if R is not None and R < 1:
            raise ValueError("R must be >= 1")
        self.graph = graph
        self.R = None if R is None else int(R)
        self.n = graph.n
        self.hops = hop_matrix(graph)
        self.transcript = SimTranscript()
        self._radius_cache = {}

    @property
    def completed_rounds(self):
        return self.transcript.rounds

    def _radius_stats(self, r):
        # per-node inbound relay cost c_r[v] = sum_{k != v, hop <= r} hop(k, v)
        # and the largest hop actually inside any radius-r ball
        key = int(min(r, self.n))
        if key not in self._radius_cache:
            mask = (self.hops <= key) & (self.hops > 0)
            costs = np.where(mask, self.hops, 0.0).sum(axis=0)
            max_hop = int(self.hops[mask].max()) if mask.any() else 0
            self._radius_cache[key] = (costs, max_hop)
        return self._radius_cache[key]

    def _check_radius(self, r):
        if r < 1:
            raise ValueError("gather radius must be >= 1")
        if self.R is not None and r > self.R:
            raise ViolationError(
                "collective round requested radius %d > R=%d at round %d"
                % (r, self.R, self.completed_rounds + 1)
            )

    def certify(self, matrix, radius):
        """Prove supp(matrix) lies inside the radius-hop mask; return a LocalOperator.

        The radius must also respect R. The proof makes later apply_round
        calls locality-sound without per-entry checks.
        """
        self._check_radius(radius)
        dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix)
        outside = (dense != 0) & (self.hops > min(radius, self.n))
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ViolationError(
                "matrix entry (%d,%d) reaches hop %d beyond radius %d"
                % (i, j, int(self.hops[i, j]), radius)
            )
        return LocalOperator(matrix, radius)

    def account_round(self, radius, payload=None):
        """Charge one whole-network gather round at `radius`.

        payload[v] is the number of scalars node v sends (default 1).
        Returns nothing; the caller performs the equivalent combine step.
        """
        self._check_radius(radius)
        costs, max_hop = self._radius_stats(radius)
        if payload is None:
            messages = costs.sum()
        else:
            messages = float(costs @ np.asarray(payload, dtype=float))
        self.transcript.append(int(round(messages)), max_hop)

    def apply_round(self, op, x):
        """One round in which every node combines gathered values via its row of op."""
        self.account_round(op.radius)
        return op.matrix @ x
