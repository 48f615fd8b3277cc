"""Deterministic synchronous message-passing simulator with hop accounting.

Model: nodes publish values during a round; published values become visible
to gathers in the next round (double buffering). Delivering one value across
h hops costs h messages (store and forward). A gather of radius r from node
k delivers the previous-round values of every other node within r hops, so a
plain 1-hop round over the whole graph costs exactly 2m messages.

Two execution paths share this accounting:

* per-node: ``run_round(step_fn)`` executes node programs that call
  ``gather``/``publish``; reads target only previous-round state.
* collective: ``certify`` proves once that a matrix's support stays inside
  the r-hop mask, after which ``apply_round`` performs the whole-network
  gather-and-combine round as one matrix-vector product with identical
  message charges. ``account_round`` charges a round whose combine step is
  done by the caller (row-extension rounds); values are cross-checked against
  per-node executions in the tests.
"""

import numbers

import numpy as np
from scipy import sparse

from .graph_core import hop_matrix, open_target

__all__ = [
    "SimConfig",
    "SimTranscript",
    "Simulator",
    "LocalOperator",
    "ViolationError",
]


class ViolationError(RuntimeError):
    """Hop-enforcement or round-discipline violation."""


class SimConfig:
    """Simulation parameters.

    Parameters
    ----------
    graph : WeightedGraph
        Communication topology.
    R : int
        Permitted gather radius, at least 1.
    strict_enforcement : bool
        When true, any gather beyond R raises ViolationError.
    """

    def __init__(self, graph, R=1, strict_enforcement=True):
        if R < 1:
            raise ValueError("R must be >= 1")
        self.graph = graph
        self.R = int(R)
        self.strict_enforcement = bool(strict_enforcement)

    @classmethod
    def full_comm(cls, graph):
        """Unrestricted communication: radius = diameter, enforcement off."""
        hops = hop_matrix(graph)
        finite = hops[np.isfinite(hops)]
        diam = int(finite.max()) if finite.size else 0
        return cls(graph, R=max(1, diam), strict_enforcement=False)

    @property
    def alpha(self):
        """Bound min(n, (d_max^{R+1}-1)/(d_max-1)) on values within radius R."""
        n = self.graph.n
        dm = self.graph.d_max if self.graph.m else 0
        if dm <= 1:
            return min(n, self.R + 1)
        return min(n, (dm ** (self.R + 1) - 1) // (dm - 1))


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


def _payload_size(value):
    if isinstance(value, numbers.Number):
        return 1
    if isinstance(value, np.ndarray):
        return int(value.size)
    size = getattr(value, "payload_size", None)
    if size is not None:
        return int(size)
    raise TypeError("cannot size published value of type %s" % type(value).__name__)


class Simulator:
    """Synchronous round executor over one graph.

    Parameters
    ----------
    config : SimConfig
    """

    def __init__(self, config):
        self.config = config
        self.graph = config.graph
        self.n = config.graph.n
        self.hops = hop_matrix(config.graph)
        self.transcript = SimTranscript()
        self._visible = {}
        self._staged = []
        self._in_round = False
        self._round_messages = 0
        self._round_max_hop = 0
        self._radius_cache = {}

    # ---- bookkeeping ------------------------------------------------

    @property
    def completed_rounds(self):
        return self.transcript.rounds

    def _radius_stats(self, r):
        # per-node inbound relay cost c_r[v] = sum_{k != v, hop <= r} hop(k, v)
        # and the largest hop actually inside any radius-r neighborhood
        key = int(min(r, self.n))
        if key not in self._radius_cache:
            mask = (self.hops <= key) & (self.hops > 0)
            costs = np.where(mask, self.hops, 0.0).sum(axis=0)
            max_hop = int(self.hops[mask].max()) if mask.any() else 0
            self._radius_cache[key] = (costs, max_hop)
        return self._radius_cache[key]

    def neighborhood(self, k, r):
        """Node ids within r hops of k, excluding k."""
        row = self.hops[k]
        return np.flatnonzero((row <= min(r, self.n)) & (np.arange(self.n) != k))

    def _check_radius(self, r, k=None):
        if r < 1:
            raise ValueError("gather radius must be >= 1")
        if self.config.strict_enforcement and r > self.config.R:
            where = "node %s" % k if k is not None else "collective round"
            raise ViolationError(
                "%s requested radius %d > R=%d at round %d"
                % (where, r, self.config.R, self.completed_rounds + 1)
            )

    # ---- per-node path ----------------------------------------------

    def seed_field(self, field, values):
        """Install round-0 state for `field`: values[k] is node k's own datum."""
        if self._in_round:
            raise ViolationError("cannot seed fields inside a round")
        self._visible[field] = {k: values[k] for k in range(self.n)}

    def publish(self, k, field, value):
        """Stage node k's value of `field`; visible from the next round on."""
        if not self._in_round:
            raise ViolationError("publish outside of a round")
        self._staged.append((field, k, value))

    def own(self, k, field):
        """Node k's own previous-round value of `field` (no message cost)."""
        return self._visible[field][k]

    def gather(self, k, r, field):
        """Previous-round values of `field` from all other nodes within r hops.

        Returns a dict node id -> value, charges hop-distance messages per
        delivered value and records the maximum hop used. Raises
        ViolationError under strict enforcement when r exceeds R, or when a
        node in range never published the field.
        """
        if not self._in_round:
            raise ViolationError("gather outside of a round")
        self._check_radius(r, k)
        bucket = self._visible.get(field)
        if bucket is None:
            raise ViolationError(
                "field %r gathered by node %d at round %d before any publish"
                % (field, k, self.completed_rounds + 1)
            )
        out = {}
        for v in self.neighborhood(k, r):
            v = int(v)
            if v not in bucket:
                raise ViolationError(
                    "node %d missing field %r wanted by node %d at round %d"
                    % (v, field, k, self.completed_rounds + 1)
                )
            value = bucket[v]
            hop = int(self.hops[k, v])
            self._round_messages += hop * _payload_size(value)
            self._round_max_hop = max(self._round_max_hop, hop)
            out[v] = value
        return out

    def run_round(self, step_fn):
        """Execute one synchronous round: step_fn(k) for k = 0..n-1 in order.

        Step functions read previous-round state through gather/own and
        stage new state through publish; staged values become visible when
        the round ends.
        """
        if self._in_round:
            raise ViolationError("rounds cannot nest")
        self._in_round = True
        self._round_messages = 0
        self._round_max_hop = 0
        try:
            for k in range(self.n):
                step_fn(k)
        finally:
            self._in_round = False
        for field, k, value in self._staged:
            self._visible.setdefault(field, {})[k] = value
        self._staged = []
        self.transcript.append(self._round_messages, self._round_max_hop)

    # ---- collective path --------------------------------------------

    def certify(self, matrix, radius):
        """Prove supp(matrix) lies inside the radius-hop mask; return a LocalOperator.

        Under strict enforcement the radius must also respect R. The proof
        makes later apply_round calls locality-sound without per-entry
        checks.
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

        payload[v] is the number of scalars node v publishes (default 1).
        Returns nothing; the caller performs the equivalent combine step.
        """
        if self._in_round:
            raise ViolationError("rounds cannot nest")
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
