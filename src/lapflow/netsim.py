"""Deterministic synchronous message-passing simulator with hop accounting.

Model: in each round every node gathers the previous-round values of the
nodes within some radius r and combines them. Delivering one value across
h hops costs h messages (store and forward), so a plain 1-hop round over the
whole graph costs exactly 2m messages. A simulator built with radius R
rejects any round wider than R; R=None is full communication, with no
radius limit.

A simulator keeps hop data only as far as its rounds and checks reach. It
builds the adjacency pattern, the component count and ``reach`` when it is
made, in O(n + m): ``reach`` is twice the eccentricity of one node per
component, an upper bound on every component's diameter. Its one hop datum
is the ball of radius min(r, ``reach``), the hop distance of every pair
within r hops, built on first use by a BFS truncated there
(``graph_core.hop_ball``) and cached with its round charges; a new radius
continues the BFS of the largest cached ball below it. Round charges and
support checks below ``reach`` read it. At r >= ``reach`` it holds every
pair of a component as CSR, 8 bytes a pair, as much as one dense n x n
operator; only a round at that radius builds it, since a support check
there only has to find pairs of two components, which the component labels
tell.

There is one execution path, the collective round: ``certify`` proves once
that a matrix's support stays inside the r-hop ball, after which
``apply_round`` performs the whole-network gather-and-combine round as one
matrix-vector product. ``certify`` also picks the smaller storage by one
byte rule (``stores_dense``): a sparse matrix whose n x n array takes no
more bytes than its CSR arrays is kept dense, so nearly dense operators
(radius-R powers that cover most of the graph) run as BLAS matvecs. A
dense operator's support check reads the outside of the ball as an n x n
mask, built once per radius and cached with the ball. ``account_round``
charges a round whose combine step is done by the caller (row-extension
rounds). Both take a ``count`` of identical rounds and charge the whole
batch with one radius check and one cached per-radius message total;
``apply_round`` runs a CSR operator's ``count`` products in scipy's
compiled CSR kernel on two reused buffers, through ``csr_product``, the
package's one guarded entry to that kernel: a ``LocalOperator`` makes its
product when it is made, which checks the matrix once, and the dual loop
in ``newton_flow`` makes one for the incidence.
The tests check both against an independent per-node executor
(``tests/oracles.py``) that runs each node's program on its own.

A batch of many identical rounds need not be computed one product at a
time. ``stride`` gives a certified operator a ladder of at most two dense
powers, op^s, built by log2(s) dense squarings, and op^t, one of those
squarings, with t < s powers of two. Each is support-checked within its
length times op's radius. ``apply_round`` splits a batch of `count` rounds
greedily: op^(count mod t) first, then (count mod s) div t products with
op^t, then count div s products with op^s. The charge does not change: the
batch is still `count` rounds at op's radius, so transcripts are the same
with or without a ladder; only the floating-point rounding of a batch of at
least t rounds differs. One rule, ``ladder_lengths``, picks the ladder (or
none) that costs least over every batch the caller says it will run and
how often: the squarings, the checks and each batch's products, with no
setting to tune. A rung whose check would build a hop ball, one below
``reach`` and not cached, is not a candidate.
"""

import copy

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .graph_core import hop_ball, whole

try:  # scipy's compiled y += A x; private, so guarded
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:
    _csr_matvec = None

_CSR = sparse.csr_matrix
_F64 = np.dtype(np.float64)

__all__ = [
    "check_radius",
    "csr_product",
    "stores_dense",
    "ladder_lengths",
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
    return None if R is None else whole(R, "R", 1)


def csr_product(mat):
    """(x, count=1) -> mat^count x for one matrix, bit for bit what `count` products `mat @ x` give.

    The package's one entry to scipy's compiled CSR kernel, guarded in two
    halves. The matrix half (an exact float64 csr_matrix; its shape and
    arrays read once) runs here, once, for a matrix that is never changed
    afterwards. The returned function checks the other half at each call:
    a float64 vector of length mat.shape[1], and a square matrix when
    count > 1. It reads the kernel at call time too. The kernel computes
    y += A u without bounds checks, so the guards stay; from a zeroed y it
    is exactly what `mat @ u` computes, and `count` products run on two
    reused buffers. Anything else (a subclass of either type too), or a
    scipy without the kernel, takes `mat @ x`. x itself is never written to.
    """
    rows, cols = mat.shape
    square = rows == cols
    checked = type(mat) is _CSR and mat.data.dtype is _F64
    if checked:
        indptr, indices, data = mat.indptr, mat.indices, mat.data

    def product(x, count=1):
        # exact-type checks: the dual loop calls this for vectors of a few
        # hundred entries, where an abstract-class check is a visible share
        kernel = _csr_matvec
        if (checked and kernel is not None and (count == 1 or count > 1 and square)
                and type(x) is np.ndarray and x.dtype is _F64 and x.shape == (cols,)):
            u = np.zeros(rows)
            kernel(rows, cols, indptr, indices, data, np.ascontiguousarray(x), u)
            if count > 1:
                y = np.empty(rows)
                for _ in range(count - 1):
                    y.fill(0.0)
                    kernel(rows, cols, indptr, indices, data, u, y)
                    u, y = y, u
            return u
        for _ in range(count):
            x = mat @ x
        return x

    return product


def stores_dense(n, nnz, itemsize=8, index_itemsize=4):
    """Whether an n x n operator with nnz stored entries is kept as an array.

    The package's one storage rule (certify's): the n x n array of
    `itemsize`-byte values takes no more bytes than CSR arrays holding nnz
    values and nnz column indices plus n + 1 row pointers, each index
    `index_itemsize` bytes.
    """
    return n * n * itemsize <= nnz * (itemsize + index_itemsize) + (n + 1) * index_itemsize


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

    def append(self, messages, max_hop, count=1):
        """Record `count` rounds of `messages` messages each, reaching `max_hop`.

        `count` must be a non-negative integer; a rejected count records nothing.
        """
        count = whole(count, "round count", 0)
        messages, max_hop = int(messages), int(max_hop)
        self.runs.append((messages, max_hop, count))
        self.rounds += count
        self.messages_total += messages * count
        self.max_hop_used = max(self.max_hop_used, max_hop)


# What one multiply-add of a round costs, counted in multiply-adds of a dense
# n x n gemm. Timed on a 2-vCPU VM at n = 300 to 2000 (best of 7): a gemm
# took 0.018-0.024 ns per multiply-add, a dense matvec 0.11-0.21 ns (4.4-11
# gemm multiply-adds) and a csr_product round of a sparse operator 0.98-2.5 ns
# (47-68). Each weight sits below its measured range, so the rule prices
# the squarings high against the rounds they replace.
_DENSE_ROUND_WEIGHT = 4
_CSR_ROUND_WEIGHT = 32


def ladder_lengths(n, nnz, batches, lengths, dense=False):
    """The ladder an n x n operator with nnz stored entries runs `batches` cheapest on.

    `batches` maps each batch, a count of identical rounds, to the number
    of times it runs; `lengths` are the powers of two >= 2 a rung may have.
    Returns (), (s,) or (t, s) with t < s drawn from `lengths`, the one of
    least modelled cost in dense gemm multiply-adds (on a tie no ladder,
    then one rung, then the shorter lengths):
    - log2(s) * n^3 for the squarings that build op^s (op^t is one of them);
    - n^2 * _DENSE_ROUND_WEIGHT for each rung's support check, one read of
      the power;
    - for each batch of c rounds, times the number of its runs, apply_round's
      greedy split: c div s products with op^s and (c mod s) div t with op^t
      at n^2 * _DENSE_ROUND_WEIGHT each, and c mod t plain rounds at nnz
      times the operator's weight, _DENSE_ROUND_WEIGHT when `dense` and
      _CSR_ROUND_WEIGHT for a CSR operator.
    Without a ladder every batch runs as plain rounds, so a ladder is built
    only where it pays over the whole traffic.
    """
    plain = nnz * (_DENSE_ROUND_WEIGHT if dense else _CSR_ROUND_WEIGHT)
    rung = n * n * _DENSE_ROUND_WEIGHT
    lengths = sorted(set(lengths))

    def cost(ladder):
        total = (ladder[-1].bit_length() - 1) * n ** 3 + len(ladder) * rung if ladder else 0
        for count, runs in batches.items():
            left, products = count, 0
            for length in reversed(ladder):
                products += left // length
                left %= length
            total += runs * (left * plain + products * rung)
        return total

    candidates = [()] + [(s,) for s in lengths] + [
        (t, s) for s in lengths for t in lengths if t < s]
    return min(candidates, key=cost)


def _nonzero_pattern(matrix):
    # canonical CSR holding a 1 at each nonzero of a sparse matrix, its
    # duplicates summed first; the caller's arrays are not touched
    csr = sparse.csr_matrix(matrix, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.data = np.ones(csr.nnz, dtype=np.int32)
    return csr


def _ball_entry(ball):
    # [ball, c, its largest hop, the message total of a round in which every
    # node sends one value, the outside mask], with v's inbound relay cost
    # c[v] = sum_k hop(k, v); the mask slot stays None until
    # Simulator._outside builds it
    costs = np.asarray(ball.sum(axis=0), dtype=float).ravel()
    return [ball, costs, int(ball.data.max(initial=0)), int(round(costs.sum())), None]


class LocalOperator:
    """A matrix certified to combine only values from within `radius` hops.

    `product` is csr_product(matrix), made with the operator; the matrix is
    not changed afterwards. `stride` is None or the ladder ((t, op^t),
    (s, op^s)), or ((s, op^s),) without a second rung: certified powers,
    each a dense array, in ascending length, that apply_round uses for
    batches of at least t rounds (Simulator.stride).
    """

    def __init__(self, matrix, radius):
        self.matrix = matrix
        self.radius = radius
        self.product = csr_product(matrix)
        self.stride = None


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

    Attributes
    ----------
    adjacency : csr_matrix
        The graph's adjacency pattern, one stored 1 per ordered edge.
    components : int
        The number of connected components.
    reach : int
        Twice the eccentricity of one node per component, the largest over
        the components: no two nodes of a component are farther apart.

    The ball at min(r, reach) is built on first use and cached with its
    charges; fresh() copies share the cache. At reach or more it holds every
    pair of a component as CSR, 8 B a pair: one dense float64 n x n array.
    """

    def __init__(self, graph, R=None):
        self.R = check_radius(R)
        self.n = graph.n
        # the radius-1 ball: one stored 1 per ordered edge
        self.adjacency = adjacency = hop_ball(graph.adjacency_matrix(), 1)
        self.components, labels = csgraph.connected_components(adjacency, directed=False)
        self._labels = labels
        # one BFS from the first node of every component at once
        roots = np.unique(labels, return_index=True)[1]
        depth = csgraph.dijkstra(adjacency, unweighted=True, indices=roots, min_only=True)
        self.reach = 2 * int(depth.max())
        self.transcript = SimTranscript()
        self._balls = {min(1, self.reach): _ball_entry(adjacency)}

    def fresh(self):
        """This simulator with an empty transcript, sharing its cache of hop balls."""
        sim = copy.copy(self)
        sim.transcript = SimTranscript()
        return sim

    def _ball(self, r):
        # [ball, costs, max_hop, messages, outside] at min(r, reach); see _ball_entry
        key = min(r, self.reach)
        if key not in self._balls:
            # the ball at min(1, reach) is cached from the start
            inner = self._balls[max(k for k in self._balls if k < key)][0]
            self._balls[key] = _ball_entry(hop_ball(self.adjacency, key, inner))
        return self._balls[key]

    def _outside(self, r):
        # n x n bool mask of the off-diagonal pairs beyond r hops, cached in
        # the ball's entry; only a dense operator's check asks for it, and
        # that operator is an n x n array already
        entry = self._ball(r)
        if entry[4] is None:
            outside = ~entry[0].astype(bool).toarray()
            np.fill_diagonal(outside, False)
            entry[4] = outside
        return entry[4]

    def _check_radius(self, r):
        r = whole(r, "gather radius", 1)
        if self.R is not None and r > self.R:
            raise ViolationError(
                "collective round requested radius %d > R=%d at round %d"
                % (r, self.R, self.transcript.rounds + 1)
            )
        return r

    def certify(self, matrix, radius):
        """Prove supp(matrix) lies inside the radius-hop ball; return a LocalOperator.

        The radius must be an integer and respect R. The proof makes later
        apply_round calls locality-sound without per-entry checks. A sparse
        matrix is stored dense when the n x n array takes no more bytes than
        its CSR arrays (stores_dense), and only then is that array built; a
        dense matrix stays dense.
        """
        if not sparse.issparse(matrix):
            matrix = np.asarray(matrix)
        n = self.n
        if matrix.shape != (n, n):
            raise ValueError("operator shape %r is not (%d, %d)" % (matrix.shape, n, n))
        radius = self._check_radius(radius)
        if sparse.issparse(matrix):
            csr = matrix.tocsr()
            if stores_dense(n, csr.nnz, csr.dtype.itemsize, csr.indices.dtype.itemsize):
                matrix = csr.toarray()
        self._check_support(matrix, radius)
        return LocalOperator(matrix, radius)

    def _check_support(self, matrix, radius):
        # ViolationError naming the row-major first nonzero beyond radius hops.
        # A sparse matrix is read on its stored entries, duplicates summed; a
        # dense one on its nonzero positions. Past reach only a pair of two
        # components lies beyond, told by the component labels: no ball.
        far = radius >= self.reach
        if far and self.components == 1:
            return
        labels = self._labels
        if sparse.issparse(matrix):
            pattern = _nonzero_pattern(matrix)
            if far:
                rows, cols = pattern.nonzero()
                off = labels[rows] != labels[cols]
            else:
                # only a 1 outside the ball exceeds the ball's entry, which
                # is at least 1; the diagonal, at hop 0, is not in the ball
                rows, cols = (pattern > self._ball(radius)[0]).nonzero()
                off = rows != cols
            rows, cols = rows[off], cols[off]
        else:
            beyond = matrix != 0
            beyond &= labels[:, None] != labels if far else self._outside(radius)
            rows, cols = np.nonzero(beyond)
        if rows.size:
            i, j = rows[0], cols[0]
            hop = csgraph.shortest_path(self.adjacency, method="D", unweighted=True, indices=i)[j]
            raise ViolationError(
                "matrix entry (%d,%d) reaches hop %g beyond radius %d" % (i, j, hop, radius)
            )

    def stride(self, op, batches):
        """Give op the ladder ladder_lengths picks for `batches`; return its lengths.

        `batches` maps each count of rounds the caller will run with op to
        the number of times it runs it; each is an integer >= 0. The rung
        lengths offered are the powers of two up to the largest batch whose
        support check builds no hop ball: at least reach hops, or a radius
        whose ball is cached. () is no ladder and leaves op as it is. op^s
        is built by log2(s) dense squarings and op^t is the one among them
        of length t. Each is checked to lie within its length times
        op.radius hops, op^s first (ViolationError naming the first entry
        beyond, as certify does), and kept as the dense array the squarings
        produce: it is in memory in full while it is squared anyway, and
        its products run as BLAS matvecs. The ladder is not a round and
        charges nothing; apply_round still charges every round.
        """
        mat = op.matrix
        dense = not sparse.issparse(mat)
        nnz = mat.size if dense else mat.nnz
        batches = {whole(count, "batch", 0): whole(runs, "batch runs", 0)
                   for count, runs in batches.items()}
        lengths = (1 << k for k in range(1, max(batches, default=0).bit_length()))
        # a check below reach reads the ball at its radius: only a cached one
        lengths = [length for length in lengths
                   if length * op.radius >= self.reach or length * op.radius in self._balls]
        ladder = ladder_lengths(self.n, nnz, batches, lengths, dense=dense)
        if ladder:
            t, s = ladder[0], ladder[-1]
            power = mat if dense else mat.toarray()
            for k in range(1, s.bit_length()):
                power = power @ power
                if 1 << k == t:
                    rung = power
            self._check_support(power, s * op.radius)
            if t < s:
                self._check_support(rung, t * op.radius)
            op.stride = ((t, rung), (s, power)) if t < s else ((s, power),)
        return ladder

    def account_round(self, radius, payload=None, count=1):
        """Charge `count` identical whole-network gather rounds at `radius`.

        payload[v] is the number of scalars node v sends per round (default
        1): n finite, non-negative values. The radius must be an integer.
        Returns nothing; the caller performs the equivalent combine step.
        """
        radius = self._check_radius(radius)
        if payload is not None:
            payload = np.asarray(payload, dtype=float)
            if payload.shape != (self.n,):
                raise ValueError("payload has shape %r, not (%d,)" % (payload.shape, self.n))
            if not np.isfinite(payload).all():
                raise ValueError("payload has a non-finite entry")
            if (payload < 0).any():
                raise ValueError("payload has a negative entry")
        if count:
            _, costs, max_hop, messages, _ = self._ball(radius)
            if payload is not None:
                messages = int(round(float(costs @ payload)))
            self.transcript.append(messages, max_hop, count)

    def apply_round(self, op, x, count=1):
        """`count` rounds in which every node combines gathered values via its row of op.

        Returns op.matrix^count x; x itself is never written to. With a
        ladder ((t, op^t), (s, op^s)) the batch is computed greedily as
        op^(count mod t) x, then (count mod s) div t products with op^t,
        then count div s products with op^s (a ladder of op^s alone takes
        t = s); the charge is `count` rounds at op's radius either way.
        Below the lowest rung the result is the plain products' bits.
        """
        count = whole(count, "round count", 0)
        self.account_round(op.radius, count=count)
        left, products = count, []
        for length, power in reversed(op.stride or ()):
            products.append((power, left // length))
            left %= length
        x = op.product(x, left)
        for power, k in reversed(products):
            for _ in range(k):
                x = power @ x
        return x
