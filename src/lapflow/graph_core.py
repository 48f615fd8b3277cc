"""Graph construction, experiment topologies, Laplacian assembly, hop distances."""

import contextlib

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

__all__ = [
    "WeightedGraph",
    "StandardSplitting",
    "laplacian",
    "ground",
    "generate",
    "hop_ball",
    "diameter_endpoints",
    "read_edge_list",
    "load_edge_list",
    "save_edge_list",
    "open_target",
]


def whole(x, name, lo=None, hi=None):
    """x as an int; ValueError naming `name` unless x is integral and lo <= x < hi.

    The package's one whole-number rule: an integral float such as 2.0 is
    accepted, a fractional or non-finite x is refused, never truncated.
    Each bound applies only where given; hi is given only with lo.
    """
    if float(x).is_integer() and (lo is None or lo <= x) and (hi is None or x < hi):
        return int(x)
    if hi is not None:
        rule = " in [%d, %d)" % (lo, hi)
    else:
        rule = "" if lo is None else " >= %d" % lo
    raise ValueError("%s must be an integer%s, got %r" % (name, rule, x))


class WeightedGraph:
    """Undirected graph with strictly positive edge weights.

    Parameters
    ----------
    n : int
        Number of nodes, at least 1, labeled ``0 .. n-1``.
    edges : sequence of (i, j, w)
        Undirected edges with integral ``i != j`` (2.0 is accepted, 2.5 is
        not) and finite ``w > 0``. Each unordered pair
        may appear at most once; edges are stored with ``i < j`` in the
        order given.

    Attributes
    ----------
    n : int
    edges : list of (i, j, w)
    """

    def __init__(self, n, edges):
        n = whole(n, "n", 1)
        norm = []
        seen = set()
        for (i, j, w) in edges:
            if not (float(i).is_integer() and float(j).is_integer()):
                raise ValueError("edge (%r,%r) has a non-integral node id" % (i, j))
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ValueError("self-loop at node %d" % i)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("edge (%d,%d) out of range for n=%d" % (i, j, n))
            if not 0.0 < w < np.inf:
                raise ValueError("edge (%d,%d) has weight %g; need 0 < w < inf" % (i, j, w))
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValueError("duplicate edge (%d,%d)" % (i, j))
            seen.add((i, j))
            norm.append((i, j, w))
        self.n = n
        self.edges = norm

    @property
    def m(self):
        return len(self.edges)

    def adjacency_matrix(self):
        """Symmetric weight matrix W as CSR (zero diagonal)."""
        ii = [e[0] for e in self.edges] + [e[1] for e in self.edges]
        jj = [e[1] for e in self.edges] + [e[0] for e in self.edges]
        ww = [e[2] for e in self.edges] * 2
        return sparse.csr_matrix((ww, (ii, jj)), shape=(self.n, self.n))

    def weighted_degrees(self):
        deg = np.zeros(self.n)
        for (i, j, w) in self.edges:
            deg[i] += w
            deg[j] += w
        return deg

    def is_connected(self):
        if self.n == 1:
            return True
        if self.m == 0:
            return False
        ncomp, _ = csgraph.connected_components(self.adjacency_matrix(), directed=False)
        return ncomp == 1


class StandardSplitting:
    """Splitting M = D - A with positive diagonal D and symmetric nonnegative A.

    Parameters
    ----------
    D : array_like, shape (n,)
        Strictly positive diagonal.
    A : sparse or dense matrix, shape (n, n)
        Symmetric, entrywise nonnegative, zero diagonal. Diagonal dominance
        (D >= row sums of A) is not enforced here; spectral.validate_sddm
        reports on it.
    """

    def __init__(self, D, A):
        D = np.asarray(D, dtype=float).ravel()
        A = sparse.csr_matrix(A).astype(float)
        n = D.shape[0]
        if A.shape != (n, n):
            raise ValueError("D and A shapes disagree")
        if not np.all(D > 0):
            raise ValueError("D must be strictly positive")
        if A.nnz and A.data.min() < 0:
            raise ValueError("A must be nonnegative")
        if abs(A - A.T).max() > 1e-12 * max(1.0, abs(A).max()):
            raise ValueError("A must be symmetric")
        if A.diagonal().any():
            raise ValueError("A must have zero diagonal")
        self.D = D
        self.A = A

    @property
    def n(self):
        return self.D.shape[0]

    def matrix(self):
        """M = diag(D) - A as CSR."""
        return (sparse.diags(self.D) - self.A).tocsr()


def laplacian(g):
    """Standard splitting of the weighted Laplacian of g.

    Parameters
    ----------
    g : WeightedGraph
        Must be connected with at least two nodes.

    Returns
    -------
    StandardSplitting
        D holds the weighted degrees, A the weight matrix, so that
        ``D - A`` is the (singular) weighted Laplacian with zero row sums.
    """
    if g.n < 2 or not g.is_connected():
        raise ValueError("laplacian needs a connected graph on >= 2 nodes")
    return StandardSplitting(g.weighted_degrees(), g.adjacency_matrix())


def ground(s, ref_node):
    """Delete one row and column of a Laplacian splitting.

    Parameters
    ----------
    s : StandardSplitting
        Laplacian of a connected graph.
    ref_node : int
        Node whose row/column is removed; remaining nodes keep their
        relative order. An integral float such as 2.0 is accepted.

    Returns
    -------
    StandardSplitting
        The (n-1) x (n-1) principal submatrix splitting. Rows adjacent to
        ``ref_node`` become strictly dominant, so the result is positive
        definite for a connected input.
    """
    n = s.n
    if n < 2:
        raise ValueError("cannot ground a 1x1 system")
    ref_node = whole(ref_node, "ref_node", 0, n)
    keep = np.array([i for i in range(n) if i != ref_node])
    A = s.A[keep][:, keep]
    return StandardSplitting(s.D[keep], A)


def hop_ball(adjacency, r):
    """Hop distances 1..r of every pair of nodes within r hops, as canonical CSR.

    `adjacency` is a graph's symmetric sparse adjacency matrix; its stored
    entries are the edges. Entry (i, j) of the result is the hop distance
    from i to j. The diagonal is not stored, and neither is a pair more than
    r hops apart or in different components. One BFS runs from every node
    at once, truncated at r: layer k + 1 is the neighbours of layer k that
    are in neither layer k nor layer k - 1, since a neighbour of a node k
    hops away is k - 1, k or k + 1 hops away. Time and memory grow with the
    pairs within r hops, not with n^2.
    """
    n = adjacency.shape[0]
    step = sparse.csr_matrix(adjacency, dtype=np.int32, copy=True)
    step.data[:] = 1
    ball = layer = step
    before = sparse.identity(n, dtype=np.int32, format="csr")
    for k in range(2, r + 1):
        # a path count is below n, so only the pairs new at hop k stay positive
        nxt = layer @ step - (layer + before) * n
        nxt.data = (nxt.data > 0).astype(np.int32)
        nxt.eliminate_zeros()
        if not nxt.nnz:
            break
        ball = ball + nxt * k
        before, layer = layer, nxt
    ball.sum_duplicates()
    return ball


def diameter_endpoints(g):
    """Lexicographically smallest pair (u, v), u < v, at the diameter; ValueError if disconnected.

    Runs a BFS from every node at once on bitsets over the sources (Akiba,
    Iwata & Yoshida, SIGMOD 2013). Node i keeps ``seen[i]``, the sources
    within the current level of i, and ``front[i]``, the sources exactly at
    it; one level ORs the fronts of each node's neighbours. The last
    nonempty front holds the pairs at the diameter and is symmetric, so its
    first nonempty row and that row's lowest bit are the pair a row-major
    scan of the hop matrix finds first. Memory is O(n^2/64 + nnz n/64)
    bytes, not the 8 n^2 of the hop matrix; time is O(diameter nnz n/64).
    """
    n = g.n
    if n == 1:
        raise ValueError("graph has no pair at positive distance")
    adj = g.adjacency_matrix()
    if (np.diff(adj.indptr) == 0).any():
        # an isolated node; reduceat would also fill its empty segment with the next row
        raise ValueError("graph is disconnected, so its diameter is infinite")
    nodes = np.arange(n)
    front = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    front[nodes, nodes >> 6] = np.left_shift(np.uint64(1), (nodes & 63).astype(np.uint64))
    everyone = np.bitwise_or.reduce(front, axis=0)
    seen = front.copy()
    while True:
        nxt = np.bitwise_or.reduceat(front[adj.indices], adj.indptr[:-1], axis=0)
        nxt &= ~seen
        if not nxt.any():
            break
        seen |= nxt
        front = nxt
    if not (seen == everyone).all():
        raise ValueError("graph is disconnected, so its diameter is infinite")
    u = int(front.any(axis=1).argmax())
    word = int(np.flatnonzero(front[u])[0])
    bits = int(front[u, word])
    return u, 64 * word + (bits & -bits).bit_length() - 1


def _weights(rng, m, w_min, w_max):
    if w_max < w_min or w_min <= 0:
        raise ValueError("need 0 < w_min <= w_max")
    if w_max == w_min:
        return [float(w_min)] * m
    return list(rng.uniform(w_min, w_max, size=m))


def _triu_pair(n, k):
    """(i, j) of entry k of np.triu_indices(n, 1), without building the O(n^2) table.

    Row i starts at offset i (2n - 1 - i) / 2. The float root of that
    quadratic, whose discriminant is formed exactly in int64, picks the row
    to within one, and one step against the exact integer offsets corrects
    it. Exact for n up to 1.5e9, where int64 holds (2n - 1)^2.
    """
    def start(i):
        return i * (2 * n - 1 - i) // 2

    k = np.asarray(k, dtype=np.int64)
    i = ((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * k)) // 2).astype(np.int64)
    i -= k < start(i)
    i += k >= start(i + 1)
    return i, k - start(i) + i + 1


def _path_edges(nodes):
    return [(nodes[t], nodes[t + 1]) for t in range(len(nodes) - 1)]


def generate(kind, params=None, seed=None):
    """Build one of the experiment topologies.

    Parameters
    ----------
    kind : str
        One of ``path``, ``grid``, ``barbell``, ``random``, ``scale_free``.
    params : dict, optional
        ``path``: n. ``grid``: rows, cols. ``barbell``: clique, path_len.
        ``random``: n, m. ``scale_free``: n. Each size is a whole number
        (5.0 is accepted, 5.7 raises ValueError). All kinds accept ``w_min``
        and ``w_max`` (defaults 1.0) for uniform random weights.
    seed : int, optional
        Seed for all randomness; identical seed gives an identical edge list.

    Returns
    -------
    WeightedGraph
        Always connected.

    Notes
    -----
    ``random`` draws m distinct indices into the n(n-1)/2 upper-triangle
    pairs, in ``np.triu_indices(n, 1)`` order, and redraws until the graph
    is connected. Indices map to pairs arithmetically, giving the pairs a
    lookup in that table gives in O(m) memory, not O(n^2). A draw that
    leaves a node isolated is rejected before the connectivity test, as
    that test would reject it; neither shortcut changes the random stream.
    """
    params = dict(params or {})
    w_min = float(params.pop("w_min", 1.0))
    w_max = float(params.pop("w_max", 1.0))
    rng = np.random.default_rng(seed)
    kind = kind.replace("-", "_")

    if kind == "path":
        n = whole(params.pop("n"), "n")
        if n < 2:
            raise ValueError("path needs n >= 2, got %d" % n)
        pairs = _path_edges(list(range(n)))
    elif kind == "grid":
        rows, cols = whole(params.pop("rows"), "rows"), whole(params.pop("cols"), "cols")
        n = rows * cols
        if rows < 1 or cols < 1 or n < 2:
            raise ValueError("grid needs rows >= 1, cols >= 1 and at least 2 nodes, got rows=%d, cols=%d"
                             % (rows, cols))
        pairs = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    pairs.append((v, v + 1))
                if r + 1 < rows:
                    pairs.append((v, v + cols))
    elif kind == "barbell":
        c, p = whole(params.pop("clique"), "clique"), whole(params.pop("path_len"), "path_len")
        if c < 2 or p < 0:
            raise ValueError("barbell needs clique >= 2 and path_len >= 0, got clique=%d, path_len=%d"
                             % (c, p))
        n = 2 * c + p
        pairs = []
        for i in range(c):
            for j in range(i + 1, c):
                pairs.append((i, j))
        for i in range(c + p, n):
            for j in range(i + 1, n):
                pairs.append((i, j))
        # bridge: clique1 -> path nodes -> clique2, p+1 edges in total
        chain = [c - 1] + list(range(c, c + p)) + [c + p]
        pairs.extend(_path_edges(chain))
    elif kind == "random":
        n, m = whole(params.pop("n"), "n"), whole(params.pop("m"), "m")
        if n < 1:
            raise ValueError("random graph needs n >= 1, got %d" % n)
        if not n - 1 <= m <= n * (n - 1) // 2:
            raise ValueError("random graph on n=%d nodes needs m in [%d, %d] to be connected and "
                             "simple, got m=%d" % (n, n - 1, n * (n - 1) // 2, m))
        for _ in range(1000):
            iu, ju = _triu_pair(n, rng.choice(n * (n - 1) // 2, size=m, replace=False))
            if n > 1 and not np.bincount(np.concatenate([iu, ju]), minlength=n).all():
                continue  # an isolated node: disconnected, no need to ask csgraph
            adj = sparse.coo_matrix((np.ones(m), (iu, ju)), shape=(n, n))
            if csgraph.connected_components(adj, directed=False)[0] == 1:
                break
        else:
            raise ValueError("failed to draw a connected graph in 1000 tries")
        pairs = list(zip(iu.tolist(), ju.tolist()))
    elif kind == "scale_free":
        n = whole(params.pop("n"), "n")
        if n < 2:
            raise ValueError("scale_free needs n >= 2, got %d" % n)
        # urn holds one entry per edge endpoint, so draws are degree-biased
        pairs = [(0, 1)]
        urn = [0, 1]
        for t in range(2, n):
            target = urn[int(rng.integers(len(urn)))]
            pairs.append((target, t))
            urn += [target, t]
    else:
        raise ValueError("unknown graph kind %r" % kind)

    if params:
        raise ValueError("unused params for %s: %s" % (kind, sorted(params)))

    ws = _weights(rng, len(pairs), w_min, w_max)
    g = WeightedGraph(n, [(i, j, w) for (i, j), w in zip(pairs, ws)])
    if not g.is_connected():
        raise ValueError("generator produced a disconnected graph")
    return g


def read_edge_list(path):
    """(graph, rest) of a file that starts in the plain-text edge-list format.

    The format is an 'n m' header line, then m 'i j w' lines; blank lines
    are skipped. rest holds the token lists of the lines after the edges.
    n, m, i and j follow the whole-number rule (whole): 2.0 reads as 2,
    while 2.5 or a word raises. Raises ValueError naming a malformed header
    or edge line, and the field.
    """
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("edge-list file is empty")
    if len(lines[0]) != 2:
        raise ValueError("header line %r needs the form 'n m'" % " ".join(lines[0]))
    where = " in header line %r" % " ".join(lines[0])
    n, m = _whole_token(lines[0][0], "n" + where, 1), _whole_token(lines[0][1], "m" + where, 0)
    if not 0 <= m < len(lines):
        raise ValueError("header promises %d edge lines, the file has %d lines after it"
                         % (m, len(lines) - 1))
    edges = []
    for ln in lines[1 : 1 + m]:
        if len(ln) != 3:
            raise ValueError("edge line %r needs the form 'i j w'" % " ".join(ln))
        i, j, w = ln
        where = " in edge line %r" % " ".join(ln)
        edges.append((_whole_token(i, "i" + where), _whole_token(j, "j" + where), float(w)))
    return WeightedGraph(n, edges), lines[1 + m :]


def _whole_token(token, name, lo=None):
    # a file token by the whole-number rule; an int token is read exactly,
    # any other as a float, and a word raises whole's message shape
    try:
        x = int(token)
    except ValueError:
        try:
            x = float(token)
        except ValueError:
            raise ValueError("%s must be an integer, got %r" % (name, token)) from None
    return whole(x, name, lo)


def load_edge_list(path):
    """Read a graph from the plain-text format: 'n m' header, then 'i j w' lines and nothing else."""
    g, rest = read_edge_list(path)
    if rest:
        raise ValueError("edge list has a line %r after its %d edges" % (" ".join(rest[0]), g.m))
    return g


def save_edge_list(g, target):
    """Write a graph in the plain-text format read by load_edge_list to a path or file object."""
    with open_target(target) as fh:
        fh.write("%d %d\n" % (g.n, g.m))
        for (i, j, w) in g.edges:
            fh.write("%d %d %r\n" % (i, j, w))


@contextlib.contextmanager
def open_target(target):
    """Yield target as a writable file; a str path is opened, and closed on exit."""
    if isinstance(target, str):
        with open(target, "w") as fh:
            yield fh
    else:
        yield target
