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
    "hop_distances",
    "hop_matrix",
    "diameter_endpoints",
    "load_edge_list",
    "save_edge_list",
    "open_target",
]


class WeightedGraph:
    """Undirected graph with strictly positive edge weights.

    Parameters
    ----------
    n : int
        Number of nodes, labeled ``0 .. n-1``.
    edges : sequence of (i, j, w)
        Undirected edges with ``i != j`` and finite ``w > 0``. Each unordered pair
        may appear at most once; edges are stored with ``i < j`` in the
        order given.

    Attributes
    ----------
    n : int
    edges : list of (i, j, w)
    adjacency : list of list of int
        Sorted neighbor ids per node.
    """

    def __init__(self, n, edges):
        n = int(n)
        if n < 1:
            raise ValueError("graph needs at least one node")
        norm = []
        seen = set()
        for (i, j, w) in edges:
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
        adj = [[] for _ in range(n)]
        for (i, j, _) in norm:
            adj[i].append(j)
            adj[j].append(i)
        self.adjacency = [sorted(nb) for nb in adj]

    @property
    def m(self):
        return len(self.edges)

    @property
    def w_max(self):
        return max(w for (_, _, w) in self.edges)

    @property
    def w_min(self):
        return min(w for (_, _, w) in self.edges)

    @property
    def d_max(self):
        return max(len(nb) for nb in self.adjacency)

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

    def diameter(self):
        """Maximum hop distance over all node pairs (unweighted); ValueError if disconnected."""
        return int(_connected_hops(self).max())


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

    def dense(self):
        return np.diag(self.D) - self.A.toarray()


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
        relative order.

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
    if not (0 <= ref_node < n):
        raise ValueError("ref_node out of range")
    keep = np.array([i for i in range(n) if i != ref_node])
    A = s.A[keep][:, keep]
    return StandardSplitting(s.D[keep], A)


def hop_distances(g, k):
    """Unweighted BFS distances from node k. dist[k] = 0; ValueError if disconnected."""
    d = csgraph.shortest_path(g.adjacency_matrix(), method="D", unweighted=True, indices=k)
    if np.isinf(d).any():
        raise ValueError("graph is disconnected, so some node is unreachable from %d" % k)
    return d.astype(int)


def hop_matrix(g):
    """All-pairs unweighted hop distances as floats; inf marks unreachable pairs."""
    return csgraph.shortest_path(g.adjacency_matrix(), method="D", unweighted=True)


def _connected_hops(g):
    hops = hop_matrix(g)
    if np.isinf(hops).any():
        raise ValueError("graph is disconnected, so its diameter is infinite")
    return hops


def diameter_endpoints(g):
    """Lexicographically smallest pair (u, v) at the diameter; ValueError if disconnected."""
    hops = _connected_hops(g)
    best = hops.max()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if hops[u, v] == best:
                return u, v
    raise ValueError("graph has no pair at positive distance")


def _weights(rng, m, w_min, w_max):
    if w_max < w_min or w_min <= 0:
        raise ValueError("need 0 < w_min <= w_max")
    if w_max == w_min:
        return [float(w_min)] * m
    return list(rng.uniform(w_min, w_max, size=m))


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
        ``random``: n, m. ``scale_free``: n. All kinds accept ``w_min`` and
        ``w_max`` (defaults 1.0) for uniform random weights.
    seed : int, optional
        Seed for all randomness; identical seed gives an identical edge list.

    Returns
    -------
    WeightedGraph
        Always connected.
    """
    params = dict(params or {})
    w_min = float(params.pop("w_min", 1.0))
    w_max = float(params.pop("w_max", 1.0))
    rng = np.random.default_rng(seed)
    kind = kind.replace("-", "_")

    if kind == "path":
        n = int(params.pop("n"))
        if n < 2:
            raise ValueError("path needs n >= 2")
        pairs = _path_edges(list(range(n)))
    elif kind == "grid":
        rows, cols = int(params.pop("rows")), int(params.pop("cols"))
        n = rows * cols
        if n < 2:
            raise ValueError("grid needs at least 2 nodes")
        pairs = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    pairs.append((v, v + 1))
                if r + 1 < rows:
                    pairs.append((v, v + cols))
    elif kind == "barbell":
        c, p = int(params.pop("clique")), int(params.pop("path_len"))
        if c < 2 or p < 0:
            raise ValueError("barbell needs clique >= 2 and path_len >= 0")
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
        n, m = int(params.pop("n")), int(params.pop("m"))
        if m < n - 1:
            raise ValueError("random graph needs m >= n-1 to be connectable")
        if m > n * (n - 1) // 2:
            raise ValueError("m exceeds the number of distinct pairs")
        iu, ju = np.triu_indices(n, 1)
        for _ in range(1000):
            pick = rng.choice(iu.shape[0], size=m, replace=False)
            adj = sparse.coo_matrix((np.ones(m), (iu[pick], ju[pick])), shape=(n, n))
            if csgraph.connected_components(adj, directed=False)[0] == 1:
                break
        else:
            raise ValueError("failed to draw a connected graph in 1000 tries")
        pairs = list(zip(iu[pick].tolist(), ju[pick].tolist()))
    elif kind == "scale_free":
        n = int(params.pop("n"))
        if n < 2:
            raise ValueError("scale_free needs n >= 2")
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


def load_edge_list(path):
    """Read a graph from the plain-text format: 'n m' header, then 'i j w' lines."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("edge-list file too short")
    n, m = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 3 * m:
        raise ValueError("expected %d edge lines of 'i j w'" % m)
    edges = []
    for t in range(m):
        i, j, w = body[3 * t], body[3 * t + 1], body[3 * t + 2]
        edges.append((int(i), int(j), float(w)))
    return WeightedGraph(n, edges)


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
