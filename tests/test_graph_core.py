import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lapflow.graph_core import (
    WeightedGraph,
    laplacian,
    ground,
    generate,
    hop_ball,
    diameter_endpoints,
    load_edge_list,
    read_edge_list,
    save_edge_list,
    _triu_pair,
)
from lapflow.netsim import SimTranscript, Simulator
from lapflow.newton_flow import OptimizeConfig, make_flow_problem, optimize
from lapflow.spectral import check_chain_length
from oracles import dense, floyd_warshall_hops, random_graph_draws


def path_graph(n):
    return generate("path", {"n": n})


def ball_matches_floyd_warshall(g, r):
    """hop_ball at radius r: the Floyd-Warshall hops 1..r, nothing else stored, canonical CSR."""
    ball = hop_ball(g.adjacency_matrix(), r)
    ref = floyd_warshall_hops(g)
    assert ball.has_canonical_format and ball.nnz == np.count_nonzero((ref > 0) & (ref <= r))
    return np.array_equal(ball.toarray(), np.where(ref <= r, ref, 0.0))


def cycle(n):
    return WeightedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 0, 1.0)])

    def test_rejects_duplicate_edge_either_order(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 1, -3.0)])
        for w in (math.nan, math.inf):
            with pytest.raises(ValueError):
                WeightedGraph(2, [(0, 1, w)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 2, 1.0)])

    def test_fractional_node_id_named(self):
        # int() used to truncate these to the edges (0,1) and (1,2)
        with pytest.raises(ValueError, match=r"edge \(0\.5,1\) has a non-integral node id"):
            WeightedGraph(3, [(0.5, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match=r"edge \(1,2\.9\) has a non-integral node id"):
            WeightedGraph(3, [(0, 1, 1.0), (1, 2.9, 1.0)])
        g = WeightedGraph(3, [(0.0, 1, 1.0), (1, 2.0, 1.0)])
        assert g.edges == [(0, 1, 1.0), (1, 2, 1.0)]
        assert all(type(i) is int and type(j) is int for (i, j, _) in g.edges)

    def test_edges_stored_low_high(self):
        g = WeightedGraph(3, [(2, 0, 1.5)])
        assert g.edges == [(0, 2, 1.5)]

    def test_adjacency_matrix_symmetric(self):
        g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 3.0)])
        W = g.adjacency_matrix().toarray()
        assert np.array_equal(W, W.T)
        assert W[0, 1] == 2.0 and W[1, 2] == 3.0 and W[0, 2] == 0.0


class TestLaplacian:
    def test_path3_degrees(self):
        s = laplacian(path_graph(3))
        assert np.array_equal(s.D, [1.0, 2.0, 1.0])

    def test_row_sums_zero(self):
        g = generate("random", {"n": 12, "m": 20, "w_min": 0.5, "w_max": 3.0}, seed=4)
        M = dense(laplacian(g))
        assert np.allclose(M.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(M, M.T)

    def test_rejects_disconnected(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            laplacian(g)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            laplacian(WeightedGraph(1, []))


class TestGround:
    def test_path3_ground_last(self):
        s = ground(laplacian(path_graph(3)), 2)
        assert np.array_equal(s.D, [1.0, 2.0])
        assert s.A[0, 1] == 1.0
        assert np.array_equal(dense(s), [[1.0, -1.0], [-1.0, 2.0]])

    def test_grounded_laplacian_positive_definite(self):
        g = generate("random", {"n": 10, "m": 18}, seed=1)
        s = ground(laplacian(g), 3)
        assert np.linalg.eigvalsh(dense(s)).min() > 0

    def test_ref_node_out_of_range(self):
        with pytest.raises(ValueError):
            ground(laplacian(path_graph(3)), 3)

    def test_fractional_ref_node_named(self):
        # 2.5 names no node: grounding it used to remove nothing and return
        # the singular n x n Laplacian
        s = laplacian(path_graph(4))
        with pytest.raises(ValueError, match="ref_node must be an integer in \\[0, 4\\), got 2.5"):
            ground(s, 2.5)
        assert np.array_equal(dense(ground(s, 2.0)), dense(ground(s, 2)))


def _rounds(step):
    """(step(sim, op), the runs it charged) on a new R=2 simulator of path 6 and its certified adjacency."""
    g = path_graph(6)
    sim = Simulator(g, 2)
    op = sim.certify(g.adjacency_matrix(), 1)
    return step(sim, op), sim.transcript.runs


def _apply(count):
    return _rounds(lambda sim, op: sim.apply_round(op, np.arange(6.0), count).tobytes())


def _stride(batch):
    return _rounds(lambda sim, op: (sim.stride(op, batch), [(t, p.tobytes()) for t, p in op.stride]))


def _transcript(count):
    t = SimTranscript()
    t.append(10, 1, count)
    return t.runs, t.rounds, t.messages_total


def _optimize(**config):
    p = make_flow_problem(generate("random", {"n": 10, "m": 18}, seed=15))
    return optimize(p, "exact_newton", OptimizeConfig(**config)).rows


# id: (call(x) -> result, an int x, a fractional x, the name its ValueError gives)
WHOLE_NUMBER_ARGUMENTS = {
    "WeightedGraph_n": (lambda n: vars(WeightedGraph(n, [(0, 1, 1.0), (1, 2, 1.0)])), 3, 3.9, "n"),
    "path_n": (lambda n: generate("path", {"n": n}).edges, 5, 5.7, "n"),
    "grid_rows": (lambda r: generate("grid", {"rows": r, "cols": 3}).edges, 2, 2.9, "rows"),
    "grid_cols": (lambda c: generate("grid", {"rows": 2, "cols": c}).edges, 3, 3.5, "cols"),
    "barbell_clique": (lambda c: generate("barbell", {"clique": c, "path_len": 2}).edges, 3, 3.5, "clique"),
    "barbell_path_len": (lambda p: generate("barbell", {"clique": 3, "path_len": p}).edges, 2, 2.5,
                         "path_len"),
    "random_n": (lambda n: generate("random", {"n": n, "m": 8}, seed=1).edges, 6, 6.5, "n"),
    "random_m": (lambda m: generate("random", {"n": 6, "m": m}, seed=1).edges, 8, 8.5, "m"),
    "scale_free_n": (lambda n: generate("scale_free", {"n": n}, seed=1).edges, 5, 5.5, "n"),
    "ground_ref_node": (lambda v: dense(ground(laplacian(path_graph(4)), v)).tobytes(), 2, 2.5, "ref_node"),
    "Simulator_R": (lambda R: Simulator(path_graph(4), R).R, 2, 2.5, "R"),
    "account_round_radius": (lambda r: _rounds(lambda sim, op: sim.account_round(r)), 2, 1.5,
                             "gather radius"),
    "certify_radius": (lambda r: _rounds(lambda sim, op: sim.certify(op.matrix, r).radius), 2, 1.7,
                       "gather radius"),
    "account_round_count": (lambda c: _rounds(lambda sim, op: sim.account_round(1, count=c)), 2, 2.5,
                            "round count"),
    "apply_round_count": (_apply, 2, 2.5, "round count"),
    "transcript_count": (_transcript, 2, 2.5, "round count"),
    "stride_batch": (_stride, 64, 2.5, "batch"),
    "chain_length": (check_chain_length, 2, 2.5, "chain length"),
    "flow_source": (lambda v: make_flow_problem(path_graph(4), source=v).b.tobytes(), 2, 2.5, "source"),
    "flow_sink": (lambda v: make_flow_problem(path_graph(4), sink=v).b.tobytes(), 2, 2.5, "sink"),
    "optimize_max_iters": (lambda k: _optimize(max_iters=k), 3, 2.5, "max_iters"),
    "optimize_ground_node": (lambda v: _optimize(ground_node=v, max_iters=3), 2, 2.5, "ground_node"),
}


class TestWholeNumberRule:
    """Every size, count, radius and node argument follows graph_core.whole: an integral
    float or numpy integer runs as the int, a fractional or non-finite one is refused."""

    @pytest.mark.parametrize("case", list(WHOLE_NUMBER_ARGUMENTS))
    def test_integral_accepted_fractional_refused(self, case):
        call, good, fractional, name = WHOLE_NUMBER_ARGUMENTS[case]
        # compared as repr, so a 2.0 carried through as a float would show
        expected = repr(call(good))
        assert repr(call(float(good))) == expected
        assert repr(call(np.int64(good))) == expected
        for bad in (fractional, math.nan, math.inf):
            with pytest.raises(ValueError, match="^%s must be an integer.*, got %s$"
                               % (re.escape(name), re.escape(repr(bad)))):
                call(bad)


class TestTopologies:
    def test_barbell_counts(self):
        g = generate("barbell", {"clique": 20, "path_len": 20})
        assert g.n == 60
        assert g.m == 401

    def test_path_diameter(self):
        assert floyd_warshall_hops(path_graph(5)).max() == 4

    def test_grid_corner_distance(self):
        g = generate("grid", {"rows": 3, "cols": 3})
        assert floyd_warshall_hops(g)[0].max() == 4

    def test_clique_hops(self):
        g = generate("random", {"n": 4, "m": 6})
        assert np.array_equal(floyd_warshall_hops(g)[0], [0, 1, 1, 1])

    def test_random_counts_and_connected(self):
        g = generate("random", {"n": 20, "m": 60}, seed=7)
        assert g.n == 20 and g.m == 60
        assert g.is_connected()

    def test_scale_free_is_tree(self):
        g = generate("scale_free", {"n": 30}, seed=2)
        assert g.m == g.n - 1
        assert g.is_connected()

    def test_determinism(self):
        a = generate("random", {"n": 15, "m": 30, "w_min": 0.1, "w_max": 9.0}, seed=11)
        b = generate("random", {"n": 15, "m": 30, "w_min": 0.1, "w_max": 9.0}, seed=11)
        assert a.edges == b.edges

    @pytest.mark.parametrize("n, m", [(30, 45), (200, 400)])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_matches_redraw_loop(self, n, m, seed):
        want, draws = random_graph_draws(n, m, seed)
        assert generate("random", {"n": n, "m": m}, seed=seed).edges == want
        if (n, seed) == (30, 1):
            assert draws == 14  # rejected draws leave the stream unchanged
        if n == 200:
            # sparse: most draws leave a node isolated
            assert draws >= 10
        weighted = {"n": n, "m": m, "w_min": 0.5, "w_max": 2.0}
        want, _ = random_graph_draws(n, m, seed, 0.5, 2.0)
        assert generate("random", weighted, seed=seed).edges == want

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 300])
    def test_triu_pair_matches_triu_indices(self, n):
        iu, ju = np.triu_indices(n, 1)
        i, j = _triu_pair(n, np.arange(iu.shape[0]))
        assert np.array_equal(i, iu) and np.array_equal(j, ju)

    def test_triu_pair_rows_at_large_n(self):
        # first and last entries of rows at n = 10^9, where the float root
        # often lands one row too far and the integer fix-up must correct it
        n = 10 ** 9
        rows = np.concatenate([np.arange(1000), n - 1001 + np.arange(1000),
                               np.random.default_rng(0).integers(0, n - 1, 10 ** 4)])
        start = rows * (2 * n - 1 - rows) // 2
        k = np.concatenate([start, start + (n - 2 - rows)])
        i, j = _triu_pair(n, k)
        assert np.array_equal(i, np.concatenate([rows, rows]))
        assert np.array_equal(j, np.concatenate([rows + 1, np.full(rows.shape[0], n - 1)]))

    @pytest.mark.parametrize(
        "n, m, digest, ends",
        [
            (2000, 6000, "4d3cab003f7ad394551beb3c3b0a1442e93f2a971a8c6d105f78a74673fa0cb9", (19, 216)),
            (300, 900, "b0378e5523fd5424f98bf3f5a7579a3eafd0c95e68aa51eb9f310b4ce83073af", (7, 173)),
        ],
        ids=["n2000", "n300"],
    )
    def test_benchmark_graphs_pinned(self, n, m, digest, ends):
        # the random graphs of the exact_newton_large and newton_random_r4
        # workloads: same edge list and same source and sink
        g = generate("random", {"n": n, "m": m}, seed=0)
        assert hashlib.sha256(repr(g.edges).encode()).hexdigest() == digest
        assert diameter_endpoints(g) == ends

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("torus", {"n": 4})

    def test_unused_params_rejected(self):
        with pytest.raises(ValueError):
            generate("path", {"n": 5, "rows": 2})

    @pytest.mark.parametrize("kind, params, named", [
        ("path", {"n": 1}, "path needs n >= 2, got 1"),
        # a grid of -2 x -3 used to pass as 6 nodes and fail as disconnected
        ("grid", {"rows": -2, "cols": -3}, "grid needs rows >= 1, cols >= 1 and at least 2 nodes, "
                                           "got rows=-2, cols=-3"),
        ("grid", {"rows": 1, "cols": 1}, "got rows=1, cols=1"),
        ("barbell", {"clique": 1, "path_len": 2}, "barbell needs clique >= 2 and path_len >= 0, "
                                                  "got clique=1, path_len=2"),
        # n = -5 used to reach scipy's "'shape' elements cannot be negative"
        ("random", {"n": -5, "m": 0}, "random graph needs n >= 1, got -5"),
        ("random", {"n": 5, "m": 3}, "random graph on n=5 nodes needs m in [4, 10] to be "
                                     "connected and simple, got m=3"),
        ("random", {"n": 5, "m": 11}, "needs m in [4, 10]"),
        ("scale_free", {"n": 0}, "scale_free needs n >= 2, got 0"),
    ], ids=["path", "grid_negative", "grid_one", "barbell", "random_negative_n", "random_few_edges",
            "random_many_edges", "scale_free"])
    def test_bad_size_named(self, kind, params, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            generate(kind, params)


class TestHops:
    def test_matches_floyd_warshall(self):
        graphs = [
            generate("random", {"n": 14, "m": 25}, seed=3), path_graph(7),
            generate("grid", {"rows": 4, "cols": 5}), generate("barbell", {"clique": 4, "path_len": 3}),
            # two components and an isolated node
            WeightedGraph(7, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 5, 2.0)]),
        ]
        for g in graphs:
            # every radius up to two past the largest finite hop
            ref = floyd_warshall_hops(g)
            for r in range(1, int(ref[np.isfinite(ref)].max()) + 3):
                assert ball_matches_floyd_warshall(g, r), (g.n, r)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 10 ** 6), st.integers(1, 9))
    def test_random_graph_hops_property(self, n, seed, r):
        m = min(2 * n, n * (n - 1) // 2)
        g = generate("random", {"n": n, "m": m}, seed=seed)
        assert ball_matches_floyd_warshall(g, r)

    def test_diameter_endpoints_path(self):
        assert diameter_endpoints(path_graph(5)) == (0, 4)

    @pytest.mark.parametrize(
        "g",
        [generate("random", {"n": 30, "m": 45}, seed=seed) for seed in range(8)]
        + [generate("barbell", {"clique": 5, "path_len": 3})]
        # grids: many pairs tie at the diameter
        + [generate("grid", {"rows": r, "cols": c}) for r, c in [(4, 5), (6, 6), (7, 9), (1, 2)]]
        # paths and cycles at the 64-bit word boundaries of the bitsets
        + [generate("path", {"n": n}) for n in (2, 63, 64, 65, 128)]
        + [cycle(n) for n in (63, 64, 65, 128)]
        + [generate("scale_free", {"n": 200}, seed=5), generate("random", {"n": 300, "m": 900}, seed=2)],
        ids=lambda g: "n%d_m%d" % (g.n, g.m),
    )
    def test_diameter_endpoints_match_pair_scan(self, g):
        ref = floyd_warshall_hops(g)
        best = ref.max()
        first = next((u, v) for u in range(g.n) for v in range(u + 1, g.n) if ref[u, v] == best)
        assert diameter_endpoints(g) == first

    def test_disconnected_diameter_raises(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        ball = hop_ball(g.adjacency_matrix(), g.n).toarray()
        assert ball[0, 1] == 1.0 and ball[0, 2] == 0.0 and np.isinf(floyd_warshall_hops(g)[0, 2])
        with pytest.raises(ValueError, match="disconnected"):
            diameter_endpoints(g)

    @pytest.mark.parametrize(
        "g",
        [
            WeightedGraph(3, [(0, 1, 1.0)]),  # an isolated node
            WeightedGraph(2, []),
            # two components, each of two or more nodes, across a word boundary
            WeightedGraph(70, [(i, i + 1, 1.0) for i in range(69) if i != 39]),
            WeightedGraph(5, [(0, 2, 1.0), (2, 4, 1.0), (1, 3, 1.0)]),
        ],
        ids=["isolated", "edgeless", "paths_40_30", "interleaved"],
    )
    def test_disconnected_graphs_raise(self, g):
        with pytest.raises(ValueError, match="disconnected"):
            diameter_endpoints(g)

    def test_single_node_has_no_pair(self):
        with pytest.raises(ValueError, match="no pair at positive distance"):
            diameter_endpoints(WeightedGraph(1, []))


def traced_peak(fn, *args):
    """Largest traced allocation total while fn(*args) runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuildMemory:
    """Building a flow problem allocates far less than one n x n float64 array."""

    N, M = 3000, 9000
    SEED = 1701  # connects on its first draw; at m = 3n most seeds take hundreds
    LIMIT = N * N * 8 // 4

    def test_generate_random_has_no_pair_table(self):
        assert traced_peak(generate, "random", {"n": self.N, "m": self.M}, self.SEED) < self.LIMIT

    def test_diameter_endpoints_has_no_hop_matrix(self):
        g = generate("random", {"n": self.N, "m": self.M}, seed=self.SEED)
        assert traced_peak(diameter_endpoints, g) < self.LIMIT


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = generate("random", {"n": 9, "m": 16, "w_min": 0.2, "w_max": 5.0}, seed=6)
        path = tmp_path / "g.txt"
        save_edge_list(g, str(path))
        h = load_edge_list(str(path))
        assert h.n == g.n
        assert h.edges == g.edges

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1 1.0\n")
        with pytest.raises(ValueError):
            load_edge_list(str(path))

    @pytest.mark.parametrize("text, named", [
        # one line holding a header and two edges is not the line format
        ("3 2 0 1 1.0 1 2 1.0\n", "header line '3 2 0 1 1.0 1 2 1.0' needs the form 'n m'"),
        ("3 2\n0 1 1.0 1 2 1.0\n", "header promises 2 edge lines, the file has 1 lines after it"),
        ("3 2\n0 1 1.0\n1 2\n9 9 9\n", "edge line '1 2' needs the form 'i j w'"),
        ("3 2\n0 1 1.0\n1 2 1.0\nb 1.0 0.0 -1.0\n", "edge list has a line 'b 1.0 0.0 -1.0' after its 2 edges"),
    ], ids=["one_line", "short", "edge", "extra"])
    def test_malformed_line_named(self, tmp_path, text, named):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(named)):
            load_edge_list(str(path))

    @pytest.mark.parametrize("text, named", [
        ("3 2.5\n0 1 1.0\n1 2 1.0\n", "m in header line '3 2.5' must be an integer >= 0, got 2.5"),
        ("3 two\n0 1 1.0\n1 2 1.0\n", "m in header line '3 two' must be an integer, got 'two'"),
        ("3.5 2\n0 1 1.0\n1 2 1.0\n", "n in header line '3.5 2' must be an integer >= 1, got 3.5"),
        ("3 2\n0 1 1.0\n1 x 1.0\n", "j in edge line '1 x 1.0' must be an integer, got 'x'"),
        ("3 2\n0.5 1 1.0\n1 2 1.0\n", "i in edge line '0.5 1 1.0' must be an integer, got 0.5"),
    ], ids=["fractional_m", "word_m", "fractional_n", "word_j", "fractional_i"])
    def test_fields_follow_the_whole_number_rule(self, tmp_path, text, named):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(named)):
            read_edge_list(str(path))

    def test_integral_float_fields_read_as_ints(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2.0\n0 1 1.0\n1.0 2 2.5\n")
        g = load_edge_list(str(path))
        assert (g.n, g.edges) == (3, [(0, 1, 1.0), (1, 2, 2.5)])

    def test_read_returns_the_lines_after_the_edges(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1 1.0\n\n1 2 2.5\nb 1.0 0.0 -1.0\ncost exp\n")
        g, rest = read_edge_list(str(path))
        assert (g.n, g.edges) == (3, [(0, 1, 1.0), (1, 2, 2.5)])
        assert rest == [["b", "1.0", "0.0", "-1.0"], ["cost", "exp"]]
