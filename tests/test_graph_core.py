import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lapflow.graph_core import (
    WeightedGraph,
    laplacian,
    ground,
    generate,
    hop_matrix,
    diameter_endpoints,
    load_edge_list,
    save_edge_list,
)
from oracles import floyd_warshall_hops, random_graph_draws


def path_graph(n):
    return generate("path", {"n": n})


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
        M = laplacian(g).dense()
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
        assert np.array_equal(s.dense(), [[1.0, -1.0], [-1.0, 2.0]])

    def test_grounded_laplacian_positive_definite(self):
        g = generate("random", {"n": 10, "m": 18}, seed=1)
        s = ground(laplacian(g), 3)
        assert np.linalg.eigvalsh(s.dense()).min() > 0

    def test_ref_node_out_of_range(self):
        with pytest.raises(ValueError):
            ground(laplacian(path_graph(3)), 3)

    def test_fractional_ref_node_named(self):
        # 2.5 names no node: grounding it used to remove nothing and return
        # the singular n x n Laplacian
        s = laplacian(path_graph(4))
        with pytest.raises(ValueError, match="ref_node must be an integer in \\[0, 4\\), got 2.5"):
            ground(s, 2.5)
        assert np.array_equal(ground(s, 2.0).dense(), ground(s, 2).dense())


class TestTopologies:
    def test_barbell_counts(self):
        g = generate("barbell", {"clique": 20, "path_len": 20})
        assert g.n == 60
        assert g.m == 401

    def test_path_diameter(self):
        assert hop_matrix(path_graph(5)).max() == 4

    def test_grid_corner_distance(self):
        g = generate("grid", {"rows": 3, "cols": 3})
        assert hop_matrix(g)[0].max() == 4

    def test_clique_hops(self):
        g = generate("random", {"n": 4, "m": 6})
        assert np.array_equal(hop_matrix(g)[0], [0, 1, 1, 1])

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

    @pytest.mark.parametrize("seed", range(8))
    def test_random_matches_redraw_loop(self, seed):
        want, draws = random_graph_draws(30, 45, seed)
        assert generate("random", {"n": 30, "m": 45}, seed=seed).edges == want
        if seed == 1:
            assert draws == 14  # rejected draws leave the stream unchanged
        weighted = {"n": 30, "m": 45, "w_min": 0.5, "w_max": 2.0}
        want, _ = random_graph_draws(30, 45, seed, 0.5, 2.0)
        assert generate("random", weighted, seed=seed).edges == want

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("torus", {"n": 4})

    def test_unused_params_rejected(self):
        with pytest.raises(ValueError):
            generate("path", {"n": 5, "rows": 2})


class TestHops:
    def test_matches_floyd_warshall(self):
        g = generate("random", {"n": 14, "m": 25}, seed=3)
        assert np.array_equal(hop_matrix(g), floyd_warshall_hops(g))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 10 ** 6))
    def test_random_graph_hops_property(self, n, seed):
        m = min(2 * n, n * (n - 1) // 2)
        g = generate("random", {"n": n, "m": m}, seed=seed)
        assert np.array_equal(hop_matrix(g), floyd_warshall_hops(g))

    def test_diameter_endpoints_path(self):
        assert diameter_endpoints(path_graph(5)) == (0, 4)

    @pytest.mark.parametrize(
        "kind, params, seed",
        [("random", {"n": 30, "m": 45}, seed) for seed in range(8)]
        + [("barbell", {"clique": 5, "path_len": 3}, None)],
    )
    def test_diameter_endpoints_match_pair_scan(self, kind, params, seed):
        g = generate(kind, params, seed=seed)
        ref = floyd_warshall_hops(g)
        best = ref.max()
        first = next((u, v) for u in range(g.n) for v in range(u + 1, g.n) if ref[u, v] == best)
        assert diameter_endpoints(g) == first

    def test_disconnected_diameter_raises(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        hops = hop_matrix(g)
        assert hops[0, 1] == 1.0 and np.isinf(hops[0, 2])
        with pytest.raises(ValueError, match="disconnected"):
            diameter_endpoints(g)


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
