"""The library's collective simulator, and the per-node oracle executor it is checked against."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from lapflow import netsim
from lapflow.distributed_solver import support_graph
from lapflow.graph_core import WeightedGraph, generate, ground, laplacian
from lapflow.netsim import LocalOperator, SimTranscript, Simulator, ViolationError
from conftest import rhop_engine
from oracles import (
    CSR_ROUND,
    DENSE_ROUND,
    OracleViolation,
    PerNodeNetwork,
    cheapest_ladders,
    floyd_warshall_hops,
    per_round,
)


def path_graph(n):
    return generate("path", {"n": n})


def k3():
    return generate("random", {"n": 3, "m": 3})


def seeded_net(g, R=None):
    net = PerNodeNetwork(g, R)
    net.seed_field("v", {k: float(k) for k in range(g.n)})
    return net


class TestSimConfig:
    """The simulator's one setting: the radius R, None for full communication."""

    def test_rejects_radius_below_one(self):
        with pytest.raises(ValueError):
            Simulator(path_graph(3), R=0)

    def test_rejects_non_integral_radius(self):
        # a fractional R would otherwise run as its truncation
        for bad in (1.5, 2.9, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="integer"):
                Simulator(path_graph(3), R=bad)
        assert Simulator(path_graph(3), R=2.0).R == 2

    def test_check_radius_is_the_one_rule(self):
        # Simulator, RHopEngine and optimize all call this helper
        assert netsim.check_radius(None) is None
        for ok, want in ((1, 1), (2.0, 2), (np.int64(4), 4)):
            got = netsim.check_radius(ok)
            assert got == want and type(got) is int
        for bad, match in ((0, ">= 1"), (-1, ">= 1"), (-2.0, ">= 1"), (2.9, "integer"),
                           (float("nan"), "integer"), (float("-inf"), "integer")):
            with pytest.raises(ValueError, match=match):
                netsim.check_radius(bad)

    def test_full_communication_has_no_radius_limit(self):
        sim = Simulator(path_graph(5))
        assert sim.R is None
        sim.account_round(4)
        # every ordered pair of the path, each value charged its hop distance
        assert sim.transcript.runs == [(2 * (4 * 1 + 3 * 2 + 2 * 3 + 1 * 4), 4, 1)]


class TestRoundRadius:
    """A round's radius follows check_radius's integer rule; a payload is n finite counts >= 0."""

    @pytest.mark.parametrize("R", [1, 2, None])
    def test_fractional_round_radius_rejected(self, R):
        # a radius of 1.5 used to run, and be charged, as radius 1; a batch of
        # no rounds is checked too
        sim = Simulator(path_graph(5), R=R)
        for bad in (1.5, 0.5, float("nan")):
            for count in (1, 0):
                with pytest.raises(ValueError, match="gather radius must be an integer"):
                    sim.account_round(bad, count=count)
        assert sim.transcript.runs == []

    def test_fractional_certify_radius_rejected(self):
        g = path_graph(5)
        sim = Simulator(g, R=2)
        with pytest.raises(ValueError, match="gather radius must be an integer >= 1, got 1.7"):
            sim.certify(g.adjacency_matrix(), 1.7)
        op = sim.certify(g.adjacency_matrix(), 2.0)
        assert op.radius == 2 and type(op.radius) is int
        sim.account_round(2.0)
        assert sim.transcript.runs == [(2 * (4 + 3 * 2), 2, 1)]

    @pytest.mark.parametrize("payload, match", [
        ([-5, 1, 1], "negative entry"), ([1, 1], r"shape \(2,\), not \(3,\)"),
        ([[1, 1, 1]], r"shape \(1, 3\), not \(3,\)"), ([1, float("inf"), 1], "non-finite entry"),
        ([1, float("nan"), 1], "non-finite entry"),
    ], ids=["negative", "short", "matrix", "inf", "nan"])
    def test_bad_payload_rejected(self, payload, match):
        sim = Simulator(path_graph(3), R=1)
        for count in (1, 0):
            with pytest.raises(ValueError, match=match):
                sim.account_round(1, payload=payload, count=count)
        assert sim.transcript.runs == []


def hop_oracle_graphs():
    """Path, grid, barbell, random, and a support that grounding splits in two."""
    return [
        path_graph(7), generate("grid", {"rows": 3, "cols": 4}),
        generate("barbell", {"clique": 4, "path_len": 3}), generate("random", {"n": 14, "m": 25}, seed=3),
        support_graph(ground(laplacian(path_graph(9)), 4)),
    ]


class TestHopData:
    """Round charges and support checks from the hop ball at min(r, reach), against Floyd-Warshall."""

    @pytest.mark.parametrize("g", hop_oracle_graphs(), ids=["path", "grid", "barbell", "random", "cut_path"])
    def test_every_radius_matches_floyd_warshall(self, g):
        fw = floyd_warshall_hops(g)
        finite = np.isfinite(fw)
        diameter = int(fw[finite].max())
        payload = np.arange(1.0, g.n + 1)
        full = Simulator(g)
        # past the diameter and past reach, where the reach ball serves every radius
        top = max(diameter + 2, full.reach + 1)
        assert diameter <= full.reach < top
        for r in range(1, top + 1):
            inside = finite & (fw > 0) & (fw <= r)
            hops = np.where(inside, fw, 0.0)
            max_hop = int(hops.max())
            want = [(int(hops.sum()), max_hop, 1), (int(hops.sum(axis=0) @ payload), max_hop, 1)]
            for sim in (Simulator(g, R=r), full):
                before = len(sim.transcript.runs)
                sim.account_round(r)
                sim.account_round(r, payload=payload)
                assert sim.transcript.runs[before:] == want, r

    @pytest.mark.parametrize("g", hop_oracle_graphs(), ids=["path", "grid", "barbell", "random", "cut_path"])
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_extended_balls_equal_balls_from_scratch(self, g, order, monkeypatch):
        # each new radius continues the BFS of the largest cached ball below
        # it; the ball it gives is hop_ball's from scratch, array for array
        sim = Simulator(g)
        radii = list(range(1, sim.reach + 3))
        if order == "descending":
            radii.reverse()
        elif order == "shuffled":
            np.random.default_rng(7).shuffle(radii)
        inners = []
        real = netsim.hop_ball

        def spy(adjacency, r, inner=None):
            inners.append(inner)
            return real(adjacency, r, inner)

        monkeypatch.setattr(netsim, "hop_ball", spy)
        for r in radii:
            key = min(r, sim.reach)
            below = max(k for k in sim._balls if k <= key)
            ball = sim._ball(r)[0]
            if below < key:
                assert inners[-1] is sim._balls[below][0], r
            want = real(sim.adjacency, key)
            for name in ("indptr", "indices", "data"):
                assert getattr(ball, name).tobytes() == getattr(want, name).tobytes(), (r, name)
        assert len(inners) == len(sim._balls) - 1

    def test_cross_component_stride_power_raises(self):
        # the grounded path 9 falls apart at node 4; an entry forged between
        # its halves reaches every power, and a stride power above reach can
        # only fail there
        g = support_graph(ground(laplacian(path_graph(9)), 4))
        sim = Simulator(g, R=1)
        assert sim.components == 2 and sim.reach == 6
        W = g.adjacency_matrix().tolil() * 0.5
        W[3, 4] = W[4, 3] = 0.5
        op = LocalOperator(W.tocsr(), 1)
        s = netsim.ladder_lengths(g.n, op.matrix.nnz, {2 ** 10: 1}, powers_of_two(sim.reach, 2 ** 10))[-1]
        assert s >= sim.reach
        with pytest.raises(ViolationError) as err:
            sim.stride(op, {2 ** 10: 1})
        found = re.fullmatch(r"matrix entry \((\d+),(\d+)\) reaches hop inf beyond radius %d" % s,
                             str(err.value))
        labels = csgraph.connected_components(sim.adjacency, directed=False)[1]
        assert found and labels[int(found[1])] != labels[int(found[2])]
        assert op.stride is None
        # certify at a radius above reach names the forged entry itself; the
        # component labels tell it, so no reach ball is built
        for form in (W.tocsr(), W.toarray()):
            full = Simulator(g)
            with pytest.raises(ViolationError) as err:
                full.certify(form, 64)
            assert str(err.value) == "matrix entry (3,4) reaches hop inf beyond radius 64"
            assert sorted(full._balls) == [1]
        assert sorted(sim._balls) == [1]

    def test_r1_grid_holds_no_n_by_n_array(self):
        # n = 3000: one n x n float64 array takes 72 MB
        def run():
            g = generate("grid", {"rows": 50, "cols": 60})
            sim = Simulator(g, R=1)
            W = g.adjacency_matrix()
            walk = W.multiply(1.0 / g.weighted_degrees()[None, :]).tocsr()
            op = sim.certify(walk, 1)
            assert sparse.issparse(op.matrix)
            sim.apply_round(op, np.ones(g.n))
            assert sim.transcript.runs == [(2 * g.m, 1, 1)]

        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestFresh:
    def test_fresh_shares_hop_data_with_an_empty_transcript(self, monkeypatch):
        sim = Simulator(generate("grid", {"rows": 3, "cols": 4}), R=2)
        sim.account_round(2, count=3)

        def rebuild(*args, **kwargs):
            raise AssertionError("fresh must not rebuild the hop data")

        monkeypatch.setattr(Simulator, "__init__", rebuild)
        twin = sim.fresh()
        assert type(twin) is Simulator and twin.R == 2 and twin.n == sim.n
        assert twin.adjacency is sim.adjacency and twin.reach == sim.reach
        assert twin._balls is sim._balls
        assert twin.transcript is not sim.transcript and twin.transcript.runs == []
        twin.account_round(1)
        twin.account_round(2)
        assert twin.transcript.runs[1] == sim.transcript.runs[0][:2] + (1,)
        assert sim.transcript.rounds == 3


class TestGather:
    def test_k3_single_gather_costs_two(self):
        net = seeded_net(k3(), R=1)
        got = {}

        def step(k):
            if k == 0:
                got.update(net.gather(0, 1, "v"))

        net.run_round(step)
        assert got == {1: 1.0, 2: 2.0}
        assert net.messages_per_round == [2]

    def test_path5_two_hop_gather(self):
        net = seeded_net(path_graph(5), R=2)
        got = {}

        def step(k):
            if k == 0:
                got.update(net.gather(0, 2, "v"))

        net.run_round(step)
        assert got == {1: 1.0, 2: 2.0}
        assert net.messages_per_round == [3]
        assert net.max_hop_per_round == [2]

    def test_strict_radius_violation(self):
        net = seeded_net(path_graph(5), R=1)

        def step(k):
            net.gather(k, 2, "v")

        with pytest.raises(OracleViolation, match="radius 2 > R=1"):
            net.run_round(step)

    def test_relaxed_mode_allows_wide_gather(self):
        net = seeded_net(path_graph(5))

        def step(k):
            if k == 0:
                net.gather(0, 4, "v")

        net.run_round(step)
        assert net.messages_per_round == [1 + 2 + 3 + 4]
        assert net.max_hop_per_round == [4]

    def test_unpublished_field_names_offender(self):
        net = seeded_net(k3(), R=1)

        def step(k):
            net.gather(k, 1, "ghost")

        with pytest.raises(OracleViolation, match="ghost"):
            net.run_round(step)

    def test_gather_excludes_self(self):
        net = seeded_net(k3(), R=1)
        seen = {}

        def step(k):
            seen[k] = sorted(net.gather(k, 1, "v"))

        net.run_round(step)
        assert seen == {0: [1, 2], 1: [0, 2], 2: [0, 1]}

    def test_radius_below_one_rejected(self):
        net = seeded_net(k3(), R=1)

        def step(k):
            net.gather(k, 0, "v")

        with pytest.raises(ValueError):
            net.run_round(step)

    def test_gather_outside_round(self):
        net = seeded_net(k3(), R=1)
        with pytest.raises(OracleViolation):
            net.gather(0, 1, "v")


class TestRounds:
    def test_k3_averaging_round(self):
        net = seeded_net(k3(), R=1)

        def step(k):
            vals = net.gather(k, 1, "v")
            vals[k] = net.own(k, "v")
            net.publish(k, "v", sum(vals.values()) / len(vals))

        net.run_round(step)
        assert [net.own(k, "v") for k in range(3)] == [1.0, 1.0, 1.0]
        assert net.messages_per_round == [6]

    def test_one_hop_round_costs_two_m(self):
        g = generate("random", {"n": 12, "m": 30}, seed=1)
        net = PerNodeNetwork(g, R=1)
        net.seed_field("v", {k: 1.0 for k in range(g.n)})

        def step(k):
            net.gather(k, 1, "v")

        net.run_round(step)
        assert net.messages_per_round == [2 * g.m]

    def test_publish_visible_next_round_only(self):
        net = seeded_net(k3(), R=1)

        def first(k):
            net.publish(k, "w", 10.0 + k)
            assert net.own(k, "v") == float(k)

        net.run_round(first)
        assert net.own(0, "w") == 10.0

    def test_publish_outside_round(self):
        net = seeded_net(k3(), R=1)
        with pytest.raises(OracleViolation):
            net.publish(0, "v", 1.0)

    def test_seed_inside_round(self):
        net = seeded_net(k3(), R=1)

        def step(k):
            net.seed_field("w", {i: 0.0 for i in range(3)})

        with pytest.raises(OracleViolation):
            net.run_round(step)

    def test_rounds_cannot_nest(self):
        net = seeded_net(k3(), R=1)

        def inner(k):
            pass

        def outer(k):
            net.run_round(inner)

        with pytest.raises(OracleViolation):
            net.run_round(outer)

    def test_determinism_byte_identical_transcripts(self):
        g = path_graph(6)
        outs = []
        for _ in range(2):
            sim = Simulator(g, R=2)
            op = sim.certify(g.adjacency_matrix(), 1)
            x = np.arange(6.0)
            for _ in range(3):
                sim.account_round(2)
                sim.account_round(1, payload=[1, 2, 3, 3, 2, 1])
                x = sim.apply_round(op, x)
            tr = sim.transcript
            outs.append((tr.runs, tr.rounds, tr.messages_total, tr.max_hop_used))
        assert outs[0] == outs[1]
        assert len(outs[0][0]) == outs[0][1] == 9


class TestPayloads:
    def test_unsized_payload_rejected(self):
        # the oracle executor carries scalars only
        net = PerNodeNetwork(k3(), R=1)
        with pytest.raises(TypeError):
            net.seed_field("v", {k: object() for k in range(3)})
        with pytest.raises(TypeError):
            net.seed_field("v", {k: np.zeros(3) for k in range(3)})


class TestCollective:
    def test_certify_adjacency_radius_one(self):
        g = path_graph(5)
        sim = Simulator(g, R=1)
        op = sim.certify(g.adjacency_matrix(), 1)
        assert isinstance(op, LocalOperator)
        assert op.radius == 1

    def test_certify_names_offending_entry(self):
        g = path_graph(5)
        sim = Simulator(g)
        P2 = np.linalg.matrix_power(g.adjacency_matrix().toarray(), 2)
        with pytest.raises(ViolationError, match=r"\(0,2\)"):
            sim.certify(P2, 1)

    def test_certify_respects_strict_radius(self):
        g = path_graph(5)
        sim = Simulator(g, R=1)
        P2 = np.linalg.matrix_power(g.adjacency_matrix().toarray(), 2)
        with pytest.raises(ViolationError):
            sim.certify(P2, 2)

    @pytest.mark.parametrize("matrix", [
        np.full((1, 5), 0.1), np.full((5, 1), 0.1), np.full(5, 0.1), np.eye(6),
        sparse.csr_matrix(np.full((1, 5), 0.1)),
    ], ids=["row", "column", "vector", "too_big", "sparse_row"])
    def test_certify_rejects_wrong_shape(self, matrix):
        sim = Simulator(path_graph(5), R=None)
        with pytest.raises(ValueError, match=r"not \(5, 5\)"):
            sim.certify(matrix, 5)
        assert sim.transcript.runs == []

    def test_account_round_matches_per_node_costs(self):
        g = generate("random", {"n": 10, "m": 20}, seed=3)
        for R in (1, 2, 3, None):
            r = R or g.n
            collective = Simulator(g, R=R)
            collective.account_round(r)
            pernode = PerNodeNetwork(g, R=R)
            pernode.seed_field("v", {k: 0.0 for k in range(g.n)})

            def step(k):
                pernode.gather(k, r, "v")

            pernode.run_round(step)
            assert per_round(collective.transcript.runs) == (
                pernode.messages_per_round, pernode.max_hop_per_round)

    def test_account_round_payload_vector(self):
        g = path_graph(3)
        sim = Simulator(g, R=1)
        # node 1 publishes 5 scalars, delivered to 0 and 2; ends publish 1
        sim.account_round(1, payload=[1, 5, 1])
        # inbound: node0 gets 5, node1 gets 1+1, node2 gets 5
        assert sim.transcript.runs == [(12, 1, 1)]

    def test_apply_round_equals_matvec(self):
        g = path_graph(4)
        sim = Simulator(g, R=1)
        W = g.adjacency_matrix()
        op = sim.certify(W, 1)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out = sim.apply_round(op, x)
        assert np.allclose(out, W @ x)
        assert sim.transcript.runs == [(2 * g.m, 1, 1)]


def grid_operator(rows=20, cols=20):
    """A simulator and the grounded grid's certified R=1 walk operator.

    certify keeps the grid's 1-hop operator CSR: its n x n array would take
    more bytes than its CSR arrays.
    """
    s = ground(laplacian(generate("grid", {"rows": rows, "cols": cols})), 0)
    eng = rhop_engine(s, 1, 1)
    return eng.sim, eng._op_P1


def transcript_view(sim):
    """A transcript's per-round charges and totals, which batching must not change."""
    tr = sim.transcript
    return per_round(tr.runs), tr.rounds, tr.messages_total, tr.max_hop_used


class TestBatchedRounds:
    """count=k charges and computes exactly what k single rounds do."""

    @pytest.mark.parametrize("dense", [False, True], ids=["csr", "dense"])
    def test_apply_round_batch_matches_single_rounds(self, dense):
        g = generate("random", {"n": 12, "m": 30}, seed=2)
        W = g.adjacency_matrix().tocsr() * 0.2
        if dense:
            W = W.toarray()
        x0 = np.random.default_rng(0).standard_normal(g.n)
        single, batched = Simulator(g, R=1), Simulator(g, R=1)
        x = x0
        for _ in range(7):
            x = single.apply_round(single.certify(W, 1), x)
        y = batched.apply_round(batched.certify(W, 1), x0, count=7)
        assert y.tobytes() == x.tobytes()
        assert transcript_view(batched) == transcript_view(single)

    def test_account_round_batch_matches_single_rounds(self):
        g = path_graph(6)
        single, batched = Simulator(g, R=2), Simulator(g, R=2)
        for sim, count in ((single, 1), (batched, 4)):
            sim.account_round(1)
            for _ in range(4 // count):
                sim.account_round(2, count=count)
            for _ in range(4 // count):
                sim.account_round(1, payload=[1, 2, 3, 3, 2, 1], count=count)
        assert transcript_view(batched) == transcript_view(single)
        assert batched.transcript.runs == [(10, 1, 1), (26, 2, 4), (22, 1, 4)]
        assert single.transcript.runs == [(10, 1, 1)] + [(26, 2, 1)] * 4 + [(22, 1, 1)] * 4

    def test_zero_count_is_a_no_op(self):
        sim, op = grid_operator(4, 4)
        before = transcript_view(sim)
        x = np.arange(float(op.matrix.shape[0]))
        assert sim.apply_round(op, x, count=0) is x
        sim.account_round(1, count=0)
        # a batch of no rounds still checks its radius against R = 1
        with pytest.raises(ViolationError, match="radius 2 > R=1"):
            sim.account_round(2, count=0)
        assert transcript_view(sim) == before

    def test_negative_count_rejected(self):
        sim, op = grid_operator(4, 4)
        before = transcript_view(sim)
        with pytest.raises(ValueError):
            sim.apply_round(op, np.ones(op.matrix.shape[0]), count=-1)
        with pytest.raises(ValueError):
            sim.account_round(1, count=-2)
        assert transcript_view(sim) == before

    def test_fractional_account_count_rejected_before_charging(self):
        sim = Simulator(path_graph(5), R=1)
        sim.account_round(1)
        runs = list(sim.transcript.runs)
        with pytest.raises(ValueError, match="round count must be an integer >= 0, got 2.5"):
            sim.account_round(1, count=2.5)
        assert sim.transcript.runs == runs
        assert (sim.transcript.rounds, sim.transcript.messages_total) == (1, 8)

    def test_fractional_apply_count_rejected_before_charging(self):
        sim, op = grid_operator(4, 4)
        runs = list(sim.transcript.runs)
        with pytest.raises(ValueError, match="round count must be an integer >= 0, got 2.5"):
            sim.apply_round(op, np.ones(op.matrix.shape[0]), count=2.5)
        assert sim.transcript.runs == runs

    @pytest.mark.parametrize("count", [2.5, -3])
    def test_transcript_append_rejects_bad_counts(self, count):
        transcript = SimTranscript()
        transcript.append(10, 1, count=2)
        with pytest.raises(ValueError, match="^round count must be an integer >= 0, got %s$" % count):
            transcript.append(10, 1, count=count)
        assert transcript.runs == [(10, 1, 2)]
        assert (transcript.rounds, transcript.messages_total) == (2, 20)

    def test_integer_like_counts_accepted(self):
        sim, op = grid_operator(4, 4)
        x = np.ones(op.matrix.shape[0])
        y = sim.apply_round(op, x, count=np.int64(3))
        assert np.array_equal(y, sim.apply_round(op, x, count=3))
        assert [count for _, _, count in sim.transcript.runs][-2:] == [3, 3]

    def test_strict_batch_names_its_first_round(self):
        sim = Simulator(path_graph(5), R=1)
        sim.account_round(1, count=3)
        with pytest.raises(ViolationError, match="radius 2 > R=1 at round 4"):
            sim.account_round(2, count=5)
        assert sim.transcript.rounds == 3


class TestCsrKernel:
    """The compiled CSR loop is guarded and gives the bits of `matrix @ x`."""

    def test_fallback_matches_kernel_bits(self, monkeypatch):
        sim, op = grid_operator()
        assert op.matrix.format == "csr" and netsim._csr_matvec is not None
        x = np.random.default_rng(1).standard_normal(op.matrix.shape[0])
        fast = sim.apply_round(op, x, count=1000)
        monkeypatch.setattr(netsim, "_csr_matvec", None)
        slow = sim.apply_round(op, x, count=1000)
        plain = x
        for _ in range(1000):
            plain = op.matrix @ plain
        assert fast.tobytes() == slow.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("x", [
        np.ones(398), np.ones(400), np.ones((399, 1)), np.ones(399, dtype=np.float32),
        np.ones(399, dtype=np.int64), np.ones(798)[::2],
    ], ids=["short", "long", "column", "float32", "int64", "strided"])
    def test_bad_vectors_never_reach_kernel(self, monkeypatch, x):
        sim, op = grid_operator()
        calls = []

        def spy(n_row, n_col, indptr, indices, data, u, y):
            assert u.dtype == np.float64 and u.shape == (n_col,) and y.shape == (n_row,)
            calls.append(u.flags.c_contiguous)
            return real(n_row, n_col, indptr, indices, data, u, y)

        real = netsim._csr_matvec
        monkeypatch.setattr(netsim, "_csr_matvec", spy)
        try:
            got = sim.apply_round(op, x, count=3)
        except ValueError:
            return
        want = op.matrix @ (op.matrix @ (op.matrix @ x))
        assert np.array_equal(got, want)
        assert all(calls)

    def test_rectangular_matrix_runs_once_in_kernel(self, monkeypatch):
        # the flow incidence is n x E: one product runs in the kernel with
        # the bits of `matrix @ x`; a power of a non-square matrix falls back
        A = sparse.random(7, 11, density=0.4, random_state=3, format="csr")
        x = np.random.default_rng(4).standard_normal(11)
        calls = []
        real = netsim._csr_matvec

        def spy(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(netsim, "_csr_matvec", spy)
        assert netsim.csr_apply(A, x).tobytes() == (A @ x).tobytes()
        assert calls == [(7, 11)]
        with pytest.raises(ValueError):
            netsim.csr_apply(A, x, count=2)
        assert calls == [(7, 11)]

    @pytest.mark.parametrize("form", ["subclass", "strided", "float32"])
    def test_fallbacks_keep_matmul_bits(self, form, monkeypatch):
        # a csr_matrix subclass and float32 data take `mat @ x`; a strided
        # float64 x runs in the kernel on a contiguous copy
        A = sparse.random(40, 40, density=0.2, random_state=5, format="csr")
        x = np.random.default_rng(6).standard_normal(80)[::2]
        if form == "subclass":
            A = type("CsrSubclass", (sparse.csr_matrix,), {})(A)
        elif form == "float32":
            A = A.astype(np.float32)
        else:
            assert not x.flags.c_contiguous
        calls = []
        real = netsim._csr_matvec

        def spy(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(netsim, "_csr_matvec", spy)
        for count in (1, 3):
            want = x
            for _ in range(count):
                want = A @ want
            got = netsim.csr_apply(A, x, count)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert calls == ([(40, 40)] * 4 if form == "strided" else [])

    @pytest.mark.parametrize("form", ["kernel", "subclass", "float32", "strided", "int64",
                                      "kernel_gone"])
    def test_product_checks_its_matrix_once(self, form, monkeypatch):
        # csr_product takes the matrix's half of the guard when it is made
        # and the vector's, and the kernel itself, at each call
        A = sparse.random(7, 11, density=0.4, random_state=3, format="csr")
        x = np.random.default_rng(4).standard_normal(22)[::2].copy()
        if form == "subclass":
            A = type("CsrSubclass", (sparse.csr_matrix,), {})(A)
        elif form == "float32":
            A = A.astype(np.float32)
        elif form == "strided":
            x = np.repeat(x, 2)[::2]
            assert not x.flags.c_contiguous
        elif form == "int64":
            x = np.arange(11)
        calls = []
        real = netsim._csr_matvec

        def spy(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(netsim, "_csr_matvec", spy)
        product = netsim.csr_product(A)
        if form == "kernel_gone":
            monkeypatch.setattr(netsim, "_csr_matvec", None)
        want = A @ x
        got = product(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert calls == ([(7, 11)] if form in ("kernel", "strided") else [])
        with pytest.raises(ValueError):
            product(np.ones(10))

    def test_caller_vector_untouched(self):
        sim, op = grid_operator()
        x = np.random.default_rng(2).standard_normal(op.matrix.shape[0])
        kept = x.copy()
        for count in (1, 2, 5):
            y = sim.apply_round(op, x, count=count)
            assert y is not x
            assert x.tobytes() == kept.tobytes()


class TestCertifyStorage:
    """certify keeps the smaller of the dense array and the CSR arrays."""

    def test_byte_rule_at_the_boundary(self):
        # n=5: the dense array takes 200 bytes; CSR takes 12 per entry plus
        # a 24-byte indptr, so 14 entries stay CSR and 15 are promoted
        sim = Simulator(path_graph(5), R=None)
        full = np.arange(1.0, 26.0).reshape(5, 5)
        for nnz, promoted in ((14, False), (15, True)):
            W = full.copy()
            W.flat[nnz:] = 0.0
            csr = sparse.csr_matrix(W)
            assert csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes == 12 * nnz + 24
            op = sim.certify(csr, 4)
            assert netsim.stores_dense(5, nnz) == promoted
            assert isinstance(op.matrix, np.ndarray) == promoted
            assert sparse.issparse(op.matrix) != promoted
            assert np.array_equal(sim.apply_round(op, np.ones(5)), W @ np.ones(5))

    def test_nearly_dense_csr_is_promoted(self):
        g = generate("random", {"n": 30, "m": 90}, seed=0)
        sim = Simulator(g, R=4)
        W = g.adjacency_matrix().tocsr() * 0.1
        W4 = (W @ W @ W @ W).tocsr()
        op = sim.certify(W4, 4)
        assert isinstance(op.matrix, np.ndarray)
        assert op.matrix.tobytes() == W4.toarray().tobytes()
        x = np.random.default_rng(0).standard_normal(g.n)
        assert np.allclose(sim.apply_round(op, x, count=3), W4 @ (W4 @ (W4 @ x)))

    def test_grid_walk_operator_stays_csr(self):
        sim, op = grid_operator()
        assert op.matrix.shape == (399, 399)
        assert sparse.issparse(op.matrix) and op.matrix.format == "csr"

    def test_dense_input_stays_dense(self):
        g = path_graph(5)
        sim = Simulator(g, R=1)
        A = g.adjacency_matrix().toarray()
        assert sim.certify(A, 1).matrix is A


class TestCertifySupport:
    """The support check reads summed values and names the row-major first violation."""

    @pytest.mark.parametrize("form", ["dense", "csr", "coo_shuffled", "csr_unsorted"])
    def test_names_row_major_first_violation(self, form):
        # path 5 at radius 1: entries (3,0), (1,4) and (0,2) are out of reach,
        # and the row-major first one, (0,2), is named whatever the storage order
        sim = Simulator(path_graph(5), R=None)
        rows, cols = [3, 1, 1, 0, 0, 2], [0, 4, 2, 2, 1, 3]
        vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        if form == "dense":
            W = np.zeros((5, 5))
            W[rows, cols] = vals
        elif form == "coo_shuffled":
            W = sparse.coo_matrix((vals, (rows, cols)), shape=(5, 5))
        elif form == "csr":
            W = sparse.csr_matrix((vals, (rows, cols)), shape=(5, 5))
        else:
            W = sparse.csr_matrix(
                (np.array([4.0, 5.0, 2.0, 3.0, 6.0, 1.0]), np.array([2, 1, 4, 2, 3, 0]),
                 np.array([0, 2, 4, 5, 6, 6])), shape=(5, 5))
            assert not W.has_sorted_indices
        with pytest.raises(ViolationError) as err:
            sim.certify(W, 1)
        assert str(err.value) == "matrix entry (0,2) reaches hop 2 beyond radius 1"

    def test_stored_zeros_outside_radius_accepted(self):
        sim = Simulator(path_graph(5), R=1)
        # row 0 stores an explicit 0.0 at (0,4); row 1 stores (1,3) twice,
        # summing to zero, as the dense array sees it
        W = sparse.csr_matrix(
            (np.array([1.0, 0.0, 2.0, -2.0, 1.0]), np.array([1, 4, 3, 3, 3]),
             np.array([0, 2, 4, 4, 4, 5])), shape=(5, 5))
        assert not W.has_canonical_format
        for form in (W, W.tocoo(), W.toarray()):
            assert sim.certify(form, 1).radius == 1


def plain_products(matrix, x, count):
    for _ in range(count):
        x = matrix @ x
    return x


def grid_batches(runs):
    """The grounded 20x20 grid's R=1 chain levels, batches 2^0 .. 2^14, each run `runs` times."""
    return dict.fromkeys((2 ** i for i in range(15)), runs)


def powers_of_two(lo, hi):
    return [1 << k for k in range(1, 64) if lo <= 1 << k <= hi]


class TestStride:
    """A stride power changes how a batch is computed, never what it charges."""

    def test_stride_length_rule(self):
        # the grid's R=1 operator, its top batch alone, once: one length
        assert netsim.ladder_lengths(399, 1516, {2 ** 14: 1}, powers_of_two(2, 2 ** 14)) == (128,)
        # no batch to stride, no length offered, nothing to multiply, or no run
        assert netsim.ladder_lengths(399, 1516, {0: 3, 1: 16}, powers_of_two(2, 64)) == ()
        assert netsim.ladder_lengths(399, 1516, {}, []) == ()
        assert netsim.ladder_lengths(399, 1516, grid_batches(16), []) == ()
        assert netsim.ladder_lengths(399, 0, grid_batches(16), powers_of_two(2, 2 ** 14)) == ()
        assert netsim.ladder_lengths(399, 1516, {2 ** 14: 0}, powers_of_two(2, 2 ** 14)) == ()
        # a large graph: the squarings of 2000 x 2000 arrays cost more than
        # 2^10 rounds twice; 2^14 rounds twice still do not pay for them,
        # every level of a 15-level chain 16 times does
        for batches, want in (({2 ** 10: 2}, ()), ({2 ** 14: 2}, ()), ({2 ** 17: 2}, (512,)),
                              (dict.fromkeys((2 ** i for i in range(15)), 16), (128, 512))):
            assert netsim.ladder_lengths(2000, 10000, batches, powers_of_two(2, max(batches))) == want
        # a length longer than the largest batch is never taken
        assert netsim.ladder_lengths(399, 1516, {100: 16}, [128, 256]) == ()

    def test_rung_length_rule(self):
        # the grid's R=1 operator over an eps-solve's 16 passes of every
        # level, with the rungs of at least its reach of 74 hops
        assert netsim.ladder_lengths(399, 1516, grid_batches(16), powers_of_two(128, 2 ** 14)) == (128, 2048)
        # one pass pair (a bare crude solve) pays for fewer squarings
        assert netsim.ladder_lengths(399, 1516, grid_batches(2), powers_of_two(128, 2 ** 14)) == (128, 512)
        # a dense operator's rounds are cheaper than a CSR one's, so the
        # same batches get a longer lowest rung
        levels = dict.fromkeys((2 ** i for i in range(10)), 16)
        assert netsim.ladder_lengths(299, 299 ** 2, levels, powers_of_two(4, 512), dense=True) == (8, 64)
        assert netsim.ladder_lengths(299, 299 ** 2, levels, powers_of_two(4, 512)) == (4, 64)
        assert netsim.ladder_lengths(299, 299 ** 2, dict.fromkeys(levels, 2), powers_of_two(4, 512),
                                     dense=True) == (4, 16)

    @pytest.mark.parametrize("runs", [1, 2, 16])
    def test_rule_picks_the_cheapest_candidate(self, runs):
        # every candidate priced by brute force (oracles.ladder_cost), for
        # the grid's CSR operator and a dense one of the same size
        assert (netsim._DENSE_ROUND_WEIGHT, netsim._CSR_ROUND_WEIGHT) == (DENSE_ROUND, CSR_ROUND)
        lengths = powers_of_two(16, 2 ** 14)
        for nnz, dense in ((1516, False), (399 ** 2, True)):
            least, best = cheapest_ladders(399, nnz, grid_batches(runs), lengths, dense)
            assert netsim.ladder_lengths(399, nnz, grid_batches(runs), lengths, dense=dense) in best

    def test_strided_batch_matches_plain_products(self):
        sim, op = grid_operator()
        assert sim.stride(op, grid_batches(16)) == (128, 2048)
        (t, rung), (s, power) = op.stride
        assert (t, s) == (128, 2048)
        # the dense arrays the squarings produce, although the bipartite
        # grid's even powers are half-empty checkerboards
        assert isinstance(rung, np.ndarray) and isinstance(power, np.ndarray)
        x = np.random.default_rng(0).standard_normal(op.matrix.shape[0])
        kept = x.copy()
        # 2 * 2048 + 3 * 128 + 17 straddles both rungs
        for count in (2 * 2048 + 3 * 128 + 17, 2048 + 452, 3 * 128, 2047):
            want = plain_products(op.matrix, x, count)
            got = sim.apply_round(op, x, count=count)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert x.tobytes() == kept.tobytes()

    def test_ladder_without_a_rung(self):
        # a 5-node dense operator: a batch of 12 rounds takes op^8 alone,
        # the one length at or past reach (8) and at most 12
        g = path_graph(5)
        sim = Simulator(g, R=None)
        W = g.adjacency_matrix().toarray() * 0.5
        op = sim.certify(W, 1)
        assert sim.reach == 8 and sim.stride(op, {12: 1}) == (8,)
        (s, power), = op.stride
        assert s == 8 and isinstance(power, np.ndarray)
        x = np.random.default_rng(3).standard_normal(5)
        for count in (7, 8, 12):
            want = plain_products(W, x, count)
            got = sim.apply_round(op, x, count=count)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert sim.apply_round(op, x, count=1).tobytes() == (W @ x).tobytes()

    @pytest.mark.parametrize("batch", [2 ** k for k in range(1, 21, 3)])
    def test_ladder_holds_at_most_two_arrays(self, batch):
        for runs in (1, 2, 16):
            sim, op = grid_operator()
            ladder = sim.stride(op, {batch: runs, batch // 2 + 1: runs})
            if not ladder:
                assert op.stride is None
                continue
            lengths = [length for length, _ in op.stride]
            assert tuple(lengths) == ladder and 1 <= len(lengths) <= 2
            assert lengths == sorted(set(lengths)) and lengths[0] >= 2 and lengths[-1] <= batch
            assert all(isinstance(power, np.ndarray) for _, power in op.stride)

    def test_strided_batch_charges_every_round(self):
        (strided, op), (plain, plain_op) = grid_operator(), grid_operator()
        strided.stride(op, grid_batches(16))
        assert op.stride is not None
        x = np.ones(op.matrix.shape[0])
        for count in (3, 128, 2048, 2500, 2 * 2048 + 3 * 128 + 17, 4096):
            strided.apply_round(op, x, count=count)
            plain.apply_round(plain_op, x, count=count)
        assert strided.transcript.runs == plain.transcript.runs
        assert transcript_view(strided) == transcript_view(plain)

    def test_forged_out_of_radius_stride_raises(self):
        # P^2 on a path reaches 2 hops; forged past certify as a radius-1
        # operator, its power P^(2 t) reaches beyond t hops (to even hops
        # only: the path is bipartite). Below reach (38) only a cached ball
        # is offered as a rung: a round at 16 hops caches that ball.
        g = path_graph(20)
        sim = Simulator(g)
        sim.account_round(16)
        assert sim.reach == 38 and sorted(sim._balls) == [1, 16]
        W = g.adjacency_matrix().tocsr() * 0.5
        op = LocalOperator((W @ W).tocsr(), 1)
        assert netsim.ladder_lengths(20, op.matrix.nnz, {64: 1}, [16, 64]) == (16,)
        with pytest.raises(ViolationError) as err:
            sim.stride(op, {64: 1})
        assert str(err.value) == "matrix entry (0,18) reaches hop 18 beyond radius 16"
        assert op.stride is None

    def test_rung_below_reach_needs_a_cached_ball(self, monkeypatch):
        # path 20 at R = 1, reach 38: without a cached ball below it the
        # rule is offered 64 only, and the check builds no ball
        g = path_graph(20)
        sim = Simulator(g, R=1)
        op = sim.certify(g.adjacency_matrix().tocsr() * 0.5, 1)
        offered = []
        real = netsim.ladder_lengths
        monkeypatch.setattr(netsim, "ladder_lengths", lambda *a, **k: offered.append(a[3]) or real(*a, **k))
        assert sim.stride(op, {64: 1}) == (64,)
        assert sim.stride(op, {63: 1}) == ()
        assert offered == [[64], []] and sorted(sim._balls) == [1]
        # a cached ball at 16 hops offers length 16 too
        sim._ball(16)
        sim.stride(op, {64: 1})
        assert offered[-1] == [16, 64]

    def test_operator_without_stride_keeps_matvec_bits(self):
        sim, op = grid_operator()
        assert sim.stride(op, {1: 16}) == () and op.stride is None
        x = np.random.default_rng(1).standard_normal(op.matrix.shape[0])
        assert sim.apply_round(op, x, count=9).tobytes() == plain_products(op.matrix, x, 9).tobytes()
        # below the lowest rung, a strided operator runs the plain products too
        sim.stride(op, grid_batches(16))
        assert op.stride[0][0] == 128
        for count in (9, 127):
            got = sim.apply_round(op, x, count=count)
            assert got.tobytes() == plain_products(op.matrix, x, count).tobytes()

    def test_batches_and_runs_are_whole_numbers(self):
        sim, op = grid_operator()
        for batches, name in (({2.5: 1}, "batch"), ({64: 1.5}, "batch runs"), ({-1: 1}, "batch"),
                              ({64: -2}, "batch runs")):
            with pytest.raises(ValueError, match="%s must be an integer" % name):
                sim.stride(op, batches)
        assert op.stride is None

    def test_dense_operator_keeps_dense_stride(self):
        g = generate("random", {"n": 30, "m": 90}, seed=0)
        sim = Simulator(g, R=4)
        W = g.adjacency_matrix().tocsr() * 0.1
        op = sim.certify((W @ W @ W @ W).tocsr(), 4)
        assert isinstance(op.matrix, np.ndarray)
        # reach 6: every length is offered
        levels = dict.fromkeys((2 ** i for i in range(7)), 16)
        assert sim.reach == 6 and sim.stride(op, levels) == (4, 16)
        assert [length for length, _ in op.stride] == [4, 16]
        assert all(isinstance(power, np.ndarray) for _, power in op.stride)
        x = np.random.default_rng(2).standard_normal(g.n)
        for count in (64, 3 * 16 + 2 * 4 + 1):
            want = plain_products(op.matrix, x, count)
            got = sim.apply_round(op, x, count=count)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert sim.apply_round(op, x, count=1).tobytes() == (op.matrix @ x).tobytes()
