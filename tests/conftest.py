import math

import numpy as np
import pytest

from lapflow.distributed_solver import FullCommEngine, RHopEngine, support_graph
from lapflow.graph_core import WeightedGraph, generate, laplacian, ground
from lapflow.netsim import Simulator


def mnorm(splitting, v):
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(v @ (splitting.D * v) - v @ (splitting.A @ v)))


def mnorm_rel_error(splitting, x, xstar):
    return mnorm(splitting, np.asarray(x) - np.asarray(xstar)) / mnorm(splitting, xstar)


def grounded_random(n, m, seed, w_min=1.0, w_max=1.0, ref=0):
    g = generate("random", {"n": n, "m": m, "w_min": w_min, "w_max": w_max}, seed=seed)
    return ground(laplacian(g), ref)


def wide_ratio_system(k, ratio=1e6):
    """Grounded random graph, n = 8 + 3k and m = 2n, whose weights span exactly 1 to ratio."""
    n = 8 + 3 * k
    g = generate("random", {"n": n, "m": 2 * n}, seed=k)
    w = 10.0 ** np.random.default_rng(k).uniform(0.0, math.log10(ratio), g.m)
    w[w.argmin()], w[w.argmax()] = 1.0, ratio
    g = WeightedGraph(n, [(i, j, wt) for (i, j, _), wt in zip(g.edges, w)])
    assert w.max() / w.min() == ratio
    return ground(laplacian(g), 0)


def rhop_engine(s, d, R):
    """RHopEngine on a simulator of its own over the support graph of s."""
    return RHopEngine(s, d, Simulator(support_graph(s), R))


def full_engine(s, d):
    """FullCommEngine on a simulator of its own over the support graph of s."""
    return FullCommEngine(s, d, Simulator(support_graph(s)))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
