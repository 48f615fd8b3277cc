"""Tests of the benchmark itself: smoke run, closed-form rounds, tracer, host speed, bare checkout."""

import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import closed_form_rounds  # noqa: E402  (puts src/ on sys.path)
from probe import Tracer  # noqa: E402
import hostspeed  # noqa: E402

import lapflow  # noqa: E402
from lapflow import graph_core, netsim, newton_flow  # noqa: E402


def test_smoke_names_every_metric_with_its_unit():
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "all workloads name every metric with its unit" in res.stdout


def test_closed_form_rounds_matches_measured_grids():
    # 20x20 grid (d=15), 10x10 grid (d=13) at R=1 and R=4, eps=1e-4 (q=7)
    assert closed_form_rounds(15, 7, 1) == 524280
    assert closed_form_rounds(13, 7, 1) == 131064
    assert closed_form_rounds(13, 7, 4) == 32814


def test_tracer_times_nested_calls_and_restores_lapflow():
    originals = (lapflow.generate, graph_core.generate, netsim.Simulator.__init__,
                 newton_flow.dual_state)
    tracer = Tracer()
    with tracer:
        assert lapflow.generate is not originals[0]
        lapflow.generate("path", {"n": 3})  # outside a root span: not recorded
        with tracer.root("op"):
            g = lapflow.generate("path", {"n": 4})
            lapflow.ground(lapflow.laplacian(g), 0)
    assert (lapflow.generate, graph_core.generate, netsim.Simulator.__init__,
            newton_flow.dual_state) == originals
    calls = tracer.calls("op")
    assert calls["graph_core.generate"] == 1
    assert calls["graph_core.ground"] == 1
    assert ("op", "graph_core.generate") in tracer.stats
    root_calls, root_total, root_self = tracer.stats[("op", "op")]
    covered = sum(st[2] for (r, name), st in tracer.stats.items() if r == "op" and name != "op")
    assert root_calls == 1
    assert abs(root_total - root_self - covered) < 1e-6


def test_host_speed_region_subtracts_probes_and_scales_by_probe_rate():
    ref_s = 0.0015
    # a probe that takes about twice its idle time: the host runs at half speed
    probe = hostspeed.Probe(lambda: time.sleep(2 * ref_s), ref_s)
    before = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed(probe, period=0.02)
    with speed:
        t0 = time.perf_counter()
        with speed.region() as r:
            while time.perf_counter() - t0 < 0.3:
                pass
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # wall holds the edge probes and about 15 probes inside; those inside are not op time
    assert r.raw_s < wall - (2 * hostspeed.EDGE_PROBES + 5) * 2 * ref_s
    assert 0.2 < r.host_factor <= 0.5
    assert r.s == r.raw_s * r.host_factor


def test_checkout_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve_grid_r1",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
