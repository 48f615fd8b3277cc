"""End-to-end checks of the command-line front end, run in process."""

import importlib.util
import os
import subprocess
import sys
import warnings

import pytest

import lapflow
from lapflow.cli import main
from lapflow.graph_core import generate, save_edge_list
from lapflow.newton_flow import (
    DivergenceError,
    OptimizeConfig,
    make_flow_problem,
    optimize,
    save_flow_problem,
)
from lapflow.spectral import chain_length


def read_header(path):
    """Parse the leading '# key=value' comment block of a CSV artifact."""
    items = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, val = line[1:].strip().partition("=")
            items[key] = val
    return items


def read_rows(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestSolve:
    def test_path_solution_meets_eps(self, tmp_path, capsys):
        out = str(tmp_path / "sol.csv")
        rc = main(["solve", "--graph", "path", "--n", "10", "--ground", "0",
                   "--eps", "1e-4", "--rhop", "1", "--out", out])
        assert rc == 0
        items = read_header(out)
        assert float(items["mnorm_rel_error"]) <= 1e-4
        assert float(items["residual"]) <= 1e-8
        assert int(items["max_hop_used"]) <= 1
        header, rows = read_rows(out)
        # grounding removes the reference node
        assert header == ["node", "x"]
        assert len(rows) == 9
        assert "solve: n=9" in capsys.readouterr().out

    def test_large_grid_is_checked_against_oracle(self, tmp_path):
        # n = 624: the oracle check runs at every n, not only on small systems
        out = str(tmp_path / "sol.csv")
        rc = main(["solve", "--graph", "grid", "--rows", "25", "--cols", "25",
                   "--rhop", "2", "--out", out])
        assert rc == 0
        assert float(read_header(out)["mnorm_rel_error"]) <= 1e-4

    @pytest.mark.parametrize("command, n", [
        pytest.param(["solve", "--graph", "grid", "--rows", "6", "--cols", "6"], 35, id="6"),
        pytest.param(["solve", "--graph", "grid", "--rows", "25", "--cols", "25"], 624, id="25"),
        pytest.param(["scale", "--family", "grid", "--sizes", "36,64"], 64, id="scale"),
    ])
    def test_missed_eps_exits_3_after_writing_solution(self, tmp_path, monkeypatch, capsys,
                                                       command, n):
        import lapflow.cli as cli_mod

        # a chain sized for kappa 1 is far too short for these grids
        monkeypatch.setattr(cli_mod, "estimated_chain", lambda s: chain_length(1.0))
        out = str(tmp_path / "out.csv")
        rc = main(command + ["--eps", "1e-4", "--out", out])
        assert rc == 3
        err = capsys.readouterr().err
        header, rows = read_rows(out)
        if command[0] == "solve":
            assert float(read_header(out)["mnorm_rel_error"]) > 1e-4
            assert header == ["node", "x"] and len(rows) == n
            assert "mnorm_rel_error" in err
        else:
            # the CSV is written in full; stderr names each size that missed eps
            assert header == ["n", "rounds", "messages", "iterations"]
            assert [int(r[0]) for r in rows] == [36, 64]
            assert "numerical failure: n=%d mnorm_rel_error" % n in err

    def test_eps_out_of_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", "path", "--n", "6", "--eps", "0.6"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["solve", "scale"])
    def test_negative_seed_is_named_usage_error(self, capsys, command):
        args = VALID_RUNS[command] + ["--seed", "-1"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "flow", "bench"])
    @pytest.mark.parametrize("node", ["99", "9", "-1"])
    def test_ground_outside_graph_is_named_usage_error(self, capsys, command, node):
        # it used to exit through the library's check, naming ref_node or ground_node
        with pytest.raises(SystemExit) as exc:
            main([command, "--graph", "path", "--n", "9", "--ground", node])
        assert exc.value.code == 2
        assert "--ground must lie in [0, 9), got %s" % node in capsys.readouterr().err

    def test_bad_generator_size_named(self, capsys):
        # a -2 x -3 grid used to fail as "generator produced a disconnected graph"
        rc = main(["solve", "--graph", "grid", "--rows", "-2", "--cols", "-3"])
        assert rc == 2
        assert "grid needs rows >= 1, cols >= 1" in capsys.readouterr().err

    def test_problem_file_is_not_an_edge_list(self, capsys):
        # solve reads a bare edge list; the file's b line is named, not its edge count
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        rc = main(["solve", "--graph", "file", "--file", os.path.join(root, "tools", "snapshot_problem.txt")])
        assert rc == 2
        assert "edge list has a line 'b 2.0 0.0" in capsys.readouterr().err

    def test_missing_generator_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", "random", "--n", "10", "--eps", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("rhop, rule", [("3", "power of two"), ("0", ">= 1")], ids=["3", "0"])
    def test_rhop_must_be_power_of_two(self, capsys, rhop, rule):
        # the library's one R rule, check_rhop_radius; no rounding
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", "path", "--n", "8", "--eps", "0.5", "--rhop", rhop])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--rhop" in err and rule in err

    def test_header_names_only_the_options_used(self, tmp_path):
        out = str(tmp_path / "sol.csv")
        rc = main(["solve", "--graph", "grid", "--rows", "4", "--cols", "4", "--out", out])
        assert rc == 0
        keys = list(read_header(out))
        assert keys[:keys.index("eps")] == ["command", "graph", "seed", "rows", "cols"]

    def test_file_graph_kind(self, tmp_path):
        gpath = str(tmp_path / "g.txt")
        save_edge_list(generate("path", {"n": 6}), gpath)
        out = str(tmp_path / "sol.csv")
        rc = main(["solve", "--graph", "file", "--file", gpath,
                   "--eps", "0.5", "--out", out])
        assert rc == 0
        assert read_header(out)["file"] == gpath

    def test_unreadable_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["solve", "--graph", "file",
                   "--file", str(tmp_path / "missing.txt"), "--eps", "0.5"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


# every option one subcommand no longer accepts, with a value argparse would take
OPTION_VALUES = {
    "--graph": "path", "--n": "6", "--rows": "2", "--cols": "3", "--clique": "3",
    "--path-len": "1", "--edges": "5", "--file": "g.txt", "--ground": "1",
    "--max-iters": "5", "--feas-threshold": "1e-3", "--step": "fixed",
    "--method": "add", "--cost": "quadratic", "--magnitude": "2.0",
}
PROBLEM_OPTIONS = ["--max-iters", "--feas-threshold", "--step", "--cost", "--magnitude"]
UNREAD_OPTIONS = {
    "solve": PROBLEM_OPTIONS + ["--method"],
    "bench": ["--method"],
    "scale": ["--graph", "--n", "--rows", "--cols", "--clique", "--path-len", "--edges",
              "--file", "--ground", "--method"] + PROBLEM_OPTIONS,
}
VALID_RUNS = {
    "solve": ["solve", "--graph", "path", "--n", "6", "--eps", "0.5"],
    "bench": ["bench", "--graph", "path", "--n", "6", "--eps", "0.5"],
    "scale": ["scale", "--family", "path", "--sizes", "8", "--eps", "0.5"],
}


class TestOptionSets:
    @pytest.mark.parametrize("command, option", [
        (command, option) for command, options in UNREAD_OPTIONS.items() for option in options
    ], ids=lambda v: v)
    def test_unread_option_is_rejected(self, capsys, command, option):
        with pytest.raises(SystemExit) as exc:
            main(VALID_RUNS[command] + [option, OPTION_VALUES[option]])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % option in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["solve", "--graph", "path", "--n", "6", "--rows", "3"],
        ["solve", "--graph", "grid", "--rows", "2", "--cols", "3", "--n", "6"],
        ["solve", "--graph", "barbell", "--clique", "3", "--path-len", "1", "--edges", "5"],
        ["solve", "--graph", "random", "--n", "6", "--edges", "8", "--clique", "3"],
        ["solve", "--graph", "scale-free", "--n", "6", "--path-len", "2"],
        ["solve", "--graph", "file", "--file", "g.txt", "--n", "6"],
        ["flow", "--graph", "file", "--file", "g.txt", "--cols", "3"],
    ], ids=["path", "grid", "barbell", "random", "scale-free", "file", "flow-file"])
    def test_option_foreign_to_graph_kind_is_rejected(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--eps", "0.5"])
        assert exc.value.code == 2
        option, kind = args[-2], args[2]
        assert "%s is not used by --graph %s" % (option, kind) in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["solve", "--graph", "grid", "--rows", "4", "--cols", "4"],
        ["flow", "--graph", "random", "--n", "10", "--edges", "20"],
        ["bench", "--graph", "random", "--n", "8", "--edges", "14",
         "--feas-threshold", "1e-2", "--max-iters", "5000"],
        ["scale", "--family", "scale-free", "--sizes", "8,16"],
    ], ids=lambda args: args[0])
    def test_same_seed_gives_identical_csv(self, tmp_path, args):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            rc = main(args + ["--seed", "7", "--eps", "1e-2", "--out", out])
            assert rc == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]


class TestFlow:
    def test_random_reaches_default_threshold(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        rc = main(["flow", "--graph", "random", "--n", "20", "--edges", "60",
                   "--method", "sddm-newton", "--out", out])
        assert rc == 0
        assert "converged=True" in capsys.readouterr().out
        header, rows = read_rows(out)
        assert header == ["iter", "objective", "feasibility", "grad_lnorm",
                          "step", "phase", "messages"]
        assert float(rows[-1][header.index("feasibility")]) <= 1e-5
        items = read_header(out)
        assert items["method"] == "sddm_newton"
        assert items["cost"] == "exp"

    def test_barbell_newton_beats_subgradient(self, tmp_path, capsys):
        # same seed, same threshold; compare iteration counts from summaries
        base = ["flow", "--graph", "barbell", "--clique", "20",
                "--path-len", "20", "--seed", "0", "--feas-threshold", "1e-2",
                "--eps", "1e-2"]
        rc = main(base + ["--method", "sddm-newton", "--rhop", "4",
                          "--out", str(tmp_path / "n.csv")])
        assert rc == 0
        newton_line = capsys.readouterr().out
        rc = main(base + ["--method", "subgradient", "--max-iters", "20000",
                          "--out", str(tmp_path / "s.csv")])
        assert rc == 0
        sub_line = capsys.readouterr().out

        def iters(line):
            assert "converged=True" in line
            return int(line.split("iterations=")[1].split()[0])

        assert iters(newton_line) < iters(sub_line)

    def test_problem_file_error_is_not_hidden(self, tmp_path, capsys):
        # not a bare edge list either, so the problem-file error must surface
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1 1.0\n1 2 1.0\nb 1.0 nan -1.0\ncost exp\n")
        rc = main(["flow", "--graph", "file", "--file", str(path)])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "",
        "2 1\n0 1 1.0\nb 1.0 -1.0\ncost\n",
        "2 1\n0 1 1.0\nb 1.0 -1.0\ncost exp\nflux 7\n",
        "2 1\n0 1 1.0\nb 1.0 -1.0\nb 2.0 -2.0\ncost exp\n",
        "1 -1\nb 0.0\ncost exp\n",
        "1 0\nb 0.0\ncost exp\n",
        "2 1\n0 1 1.0\nb 1.0 -1.0\ncost quadratic 3.0\n",
    ], ids=["empty", "bare_cost", "unknown_line", "second_b", "negative_edge_count",
            "no_edges", "quadratic_parameter"])
    def test_malformed_problem_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        rc = main(["flow", "--graph", "file", "--file", str(path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("option, value", [("--cost", "quadratic"), ("--magnitude", "5")])
    def test_problem_file_rejects_cost_and_magnitude(self, tmp_path, capsys, option, value):
        g = generate("path", {"n": 4})
        problem_path, edges_path = str(tmp_path / "p.txt"), str(tmp_path / "g.txt")
        save_flow_problem(make_flow_problem(g), problem_path)
        save_edge_list(g, edges_path)
        # a problem file sets its own b and cost, so the option would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--graph", "file", "--file", problem_path, option, value])
        assert exc.value.code == 2
        assert "%s not used with a problem file" % option in capsys.readouterr().err
        # a bare edge list has neither, so it takes the option
        out = str(tmp_path / "trace.csv")
        rc = main(["flow", "--graph", "file", "--file", edges_path, option, value, "--out", out])
        assert rc == 0
        assert read_header(out)["cost"] == ("quadratic" if option == "--cost" else "exp")

    def test_no_convergence_exits_3_after_writing_trace(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        rc = main(["flow", "--graph", "barbell", "--clique", "6", "--path-len", "4",
                   "--method", "subgradient", "--max-iters", "3", "--out", out])
        assert rc == 3
        assert "converged=False" in capsys.readouterr().out
        header, rows = read_rows(out)
        assert header[0] == "iter" and len(rows) >= 3

    @pytest.mark.parametrize("command", ["flow", "bench"])
    def test_magnitude_named_in_header_when_given(self, tmp_path, command):
        args = [command, "--graph", "path", "--n", "6", "--eps", "1e-2",
                "--feas-threshold", "1e-2"]
        outs = []
        for extra in ([], ["--magnitude", "1.0"], ["--magnitude", "5"]):
            out = str(tmp_path / ("trace%d.csv" % len(outs)))
            assert main(args + extra + ["--out", out]) in (0, 3)
            outs.append(open(out).read())
        assert "magnitude" not in read_header(str(tmp_path / "trace0.csv"))
        assert read_header(str(tmp_path / "trace1.csv"))["magnitude"] == "1.0"
        assert read_header(str(tmp_path / "trace2.csv"))["magnitude"] == "5.0"
        # magnitude 1.0 is the default b: only the header line differs
        assert outs[1].replace("# magnitude=1.0\n", "") == outs[0]

    @pytest.mark.parametrize("method", ["sddm-newton", "exact-newton"])
    def test_tiny_hessian_weights_still_grounded(self, tmp_path, method):
        # at magnitude 50 the Hessian weights 1/Phi'' fall far below 1; the
        # grounded Hessian must still pass as positive definite
        out = str(tmp_path / "trace.csv")
        rc = main(["flow", "--graph", "path", "--n", "3", "--magnitude", "50",
                   "--method", method, "--out", out])
        assert rc == 0
        header, rows = read_rows(out)
        assert float(rows[-1][header.index("feasibility")]) <= 1e-5

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_invalid_feas_threshold_is_usage_error(self, value):
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--graph", "path", "--n", "6", "--feas-threshold", value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["flow", "bench"])
    @pytest.mark.parametrize("option, value, message", [
        ("--max-iters", "-1", "--max-iters must be >= 0, got -1"),
        ("--magnitude", "nan", "--magnitude must be finite, got nan"),
        ("--magnitude", "inf", "--magnitude must be finite, got inf"),
    ], ids=["max_iters", "magnitude_nan", "magnitude_inf"])
    def test_bad_problem_option_is_named_usage_error(self, capsys, command, option, value, message):
        # these used to exit 2 with the library's wording, naming max_iters or b
        with pytest.raises(SystemExit) as exc:
            main([command, "--graph", "path", "--n", "4", option, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_divergence_reports_partial_trace(self, tmp_path, monkeypatch, capsys):
        import lapflow.cli as cli_mod

        real = cli_mod.optimize

        def blow_up(problem, method, config):
            trace = real(problem, method, OptimizeConfig(max_iters=1))
            raise DivergenceError("objective diverged at iteration 1", trace)

        monkeypatch.setattr(cli_mod, "optimize", blow_up)
        out = str(tmp_path / "trace.csv")
        rc = main(["flow", "--graph", "path", "--n", "4", "--out", out])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err
        header, rows = read_rows(out)
        assert header[0] == "iter" and len(rows) >= 1


class TestBench:
    def test_combined_csv_and_summaries(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        rc = main(["bench", "--graph", "random", "--n", "12", "--edges", "25",
                   "--eps", "1e-2", "--feas-threshold", "1e-2",
                   "--max-iters", "20000", "--out", out])
        assert rc == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("bench:")]
        assert len(lines) == 4
        assert all("converged=True" in ln for ln in lines)
        header, rows = read_rows(out)
        assert header[0] == "method"
        methods = {row[0] for row in rows}
        assert methods == {"sddm_newton", "exact_newton", "add_neumann", "subgradient"}
        items = read_header(out)
        assert items["sddm_newton.eps"] == "0.01"
        assert items["sddm_newton.solver_mode"] == "rhop_distributed"
        assert items["add_neumann.neumann_terms"] == "2"
        assert "sddm_newton.consts_eps" not in items

    def test_stdout_holds_one_csv_block_then_the_summaries(self, capsys):
        rc = main(["bench", "--graph", "path", "--n", "6", "--max-iters", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        comments = [ln for ln in lines if ln.startswith("# ")]
        assert lines[:len(comments)] == comments
        header, *rest = lines[len(comments):]
        assert header == "method,iter,objective,feasibility,grad_lnorm,step,phase,messages"
        # three iterations, four rows, per method; its summary line after all rows
        methods = ("sddm_newton", "exact_newton", "add_neumann", "subgradient")
        rows, summaries = rest[:-4], rest[-4:]
        assert [ln.split(",")[0] for ln in rows] == [m for m in methods for _ in range(4)]
        assert [ln.split()[:2] for ln in summaries] == [["bench:", "method=" + m] for m in methods]

    def test_fallback_constants_named_per_method(self, tmp_path):
        # eps 1e-3 lies above this barbell's bound 9.8e-4, so sddm_newton
        # takes the eps = 0 convergence constants
        out = str(tmp_path / "bench.csv")
        rc = main(["bench", "--graph", "barbell", "--clique", "6", "--path-len", "4",
                   "--eps", "1e-3", "--max-iters", "0", "--out", out])
        assert rc == 0
        items = read_header(out)
        assert items["sddm_newton.consts_eps"] == "0.0"
        assert items["sddm_newton.eps"] == "0.001"


class TestScale:
    def test_slope_reported(self, tmp_path, capsys):
        out = str(tmp_path / "scale.csv")
        rc = main(["scale", "--family", "path", "--sizes", "8,16,32",
                   "--eps", "1e-2", "--out", out])
        assert rc == 0
        items = read_header(out)
        # the graphs come from --family; the unused --graph default is not named
        assert "graph" not in items and items["family"] == "path"
        slope = float(items["loglog_slope"])
        assert slope > 0
        assert "slope=" in capsys.readouterr().out
        header, rows = read_rows(out)
        assert header == ["n", "rounds", "messages", "iterations"]
        msgs = [int(r[2]) for r in rows]
        assert msgs == sorted(msgs) and msgs[0] < msgs[-1]

    def test_repeated_node_count_gives_nan_slope(self, tmp_path):
        # sizes 2 and 4 both build a 2x2 grid, so there is no slope to fit
        out = str(tmp_path / "scale.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["scale", "--family", "grid", "--sizes", "2,4", "--out", out])
        assert rc == 0
        assert read_header(out)["loglog_slope"] == "nan"
        assert [int(r[0]) for r in read_rows(out)[1]] == [4, 4]
        assert not [w for w in caught if w.category.__name__ == "RankWarning"]

    def test_empty_sizes_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scale", "--family", "path", "--sizes", "", "--eps", "0.5"])
        assert exc.value.code == 2

    def test_bad_sizes_token_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scale", "--family", "path", "--sizes", "8,x", "--eps", "0.5"])
        assert exc.value.code == 2


class TestLogging:
    def test_lf_log_enables_info_output(self):
        cmd = [sys.executable, "-m", "lapflow.cli", "solve",
               "--graph", "path", "--n", "6", "--eps", "0.5"]
        env = dict(os.environ, LF_LOG="info")
        # run next to the imported package, so the child finds it without an install
        cwd = os.path.dirname(os.path.dirname(os.path.abspath(lapflow.__file__)))
        loud = subprocess.run(cmd, env=env, capture_output=True, text=True, cwd=cwd)
        assert loud.returncode == 0
        assert "INFO" in loud.stderr
        env.pop("LF_LOG")
        quiet = subprocess.run(cmd, env=env, capture_output=True, text=True, cwd=cwd)
        assert quiet.returncode == 0
        assert "INFO" not in quiet.stderr


def load_snapshot_tool():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("cli_snapshot", os.path.join(root, "tools", "cli_snapshot.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


class TestSnapshotTool:
    def test_thread_record_names_each_variable(self):
        tool = load_snapshot_tool()
        record = tool.thread_record({"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "1"})
        assert record == "OPENBLAS_NUM_THREADS=2\nOMP_NUM_THREADS unset\nMKL_NUM_THREADS=1\n"

    def test_pinned_env_restores_a_thread_record(self):
        tool = load_snapshot_tool()
        record = tool.thread_record({"OPENBLAS_NUM_THREADS": "2"})
        env = tool.pinned_env(record, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4", "PATH": "/bin"})
        assert env == {"OPENBLAS_NUM_THREADS": "2", "PATH": "/bin"}

    @pytest.mark.parametrize("after_threads", ["OPENBLAS_NUM_THREADS=2\n", "OPENBLAS_NUM_THREADS=1\n", None],
                             ids=["same", "differ", "unrecorded"])
    def test_compare_prints_threads_only_when_they_differ(self, tmp_path, capsys, after_threads):
        tool = load_snapshot_tool()
        before, after = tmp_path / "before", tmp_path / "after"
        for side, threads in ((before, "OPENBLAS_NUM_THREADS=2\n"), (after, after_threads)):
            side.mkdir()
            (side / "run.exit").write_text("0\n")
            if threads is not None:
                (side / tool.THREADS_FILE).write_text(threads)
        assert tool.compare(before, after) == 0
        out = capsys.readouterr().out
        assert ("BLAS threads differ" in out) == (after_threads != "OPENBLAS_NUM_THREADS=2\n")
        assert tool.THREADS_FILE + ":" not in out  # not compared as a snapshot file
        assert "run.exit: text same" in out


SNAPSHOT = load_snapshot_tool()
GOLDEN = SNAPSHOT.ROOT / "tests" / "cli_golden"
GOLDEN_SUFFIXES = (".stdout", ".stderr", ".exit", ".csv")


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    """Directory of a cli_snapshot of this checkout, made at the goldens' BLAS thread counts.

    A threaded BLAS sums in another order at another thread count, and the
    residuals of a solve, near 1e-13, then move by more than ATOL; so the
    snapshot runs in a child process with the thread variables pinned to
    the goldens' blas_threads.env.
    """
    out = tmp_path_factory.mktemp("cli_snapshot")
    env = SNAPSHOT.pinned_env((GOLDEN / SNAPSHOT.THREADS_FILE).read_text(), os.environ)
    subprocess.run([sys.executable, str(SNAPSHOT.ROOT / "tools" / "cli_snapshot.py"), str(out)],
                   env=env, capture_output=True, check=True)
    return out


class TestGoldenOutputs:
    """Each cli_snapshot invocation, run through cli.main, against its outputs under tests/cli_golden.

    Compared by `cli_snapshot.py --compare`'s rules: the text between floats
    (exit codes, message and round counts, iterations, phases) exactly, and
    each float within RTOL relative or ATOL absolute. A change that moves an
    output beyond that regenerates the goldens in the same commit:

        OPENBLAS_NUM_THREADS=2 python3 tools/cli_snapshot.py tests/cli_golden
    """

    @pytest.mark.parametrize("name", [name for name, _ in SNAPSHOT.RUNS])
    def test_run_matches_golden(self, rerun, name):
        files = [name + suffix for suffix in GOLDEN_SUFFIXES]
        assert [(GOLDEN / f).is_file() for f in files] == [(rerun / f).is_file() for f in files]
        for f in files:
            if not (GOLDEN / f).is_file():
                continue
            now = (rerun / f).read_text()
            same, _, beyond, _, _ = SNAPSHOT.compare_text((GOLDEN / f).read_text(), now)
            assert same, "%s: non-float text differs; now:\n%s" % (f, now)
            assert not beyond, "%s: floats beyond %g relative and %g absolute (line, golden, now): %s" % (
                f, SNAPSHOT.RTOL, SNAPSHOT.ATOL, beyond)

    def test_every_golden_file_belongs_to_a_run(self):
        names = {name + suffix for name, _ in SNAPSHOT.RUNS for suffix in GOLDEN_SUFFIXES}
        files = {p.name for p in GOLDEN.iterdir()} - {SNAPSHOT.THREADS_FILE}
        assert files <= names
        assert {f[:-len(".exit")] for f in files if f.endswith(".exit")} == {name for name, _ in SNAPSHOT.RUNS}
