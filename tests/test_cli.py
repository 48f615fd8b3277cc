"""End-to-end checks of the command-line front end, run in process."""

import os
import subprocess
import sys

import pytest

import lapflow
from lapflow.cli import main
from lapflow.graph_core import generate, save_edge_list
from lapflow.newton_flow import DivergenceError, OptimizeConfig, optimize


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

    def test_eps_out_of_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", "path", "--n", "6", "--eps", "0.6"])
        assert exc.value.code == 2

    def test_missing_generator_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", "random", "--n", "10", "--eps", "0.5"])
        assert exc.value.code == 2

    def test_rhop_rounds_down_to_power_of_two(self, tmp_path, capsys):
        out = str(tmp_path / "sol.csv")
        rc = main(["solve", "--graph", "path", "--n", "8", "--eps", "0.5",
                   "--rhop", "3", "--out", out])
        assert rc == 0
        assert "using 2" in capsys.readouterr().err
        assert read_header(out)["R"] == "2"

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
    ], ids=["empty", "bare_cost", "unknown_line", "second_b", "negative_edge_count",
            "no_edges"])
    def test_malformed_problem_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        rc = main(["flow", "--graph", "file", "--file", str(path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_no_convergence_exits_3_after_writing_trace(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        rc = main(["flow", "--graph", "barbell", "--clique", "6", "--path-len", "4",
                   "--method", "subgradient", "--max-iters", "3", "--out", out])
        assert rc == 3
        assert "converged=False" in capsys.readouterr().out
        header, rows = read_rows(out)
        assert header[0] == "iter" and len(rows) >= 3

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_invalid_feas_threshold_is_usage_error(self, value):
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--graph", "path", "--n", "6", "--feas-threshold", value])
        assert exc.value.code == 2

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


class TestScale:
    def test_slope_reported(self, tmp_path, capsys):
        out = str(tmp_path / "scale.csv")
        rc = main(["scale", "--family", "path", "--sizes", "8,16,32",
                   "--eps", "1e-2", "--out", out])
        assert rc == 0
        items = read_header(out)
        slope = float(items["loglog_slope"])
        assert slope > 0
        assert "slope=" in capsys.readouterr().out
        header, rows = read_rows(out)
        assert header == ["n", "rounds", "messages", "iterations"]
        msgs = [int(r[2]) for r in rows]
        assert msgs == sorted(msgs) and msgs[0] < msgs[-1]

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
