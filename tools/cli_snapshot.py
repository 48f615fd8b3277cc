"""Snapshot a fixed list of lapflow CLI runs and compare two snapshots.

    python3 tools/cli_snapshot.py OUTDIR
    python3 tools/cli_snapshot.py --compare BEFORE AFTER

The first form runs each invocation below through lapflow.cli.main, one
after another in this process, with lapflow imported from src/ of the
checkout that holds this script and the working directory at its root. It
writes OUTDIR/<name>.stdout, <name>.stderr, <name>.exit and <name>.csv (the
file the run wrote through --out), the same bytes as `python -m lapflow.cli`
in a process per run at a quarter of the time, and OUTDIR/blas_threads.env,
the BLAS thread variables of the process: a threaded BLAS may sum in another
order at another thread count. Run it in two checkouts; for a change that
keeps every output bit-identical

    diff -r before/ after/

is the whole check. An arithmetic change moves the last digits of floats,
so --compare splits each file into float literals (numbers written with a
point, an exponent, nan or inf) and the text between them, which holds the
integers: exit codes, message and round counts, iter, phase. It prints, per
file, whether that text matches exactly, the largest relative and absolute
float deviation, and how many floats differ by more than 1e-9 relative and
1e-15 absolute at once, after the BLAS thread variables of both sides when
they differ. It exits 1 when any file is missing on one side or its
non-float text differs. Uses only the standard library.

tests/cli_golden holds this tool's snapshot of the current code, made with

    OPENBLAS_NUM_THREADS=2 python3 tools/cli_snapshot.py tests/cli_golden

and tests/test_cli.py compares a snapshot made at the thread counts
blas_threads.env records there with it by compare_text.
"""

import contextlib
import io
import math
import os
import re
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARBELL_8_6 = ["--graph", "barbell", "--clique", "8", "--path-len", "6",
               "--feas-threshold", "1e-3", "--max-iters", "50000"]
BARBELL_6_4 = ["--graph", "barbell", "--clique", "6", "--path-len", "4"]

RUNS = [
    ("solve_grid_8x8_r2", ["solve", "--graph", "grid", "--rows", "8", "--cols", "8", "--rhop", "2"]),
    # the benchmark's system at R = 1: the chain's batches run on both rungs of the stride ladder
    ("solve_grid_20x20_r1", ["solve", "--graph", "grid", "--rows", "20", "--cols", "20"]),
    ("solve_random_60_150_s3", ["solve", "--graph", "random", "--n", "60", "--edges", "150", "--seed", "3"]),
    ("solve_path_150_r4", ["solve", "--graph", "path", "--n", "150", "--rhop", "4"]),
    # grounded, the 1x1 system: estimate_condition returns 1.0 without Lanczos
    ("solve_path_2", ["solve", "--graph", "path", "--n", "2"]),
    # grounding node 4 splits the path's support in two: two components on one network
    ("solve_path_9_ground_cut_r2", ["solve", "--graph", "path", "--n", "9", "--ground", "4", "--rhop", "2"]),
    # R = 8 passes the split support's reach: rounds and checks read its reach ball
    ("solve_path_9_ground_cut_r8", ["solve", "--graph", "path", "--n", "9", "--ground", "4", "--rhop", "8"]),
    ("solve_scale_free_40_r2", ["solve", "--graph", "scale-free", "--n", "40", "--rhop", "2"]),
    ("flow_random_30_70_r4", ["flow", "--graph", "random", "--n", "30", "--edges", "70", "--rhop", "4"]),
    ("flow_random_40_100_exact", ["flow", "--graph", "random", "--n", "40", "--edges", "100",
                                  "--method", "exact-newton"]),
    # the Laplacian spectrum's smallest case: n = 2, one arc
    ("flow_path_2_exact", ["flow", "--graph", "path", "--n", "2", "--method", "exact-newton"]),
    # a small mu2 (4.4e-4): the shifted inverse must keep its digits
    ("flow_path_150", ["flow", "--graph", "path", "--n", "150"]),
    # large enough for the fill of the exact factorization to matter
    ("flow_random_300_900_exact", ["flow", "--graph", "random", "--n", "300", "--edges", "900",
                                   "--method", "exact-newton"]),
    ("flow_barbell_8_6_add", ["flow"] + BARBELL_8_6 + ["--method", "add"]),
    ("flow_barbell_8_6_add_quadratic", ["flow"] + BARBELL_8_6 + ["--method", "add",
                                                                 "--cost", "quadratic"]),
    ("flow_barbell_8_6_subgradient", ["flow"] + BARBELL_8_6 + ["--method", "subgradient"]),
    ("flow_barbell_8_6_subgradient_fixed", ["flow"] + BARBELL_8_6 + ["--method", "subgradient",
                                                                     "--step", "fixed"]),
    ("flow_grid_4x5_quadratic_alpha_star", ["flow", "--graph", "grid", "--rows", "4", "--cols", "5",
                                            "--cost", "quadratic", "--step", "alpha-star"]),
    ("bench_barbell_6_4_feas_1e-2", ["bench"] + BARBELL_6_4 + ["--feas-threshold", "1e-2",
                                                               "--max-iters", "20000"]),
    ("scale_grid_16_36_64", ["scale", "--family", "grid", "--sizes", "16,36,64"]),
    ("bench_barbell_6_4", ["bench"] + BARBELL_6_4),
    ("flow_barbell_6_4_exact", ["flow"] + BARBELL_6_4 + ["--method", "exact-newton"]),
    ("scale_grid_2_4", ["scale", "--family", "grid", "--sizes", "2,4"]),
    ("scale_path_8_16_32_r2", ["scale", "--family", "path", "--sizes", "8,16,32", "--rhop", "2"]),
    ("scale_scale_free_20_40", ["scale", "--family", "scale-free", "--sizes", "20,40"]),
    # grounding path node 7 splits the barbell in two: the network of each
    # Newton step is G minus that node, with two components
    ("flow_barbell_6_4_r2_ground_cut", ["flow"] + BARBELL_6_4 + ["--rhop", "2", "--ground", "7"]),
    # and R = 16 passes the reach of that split network
    ("flow_barbell_6_4_r16_ground_cut", ["flow"] + BARBELL_6_4 + ["--rhop", "16", "--ground", "7"]),
    # Hessian weights 1/Phi'' far below 1: the SDDM check of the grounded
    # Hessian scales its tolerance with max D, not with 1
    ("flow_path_3_magnitude_50", ["flow", "--graph", "path", "--n", "3", "--magnitude", "50"]),
    # --graph file, with inputs checked in next to this script and passed by
    # a path relative to the checkout, so the CSVs' `# file=` item is the same
    # in every checkout: a problem file brings its own b and cost, a bare edge
    # list gets the defaults
    ("flow_file_problem_random_12_24", ["flow", "--graph", "file", "--file", "tools/snapshot_problem.txt"]),
    ("solve_file_edges_random_25_60_r2", ["solve", "--graph", "file", "--file", "tools/snapshot_edges.txt",
                                          "--rhop", "2"]),
    # solve reads a bare edge list: a problem file's b line is a usage error
    ("solve_file_problem_random_12_24", ["solve", "--graph", "file", "--file", "tools/snapshot_problem.txt"]),
    # a usage error names the option, not the library's "b has a non-finite entry"
    ("flow_path_4_magnitude_nan", ["flow", "--graph", "path", "--n", "4", "--magnitude", "nan"]),
]


THREADS_FILE = "blas_threads.env"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_record(env):
    """One `VAR=value` line per BLAS thread variable, `VAR unset` when it is not set."""
    return "".join("%s=%s\n" % (var, env[var]) if var in env else var + " unset\n" for var in THREAD_VARS)


def pinned_env(record, env):
    """A copy of env with the BLAS thread variables of a thread_record: set, or removed where unset."""
    env = dict(env)
    for line in record.splitlines():
        var, sep, value = line.partition("=")
        if sep:
            env[var] = value
        else:
            env.pop(line.split()[0], None)
    return env


# a float literal not glued to a word or another number; integers are text
FLOAT = re.compile(r"(?<![\w.])([-+]?(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|nan|inf))(?![\w.])")
RTOL, ATOL = 1e-9, 1e-15


def compare_text(before, after):
    """(text_same, floats, beyond, max_rel, max_abs) of two file contents.

    beyond lists (line, before, after) for each float off by more than RTOL
    relative and ATOL absolute. Non-finite floats must match as text;
    finite ones are compared by value.
    """
    a, b = FLOAT.split(before), FLOAT.split(after)
    if len(a) != len(b) or a[0::2] != b[0::2]:
        return False, 0, [], 0.0, 0.0
    floats, beyond, line = 0, [], 1
    max_rel = max_abs = 0.0
    for k in range(1, len(a), 2):
        line += a[k - 1].count("\n")
        x, y = a[k], b[k]
        fx, fy = float(x), float(y)
        if not (math.isfinite(fx) and math.isfinite(fy)):
            if x != y:
                return False, 0, [], 0.0, 0.0
            continue
        floats += 1
        dev = abs(fx - fy)
        rel = dev / max(abs(fx), abs(fy)) if dev else 0.0
        max_rel, max_abs = max(max_rel, rel), max(max_abs, dev)
        if rel > RTOL and dev > ATOL:
            beyond.append((line, x, y))
    return True, floats, beyond, max_rel, max_abs


def compare(before_dir, after_dir):
    """Print both BLAS thread records when they differ, then one report per snapshot file.

    Returns 1 if a snapshot file is missing on one side or its non-float text differs.
    """
    before_dir, after_dir = Path(before_dir), Path(after_dir)
    threads = [(d / THREADS_FILE).read_text() if (d / THREADS_FILE).is_file() else "not recorded\n"
               for d in (before_dir, after_dir)]
    if threads[0] != threads[1]:
        print("BLAS threads differ:")
        for side, record in zip(("before", "after"), threads):
            print("    %s: %s" % (side, record.strip().replace("\n", "; ")))
    names = sorted(({p.name for p in before_dir.iterdir()} | {p.name for p in after_dir.iterdir()})
                   - {THREADS_FILE})
    status = 0
    for name in names:
        pa, pb = before_dir / name, after_dir / name
        if not (pa.is_file() and pb.is_file()):
            print("%s: MISSING in %s" % (name, after_dir if pa.is_file() else before_dir))
            status = 1
            continue
        same, floats, beyond, max_rel, max_abs = compare_text(pa.read_text(), pb.read_text())
        if not same:
            print("%s: NON-FLOAT TEXT DIFFERS" % name)
            status = 1
            continue
        print("%s: text same; %d floats, max rel %.3g, max abs %.3g, %d beyond %g rel and %g abs"
              % (name, floats, max_rel, max_abs, len(beyond), RTOL, ATOL))
        for line, x, y in beyond:
            print("    line %d: %s -> %s" % (line, x, y))
    return status


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: cli_snapshot.py OUTDIR | --compare BEFORE AFTER", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    os.environ.pop("LF_LOG", None)
    (out / THREADS_FILE).write_text(thread_record(os.environ))
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from lapflow.cli import main as cli_main

    for name, args in RUNS:
        csv = out / (name + ".csv")
        stdout, stderr = io.StringIO(), io.StringIO()
        # a fresh warnings state per run: a warning prints once per run, as in a process of its own
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli_main(args + ["--out", str(csv)])
            except SystemExit as exc:
                code = exc.code
        (out / (name + ".stdout")).write_text(stdout.getvalue())
        (out / (name + ".stderr")).write_text(stderr.getvalue())
        (out / (name + ".exit")).write_text("%d\n" % code)
        print("%s: exit %d" % (name, code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
