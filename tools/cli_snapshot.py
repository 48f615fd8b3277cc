"""Snapshot a fixed list of lapflow CLI runs for byte-identity checks.

    python3 tools/cli_snapshot.py OUTDIR

Runs each invocation below in a subprocess of its own, with lapflow imported
from src/ of the checkout that holds this script, and writes
OUTDIR/<name>.stdout, <name>.stderr, <name>.exit and <name>.csv (the file
the run wrote through --out). Run it in two checkouts; then

    diff -r before/ after/

is the whole check. Uses only the standard library.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARBELL_8_6 = ["--graph", "barbell", "--clique", "8", "--path-len", "6",
               "--feas-threshold", "1e-3", "--max-iters", "50000"]
BARBELL_6_4 = ["--graph", "barbell", "--clique", "6", "--path-len", "4"]

RUNS = [
    ("solve_grid_8x8_r2", ["solve", "--graph", "grid", "--rows", "8", "--cols", "8", "--rhop", "2"]),
    ("solve_random_60_150_s3", ["solve", "--graph", "random", "--n", "60", "--edges", "150", "--seed", "3"]),
    ("solve_path_150_r4", ["solve", "--graph", "path", "--n", "150", "--rhop", "4"]),
    ("flow_random_30_70_r4", ["flow", "--graph", "random", "--n", "30", "--edges", "70", "--rhop", "4"]),
    ("flow_random_40_100_exact", ["flow", "--graph", "random", "--n", "40", "--edges", "100",
                                  "--method", "exact-newton"]),
    ("flow_barbell_8_6_add", ["flow"] + BARBELL_8_6 + ["--method", "add"]),
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
]


def main(argv):
    if len(argv) != 1:
        print("usage: cli_snapshot.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("LF_LOG", None)
    for name, args in RUNS:
        csv = out / (name + ".csv")
        cmd = [sys.executable, "-m", "lapflow.cli"] + args + ["--out", str(csv)]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        (out / (name + ".stdout")).write_text(proc.stdout)
        (out / (name + ".stderr")).write_text(proc.stderr)
        (out / (name + ".exit")).write_text("%d\n" % proc.returncode)
        print("%s: exit %d" % (name, proc.returncode))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
