"""lapflow benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs one workload in a fresh process of its own, so that its peak RSS is its
own, with the BLAS/OpenMP thread pools pinned to the CPUs this process may
use. The workload process prints '# ' lines for people and, as the last line
of standard output, one JSON result (see perfbench/README.md).

--smoke runs every workload once at a tiny size, with and without tracing,
and checks that each result names every metric of BENCHMARK.json with its
unit and that every op passed its check.

Uses only the standard library; lapflow is imported from src/ of the same
checkout, and the launcher exits with status 2 when it is not there.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 175
EXTRA_IMPORT_SAMPLES = 2
IMPORT_TIMEOUT_S = 30
SMOKE_TIMEOUT_S = 120


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # the same bytecode compile cost lands in setup_s on every run
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def import_seconds():
    """Process start to the end of the workload process's imports, in a fresh process.

    Normalized for the host's speed like every time in setup_s (perfbench/hostspeed.py).
    """
    code = ("import sys; sys.path.insert(0, sys.argv[2]); import workload; "
            "print(workload.import_s(float(sys.argv[1])))")
    res = subprocess.run([sys.executable, "-c", code, repr(time.monotonic()), str(HERE)], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S,
                         check=True)
    return float(res.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, size="full", timeout=TIMEOUT_S,
                 import_probes=EXTRA_IMPORT_SAMPLES):
    """Run one workload process; return (exit code, stdout, stderr).

    `import_probes` more processes only import what the workload process
    imports; their import times join the workload's own in the median that
    setup_s takes. The whole call ends within `timeout` seconds.
    """
    deadline = time.monotonic() + timeout
    try:
        extra = [import_seconds() for _ in range(import_probes)]
    except (subprocess.SubprocessError, ValueError) as exc:
        return 1, "", "perfbench: import probe failed: %s\n" % exc
    cmd = [sys.executable, str(WORKLOAD), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace), "--size", size,
           "--import-samples", ",".join(map(repr, extra)), "--spawned-at", repr(time.monotonic())]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                             text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        return None, exc.stdout or "", "perfbench: %s timed out after %ds\n" % (workload, timeout)
    return res.returncode, res.stdout, res.stderr


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError("result keys %s != %s" % (sorted(result), sorted(RESULT_KEYS)))
    return result


def check_result(result, wanted):
    """Problems with one result against BENCHMARK.json's metric list."""
    problems = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("not correct: correct=%s attempted=%s failed=%s"
                        % (result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        problems.append("metric names differ: missing %s, extra %s"
                        % (sorted(set(names) - set(metrics)), sorted(set(metrics) - set(names))))
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append("%s unit %r != %r" % (m["name"], got.get("unit"), m["unit"]))
        value = got.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r is not a finite number" % (m["name"], value))
    return problems


def smoke(spec):
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out, err = run_workload(workload, 0, 0, trace, size="smoke",
                                          timeout=SMOKE_TIMEOUT_S, import_probes=0)
            try:
                problems = ["exit code %s" % code] if code != 0 else []
                problems += check_result(parse_result(out), wanted)
            except ValueError as exc:
                problems = ["unreadable result: %s" % exc]
            status = "ok" if not problems else "FAIL"
            print("smoke %-20s trace=%d %s" % (workload, trace, status))
            for p in problems:
                print("    %s" % p)
            if problems:
                failures += 1
                sys.stderr.write(err)
    print("smoke: %s" % ("all workloads name every metric with its unit" if not failures
                         else "%d run(s) failed" % failures))
    return 1 if failures else 0


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="lapflow benchmark")
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="every workload once at a tiny size")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "lapflow" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no lapflow sources under %s\n" % (ROOT / "src"))
        return 2
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        p.error("--workload is required unless --smoke is given")
    code, out, err = run_workload(args.workload, args.seed, args.seconds, args.trace)
    sys.stderr.write(err)
    if code != 0:
        sys.stderr.write("perfbench: workload process exited with %s\n" % code)
        return 1 if code is None else code
    try:
        parse_result(out)
    except ValueError as exc:
        sys.stderr.write("perfbench: unreadable result (%s)\n" % exc)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
