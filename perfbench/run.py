"""Run one rcnas benchmark workload and print its result line.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0

Workloads: ``search``, ``retrain``, ``costmodel`` (see NOTES.md). The
workload runs in a child process with its BLAS thread count set to
``BLAS_THREADS``, so numpy never picks one from the machine. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). Run it from the root of a
checkout; it exits 2 without a result when ``src/rcnas`` is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "retrain", "costmodel")
CHILD_TIMEOUT_S = 170  # the whole run must end within 180 s
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# BLAS threads of the workload process; the child records what the library
# reports. NOTES.md compares 1 thread against the machine default.
BLAS_THREADS = 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one rcnas benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "rcnas" / "__init__.py").is_file():
        print(f"error: no rcnas sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or ""))
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not _is_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print(f"error: workload exited with code {proc.returncode} and no result line", file=sys.stderr)
        return proc.returncode or 1
    print("\n".join(lines))
    return 0


def _is_result(line: str) -> bool:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return False
    return isinstance(doc, dict) and set(doc) == RESULT_KEYS


if __name__ == "__main__":
    sys.exit(main())
