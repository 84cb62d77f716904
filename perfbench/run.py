"""Benchmark for cubic93: one workload per call, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-golden      # rewrite perfbench/golden.json

Each measurement runs in a fresh interpreter that imports ``cubic93`` from
``src/``.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it is a report of the run conditions and the details behind
each metric.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_PROBES = 6  # interpreters started only to time set-up, besides the measuring one
CAS_NOTE = "cas not measured: no PARI/GP binary here, and a scripted stand-in would time Python start-up"


class BenchError(Exception):
    pass


def spawn(mode: str, args, deadline: float, workload: str) -> dict:
    """Run measure.py in a fresh interpreter; return its JSON line."""
    cmd = [
        sys.executable, str(HERE / "measure.py"), "--mode", mode, "--workload", workload,
        "--seed", str(args.seed), "--size", args.size, "--seconds", str(args.seconds),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run of {workload} did not finish in {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} run of {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def conditions() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for dist in ("mpmath", "sympy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        **versions,
        "load": "closed loop, one caller in one process",
        "note": CAS_NOTE,
    }


def measure(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        setups = [spawn("probe", args, deadline, args.workload) for _ in range(SETUP_PROBES)]
    res = spawn("trace" if args.trace else "measure", args, deadline, args.workload)
    setups.append(res)
    values = dict(res["metrics"], setup_s=statistics.median(s["setup_s"] for s in setups))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_class": res["seed_class"],
        "size": args.size,
        "input_size": res["size"],
        "seconds": args.seconds,
        "trace": args.trace,
        "conditions": conditions(),
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_s_unscaled": [s["setup_raw_s"] for s in setups],
        "fail_ratio": res["failed"] / res["attempted"],
    }
    for key in ("latency", "golden", "absent", "pairs", "spans_file", "errors"):
        if key in res:
            report[key] = res[key]
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0 if res["correct"] else 1


def record_golden(args) -> int:
    """Digest one pass of every workload, size and seed class; refuse if a check fails."""
    digests: dict = {}
    for size in SIZES:
        for name in WORKLOADS:
            args.size = size
            res = spawn("record", args, None, name)
            if res["failed"]:
                raise BenchError(f"{name} at size {size}: {res['failed']} outputs failed their checks")
            digests.setdefault(size, {})[name] = res["digests"]
            print(f"recorded {name} at size {size}: {len(res['digests'])} seed classes", flush=True)
    (HERE / "golden.json").write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="classify")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full", help="smoke is for the benchmark's own tests")
    ap.add_argument("--record-golden", action="store_true", help="rewrite golden.json from the current library")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "cubic93" / "__init__.py").is_file():
        print(f"perfbench: no cubic93 sources under {SRC}", file=sys.stderr)
        return 2
    try:
        return record_golden(args) if args.record_golden else measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
