"""Run one workload in a fresh interpreter and print its result as one JSON line.

run.py starts this script with the monotonic clock reading taken just before
the spawn, so set-up time counts from interpreter start to the first timed
call.  Load is one caller in a closed loop: the next call starts after the
previous one returns.  The library's memo caches are cleared before each
pass over the inputs, outside the timed region, so every pass starts as cold
as a fresh process and repeats the same work.

Timings are scaled to a nominal machine speed.  Other tenants of a shared
host slow every instruction down by tens of percent for seconds to minutes
at a time, so each pass also times a fixed reference loop (at its start,
at its end, and after every 50 ms of calls), and its call times are
multiplied by ``REFERENCE_NS`` over the pass's median reference time.  An
operation's latency is then the median of its scaled repeats.  The report
keeps the unscaled figures.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import SEED_CLASSES, SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
#: time of one reference loop at nominal speed (about the fastest seen on a
#: 2-vCPU Xeon virtual machine); scaled timings read as wall time at that speed
REFERENCE_NS = 500_000
REFERENCE_EVERY_NS = 50_000_000


def reference_ns() -> int:
    """Time one run of a fixed pure-Python loop of tuple, dict and int work."""
    t0 = time.perf_counter_ns()
    acc, table = 0, {}
    for i in range(1500):
        t = (i, i * i % 1009)
        table[t[1] % 61] = t
        acc += len(table) + t[0] % 7
    return time.perf_counter_ns() - t0


def speed_scale(samples: int = 30) -> float:
    """REFERENCE_NS over the median of fresh reference timings."""
    return REFERENCE_NS / statistics.median(reference_ns() for _ in range(samples))


def percentile(ordered: list, q: float) -> float:
    """Linear interpolation between closest ranks of an ascending list."""
    k = (len(ordered) - 1) * q / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


class Run:
    """Executes a workload's operations and keeps what the checks need."""

    def __init__(self, wl, lib, ops, caches, cached_fns):
        self.wl, self.lib, self.ops = wl, lib, ops
        self.caches = caches
        self.cached_fns = cached_fns
        self.first = [None] * len(ops)  # digest of each op's first output
        self.records = [None] * len(ops)
        self.same_runs = [0] * len(ops)  # runs whose output equals the first
        self.units = [1] * len(ops)  # units of each op's first run
        self.bad_units = 0  # units that raised or differed from the op's first output
        self.attempted = 0
        self.errors: list[str] = []
        self.latency_ns: list[list[int]] = [[] for _ in ops]  # per op, one per run of it
        self.passes: list[dict] = []
        self.recorder = None
        self.snapshots: list = []

    def _start_pass(self) -> None:
        for cache in self.caches:
            cache.cache_clear()
        self.pass_ns = 0
        self.pass_radicands = 0
        self.pass_refs = [reference_ns() for _ in range(5)]
        self.since_ref_ns = 0
        self.op_starts = []
        if self.recorder is not None:
            self.recorder.clear()

    def _end_pass(self) -> None:
        info = {
            name: fn.cache_info()._asdict() for name, fn in self.cached_fns.items()
        }
        self.pass_refs += [reference_ns() for _ in range(5)]
        entry = {
            "ns": self.pass_ns,
            "radicands": self.pass_radicands,
            "cache": info,
            "scale": REFERENCE_NS / statistics.median(self.pass_refs),
        }
        rec = self.recorder
        if rec is not None:
            entry["trace"] = rec.aggregate()
            if not self.snapshots:
                self.snapshots.append(
                    (len(self.passes), self.op_starts, rec.name[:], rec.parent[:], rec.start[:], rec.end[:])
                )
        self.passes.append(entry)

    def execute(self, i: int) -> None:
        op = self.ops[i]
        if self.since_ref_ns >= REFERENCE_EVERY_NS:
            self.pass_refs.append(reference_ns())
            self.since_ref_ns = 0
        if self.recorder is not None:
            self.op_starts.append(len(self.recorder))
        t0 = time.perf_counter_ns()
        try:
            out = self.wl.call(self.lib, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        dt = time.perf_counter_ns() - t0
        raised = isinstance(out, Exception)
        units = 1 if raised else self.wl.units(op, out)
        self.latency_ns[i].append(dt)
        self.pass_ns += dt
        self.since_ref_ns += dt
        self.attempted += units
        h = hashlib.sha256()
        if raised:
            h.update(f"raised {type(out).__name__}: {out}".encode())
            if len(self.errors) < 5:
                self.errors.append("".join(traceback.format_exception(out)))
        else:
            self.pass_radicands += self.wl.radicands(op, out)
            for line in self.wl.canon(op, out):
                h.update(line.encode())
                h.update(b"\n")
        digest = h.digest()
        if self.first[i] is None:
            self.first[i] = digest
            self.units[i] = units
            if not raised:
                self.records[i] = self.wl.record(op, out)
                self.same_runs[i] = 1
            else:
                self.bad_units += units
        elif raised or digest != self.first[i]:
            self.bad_units += units
        else:
            self.same_runs[i] += 1

    def loop(self, seconds: float = 0, min_passes: int = 1) -> None:
        """Whole passes over the inputs, in a closed loop, until ``seconds`` have passed."""
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        for done in itertools.count(1):
            self._start_pass()
            for i in range(len(self.ops)):
                self.execute(i)
            self._end_pass()
            if done >= min_passes and time.perf_counter_ns() >= deadline:
                return

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.first)).hexdigest()

    def failed_units(self) -> int:
        """Units that raised, changed between runs, or failed the independent checks."""
        failed = self.bad_units
        for i, record in enumerate(self.records):
            if record is None or not self.same_runs[i]:
                continue
            try:
                bad = self.wl.check(self.ops[i], record)
            except Exception:  # a check that cannot run counts as a failure
                if len(self.errors) < 5:
                    self.errors.append(traceback.format_exc())
                bad = self.units[i]
            failed += bad * self.same_runs[i]
        return min(failed, self.attempted)


def library_caches() -> list:
    found = {}
    for key, module in list(sys.modules.items()):
        if key == "cubic93" or key.startswith("cubic93."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--mode", choices=("probe", "measure", "trace", "record"), required=True)
    args = ap.parse_args()

    import cubic93 as lib

    src = HERE.parent / "src"
    if not Path(lib.__file__).resolve().is_relative_to(src):
        print(f"cubic93 was imported from {lib.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    size = SIZES[args.size][wl.name]
    seed_class = args.seed % SEED_CLASSES if wl.seeded else 0
    if args.mode == "record":
        return record(wl, lib, size)
    ops = wl.inputs(lib, seed_class, size)
    setup_raw_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    setup = {"setup_s": setup_raw_s * speed_scale(), "setup_raw_s": setup_raw_s}
    if args.mode == "probe":
        print(json.dumps(setup))
        return 0

    cached = {n: f for n in tracing.CACHED if (f := tracing.find(*tracing.TARGETS[n])) is not None}
    run = Run(wl, lib, ops, library_caches(), cached)
    result: dict = {**setup, "seed_class": seed_class, "size": size}
    if args.mode == "measure":
        run.loop(args.seconds, min_passes=2)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scales = [p["scale"] for p in run.passes]
        label, q = wl.tail
        result["metrics"] = latency_metrics(run, scales, q)
        result["metrics"]["peak_rss_mib"] = peak_rss_mib
        raw = latency_metrics(run, [1.0] * len(scales), q)
        result["latency"] = {
            "ops": len(run.ops),
            "passes": len(run.passes),
            "tail": label,
            "beyond_tail": len(run.ops) - math.ceil(len(run.ops) * q / 100),
            "speed_scales": scales,
            "unscaled": raw,
        }
    else:
        # alternate untraced and traced passes, so that both see the same load
        rec = tracing.Recorder(list(tracing.TARGETS))
        start = time.perf_counter_ns()
        while True:
            t0 = time.perf_counter_ns()
            run.loop()
            with tracing.installed(rec) as absent:
                run.recorder = rec
                run.loop()
                run.recorder = None
            now = time.perf_counter_ns()
            if now - start + (now - t0) > args.seconds * 1e9:
                break
        result["metrics"] = layer_metrics(run.passes)
        result["absent"] = absent
        result["pairs"] = len(run.passes) // 2
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{wl.name}.spans.tsv"
        tracing.write_spans(spans_path, rec, run.snapshots)
        result["spans_file"] = str(spans_path.relative_to(HERE.parent))

    failed = run.failed_units()
    digest = run.digest()
    golden = json.loads((HERE / "golden.json").read_text())["digests"]
    expected = golden.get(args.size, {}).get(wl.name, {}).get(str(seed_class))
    if digest != expected:
        failed = min(run.attempted, failed + sum(run.units))  # the digest covers every op
    result.update(
        attempted=run.attempted,
        failed=failed,
        golden={"expected": expected, "actual": digest, "match": digest == expected},
        errors=run.errors,
    )
    result["correct"] = failed == 0 and digest == expected
    print(json.dumps(result))
    return 0


def latency_metrics(run: Run, scales: list, tail_q: float) -> dict:
    """Throughput and latency percentiles over operations, each the median of its scaled repeats."""
    lat = sorted(
        statistics.median(ns * s for ns, s in zip(repeats, scales)) for repeats in run.latency_ns
    )
    return {
        "ops_per_s": sum(run.units) / (sum(lat) / 1e9),
        "p50_ms": percentile(lat, 50) / 1e6,
        "tail_ms": percentile(lat, tail_q) / 1e6,
    }


def layer_metrics(passes: list) -> dict:
    """Per-layer metrics from (untraced, traced) pass pairs.

    Counts come from the first traced pass; times are medians over traced
    passes, and the overhead is the median traced/untraced ratio of a pair.
    """
    untraced, traced = passes[0::2], passes[1::2]
    first = traced[0]["trace"]
    metrics: dict = {}
    for name in first["calls"]:
        metrics[f"{name}.calls"] = first["calls"][name]
        metrics[f"{name}.self_ms"] = statistics.median(p["trace"]["self_ns"][name] for p in traced) / 1e6
    for name in tracing.CACHED:
        info = untraced[0]["cache"].get(name, {"hits": 0, "misses": 0})
        looked_up = info["hits"] + info["misses"]
        metrics[f"{name}.hits"] = info["hits"]
        metrics[f"{name}.misses"] = info["misses"]
        metrics[f"{name}.hit_ratio"] = info["hits"] / looked_up if looked_up else 0.0
    radicands = traced[0]["radicands"]
    metrics["radicand.factorizations_per_radicand"] = (
        first["calls"]["intmath.factorize"] / radicands if radicands else 0.0
    )
    metrics["trace.overhead_ratio"] = statistics.median(t["ns"] / u["ns"] for u, t in zip(untraced, traced))
    metrics["trace.uncovered_ratio"] = statistics.median(1 - p["trace"]["root_ns"] / p["ns"] for p in traced)
    metrics["trace.spans"] = first["spans"]
    return metrics


def record(wl, lib, size: int) -> int:
    """One untimed pass per seed class; print the digests and the failed-check count."""
    digests, failed = {}, 0
    for seed_class in range(SEED_CLASSES if wl.seeded else 1):
        run = Run(wl, lib, wl.inputs(lib, seed_class, size), library_caches(), {})
        run.loop()
        digests[str(seed_class)] = run.digest()
        failed += run.failed_units()
    print(json.dumps({"digests": digests, "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
