#!/usr/bin/env python3
"""Benchmark of orthogame: end-to-end metrics per workload, or per-layer metrics traced.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics, measured in a separate traced run that also writes its spans.
Every run appends a full record (environment, sizes, all metrics, the
failed checks) to .perfbench_out/results.jsonl.  Compare two such files:

    python3 perfbench/run.py --compare base.jsonl head.jsonl

See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 9
# percentile reported as op_tail_ms; lowered along TAIL_LADDER when a run
# has fewer than ten samples beyond it
TAIL_PERCENTILE = {"sweep": 90.0, "surface": 75.0, "cli": 75.0}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# a batch of timed operations lasts at least this long before the
# calibration kernel is timed and scales it (see calibration.py)
BATCH_S = 0.02
MAX_FAILURES_KEPT = 20


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("sweep", "surface", "cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the reference input sets (smoke test only)")
    p.add_argument("--out-dir", type=Path, default=OUT_DIR,
                   help="where results.jsonl and span files go")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"), type=Path,
                   help="compare two results.jsonl files and exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.compare and not args.workload:
        p.error("--workload is required unless --compare is given")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, sizes) -> dict:
    import importlib.metadata
    import numpy
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": sizes,
    }


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Fresh processes that import and build the inputs, then exit: (raw, scaled) seconds."""
    import calibration
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-500:]}")
        scaled.append(raw[-1] * calibration.scale_process())
    return raw, scaled


def _tail(latencies, workload):
    """(percentile, latency at it, samples beyond it) with at least ten beyond."""
    import numpy as np
    n = len(latencies)
    pct = TAIL_PERCENTILE[workload]
    for candidate in TAIL_LADDER:
        if candidate <= pct and n * (1.0 - candidate / 100.0) >= 10:
            pct = candidate
            break
    else:
        pct = TAIL_LADDER[-1]
    value = float(np.percentile(latencies, pct))
    return pct, value, sum(1 for x in latencies if x > value)


class Checker:
    """Applies the workload's checks to each output and keeps the tally."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, inp, out) -> int:
        self.attempted += 1
        failures, verified = self.wl.check(inp, out)
        if failures:
            self.failed += 1
            self.failures.extend(failures[:MAX_FAILURES_KEPT - len(self.failures)])
        return verified

    def guarded(self, run, inp):
        """Run one operation; an exception is a failed operation, not a crash."""
        try:
            return run(inp)
        except Exception as exc:  # noqa: BLE001 - every raise is a failed operation
            self.attempted += 1
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(f"{type(exc).__name__}: {exc}")
            return None


def _reference_pass(wl, checker):
    """Solve the fixed reference inputs once; returns (eq_verified, outputs kept)."""
    eq = 0
    kept = []
    for inp in wl.reference:
        out = checker.guarded(wl.run, inp)
        if out is None:
            continue
        eq += checker(inp, out)
        if hasattr(wl, "fingerprint"):
            kept.append(out)
    return eq, kept


def _timed_loop(wl, checker, seconds):
    """Closed loop over the seeded stream for `seconds`.

    Returns the raw latencies, the same scaled to the reference speed, and
    for `cli` each child's peak RSS.  After each batch of at least BATCH_S
    the calibration kernel is timed and scales the batch.  Checks run
    between operations and are not timed.
    """
    import calibration
    scale = calibration.scale_process if wl.name == "cli" else calibration.scale_inprocess
    raw, scaled, batch, child_rss = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        inp = wl.next_input()
        t0 = time.perf_counter()
        out = checker.guarded(wl.run, inp)
        batch.append(time.perf_counter() - t0)
        if out is not None:
            checker(inp, out)
            if wl.name == "cli":
                child_rss.append(out[2])
        done = time.perf_counter() >= deadline
        if sum(batch) >= BATCH_S or done:
            factor = scale()
            raw += batch
            scaled += [x * factor for x in batch]
            batch = []
        if done:
            return raw, scaled, child_rss


def run_untraced(args, wl) -> tuple[dict, dict]:
    setup_raw, setup_scaled = _setup_seconds(args)
    checker = Checker(wl)
    eq_verified, kept = _reference_pass(wl, checker)
    extra = {}
    if kept:
        extra["fingerprint"] = wl.fingerprint(kept)
        pinned = json.loads((HERE / "pinned.json").read_text()).get(wl.name)
        if pinned and not args.tiny:
            extra["pinned"] = pinned
            extra["matches_pin"] = (pinned["eq_verified"] == eq_verified
                                    and pinned["fingerprint"] == extra["fingerprint"])

    raw, latencies, child_rss = _timed_loop(wl, checker, args.seconds)
    if wl.name == "cli":
        rss_kib = max(child_rss, default=0)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pct, tail, beyond = _tail(latencies, wl.name)
    failed_frac = checker.failed / checker.attempted
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ops_ok_frac": (1.0 - failed_frac, "ratio"),
        "eq_verified": (eq_verified, "count"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    extra.update({
        "ops_failed_frac": failed_frac,
        "timed_ops": len(latencies),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "raw": {"setup_s": statistics.median(setup_raw),
                "ops_per_s": len(raw) / sum(raw),
                "op_p50_ms": statistics.median(raw) * 1e3,
                "op_tail_ms": _tail(raw, wl.name)[1] * 1e3},
    })
    return metrics, _tally(checker, extra)


def run_traced(args, wl) -> tuple[dict, dict]:
    import layers
    import orthogame.cli  # noqa: F401  (bound names are wrapped too)
    import orthogame.golden  # noqa: F401
    from spans import Tracer

    run = wl.run_in_process if wl.name == "cli" else wl.run
    checker = Checker(wl)

    def passes(seconds, wrap):
        total, n = 0.0, 0
        deadline = time.perf_counter() + seconds
        while True:
            for inp in wl.reference:
                t0 = time.perf_counter()
                with wrap():
                    out = checker.guarded(run, inp)
                total += time.perf_counter() - t0
                n += 1
                if out is not None:
                    checker(inp, out)
            if time.perf_counter() >= deadline:
                return total / n

    from contextlib import nullcontext
    untraced_op_s = passes(args.seconds / 3, nullcontext)
    tracer = Tracer()
    tracer.install(layers.span_hooks())
    try:
        passes(2 * args.seconds / 3, tracer.op)
    finally:
        tracer.uninstall()
    metrics = layers.from_spans(tracer, untraced_op_s)
    metrics.update(layers.probes())
    args.out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = args.out_dir / f"spans_{wl.name}_seed{args.seed}.jsonl"
    tracer.dump(spans_path)
    extra = {"traced_ops": tracer.ops, "spans_kept": len(tracer.spans),
             "spans_file": str(spans_path)}
    return metrics, _tally(checker, extra)


def _tally(checker, extra) -> dict:
    extra.update({"attempted": checker.attempted, "failed": checker.failed,
                  "failures": checker.failures})
    return extra


def run_workload(args) -> int:
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    metrics, extra = (run_traced if args.trace else run_untraced)(args, wl)
    record = {"workload": args.workload, "trace": args.trace,
              "environment": _environment(args, wl.sizes()),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **extra}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.out_dir / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={extra['attempted']} failed={extra['failed']}")
    for line in extra["failures"]:
        print(f"  FAILED {line}")
    if "ops_failed_frac" in extra:
        print(f"  ops_failed_frac = {extra['ops_failed_frac']:.6g} "
              f"(tail p{extra['tail_percentile']:g}, {extra['tail_samples_beyond']} beyond)")
    if "matches_pin" in extra:
        print(f"  sweep fingerprint {extra['fingerprint']} "
              f"{'matches' if extra['matches_pin'] else 'DIFFERS FROM'} pinned "
              f"{extra['pinned']['eq_verified']} / {extra['pinned']['fingerprint']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": extra["failed"] == 0, "attempted": extra["attempted"],
                      "failed": extra["failed"], "metrics": record["metrics"]}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if not (SRC / "orthogame" / "__init__.py").is_file():
        print(f"error: no orthogame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads
        workloads.setup_probe(args.workload, args.seed, args.tiny)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
