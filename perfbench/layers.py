"""Per-layer metrics: traced spans of a workload plus standalone layer probes.

The names here are the `per_layer` names of BENCHMARK.json.  Span-based
metrics are per benchmark operation or per call (mean); probe metrics
are medians of repeated untraced calls into one module on the bundled
reference game (3, 3, 5, 1).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

from workloads import ROOT, SRC

PROBE_STAKES = (3.0, 3.0, 5.0, 1.0)
IMPORT_RUNS = 5


def span_hooks() -> dict:
    """Counters recorded at the traced boundaries, from each call's result."""
    import numpy as np

    def search(tracer, result):
        tracer.count("candidates", len(result))
        tracer.count("verified", len(result.verified))

    def grid(tracer, result):
        tracer.count("grid_points", np.size(result))

    return {"equilibrium.find_equilibria": search, "quantum.payoff_grid": grid}


def from_spans(tracer, untraced_op_s: float) -> dict:
    """Metrics of the traced operations; `untraced_op_s` is the mean op time untraced."""
    stats = tracer.stats
    ops = tracer.ops

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    def self_per_call(*names):
        n = calls(*names)
        return sum(stats[m].self_time for m in names if m in stats) / n if n else 0.0

    candidates = tracer.counters.get("candidates", 0.0)
    points = tracer.counters.get("grid_points", 0.0)
    grid_time = stats["quantum.payoff_grid"].total if "quantum.payoff_grid" in stats else 0.0
    best = ("equilibrium.best_response_alice", "equilibrium.best_response_bob")
    traced_op_s = stats["op"].total / ops
    return {
        "equilibrium.find_equilibria.self_ms": (self_per_call("equilibrium.find_equilibria") * 1e3, "ms"),
        "equilibrium.best_response.calls_per_op": (calls(*best) / ops, "count"),
        "equilibrium.best_response.self_us": (self_per_call(*best) * 1e6, "us"),
        "equilibrium.verify_equilibrium.calls_per_op": (calls("equilibrium.verify_equilibrium") / ops, "count"),
        "equilibrium.verify_equilibrium.self_ms": (self_per_call("equilibrium.verify_equilibrium") * 1e3, "ms"),
        "equilibrium.candidates": (candidates, "count"),
        "equilibrium.candidates_per_op": (candidates / ops, "count"),
        "equilibrium.verified_ratio": (tracer.counters.get("verified", 0.0) / candidates
                                       if candidates else 0.0, "ratio"),
        "equilibrium.reaction_curves.self_ms": (self_per_call("equilibrium.reaction_curves") * 1e3, "ms"),
        "quantum.payoff_grid.calls_per_op": (calls("quantum.payoff_grid") / ops, "count"),
        "quantum.payoff_grid.points_per_s": (points / grid_time if grid_time else 0.0, "1/s"),
        "quantum.payoff_grid.bytes_computed": (points * 8 / ops, "computed_B/op"),
        "quantum.amplitudes.calls_per_op": (calls("quantum.amplitudes") / ops, "count"),
        "quantum.payoff_operator.self_us": (self_per_call("quantum.payoff_operator") * 1e6, "us"),
        "quantum.expectation.self_us": (self_per_call("quantum.expectation") * 1e6, "us"),
        "angles.calls_per_op": (calls("angles.signed_delta", "angles.wrap_half_turn",
                                      "angles.wrapped_distance") / ops, "count"),
        "trace.overhead_frac": (traced_op_s / untraced_op_s - 1.0, "ratio"),
    }


def _median_time(fn, repeat: int, number: int = 1) -> float:
    """Median over `repeat` batches of the mean time of one call, in seconds."""
    fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def _import_times() -> tuple[float, float]:
    """Cumulative `-X importtime` of orthogame.cli and of numpy, in ms, median of runs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import orthogame.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing orthogame.cli failed: {proc.stderr[-500:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e3
                except ValueError:
                    continue
        cli_ms.append(cumulative["orthogame.cli"])
        numpy_ms.append(cumulative["numpy"])
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def probes() -> dict:
    """Untraced timings of the modules no workload loop calls in-process."""
    from click.testing import CliRunner
    from orthogame import classical, cli, golden, lattice

    cli_import, numpy_import = _import_times()
    a, b, c, d = PROBE_STAKES
    args = ["quantum", "solve", "-p", "3,3,5,1", "--theta-a", "10", "--theta-b", "70"]
    runner = CliRunner()
    x, y, _ = classical.solve_closed_form(a, b, c, d)
    matrix = classical.PayoffMatrix.diagonal_game(a, b, c, d)
    metrics = {
        "cli.import_ms": (cli_import, "ms"),
        "cli.import_numpy_ms": (numpy_import, "ms"),
        "cli.command_ms": (_median_time(lambda: runner.invoke(cli.main, args), 7) * 1e3, "ms"),
    }
    for example in ("classical", "1", "2", "3"):
        metrics[f"golden.run_example.{example}.ms"] = (
            _median_time(lambda: golden.run_example(example), 5) * 1e3, "ms")
    metrics["classical.solve_closed_form.us"] = (
        _median_time(lambda: classical.solve_closed_form(a, b, c, d), 5, 200) * 1e6, "us")
    metrics["classical.verify_nash.us"] = (
        _median_time(lambda: classical.verify_nash(x, y, matrix), 5, 200) * 1e6, "us")
    metrics["lattice.audit_laws.ms"] = (_median_time(lattice.audit_laws, 5) * 1e3, "ms")
    return metrics
