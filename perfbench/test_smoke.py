"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(out_dir: Path, workload: str, trace: int, cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--tiny",
         "--out-dir", str(out_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(tmp_path, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(tmp_path, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        for m in SPEC[section]:
            reported = result["metrics"][m["name"]]
            assert reported["unit"] == m["unit"]
            assert math.isfinite(reported["value"])

    untraced, traced = [json.loads(line) for line in
                        (tmp_path / "results.jsonl").read_text().splitlines()]
    assert 0.0 <= untraced["ops_failed_frac"] <= 1.0
    assert {"cpu_count", "cpu_model", "python", "numpy", "click", "git_commit",
            "seed", "sizes"} <= set(untraced["environment"])
    assert (tmp_path / f"spans_{workload}_seed5.jsonl").stat().st_size > 0
    assert traced["traced_ops"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path / "out", "sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _write(path: Path, values: dict) -> None:
    lines = []
    for i in range(len(next(iter(values.values())))):
        metrics = {k: {"value": v[i], "unit": "ms"} for k, v in values.items()}
        lines.append(json.dumps({"workload": "sweep", "metrics": metrics}))
    path.write_text("\n".join(lines) + "\n")


def test_compare_verdicts(tmp_path, capsys):
    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    _write(base, {"op_p50_ms": [10.0, 10.1, 9.9, 10.0, 10.05],
                  "op_tail_ms": [10.0, 14.0, 7.0, 12.0, 9.0]})
    _write(head, {"op_p50_ms": [14.0, 14.1, 13.9, 14.0, 14.05],
                  "op_tail_ms": [10.0, 14.0, 7.0, 12.0, 9.0]})
    assert compare.main(base, head, HERE.parent / "BENCHMARK.json") == 1
    rows = {line.split()[1]: line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"op_p50_ms": "worse", "op_tail_ms": "unresolved"}
    assert compare.main(base, base, HERE.parent / "BENCHMARK.json") == 0
