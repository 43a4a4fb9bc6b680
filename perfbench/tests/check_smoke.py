"""Smoke test of the benchmark harness at tiny size.

Runs every workload of BENCHMARK.json with ``--smoke``, untraced and traced,
and checks that each declared metric is printed with its declared unit and
that the correctness gate ran. From the root of a checkout:

    python3 -m pytest -q perfbench/tests/check_smoke.py
    python3 perfbench/tests/check_smoke.py

The file name keeps it out of the repository's own test collection; it
takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "perfbench"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*BENCH["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_every_workload_prints_every_declared_metric():
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace, declared in (("0", BENCH["end_to_end"]), ("1", BENCH["per_layer"])):
            proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", trace, "--smoke")
            where = f"{workload} --trace {trace}"
            assert proc.returncode == 0, f"{where}: {proc.stdout[-1500:]}{proc.stderr[-1500:]}"
            lines = proc.stdout.strip().splitlines()
            assert any(line.startswith("gate passed:") for line in lines), where
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] is True and result["failed"] == 0, where
            assert result["attempted"] >= 1, where
            units = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == units, f"{where}: printed {got}, declared {units}"
            for name, metric in result["metrics"].items():
                value = metric["value"]
                assert isinstance(value, (int, float)) and value == value, (where, name)
                assert f"\n{name} " in "\n" + proc.stdout, (where, name)


def test_gate_rejects_a_perturbed_report():
    import reference

    def report(seed):
        return {"cells": [{"lambda": 1.5, "length": 128, "iterations": 50,
                           "methods": reference.simulate_cell(seed, 0, 1.5, 128, 50)}]}

    doc = report(3)
    assert reference.check_report(json.loads(json.dumps(doc)), 3, band=False) == []
    doc["cells"][0]["methods"]["RSAL"]["mean_hurst"] += 1e-6
    assert reference.check_report(doc, 3, band=False) != []
    doc = report(3)
    doc["cells"][0]["methods"]["DFA"]["failure_count"] = 1
    assert any("failure_count" in p for p in reference.check_report(doc, 3, band=False))
    doc = report(3)
    doc["cells"][0]["methods"]["RSAL"]["mean_hurst"] = 0.52
    assert any("outside" in p for p in reference.check_report(doc, 3, band=True))


def test_fails_without_hurstlab_sources():
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
