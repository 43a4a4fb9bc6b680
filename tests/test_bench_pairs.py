"""The summary arithmetic of ``scripts/bench_pairs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [(m["name"], m["better"])
           for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _run(seed, side, minflt=1000, **values):
    return {"seed": seed, "side": side, "minflt": minflt, "attempted": 10, "failed": 0,
            "correct": True, **values}


def test_summary_of_a_committed_record_is_reproduced():
    # BENCH_25.json's summaries were computed from its runs before they were
    # rounded to 4 decimals, so a quartile may differ in its last digit; its
    # runs carry no fault counts, so every run gets the same one
    record = json.loads((ROOT / "BENCH_25.json").read_text())
    for name, workload in record["workloads"].items():
        runs = [{**run, "minflt": 1} for run in workload["runs"]]
        got = bench_pairs.summarise(runs, METRICS)
        assert got.pop("heap_state_pairs") == [], name
        want = workload["summary"]
        assert got.keys() == want.keys(), name
        for key, value in want.items():
            if isinstance(value, dict):
                assert got[key] == pytest.approx(value, abs=1.5e-4), (name, key)
            else:
                assert got[key] == value, (name, key)


def test_summary_arithmetic():
    parent = [10.0, 12.0, 11.0, 13.0]
    change = [11.0, 11.0, 13.0, 15.0]
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        runs += [_run(i, "parent", series_per_s=p, latency_p50_ms=p),
                 _run(i, "change", series_per_s=c, latency_p50_ms=c)]
    summary = bench_pairs.summarise(
        runs, [("series_per_s", "higher"), ("latency_p50_ms", "lower")])
    assert summary["pairs"] == 4 and summary["seeds"] == [0, 1, 2, 3]
    higher = summary["series_per_s"]
    # parent sorted 10, 11, 12, 13: q1 10.75, median 11.5, q3 12.25
    assert (higher["parent_q1"], higher["parent_median"], higher["parent_q3"]) == (10.75, 11.5, 12.25)
    assert (higher["change_q1"], higher["change_median"], higher["change_q3"]) == (11.0, 12.0, 13.5)
    assert higher["change_pct"] == pytest.approx(4.35)
    # ratios 1.1, 0.9167, 1.1818, 1.1538: median (1.1 + 1.1538) / 2
    assert higher["median_pair_ratio"] == pytest.approx(1.1269, abs=1e-4)
    assert higher["pairs_change_better"] == 3
    assert higher["medians_differ_more_than_parent_iqr"] is False  # 0.5 against 1.5
    assert summary["latency_p50_ms"]["pairs_change_better"] == 1
    assert summary["heap_state_pairs"] == []
    assert (summary["failed"], summary["attempted"], summary["all_correct"]) == (0, 80, True)


def test_pairs_in_different_heap_states_are_flagged():
    assert bench_pairs.FAULT_FACTOR == 2.0
    runs = [_run(0, "parent", 1000, series_per_s=1.0), _run(0, "change", 2000, series_per_s=1.0),
            _run(1, "parent", 1000, series_per_s=1.0), _run(1, "change", 2001, series_per_s=1.0),
            _run(2, "change", 5000, series_per_s=1.0), _run(2, "parent", 1000, series_per_s=1.0),
            _run(3, "parent", 1000, series_per_s=1.0)]  # no partner: not a pair
    summary = bench_pairs.summarise(runs, [("series_per_s", "higher")])
    assert summary["pairs"] == 3
    assert summary["heap_state_pairs"] == [1, 2]
    assert summary["series_per_s"]["pairs_change_better"] == 0


def test_launch_dirs_run_the_same_pairs_from_each(tmp_path, monkeypatch, capsys):
    # canned runs: the parent faults on every call in the longer launch
    # directory only, as a parent in glibc's trimming heap state would
    short, long_ = tmp_path / "s", tmp_path / ("l" * 100)
    calls = []

    def export(rev, dest):
        dest.mkdir()
        return f"commit-{rev}"

    def run_once(root, workload, seed, seconds):
        calls.append((root.parent.name[:1], root.name, seed))
        trimmed = root.parent == long_ and root.name == "p"
        return {"setup_s": 0.1, "series_per_s": 100.0 + seed + (root.name == "c"),
                "latency_p50_ms": 3.0, "latency_p90_ms": 4.0, "peak_rss_mib": 40.0,
                "attempted": 5, "failed": 0, "correct": True, "timed_calls": 10,
                "minflt": 9000 if trimmed else 1000}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["P", "C", "--workload", "mc-long", "--pairs", "3", "--seed-base",
                             "70", "--launch-dirs", f"{short},{long_}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # pair i in every launch before pair i + 1, alternating which side runs first
    assert calls == [("s", "p", 70), ("s", "c", 70), ("l", "p", 70), ("l", "c", 70),
                     ("s", "c", 71), ("s", "p", 71), ("l", "c", 71), ("l", "p", 71),
                     ("s", "p", 72), ("s", "c", 72), ("l", "p", 72), ("l", "c", 72)]
    assert (doc["parent_commit"], doc["change_commit"]) == ("commit-P", "commit-C")
    assert list(doc["workloads"]) == ["mc-long.launch1", "mc-long.launch2"]
    first, second = doc["workloads"].values()
    assert f"at {len(str(short / 'p'))}-character paths" in first["launch"]
    assert f"at {len(str(long_ / 'p'))}-character paths" in second["launch"]
    for launch in (first, second):
        assert [run["seed"] for run in launch["runs"]] == [70, 70, 71, 71, 72, 72]
        summary = launch["summary"]
        assert summary.keys() == {"pairs", "seeds", *(name for name, _ in METRICS),
                                  "heap_state_pairs", "failed", "attempted", "all_correct"}
        assert summary["seeds"] == [70, 71, 72]
        assert summary["series_per_s"]["pairs_change_better"] == 3
    assert first["summary"]["heap_state_pairs"] == []
    assert second["summary"]["heap_state_pairs"] == [70, 71, 72]
    assert not short.exists() and not long_.exists()


def test_launch_dirs_that_exist_are_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(["P", "--workload", "mc-long", "--pairs", "1", "--seed-base", "1",
                          "--launch-dirs", f"{tmp_path / 'new'},{tmp_path}"])
    assert excinfo.value.code == 2
    assert "do not exist yet" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
