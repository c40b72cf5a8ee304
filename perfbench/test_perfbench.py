"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import Mirror  # noqa: E402

SMALL = 0.002


def test_mirror_answers_paths_through_and_around_the_core():
    # 0 -> 1 <-> 2 -> 3 (venue at .5,.5); 4 -> 5 (venue at .9,.9); 2 is
    # the hub, so {1, 2} is the core.
    points = [None, None, None, (0.5, 0.5), None, (0.9, 0.9)]
    edges = [(0, 1), (1, 2), (2, 1), (2, 3), (4, 5), (2, 0)]
    mirror = Mirror(6, edges, points)
    inside, elsewhere = (0.4, 0.4, 0.6, 0.6), (0.8, 0.8, 1.0, 1.0)
    assert mirror.reaches(0, inside)
    assert not mirror.reaches(0, elsewhere)
    assert mirror.reaches(4, elsewhere)
    assert not mirror.reaches(4, inside)
    mirror.add_edge(3, 4)  # the closure grows incrementally
    assert mirror.reaches(0, elsewhere)
    mirror.remove_edge(2, 3)  # a removal forces a recomputation
    assert not mirror.reaches(0, inside)
    assert not mirror.reaches(0, elsewhere)


def test_smoke_prints_every_metric_with_its_unit():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(" ok") == 6


def test_check_output_names_a_missing_metric_and_a_wrong_unit():
    spec = run.load_spec()
    metrics = spec["end_to_end"]
    output = {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                    for m in metrics},
    }
    assert run.check_output(output, metrics) == []
    del output["metrics"]["setup_s"]
    output["metrics"]["index_mb"]["unit"] = "kB"
    problems = run.check_output(output, metrics)
    assert any("metric names differ" in p for p in problems)
    assert any(p.startswith("index_mb: unit") for p in problems)


def _flip(monkeypatch, owner, attr):
    original = getattr(owner, attr)

    def flipped(self, *args, **kwargs):
        return not original(self, *args, **kwargs)

    monkeypatch.setattr(owner, attr, flipped)


def test_a_flipped_method_answer_counts_as_failed(monkeypatch):
    from repro.core import SocReach

    clean = workloads.run_paper_methods(1, 0.5, False, scale=SMALL,
                                        per_class=2)
    assert clean.attempted > 0 and clean.failed == 0
    _flip(monkeypatch, SocReach, "query")
    flipped = workloads.run_paper_methods(1, 0.5, False, scale=SMALL,
                                          per_class=2)
    assert 0 < flipped.failed <= flipped.attempted


def test_a_flipped_sharded_read_counts_as_failed(monkeypatch):
    from repro.shard import ShardedDatabase

    _flip(monkeypatch, ShardedDatabase, "range_reach")
    result = workloads.run_sharded_mixed(1, 0.5, False, scale=SMALL)
    reads = result.attempted * workloads.SHARDED_MIX.count("S") // len(
        workloads.SHARDED_MIX.pattern)
    assert result.failed == reads > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_http_mixed_reports_the_keep_alive_gap(trace):
    result = workloads.run_http_mixed(1, 2, bool(trace), scale=SMALL)
    assert result.failed == 0
    if trace:
        gap = result.metrics["http.outside_server_ms"]
        assert gap > 0
        assert result.metrics["serve.server_ms"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_methods",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
