"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

The smoke test runs all three workloads at a tiny size, traced and
untraced, and requires every output check to pass and a deliberately
perturbed detection to fail its check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402


def test_percentile_interpolates():
    assert common.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert common.percentile([5.0], 99) == 5.0


def test_per_unit_median_takes_each_unit_over_its_repeats():
    repeats = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 0.5, 4.0]]
    assert common.per_unit_median(repeats) == [3.0, 1.0, 5.0]
    try:
        common.per_unit_median([[1.0], [1.0, 2.0]])
    except ValueError:
        pass
    else:
        raise AssertionError("repeats of different lengths were accepted")


def test_reference_scales_a_unit_by_the_loop_times_around_it(monkeypatch):
    loop_times = iter([0.03, 0.06, 0.015])
    monkeypatch.setattr(common, "loop_seconds", lambda: next(loop_times))
    reference = common.Reference()
    # A unit between loops of 30 and 60 ms ran at 2/3 of the reference speed.
    assert abs(reference.scale(3.0) - 2.0) < 1e-12
    assert abs(reference.scale(1.0) - common.REFERENCE_S / 0.0375) < 1e-12
    assert reference.raw == [3.0, 1.0]


def test_ladder_search_finds_highest_holding_rung():
    rungs = common.ladder()
    for capacity in (50.0, 300.0, 551.6, 2000.0, 1e9):
        expected = max([rate for rate in rungs if rate <= capacity],
                       default=common.LADDER_BASE_EPS)
        for start in (100.0, 450.0, 3000.0):
            found = common.highest_rung(lambda rate: rate <= capacity, start, 4)
            assert found == expected, (capacity, start)


def test_backlog_growth_reads_a_growing_latency_and_ignores_spikes():
    dues = [0.1 * k for k in range(60)]
    steady = [20.0] * 60
    steady[5] = steady[55] = 400.0
    assert abs(common.backlog_growth(dues, steady)) < 1e-9
    assert common.rung_holds(dues, steady)
    growing = [20.0 + 1e3 * 0.2 * due for due in dues]
    assert abs(common.backlog_growth(dues, growing) - 0.2) < 1e-9
    assert not common.rung_holds(dues, growing)


def test_smoke_mode_checks_and_catches_a_perturbed_detection():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-4000:]
    results = [json.loads(line) for line in completed.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == 6
    assert all(result["correct"] for result in results)


def test_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    completed = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "replay-inorder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
