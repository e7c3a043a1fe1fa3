"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/selftest.py
(The file name keeps it out of the package's own test collection.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5  # no reference CSV is recorded for this seed, so only invariants apply


def _traced_tiny(name: str, tmp_path: Path):
    wl = workloads.build(name, SEED, tiny=True)
    runner = run.Runner(wl, SEED, tmp_path, time.monotonic() + run.DEADLINE_S, probe=False)
    out = runner.repetition(trace=True)
    return wl, runner, out


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workload_runs_end_to_end_and_passes_its_check(name, tmp_path):
    wl, runner, out = _traced_tiny(name, tmp_path)
    assert out["exit"] == 0
    assert out["absent"] == []
    assert runner.attempted == len(wl.expected_keys) > 0
    assert runner.failed == 0
    assert set(out["layers"]) == set(layertrace.METRICS)


def test_surface_sweep_key_rate_calls_are_points_times_levels(tmp_path):
    wl, _, out = _traced_tiny("surface_sweep", tmp_path)
    levels = wl.max_nesting - wl.min_nesting + 1
    assert out["layers"]["rates.key_rate.calls"] == len(wl.expected_keys) * levels


def test_threshold_table_makes_no_waiting_time_calls(tmp_path):
    _, _, out = _traced_tiny("threshold_table", tmp_path)
    assert out["layers"]["rates.z_n.calls"] == 0
    assert out["layers"]["rates.threshold.evals"] > 0


def test_distance_sweep_builds_one_encoded_pair(tmp_path):
    _, _, out = _traced_tiny("distance_sweep", tmp_path)
    assert out["layers"]["encgen.encoded_pair.distinct"] == 1
    assert out["layers"]["rates.z_n.distinct"] > 0


def test_tampered_row_fails_the_byte_check():
    wl = workloads.build("threshold_table", 0)
    text = check.ref_path(wl.name, 0).read_text(encoding="utf-8")
    assert check.check_output(wl, text, 0)[1] == 0
    lines = text.splitlines()
    lines[3] = lines[3].replace("0.99", "0.98", 1)
    attempted, failed, _ = check.check_output(wl, "\n".join(lines) + "\n", 0)
    assert (attempted, failed) == (len(wl.expected_keys), 1)


def test_row_breaking_an_invariant_fails_without_a_reference():
    wl = workloads.build("distance_sweep", 0)
    lines = check.ref_path(wl.name, 0).read_text(encoding="utf-8").splitlines()
    no_ref_seed = 4242
    assert not check.ref_path(wl.name, no_ref_seed).exists()
    assert check.check_output(wl, "\n".join(lines), no_ref_seed)[1] == 0
    cells = lines[2].split(",")
    cells[-1] = str(float(cells[-1]) * 1.001)  # K no longer equals R * r_inf / 6
    tampered = [*lines[:2], ",".join(cells), *lines[3:]]
    assert check.check_output(wl, "\n".join(tampered), no_ref_seed)[1] == 1
    assert check.check_output(wl, "\n".join(lines[:-1]), no_ref_seed)[1] == 1  # missing row


def test_threshold_rows_must_not_decrease_in_r():
    wl = workloads.build("threshold_table", 0)
    header, first, second, *rest = check.ref_path(wl.name, 0).read_text(encoding="utf-8").splitlines()
    a, b = first.split(","), second.split(",")
    swapped = [",".join(a[:2] + b[2:]), ",".join(b[:2] + a[2:])]  # r=1 gets r=3's thresholds
    assert check.check_output(wl, "\n".join([header, *swapped, *rest]), 4242)[1] == 1


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_seed_moves_inputs_but_not_size(name):
    base = workloads.build(name, 0)
    shapes = set()
    for seed in range(1, 40):
        wl = workloads.build(name, seed)
        assert wl == workloads.build(name, seed)
        shapes.add((len(wl.argv), len(wl.expected_keys), wl.max_nesting))
    assert shapes == {(len(base.argv), len(base.expected_keys), base.max_nesting)}
    assert workloads.build(name, 1).argv != base.argv


def test_surface_grid_always_holds_the_ideal_corner():
    for seed in range(40):
        assert (1.0, 1.0) in workloads.build("surface_sweep", seed).expected_keys


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)


def test_runner_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "threshold_table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
