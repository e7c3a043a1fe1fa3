import ast
import concurrent.futures
import os
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repeater_keyrate
from repeater_keyrate import cli
from repeater_keyrate.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_bounded(*argv):
    """The CLI in a child process with a 60 s timeout and a 4 GiB address
    space, so an input that loops or grows without bound fails the test
    instead of hanging it or exhausting memory."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    src = Path(repeater_keyrate.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "repeater_keyrate.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60, preexec_fn=limit_memory,
    )


# The modules that a default command leaves unloaded: numpy and the
# dataclasses, argparse and gettext it once imported, the Pauli-frame core,
# and the modules of the opt-in inputs, the N = 0 decode rows and the
# config reader with the help screen.
FRAMES, REPEATERLESS, CLIEXTRA = (
    "repeater_keyrate.frames", "repeater_keyrate.repeaterless", "repeater_keyrate.cliextra")
WATCHED = ("numpy", "dataclasses", "argparse", "gettext", FRAMES, REPEATERLESS, CLIEXTRA)
# stands for the path of a config file in a TestImports row
CONFIG_FILE = "<config file>"


def run_child(*argv):
    """The CLI in a fresh interpreter: (exit code, stdout, which of
    :data:`WATCHED` it loaded); ``--help`` exits through SystemExit."""
    src = Path(repeater_keyrate.__file__).resolve().parents[1]
    probe = (
        "import sys\nfrom repeater_keyrate.cli import main\n"
        "try:\n    code = main(sys.argv[1:])\nexcept SystemExit as exc:\n    code = exc.code\n"
        f"print('loaded:', *(m for m in {WATCHED!r} if m in sys.modules)); sys.exit(code)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    *out, marker = result.stdout.splitlines() or [""]
    return result.returncode, "\n".join(out), set(marker.split()[1:])


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


class TestKeyrate:
    def test_realistic_point(self, capsys):
        code, out, _ = run(
            capsys, "keyrate", "--distance", "600", "--fidelity", "0.98",
            "--gate-quality", "0.992", "--optimize",
        )
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["K_per_mem_per_s"]) > 0
        assert int(kv["N"]) >= 1
        assert kv["M"] == "6"

    def test_ideal_point_reports_unit_fraction(self, capsys):
        code, out, _ = run(
            capsys, "keyrate", "--fidelity", "1", "--gate-quality", "1",
            "--distance", "100", "--nesting", "1",
        )
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["r_inf"]) == pytest.approx(1.0, abs=1e-9)
        assert float(kv["p_s"]) == pytest.approx(1.0, abs=1e-9)

    def test_low_fidelity_no_key(self, capsys):
        code, out, _ = run(
            capsys, "keyrate", "--fidelity", "0.90", "--gate-quality", "0.992",
            "--distance", "600", "--optimize",
        )
        assert code == 0
        assert float(parse_kv(out)["K_per_mem_per_s"]) == 0.0

    def test_deterministic_output(self, capsys):
        args = ("keyrate", "--distance", "300", "--fidelity", "0.99",
                "--beta", "0.004", "--nesting", "2")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    # stdout and --output CSV of one fixed-N and one --optimize point, byte for byte
    _PINNED = [
        (("--distance", "600", "--fidelity", "0.999", "--gate-quality", "0.998", "--nesting", "3"),
         "distance_km=600\nF0=0.999\np_G=0.998\nbeta=0.002\nN=3\nstations=7\nL0_km=75\n"
         "P0=0.05308844442\nZ=69.72065885\nR_per_s=19.12393479\np_s=0.9724203168\n"
         "P_r=0.8222013168\neX=0.1103683812\neY=0.1103683812\neZ=0.1095875563\n"
         "r_inf=0.09171220916\nK_per_mem_per_s=0.2923163846\nM=6\n",
         "600,0.999,0.998,3,75,0.05308844442,69.72065885,19.12393479,0.1103683812,"
         "0.1103683812,0.1095875563,0.09171220916,0.2923163846\n"),
        (("--distance", "600", "--fidelity", "0.99", "--gate-quality", "0.995", "--optimize"),
         "distance_km=600\nF0=0.99\np_G=0.995\nbeta=0.005\nN=1\nstations=1\nL0_km=300\n"
         "P0=7.943282347e-06\nZ=308436.0009\nR_per_s=0.001080721227\np_s=0.898773795\n"
         "P_r=0.898773795\neX=0.06689510711\neY=0.06689510711\neZ=0.05814474045\n"
         "r_inf=0.3929347599\nK_per_mem_per_s=7.077548932e-05\nM=6\n",
         "600,0.99,0.995,1,300,7.943282347e-06,308436.0009,0.001080721227,0.06689510711,"
         "0.06689510711,0.05814474045,0.3929347599,7.077548932e-05\n"),
    ]

    @pytest.mark.parametrize("argv,stdout,row", _PINNED, ids=["nesting", "optimize"])
    def test_pinned_output(self, capsys, tmp_path, argv, stdout, row):
        path = tmp_path / "point.csv"
        code, out, _ = run(capsys, "keyrate", *argv, "--output", str(path))
        assert code == 0
        assert out == stdout
        header = "L_km,F0,p_G,N_opt,L0_km,P0,Z,R_per_s,eX,eY,eZ,r_inf,K_per_mem_per_s\n"
        assert path.read_text(encoding="utf-8") == header + row

    def test_stations_flag(self, capsys):
        code, out, _ = run(
            capsys, "keyrate", "--distance", "300", "--fidelity", "0.99",
            "--beta", "0.004", "--stations", "3",
        )
        assert code == 0
        assert parse_kv(out)["N"] == "2"

    def test_missing_fidelity_names_field(self, capsys):
        code, _, err = run(
            capsys, "keyrate", "--distance", "100", "--gate-quality", "1", "--nesting", "1"
        )
        assert code == 2
        assert "--fidelity" in err

    def test_conflicting_noise_flags(self, capsys):
        code, _, err = run(
            capsys, "keyrate", "--distance", "100", "--fidelity", "1",
            "--gate-quality", "0.99", "--beta", "0.01", "--nesting", "1",
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_invalid_stations(self, capsys):
        code, _, err = run(
            capsys, "keyrate", "--distance", "100", "--fidelity", "1",
            "--gate-quality", "1", "--stations", "5",
        )
        assert code == 2
        assert "--stations" in err

    def test_underflowed_p0_reports_zero_key(self, capsys):
        code, out, err = run(
            capsys, "keyrate", "--distance", "100000", "--nesting", "1",
            "--fidelity", "0.99", "--gate-quality", "0.99",
        )
        assert code == 0, err
        kv = parse_kv(out)
        assert kv["K_per_mem_per_s"] == "0"
        assert kv["P0"] == "0"
        assert kv["Z"] == "inf"

    def test_deep_nesting_finishes(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "keyrate", "--distance", "600", "--nesting", "14",
            "--fidelity", "0.99", "--gate-quality", "0.99",
        )
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert parse_kv(out)["N"] == "14"

    @pytest.mark.parametrize("flag,value", [
        ("--nesting", "21"), ("--stations", str(2**21 - 1)), ("--max-nesting", "21"),
    ])
    def test_nesting_above_bound_rejected(self, capsys, flag, value):
        extra = ("--optimize",) if flag == "--max-nesting" else ()
        code, _, err = run(
            capsys, "keyrate", "--distance", "600", "--fidelity", "0.99",
            "--gate-quality", "0.99", flag, value, *extra,
        )
        assert code == 2
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("argv", [
        ("--nesting", "-1"),
        ("--nesting", "1", "--distance", "nan"),
        ("--nesting", "1", "--speed", "nan"),
        ("--nesting", "1", "--alpha", "inf"),
        ("--nesting", "1", "--max-nesting", "3"),
        ("--nesting", "1", "--min-nesting", "0"),
    ])
    def test_invalid_values_rejected(self, capsys, argv):
        code, _, err = run(
            capsys, "keyrate", "--distance", "600", "--fidelity", "0.99",
            "--gate-quality", "0.99", *argv,
        )
        assert code == 2
        assert err.startswith("error:") and argv[-2] in err

    @pytest.mark.parametrize("distance,nesting", [("1e-320", "1"), ("1e-300", "20")])
    def test_segment_too_short_to_time_rejected(self, capsys, distance, nesting):
        # T0 = L0/c is 0, or 1/(2 T0) overflows
        code, out, err = run(
            capsys, "keyrate", "--distance", distance, "--nesting", nesting,
            "--fidelity", "0.99", "--gate-quality", "0.99",
        )
        assert code == 2
        assert err.startswith("error:") and "too short" in err
        assert out == ""

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        code, _, _ = run(
            capsys, "keyrate", "--distance", "300", "--fidelity", "0.99",
            "--beta", "0.004", "--nesting", "2", "--output", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("L_km,F0,p_G,N_opt")
        assert len(lines) == 2


class TestThreshold:
    def test_default_table_runs(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(capsys, "threshold", "--stations", "1,7", "--output", str(path))
        assert code == 0
        assert "0.983" in out and "0.944" in out  # single-station row
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r,N,p_G_min,F_0_min,p_G_min_full,F_0_min_full"
        assert len(lines) == 3

    def test_default_table_is_pinned(self, capsys, tmp_path):
        # without --stations: the seven station counts of the published table
        path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "threshold", "--output", str(path))
        assert code == 0
        assert path.read_bytes() == (
            b"r,N,p_G_min,F_0_min,p_G_min_full,F_0_min_full\n"
            b"1,1,0.983,0.944,0.9833007812,0.9436523438\n"
            b"3,2,0.991,0.972,0.9913085938,0.9715820312\n"
            b"7,3,0.994,0.981,0.9938476563,0.9809570312\n"
            b"15,4,0.995,0.986,0.9954101562,0.9858398438\n"
            b"31,5,0.996,0.989,0.9961914063,0.9885742187\n"
            b"63,6,0.997,0.991,0.9967773438,0.9905273437\n"
            b"127,7,0.997,0.992,0.9973632812,0.9918945312\n"
        )

    def test_non_chain_station_count_rejected(self, capsys):
        code, _, err = run(capsys, "threshold", "--stations", "2")
        assert code == 2
        assert "2^N - 1" in err

    @pytest.mark.parametrize("argv", [
        ("--stations", str(2**21 - 1)),
        ("--stations", "1", "--tolerance", "0"),
        # flags threshold does not read
        ("--stations", "1", "--fidelity", "2"),
        ("--stations", "1", "--gate-quality", "0.99"),
        ("--stations", "1", "--beta", "7"),
        ("--stations", "1", "--alpha", "-1"),
        ("--stations", "1", "--speed", "1"),
        ("--stations", "1", "--t0", "bogus"),
        ("--stations", "1", "--min-nesting", "1"),
        ("--stations", "1", "--max-nesting", "2"),
    ])
    def test_out_of_range_values_rejected(self, capsys, argv):
        code, _, err = run(capsys, "threshold", *argv)
        assert code == 2
        assert err.startswith("error:")


class TestSweep:
    def test_distance_sweep_header_and_rows(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--fidelity", "0.98", "--gate-quality", "0.992",
            "--distance-range", "100:300:100",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "L_km,N_opt,L0_km,P0,Z,R_per_s,eX,eY,eZ,r_inf,K_per_mem_per_s"
        assert len(lines) == 4

    def test_surface_sweep_marks_zero_cells(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--distance", "600",
            "--fidelity-range", "0.90:0.98:0.08",
            "--gate-quality-range", "0.992:0.992:1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "F0,pG,K_per_mem_per_s,N_opt"
        cells = {line.split(",")[0]: float(line.split(",")[2]) for line in lines[1:]}
        assert cells["0.9"] == 0.0
        assert cells["0.98"] > 0.0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--fidelity", "0.98", "--gate-quality", "0.992",
                "--distance-range", "100:500:200")
        run(capsys, *args, "--output", str(f1))
        run(capsys, *args, "--output", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_parallel_matches_serial(self, capsys, tmp_path):
        f1, f2 = tmp_path / "serial.csv", tmp_path / "par.csv"
        args = ("sweep", "--fidelity", "0.98", "--gate-quality", "0.992",
                "--distance-range", "100:400:100")
        run(capsys, *args, "--output", str(f1))
        run(capsys, *args, "--jobs", "2", "--output", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_empty_range_rejected(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--fidelity", "0.98", "--gate-quality", "0.992",
            "--distance-range", "500:100:50",
        )
        assert code == 2
        assert "empty" in err

    def test_underflowed_distance_sweep(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--distance-range", "100000:100000:1", "--fidelity", "0.99",
            "--gate-quality", "0.99", "--max-nesting", "10",
        )
        assert code == 0, err
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) > 0.0  # P0 of the chosen level
        assert row[-1] == "0"

    def test_segment_too_short_to_time_rejected(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--distance-range", "1e-300:1:1", "--fidelity", "0.99",
            "--gate-quality", "0.99", "--max-nesting", "20",
        )
        assert code == 2
        assert err.startswith("error:") and "too short" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("--distance-range", "600:600:100", "--fidelity", "2", "--gate-quality", "0.99"),
        ("--distance-range", "600:600:100", "--fidelity", "0.99", "--gate-quality", "0.99",
         "--t0", "bogus"),
        ("--distance-range", "600:600:100", "--fidelity", "0.99", "--gate-quality", "0.99",
         "--alpha", "-1"),
        ("--distance", "600", "--fidelity-range", "0.99:1.01:0.01",
         "--gate-quality-range", "0.99:1:0.01"),
        ("--distance", "600", "--fidelity-range", "0.99:1:0.01",
         "--gate-quality-range=-0.01:0.01:0.01"),
        ("--distance", "600", "--fidelity-range", "0.99:1:0.01",
         "--gate-quality-range", "0.99:1:0.01", "--max-nesting", "21"),
    ])
    def test_invalid_scalars_rejected(self, capsys, argv):
        code, _, err = run(capsys, "sweep", "--max-nesting", "2", *argv)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("--distance", "600", "--fidelity-range", "0.99:1:0.01",
         "--gate-quality-range", "0.99:1:0.01", "--fidelity", "0.99"),
        ("--distance", "600", "--fidelity-range", "0.99:1:0.01",
         "--gate-quality-range", "0.99:1:0.01", "--beta", "0.01"),
        ("--distance", "600", "--fidelity-range", "0.99:1:0.01",
         "--gate-quality-range", "0.99:1:0.01", "--gate-quality", "0.99"),
        ("--distance-range", "600:600:100", "--fidelity", "0.99", "--gate-quality", "0.99",
         "--distance", "600"),
    ])
    def test_other_mode_flags_rejected(self, capsys, argv):
        code, _, err = run(capsys, "sweep", "--max-nesting", "2", *argv)
        assert code == 2
        assert err.startswith("error:") and argv[-2] in err

    @pytest.mark.parametrize("jobs", ["0", "-3", "cpu_count+1"])
    def test_jobs_out_of_range_rejected(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            pytest.fail("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        if jobs == "cpu_count+1":
            jobs = str((os.cpu_count() or 1) + 1)
        code, _, err = run(
            capsys, "sweep", "--distance-range", "100:200:100", "--fidelity", "0.99",
            "--gate-quality", "0.99", "--max-nesting", "2", "--jobs", jobs,
        )
        assert code == 2
        assert err.startswith("error:") and "--jobs" in err

    @pytest.mark.parametrize("argv", [
        ("--distance-range", "100:nan:1", "--fidelity", "0.99", "--gate-quality", "0.99"),
        ("--distance-range", "1e308:inf:1e308", "--fidelity", "0.99", "--gate-quality", "0.99"),
        ("--distance-range", "1:1e12:1", "--fidelity", "0.99", "--gate-quality", "0.99"),
        # 10001 x 10001 points, each axis within the per-range bound
        ("--distance", "600", "--fidelity-range", "0:1:1e-4", "--gate-quality-range", "0:1:1e-4"),
    ])
    def test_unbounded_ranges_rejected(self, argv):
        result = run_bounded("sweep", "--max-nesting", "2", *argv)
        assert result.returncode == 2
        assert result.stderr.startswith("error:") and "Traceback" not in result.stderr

    def test_modeless_invocation_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--fidelity", "0.98", "--gate-quality", "0.992")
        assert code == 2
        assert "distance-range" in err


class TestCost:
    def test_fig8_defaults(self, capsys):
        code, out, _ = run(capsys, "cost", "--paper-fig8-defaults", "--distance", "2000")
        assert code == 0
        assert "N*=" in out and "L0*=" in out

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "cost.csv"
        code, _, _ = run(
            capsys, "cost", "--paper-fig8-defaults",
            "--distance-range", "500:1500:500", "--output", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "L_km,C,C_prime,N_opt,L0_km"
        assert len(lines) == 4

    def test_fig8_defaults_validate_overrides(self, capsys):
        code, _, err = run(capsys, "cost", "--paper-fig8-defaults", "--beta", "3")
        assert code == 2
        assert err.startswith("error:") and "--beta" in err

    def test_distance_with_distance_range_rejected(self, capsys):
        code, _, err = run(
            capsys, "cost", "--paper-fig8-defaults", "--distance-range", "500:1500:500",
            "--distance", "1000",
        )
        assert code == 2
        assert err.startswith("error:") and "--distance" in err

    def test_segment_too_short_to_time_rejected(self, capsys):
        code, out, err = run(
            capsys, "cost", "--distance", "1e-300", "--fidelity", "0.99",
            "--gate-quality", "0.99", "--max-nesting", "20",
        )
        assert code == 2
        assert err.startswith("error:") and "too short" in err
        assert out == ""

    def test_max_nesting_widening_never_increases_cost(self, capsys):
        _, out_narrow, _ = run(
            capsys, "cost", "--paper-fig8-defaults", "--distance", "1000", "--max-nesting", "4"
        )
        _, out_wide, _ = run(
            capsys, "cost", "--paper-fig8-defaults", "--distance", "1000", "--max-nesting", "8"
        )
        c_narrow = float(out_narrow.split("C=")[1].split(" ")[0])
        c_wide = float(out_wide.split("C=")[1].split(" ")[0])
        assert c_wide <= c_narrow + 1e-9


class TestDefaultNestingRange:
    """Without nesting flags, --optimize, sweep and cost scan N = 1...10."""

    @pytest.mark.parametrize("point, flag, n_default, n_flagged", [
        # perfect devices gain from every level: the deepest one wins
        (("600", "1", "1"), ("--max-nesting", "11"), "10", "11"),
        # a short noisy link is best without a repeater, which the default leaves out
        (("20", "0.99", "0.99"), ("--min-nesting", "0"), "1", "0"),
    ])
    def test_keyrate_optimum_lies_in_one_to_ten(self, capsys, point, flag, n_default, n_flagged):
        distance, fidelity, gate_quality = point
        argv = ("keyrate", "--distance", distance, "--fidelity", fidelity,
                "--gate-quality", gate_quality, "--optimize")
        assert parse_kv(run(capsys, *argv)[1])["N"] == n_default
        assert parse_kv(run(capsys, *argv, *flag)[1])["N"] == n_flagged

    @pytest.mark.parametrize("argv", [
        # its optima are N = 1 at (0.99, 0.99) and N = 10 at (1, 1)
        ("sweep", "--distance", "20", "--fidelity-range", "0.99:1:0.01",
         "--gate-quality-range", "0.99:1:0.01"),
        # N* = 0 when scanned
        ("cost", "--distance-range", "1:20:19", "--fidelity", "0.99", "--gate-quality", "0.99"),
        # N* = 10
        ("cost", "--distance", "20", "--fidelity", "1", "--gate-quality", "1"),
    ], ids=["sweep", "cost-shallow", "cost-deep"])
    def test_sweep_and_cost_default_to_one_to_ten(self, capsys, argv):
        code, default, _ = run(capsys, *argv)
        assert code == 0
        assert default == run(capsys, *argv, "--min-nesting", "1", "--max-nesting", "10")[1]


class TestEnumerateErrors:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate-errors")
        assert code == 0
        assert "raw_combinations=216" in out
        assert "admissible_combinations=160" in out
        assert "position_permutation_count=960" in out
        assert "distinct_orthogonal_states=64" in out

    def test_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate-errors", "--list")
        assert code == 0
        combo_lines = [l for l in out.splitlines() if l.count(" ") == 2 and "=" not in l]
        assert len(combo_lines) == 160


class TestValidate:
    def test_default_checks_pass(self, capsys):
        code, out, _ = run(capsys, "validate", "--trials", "20000")
        assert code == 0
        assert "FAIL" not in out
        assert "error-pattern counts" in out
        assert "decoding of ideal encoded pair" in out
        assert "Monte Carlo" in out
        assert "Uhlmann" in out

    @pytest.mark.parametrize("argv", [
        ("--trials", "-5"),
        ("--seed", "0", "--trials", "2"),
        ("--seed", "-1"),
    ])
    def test_invalid_values_rejected(self, capsys, argv):
        code, _, err = run(capsys, "validate", *argv)
        assert code == 2
        assert err.startswith("error:") and argv[-2] in err

    @pytest.mark.parametrize("tolerance, observed, passed", [
        ("<= 1e-12", 1e-12, True), ("<= 1e-12", 2e-12, False),
        ("max off-diagonal < 1e-9", 1e-9, False), ("<= 1e-13 relative", 1e-13, True),
        ("|p_s - 1| <= 1e-12", 1.1e-12, False), (">= 0.99", 0.989, False),
        ("min eig >= -1e-9", -1e-9, True), ("min eig >= -1e-9", -2e-9, False),
        ("within 3 standard errors", 3.01, False), ("== 1/64 within 1e-14", 1e-14, True),
        ("exact 216/160/960/64", "216/160/960/64", True), ("exact 216/160/960/64", "216/160", False),
    ])
    def test_each_check_enforces_the_bound_it_prints(self, tolerance, observed, passed):
        from repeater_keyrate.validation import _check

        result = _check("check", tolerance, observed)
        assert (result.tolerance, result.passed) == (tolerance, passed)


class TestConfig:
    def test_config_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fidelity = 0.98\ngate-quality = 0.992\ndistance = 600\nnesting = 1\n")
        code, out, _ = run(capsys, "keyrate", "--config", str(cfg))
        assert code == 0
        kv = parse_kv(out)
        assert kv["F0"] == "0.98"
        assert kv["N"] == "1"

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fidelity = 0.98\ngate-quality = 0.992\ndistance = 600\nnesting = 1\n")
        code, out, _ = run(capsys, "keyrate", "--config", str(cfg), "--fidelity", "0.95")
        assert code == 0
        assert parse_kv(out)["F0"] == "0.95"

    @pytest.mark.parametrize("config,flags,alone", [
        ("optimize = 1", "--nesting 2", "--beta 0.01 --nesting 2"),
        ("optimize = on", "--stations 3", "--beta 0.01 --stations 3"),
        ("nesting = 2", "--optimize", "--beta 0.01 --optimize"),
        ("stations = 3", "--nesting 1", "--beta 0.01 --nesting 1"),
        ("gate-quality = 0.99", "--beta 0.02 --nesting 2", "--beta 0.02 --nesting 2"),
    ])
    def test_flag_overrides_the_config_values_of_its_choice(
        self, capsys, tmp_path, monkeypatch, config, flags, alone
    ):
        # a flag of one choice (how N, or the gate error, is given) drops the
        # config values of the others, as it does its own
        monkeypatch.delenv("REPEATER_KEYRATE_CONFIG", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fidelity = 0.99\ndistance = 600\nbeta = 0.01\n{config}\n")
        code, out, err = run(capsys, "keyrate", "--config", str(cfg), *flags.split())
        assert code == 0, err
        point = ["--fidelity", "0.99", "--distance", "600", *alone.split()]
        assert run(capsys, "keyrate", *point) == (0, out, "")

    def test_environment_variable(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("fidelity = 0.97\ngate-quality = 1\ndistance = 100\nnesting = 1\n")
        monkeypatch.setenv("REPEATER_KEYRATE_CONFIG", str(cfg))
        code, out, _ = run(capsys, "keyrate")
        assert code == 0
        assert parse_kv(out)["F0"] == "0.97"

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "keyrate", "--config", "/nonexistent/path.cfg")
        assert code == 2
        assert "config" in err

    def test_config_value_passes_the_flag_check(self, capsys, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("fidelity = 0.98\ngate-quality = 0.992\ndistance = nan\nnesting = 1\n")
        code, _, err = run(capsys, "keyrate", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:") and "config value for distance" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("fidelity 0.98\n")
        code, _, err = run(capsys, "keyrate", "--config", str(cfg))
        assert code == 2
        assert "key = value" in err

    def test_unknown_key_rejected_other_commands_keys_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        # trials and list are read by validate and enumerate-errors, not keyrate
        body = "fidelity = 0.98\ngate-quality = 0.992\ndistance = 600\nnesting = 1\n"
        cfg.write_text(body + "trials = 1000\nlist = 1\n")
        code, _, err = run(capsys, "keyrate", "--config", str(cfg))
        assert code == 0, err
        cfg.write_text(body + "trials = 1000\nfidelty = 0.5\n")
        code, out, err = run(capsys, "keyrate", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {cfg}:6: unknown config key 'fidelty'")


class TestHelp:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["keyrate", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "0.17" in out
        assert "200000" in out or "2e+05" in out

    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in ("keyrate", "threshold", "sweep", "cost", "enumerate-errors", "validate"):
            assert name in out
        assert "M = 6" in out or "6 memories" in out


# The help screen of sweep, byte for byte.
SWEEP_HELP = """\
usage: repeater-keyrate sweep [FLAGS]

CSV sweep over distance or the (F0, p_G) surface

  --help                      show this help and exit
  --config VALUE              key = value config file (or set REPEATER_KEYRATE_CONFIG)
  --output VALUE              write CSV to this path ('-' for stdout)
  --fidelity VALUE            source Bell fidelity F0 in [0, 1]
  --gate-quality VALUE        gate quality p_G = 1 - beta in [0, 1]
  --beta VALUE                two-qubit gate error parameter in [0, 1]
  --alpha VALUE               fiber attenuation, dB/km, > 0 (default 0.17)
  --speed VALUE               signal speed in fiber, km/s, > 0 (default 200000.0)
  --t0 VALUE                  fundamental time: 'physical' (L0/c) or '1' (normalized) \
(default physical)
  --min-nesting VALUE         smallest nesting level scanned, >= 0; 0 adds the repeaterless \
link (default 1)
  --max-nesting VALUE         largest nesting level scanned, up to 20 (default 10)
  --distance VALUE            total distance L in km, > 0 (surface sweep)
  --distance-range VALUE      start:stop:step, at most 100000 points, in km (distance sweep)
  --fidelity-range VALUE      start:stop:step, at most 100000 points, for F0
  --gate-quality-range VALUE  start:stop:step, at most 100000 points, for p_G; at most 100000 \
surface points in all
  --jobs VALUE                parallel worker processes, 1 to the CPU count (default 1)
"""


class TestModuleEntry:
    """``python -m repeater_keyrate.cli`` runs the module as ``__main__``, so
    a module that imported ``repeater_keyrate.cli`` would load a second copy
    whose CliError ``main`` does not catch: the deferred config reader and
    help screen answer there as in process."""

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("fidelity 0.98\n")
        result = run_bounded("keyrate", "--config", str(cfg))
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == f"error: {cfg}:1: expected key = value, got 'fidelity 0.98'\n"

    def test_sweep_help(self):
        result = run_bounded("sweep", "--help")
        assert (result.returncode, result.stdout, result.stderr) == (0, SWEEP_HELP, "")


# Every flag of every subcommand, as the command line spells it.
_RATE_FLAGS = (
    "--config", "--output", "--fidelity", "--gate-quality", "--beta", "--alpha", "--speed",
    "--t0", "--min-nesting", "--max-nesting",
)
FLAGS = {
    "keyrate": (*_RATE_FLAGS, "--distance", "--nesting", "--stations", "--optimize"),
    "threshold": ("--config", "--output", "--stations", "--tolerance"),
    "sweep": (*_RATE_FLAGS, "--distance", "--distance-range", "--fidelity-range",
              "--gate-quality-range", "--jobs"),
    "cost": (*_RATE_FLAGS, "--distance", "--distance-range", "--paper-fig8-defaults"),
    "enumerate-errors": ("--config", "--list"),
    "validate": ("--config", "--seed", "--trials", "--full"),
}


def rejected(capsys, *argv):
    """Run an input the CLI must reject (exit 2, no stdout, an ``error:`` line);
    return its stderr."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    return err


class TestParserContract:
    """What the command line accepts and rejects, independent of how it is parsed."""

    @pytest.mark.parametrize("argv", [
        ("keyrate", "--distance", "600", "--nesting", "2"),
        ("sweep", "--distance-range", "100:300:100", "--t0", "1", "--jobs", "1"),
        ("threshold", "--stations", "1,3", "--tolerance", "0.01", "--output", "-"),
        ("validate", "--seed", "7", "--trials", "1000", "--full"),
        ("cost", "--paper-fig8-defaults", "--distance", "600", "--min-nesting", "0"),
    ])
    def test_equals_form_gives_same_namespace(self, argv, monkeypatch):
        monkeypatch.delenv("REPEATER_KEYRATE_CONFIG", raising=False)
        joined, tokens = [argv[0]], list(argv[1:])
        while tokens:
            flag = tokens.pop(0)
            if tokens and not tokens[0].startswith("--"):
                flag = f"{flag}={tokens.pop(0)}"
            joined.append(flag)
        assert vars(cli._resolve(list(argv))) == vars(cli._resolve(joined))

    def test_unique_prefix_accepted(self, capsys):
        code, out, err = run(capsys, "keyrate", "--dist", "600", "--fid=0.99",
                             "--gate-q", "0.99", "--nest", "1")
        assert code == 0, err
        assert parse_kv(out)["distance_km"] == "600"

    def test_ambiguous_prefix_rejected(self, capsys):
        err = rejected(capsys, "sweep", "--dist", "600", "--fidelity", "0.99")
        assert "ambiguous" in err and "--dist" in err

    def test_switch_takes_no_value(self, capsys):
        assert "--list" in rejected(capsys, "enumerate-errors", "--list=1")

    def test_last_repeated_value_wins(self, capsys):
        code, out, err = run(capsys, "keyrate", "--distance", "600", "--fidelity", "0.99",
                             "--gate-quality", "0.99", "--nesting", "3", "--nesting", "1",
                             "--distance=300")
        assert code == 0, err
        kv = parse_kv(out)
        assert (kv["N"], kv["distance_km"]) == ("1", "300")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_command_help_lists_every_flag(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"--[a-z0-9][a-z0-9-]*", out)) - {"--help"} == set(FLAGS[command])

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_top_level_help(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in FLAGS) and "M = 6" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"repeater-keyrate {repeater_keyrate.__version__}\n"

    @pytest.mark.parametrize("argv,named", [
        ((), "command"),
        (("bogus",), "bogus"),
        (("--bogus", "keyrate"), "--bogus"),
        (("keyrate", "--bogus", "1"), "--bogus"),
        (("keyrate", "-x"), "-x"),
        (("keyrate", "junk"), "junk"),
        (("keyrate", "--"), "--"),
        (("keyrate", "--distance"), "--distance"),
        (("sweep", "--output", "--fidelity", "0.9"), "--output"),
        (("keyrate", "--fidelity", "2"), "argument --fidelity: expected"),
        (("keyrate", "--fidelity="), "argument --fidelity: expected"),
        (("keyrate", "--t0", "bogus"), "--t0"),
        (("threshold", "--stations", "5"), "--stations"),
        (("validate", "--full=yes"), "--full"),
        (("threshold", "--fidelity", "0.9"), "--fidelity"),
        (("enumerate-errors", "--output", "x.csv"), "--output"),
    ])
    def test_rejected_inputs_name_the_argument(self, capsys, argv, named):
        assert named in rejected(capsys, *argv)

    _POINT = "fidelity = 0.99\ngate-quality = 0.99\ndistance = 600\n"

    @pytest.mark.parametrize("word,on", [
        ("1", True), ("true", True), ("Yes", True), ("ON", True),
        ("0", False), ("False", False), ("no", False), ("off", False),
    ])
    def test_config_file_sets_a_switch(self, capsys, tmp_path, monkeypatch, word, on):
        monkeypatch.delenv("REPEATER_KEYRATE_CONFIG", raising=False)
        cfg = tmp_path / "switch.cfg"
        cfg.write_text(self._POINT + f"optimize = {word}\n" + ("" if on else "nesting = 2\n"))
        assert cli._resolve(["keyrate", "--config", str(cfg)]).optimize is on
        code, out, err = run(capsys, "keyrate", "--config", str(cfg))
        assert code == 0, err
        flags = ["--optimize"] if on else ["--nesting", "2"]
        assert run(capsys, "keyrate", "--distance", "600", "--fidelity", "0.99",
                   "--gate-quality", "0.99", *flags) == (0, out, "")

    @pytest.mark.parametrize("word", ["2", "maybe", "", "y", "truee"])
    def test_config_switch_rejects_other_words(self, capsys, tmp_path, monkeypatch, word):
        monkeypatch.delenv("REPEATER_KEYRATE_CONFIG", raising=False)
        cfg = tmp_path / "switch.cfg"
        cfg.write_text(self._POINT + f"optimize = {word}\n")
        err = rejected(capsys, "keyrate", "--config", str(cfg))
        assert err.startswith("error: config value for optimize is not valid")


_VALUES = ["nan", "inf", "-inf", "-1", "", "0", "0.5", "1", "3", "600", "1,3", "0:1:0.5",
           "physical", "junk"]
_FLAG_NAMES = sorted({flag for flags in FLAGS.values() for flag in flags})
_FLAG_TOKENS = st.one_of(
    st.sampled_from([*_FLAG_NAMES, "-h", "--help", "--version", "--bogus", "-x", "--", "-"]),
    st.builds(lambda flag, cut: flag[:max(3, len(flag) - cut)],
              st.sampled_from(_FLAG_NAMES), st.integers(1, 12)),
    st.builds(lambda flag, value: f"{flag}={value}",
              st.sampled_from(_FLAG_NAMES), st.sampled_from(_VALUES)),
)
_TOKENS = st.one_of(_FLAG_TOKENS, st.sampled_from(_VALUES))


@settings(derandomize=True, deadline=None, max_examples=300, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.sampled_from([*FLAGS, "bogus"]), _FLAG_TOKENS), st.lists(_TOKENS, max_size=8))
def test_resolve_answers_or_rejects(capsys, monkeypatch, tmp_path, first, rest):
    """Any token list resolves, or raises CliError or SystemExit(0) (help,
    version); no other exception escapes.  The working directory is empty, so
    no drawn --config value names a file."""
    monkeypatch.delenv("REPEATER_KEYRATE_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    try:
        cli._resolve([first, *rest])
    except cli.CliError:
        pass
    except SystemExit as exc:
        assert exc.code == 0
    capsys.readouterr()


class TestRuntimeDependencies:
    def test_numpy_alone_at_runtime(self):
        src = Path(repeater_keyrate.__file__).resolve().parents[1]
        probe = (
            "import sys, repeater_keyrate, repeater_keyrate.cli; "
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"


class TestImports:
    @pytest.mark.parametrize("argv,expected,modules", [
        (("keyrate", "--distance", "600", "--fidelity", "0.99", "--gate-quality", "0.995",
          "--optimize"), "K_per_mem_per_s=", set()),
        (("sweep", "--distance", "600", "--fidelity-range", "0.99:1:0.005",
          "--gate-quality-range", "0.99:1:0.005", "--max-nesting", "4"),
         "F0,pG,K_per_mem_per_s,N_opt", set()),
        (("cost", "--paper-fig8-defaults", "--distance-range", "500:1500:500"),
         "memory-qubits/secret-bit", set()),
        (("threshold", "--stations", "1,3"), "p_G,min", set()),
        # N = 0 mixes the stored decodes of the encoded pair, with no frame core
        (("keyrate", "--distance", "100", "--fidelity", "0.99", "--gate-quality", "0.99",
          "--nesting", "0"), "K_per_mem_per_s=0.9336730933", {REPEATERLESS}),
        # the error counts come from the frame core's correctable frames
        (("enumerate-errors",), "distinct_orthogonal_states=64", {FRAMES}),
        # the process pool of --jobs loads concurrent.futures, not numpy
        (("sweep", "--distance", "600", "--fidelity-range", "0.99:1:0.005",
          "--gate-quality-range", "0.99:1:0.005", "--max-nesting", "4", "--jobs", "2"),
         "F0,pG,K_per_mem_per_s,N_opt", set()),
        # a fixed N >= 1 is key_rate's path
        (("keyrate", "--distance", "600", "--fidelity", "0.99", "--gate-quality", "0.995",
          "--nesting", "2"), "K_per_mem_per_s=", set()),
        # the nesting scans with the repeaterless link N = 0 in range, and winning
        (("sweep", "--distance", "5", "--fidelity-range", "0.99:1:0.005",
          "--gate-quality-range", "0.99:1:0.005", "--min-nesting", "0", "--max-nesting", "3"),
         "\n0.99,0.99,1097.434884,0\n", {REPEATERLESS}),
        (("cost", "--paper-fig8-defaults", "--distance-range", "5:15:5", "--min-nesting", "0"),
         "N*=0", {REPEATERLESS}),
        # a config file and the help screen load their module
        (("keyrate", "--config", CONFIG_FILE), "K_per_mem_per_s=", {CLIEXTRA}),
        (("sweep", "--help"), "usage: repeater-keyrate sweep [FLAGS]", {CLIEXTRA}),
    ], ids=[f"argv{i}" for i in range(12)])
    def test_rate_commands_load_no_numpy(self, tmp_path, argv, expected, modules):
        if CONFIG_FILE in argv:
            config = tmp_path / "point.cfg"
            config.write_text("fidelity = 0.99\ngate-quality = 0.995\ndistance = 600\n"
                              "optimize = 1\n")
            argv = [str(config) if a == CONFIG_FILE else a for a in argv]
        code, out, loaded = run_child(*argv)
        assert code == 0 and expected in out
        assert loaded == modules

    def test_clean_start_loads_no_typing(self):
        # without site (python -S), which may preload typing through a .pth file,
        # the bare import loads none of typing and the re and enum it would bring,
        # and none of the watched modules
        src = Path(repeater_keyrate.__file__).resolve().parents[1]
        probe = ("import sys, repeater_keyrate.cli; print(*(m for m in "
                 f"{('typing', 're', 'enum', *WATCHED)!r} if m in sys.modules))")
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "\n", "")

    @pytest.mark.parametrize("argv,expected", [
        (("validate", "--trials", "20000"), "checks passed"),
    ])
    def test_dense_commands_load_numpy(self, argv, expected):
        code, out, loaded = run_child(*argv)
        assert code == 0 and expected in out
        assert "numpy" in loaded


def test_every_public_name_has_a_caller():
    # README decision 12: a public top-level def, class or constant of the package
    # is named somewhere in src/ besides its own definition (a Name or an
    # Attribute node; the imports of __init__ are no use)
    def uses_of(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    package = Path(repeater_keyrate.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    uses = sum(map(uses_of, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = uses_of(stmt)  # the name's own definition, recursion included
            unused += [f"{module}.{name}" for name in names
                       if not name.startswith("_") and uses[name] == own[name]]
    assert unused == []
