import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repeater_keyrate
from repeater_keyrate import cli
from repeater_keyrate.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_non_chain_station_count_rejected(self, capsys):
        code, _, err = run(capsys, "threshold", "--stations", "2")
        assert code == 2
        assert "2^N - 1" in err

    @pytest.mark.parametrize("argv", [
        ("--stations", str(2**21 - 1)),
        ("--stations", "1", "--tolerance", "0"),
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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        if jobs == "cpu_count+1":
            jobs = str((os.cpu_count() or 1) + 1)
        code, _, err = run(
            capsys, "sweep", "--distance-range", "100:200:100", "--fidelity", "0.99",
            "--gate-quality", "0.99", "--max-nesting", "2", "--jobs", jobs,
        )
        assert code == 2
        assert err.startswith("error:") and "--jobs" in err

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

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("fidelity 0.98\n")
        code, _, err = run(capsys, "keyrate", "--config", str(cfg))
        assert code == 2
        assert "key = value" in err


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
