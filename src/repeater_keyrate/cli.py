"""Command-line front end.

Subcommands: keyrate, threshold, sweep, cost, enumerate-errors, validate.
Parameter precedence is CLI flag > config file (``--config`` or the
REPEATER_KEYRATE_CONFIG environment variable, ``key = value`` lines) >
built-in defaults.  All tabular output is CSV with a header row and values
printed to 10 significant digits, so identical inputs give byte-identical
files.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import __version__
from .encswap import enumerate_combos, correctable_states
from .rates import (
    DEFAULT_ALPHA_DB_PER_KM,
    DEFAULT_MAX_NESTING,
    DEFAULT_MIN_NESTING,
    DEFAULT_SPEED_KM_PER_S,
    MEMORIES_PER_HALF_NODE,
    TABLE_STATION_COUNTS,
    NoThresholdError,
    RateReport,
    RepeaterParams,
    cost_coefficient,
    key_rate,
    optimize_over_stations,
    threshold_fidelity,
    threshold_gate_quality,
)
from .validation import run_checks

FIG8_FIDELITY = 0.99995
FIG8_GATE_QUALITY = 0.9999
# Largest nesting level any subcommand accepts: 2^20 - 1 stations, which at
# 2000 km are 2 mm apart.  Past it the chain is unphysical and the cost of a
# level (3 * 2^N pairs, 2^N-station chains) only grows.
MAX_NESTING_LEVEL = 20


class CliError(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        path = os.environ.get("REPEATER_KEYRATE_CONFIG")
    if not path:
        return {}
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


@dataclass
class Settings:
    """Flag/config/default resolution for one invocation."""

    args: argparse.Namespace
    config: dict[str, str]

    def get(self, name: str, default, cast):
        cli_value = getattr(self.args, name, None)
        if cli_value is not None:
            return cli_value
        if name in self.config:
            raw = self.config[name]
            try:
                return cast(raw)
            except ValueError:
                raise CliError(f"config value for {name} is not valid: {raw!r}")
        return default


def _parse_range(spec: str, field: str) -> list[float]:
    """Inclusive numeric range 'start:stop:step'."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliError(f"{field} must look like start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise CliError(f"{field} has non-numeric parts: {spec!r}")
    if step <= 0:
        raise CliError(f"{field} step must be positive, got {step}")
    if stop < start:
        raise CliError(f"{field} is empty ({spec!r})")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9 * step:
            break
        values.append(v)
        k += 1
    if not values:
        raise CliError(f"{field} is empty ({spec!r})")
    return values


def _parse_unit_range(spec: str, field: str) -> list[float]:
    values = _parse_range(spec, field)
    if values[0] < 0.0 or values[-1] > 1.0:
        raise CliError(f"{field} values must be in [0, 1], got {spec!r}")
    return values


def _parse_distances(spec: str) -> list[float]:
    values = _parse_range(spec, "--distance-range")
    if values[0] <= 0:
        raise CliError(f"--distance-range values must be positive, got {spec!r}")
    return values


def _resolve_beta(settings: Settings, default: float | None = None) -> float:
    beta = settings.get("beta", None, float)
    gate_quality = settings.get("gate_quality", None, float)
    if beta is not None and gate_quality is not None:
        raise CliError("--beta and --gate-quality are mutually exclusive")
    if beta is None and gate_quality is None:
        if default is None:
            raise CliError("one of --beta or --gate-quality is required")
        beta = default
    elif beta is None:
        beta = 1.0 - gate_quality
    if not 0.0 <= beta <= 1.0:
        raise CliError(f"--beta must be in [0, 1], got {beta}")
    return beta


def _resolve_fiber(settings: Settings, t0_default: str = "physical") -> dict:
    alpha = settings.get("alpha", DEFAULT_ALPHA_DB_PER_KM, float)
    if alpha <= 0:
        raise CliError(f"--alpha must be positive, got {alpha}")
    speed = settings.get("speed", DEFAULT_SPEED_KM_PER_S, float)
    if speed <= 0:
        raise CliError(f"--speed must be positive, got {speed}")
    t0 = settings.get("t0", t0_default, str)
    if t0 in ("1", "normalized"):
        t0_mode = "normalized"
    elif t0 == "physical":
        t0_mode = "physical"
    else:
        raise CliError(f"--t0 must be 'physical' or '1', got {t0!r}")
    return {"alpha_db_per_km": alpha, "speed_km_per_s": speed, "t0_mode": t0_mode}


def _resolve_common(
    settings: Settings,
    *,
    f0_default: float | None = None,
    beta_default: float | None = None,
    t0_default: str = "physical",
) -> dict:
    """F0, beta and the fiber parameters, validated; every subcommand that
    evaluates the rate pipeline at one (F0, beta) point resolves them here."""
    f0 = settings.get("fidelity", f0_default, float)
    if f0 is None:
        raise CliError("--fidelity is required")
    if not 0.0 <= f0 <= 1.0:
        raise CliError(f"--fidelity must be in [0, 1], got {f0}")
    return {
        "beta": _resolve_beta(settings, beta_default),
        "f0": f0,
        **_resolve_fiber(settings, t0_default),
    }


def _check_nesting(nesting: int, flag: str) -> int:
    """Nesting levels above MAX_NESTING_LEVEL are refused for every subcommand."""
    if nesting > MAX_NESTING_LEVEL:
        raise CliError(
            f"{flag} allows nesting levels up to N = {MAX_NESTING_LEVEL} "
            f"({2 ** MAX_NESTING_LEVEL - 1} stations), got N = {nesting}"
        )
    return nesting


def _nesting_range(settings: Settings) -> range:
    lo = settings.get("min_nesting", DEFAULT_MIN_NESTING, int)
    hi = settings.get("max_nesting", DEFAULT_MAX_NESTING, int)
    if lo < 0:
        raise CliError(f"--min-nesting must be >= 0, got {lo}")
    if hi < lo:
        raise CliError(f"--max-nesting must be >= --min-nesting, got {hi} < {lo}")
    return range(lo, _check_nesting(hi, "--max-nesting") + 1)


def _open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_rows(path: str | None, header: str, rows: list[str]) -> None:
    out, close = _open_output(path)
    try:
        out.write(header + "\n")
        for row in rows:
            out.write(row + "\n")
    finally:
        if close:
            out.close()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_keyrate(settings: Settings) -> int:
    common = _resolve_common(settings)
    distance = settings.get("distance", None, float)
    if distance is None or distance <= 0:
        raise CliError("--distance (km, positive) is required")

    optimize = bool(getattr(settings.args, "optimize", False))
    nesting = settings.get("nesting", None, int)
    stations = settings.get("stations", None, int)
    if stations is not None:
        if nesting is not None:
            raise CliError("--nesting and --stations are mutually exclusive")
        if stations < 0 or (stations + 1) & stations != 0:
            raise CliError(f"--stations must be 2^N - 1 (0, 1, 3, 7, ...), got {stations}")
        nesting = _check_nesting((stations + 1).bit_length() - 1, "--stations")
    elif nesting is not None:
        _check_nesting(nesting, "--nesting")
    if optimize == (nesting is not None):
        raise CliError("exactly one of --optimize or --nesting/--stations is required")

    if optimize:
        n_best, report = optimize_over_stations(
            distance,
            common["beta"],
            common["f0"],
            _nesting_range(settings),
            alpha_db_per_km=common["alpha_db_per_km"],
            speed_km_per_s=common["speed_km_per_s"],
            t0_mode=common["t0_mode"],
        )
    else:
        params = RepeaterParams(
            beta=common["beta"],
            f0=common["f0"],
            distance_km=distance,
            nesting=nesting,
            alpha_db_per_km=common["alpha_db_per_km"],
            speed_km_per_s=common["speed_km_per_s"],
            t0_mode=common["t0_mode"],
        )
        n_best, report = params.nesting, key_rate(params)

    lines = [
        f"distance_km={_fmt(distance)}",
        f"F0={_fmt(common['f0'])}",
        f"p_G={_fmt(1.0 - common['beta'])}",
        f"beta={_fmt(common['beta'])}",
        f"N={n_best}",
        f"stations={2 ** n_best - 1}",
        f"L0_km={_fmt(report.l0_km)}",
        f"P0={_fmt(report.p0)}",
        f"Z={_fmt(report.z_value)}",
        f"R_per_s={_fmt(report.rate_pairs_per_s)}",
        f"p_s={_fmt(report.p_s)}",
        f"P_r={_fmt(report.p_r)}",
        f"eX={_fmt(report.e_x)}",
        f"eY={_fmt(report.e_y)}",
        f"eZ={_fmt(report.e_z)}",
        f"r_inf={_fmt(report.secret_fraction)}",
        f"K_per_mem_per_s={_fmt(report.key_rate)}",
        f"M={report.memories}",
    ]
    print("\n".join(lines))

    output = settings.get("output", None, str)
    if output is not None:
        header = "L_km,F0,p_G,N_opt,L0_km,P0,Z,R_per_s,eX,eY,eZ,r_inf,K_per_mem_per_s"
        row = ",".join(
            _fmt(v)
            for v in (
                distance, common["f0"], 1.0 - common["beta"], n_best, report.l0_km,
                report.p0, report.z_value, report.rate_pairs_per_s,
                report.e_x, report.e_y, report.e_z,
                report.secret_fraction, report.key_rate,
            )
        )
        _write_rows(output, header, [row])
    return 0


def cmd_threshold(settings: Settings) -> int:
    raw = settings.get("stations", None, str)
    if raw is None:
        station_list = list(TABLE_STATION_COUNTS)
    else:
        try:
            station_list = [int(s) for s in str(raw).split(",") if s.strip()]
        except ValueError:
            raise CliError(f"--stations must be a comma list of integers, got {raw!r}")
        if not station_list:
            raise CliError("--stations is empty")
    for r in station_list:
        if r < 1 or (r + 1) & r != 0:
            raise CliError(f"--stations entries must be of the form 2^N - 1 with N >= 1, got {r}")
        _check_nesting((r + 1).bit_length() - 1, "--stations")

    tol = settings.get("tolerance", 1e-4, float)
    if not tol > 0:
        raise CliError(f"--tolerance must be positive, got {tol}")
    header = "r,N,p_G_min,F_0_min,p_G_min_full,F_0_min_full"
    rows = []
    print(f"{'r':>5} {'N':>3} {'p_G,min':>9} {'F_0,min':>9}")
    for r in station_list:
        n = (r + 1).bit_length() - 1
        try:
            pg = threshold_gate_quality(r, tol=tol)
            f0 = threshold_fidelity(r, tol=tol)
        except NoThresholdError as exc:
            print(f"{r:>5} {n:>3}  no threshold in bracket ({exc})")
            continue
        print(f"{r:>5} {n:>3} {pg:>9.3f} {f0:>9.3f}")
        rows.append(f"{r},{n},{pg:.3f},{f0:.3f},{_fmt(pg)},{_fmt(f0)}")
    output = settings.get("output", None, str)
    if output is not None:
        _write_rows(output, header, rows)
    return 0


def _sweep_distance_row(task) -> str:
    (distance, beta, f0, n_values, alpha, speed, t0_mode) = task
    n_best, rep = optimize_over_stations(
        distance, beta, f0, n_values,
        alpha_db_per_km=alpha, speed_km_per_s=speed, t0_mode=t0_mode,
    )
    return ",".join(
        _fmt(v)
        for v in (
            distance, n_best, rep.l0_km, rep.p0, rep.z_value, rep.rate_pairs_per_s,
            rep.e_x, rep.e_y, rep.e_z, rep.secret_fraction, rep.key_rate,
        )
    )


def _sweep_surface_row(task) -> str:
    (f0, gate_quality, distance, n_values, alpha, speed, t0_mode) = task
    n_best, rep = optimize_over_stations(
        distance, 1.0 - gate_quality, f0, n_values,
        alpha_db_per_km=alpha, speed_km_per_s=speed, t0_mode=t0_mode,
    )
    return ",".join(_fmt(v) for v in (f0, gate_quality, rep.key_rate, n_best))


def _run_tasks(worker, tasks, jobs: int) -> list[str]:
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))


def cmd_sweep(settings: Settings) -> int:
    distance_range = settings.get("distance_range", None, str)
    fidelity_range = settings.get("fidelity_range", None, str)
    gate_range = settings.get("gate_quality_range", None, str)
    jobs = settings.get("jobs", 1, int)
    n_values = list(_nesting_range(settings))

    if distance_range is not None:
        if fidelity_range is not None or gate_range is not None:
            raise CliError("--distance-range cannot be combined with surface ranges")
        common = _resolve_common(settings)
        distances = _parse_distances(distance_range)
        tasks = [
            (d, common["beta"], common["f0"], n_values, common["alpha_db_per_km"],
             common["speed_km_per_s"], common["t0_mode"])
            for d in distances
        ]
        rows = _run_tasks(_sweep_distance_row, tasks, jobs)
        header = "L_km,N_opt,L0_km,P0,Z,R_per_s,eX,eY,eZ,r_inf,K_per_mem_per_s"
    elif fidelity_range is not None and gate_range is not None:
        fiber = _resolve_fiber(settings)
        distance = settings.get("distance", None, float)
        if distance is None or distance <= 0:
            raise CliError("--distance (km, positive) is required for a surface sweep")
        f0_values = _parse_unit_range(fidelity_range, "--fidelity-range")
        pg_values = _parse_unit_range(gate_range, "--gate-quality-range")
        tasks = [
            (f0, pg, distance, n_values, fiber["alpha_db_per_km"],
             fiber["speed_km_per_s"], fiber["t0_mode"])
            for f0 in f0_values
            for pg in pg_values
        ]
        rows = _run_tasks(_sweep_surface_row, tasks, jobs)
        header = "F0,pG,K_per_mem_per_s,N_opt"
    else:
        raise CliError(
            "sweep needs either --distance-range (distance sweep) or both "
            "--fidelity-range and --gate-quality-range (surface sweep)"
        )

    _write_rows(settings.get("output", None, str), header, rows)
    return 0


def cmd_cost(settings: Settings) -> int:
    if bool(getattr(settings.args, "paper_fig8_defaults", False)):
        common = _resolve_common(
            settings,
            f0_default=FIG8_FIDELITY,
            beta_default=1.0 - FIG8_GATE_QUALITY,
            t0_default="normalized",
        )
    else:
        common = _resolve_common(settings)

    distance_range = settings.get("distance_range", None, str)
    if distance_range is None:
        distance = settings.get("distance", None, float)
        if distance is None or distance <= 0:
            raise CliError("--distance (km, positive) or --distance-range is required")
        distances = [distance]
    else:
        distances = _parse_distances(distance_range)

    n_range = _nesting_range(settings)
    header = "L_km,C,C_prime,N_opt,L0_km"
    rows = []
    for distance in distances:
        rep = cost_coefficient(distance, n_range=n_range, **common)
        rows.append(
            ",".join(
                _fmt(v) for v in (distance, rep.cost, rep.cost_coefficient, rep.nesting, rep.l0_km)
            )
        )
        print(
            f"L={_fmt(distance)} km: C={_fmt(rep.cost)} memory-qubits/secret-bit, "
            f"C'={_fmt(rep.cost_coefficient)} /km, N*={rep.nesting}, L0*={_fmt(rep.l0_km)} km"
        )
    output = settings.get("output", None, str)
    if output is not None:
        _write_rows(output, header, rows)
    return 0


def cmd_enumerate_errors(settings: Settings) -> int:
    counts = enumerate_combos()
    states = correctable_states()
    print(f"raw_combinations={counts.raw_count}")
    print(f"admissible_combinations={counts.admissible_count}")
    print(f"position_permutation_count={counts.paper_permutation_count}")
    print(f"distinct_orthogonal_states={len(states)}")
    if bool(getattr(settings.args, "list", False)):
        for combo in counts.admissible:
            print(" ".join(combo.labels()))
    return 0


def cmd_validate(settings: Settings) -> int:
    seed = settings.get("seed", 42, int)
    trials = settings.get("trials", 10**6, int)
    full = bool(getattr(settings.args, "full", False))
    results = run_checks(seed=seed, trials=trials, full=full)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"[{status}] {r.name:<{width}}  tolerance: {r.tolerance}; observed: {r.observed}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file (or set REPEATER_KEYRATE_CONFIG)")
    p.add_argument("--fidelity", type=float, help="source Bell fidelity F0")
    p.add_argument("--gate-quality", dest="gate_quality", type=float,
                   help="two-qubit gate quality p_G = 1 - beta")
    p.add_argument("--beta", type=float, help="two-qubit gate error parameter")
    p.add_argument("--alpha", type=float,
                   help=f"fiber attenuation, dB/km (default {DEFAULT_ALPHA_DB_PER_KM})")
    p.add_argument("--speed", type=float,
                   help=f"signal speed in fiber, km/s (default {DEFAULT_SPEED_KM_PER_S:g})")
    p.add_argument("--t0", help="fundamental time: 'physical' (L0/c, default) or '1' (normalized)")
    p.add_argument("--min-nesting", dest="min_nesting", type=int,
                   help=f"smallest nesting level scanned (default {DEFAULT_MIN_NESTING}; "
                        "0 enables the repeaterless extension)")
    p.add_argument("--max-nesting", dest="max_nesting", type=int,
                   help=f"largest nesting level scanned (default {DEFAULT_MAX_NESTING})")
    p.add_argument("--output", help="write CSV to this path ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeater-keyrate",
        description=(
            "Secret key rates, thresholds and resource costs for a quantum "
            f"repeater encoded with the three-qubit repetition code "
            f"(M = {MEMORIES_PER_HALF_NODE} memories per half node)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keyrate", help="secret key rate for one parameter point")
    _add_common_flags(p)
    p.add_argument("--distance", type=float, help="total distance L in km")
    p.add_argument("--nesting", type=int, help="nesting level N (r = 2^N - 1 stations)")
    p.add_argument("--stations", type=int, help="station count r (must be 2^N - 1)")
    p.add_argument("--optimize", action="store_true", help="maximize the key rate over N")
    p.set_defaults(func=cmd_keyrate)

    p = sub.add_parser("threshold", help="minimal gate quality / fidelity per station count")
    _add_common_flags(p)
    p.add_argument("--stations", help="comma list of station counts (default 1,3,...,127)")
    p.add_argument("--tolerance", type=float, help="bisection tolerance (default 1e-4)")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("sweep", help="CSV sweep over distance or the (F0, p_G) surface")
    _add_common_flags(p)
    p.add_argument("--distance", type=float, help="total distance L in km (surface sweep)")
    p.add_argument("--distance-range", dest="distance_range",
                   help="start:stop:step in km (distance sweep)")
    p.add_argument("--fidelity-range", dest="fidelity_range", help="start:stop:step for F0")
    p.add_argument("--gate-quality-range", dest="gate_quality_range",
                   help="start:stop:step for p_G")
    p.add_argument("--jobs", type=int, help="parallel worker processes (default 1)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cost", help="memory qubits per secret bit, optimized over N")
    _add_common_flags(p)
    p.add_argument("--distance", type=float, help="total distance L in km")
    p.add_argument("--distance-range", dest="distance_range", help="start:stop:step in km")
    p.add_argument("--paper-fig8-defaults", dest="paper_fig8_defaults", action="store_true",
                   help=f"use F0={FIG8_FIDELITY}, p_G={FIG8_GATE_QUALITY}, normalized T0")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("enumerate-errors", help="correctable error-pattern counts")
    p.add_argument("--config", help=argparse.SUPPRESS)
    p.add_argument("--list", action="store_true", help="also print the admissible combinations")
    p.set_defaults(func=cmd_enumerate_errors)

    p = sub.add_parser("validate", help="run the numerical self-check suite")
    p.add_argument("--config", help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, help="Monte Carlo seed (default 42)")
    p.add_argument("--trials", type=int, help="Monte Carlo trials (default 1000000)")
    p.add_argument("--full", action="store_true",
                   help="include the slow full-register equivalence checks")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = Settings(args=args, config=_load_config(getattr(args, "config", None)))
        return args.func(settings)
    except CliError as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
