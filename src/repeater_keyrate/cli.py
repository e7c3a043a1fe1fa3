"""Command-line front end.

Subcommands: keyrate, threshold, sweep, cost, enumerate-errors, validate.
Parameter precedence is CLI flag > config file (``--config`` or the
REPEATER_KEYRATE_CONFIG environment variable, ``key = value`` lines) >
built-in defaults; flag and config values pass the flag's type function.
All tabular output is CSV with a header row and values printed to 10
significant digits, so identical inputs give byte-identical files.

The rate commands (keyrate, sweep, cost and threshold, N = 0 included) and
enumerate-errors run on the stdlib alone; N = 0 and enumerate-errors import
the Pauli-frame core (:mod:`repeater_keyrate.frames`), and validate and
``--jobs`` above 1 import what they need (numpy, the dense layer, the
process pool) when they run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
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

FIG8_FIDELITY = 0.99995
FIG8_GATE_QUALITY = 0.9999
# Largest nesting level any subcommand accepts: 2^20 - 1 stations, which at
# 2000 km are 2 mm apart.  Past it the chain is unphysical and the cost of a
# level (3 * 2^N pairs, 2^N-station chains) only grows.
MAX_NESTING_LEVEL = 20
# Most values a start:stop:step range, or a whole surface sweep, may have.
# Past it a sweep runs for hours, and an unbounded range would never end.
MAX_RANGE_POINTS = 100_000
# Monte Carlo trials of `validate`.  At 2 trials the sample spread can be
# zero, which the check divides by; past 10^7 the samples pass ~1 GB.
MIN_TRIALS, MAX_TRIALS = 100, 10**7

# Built-in values of the flags that have one; a flag or config value wins.
_DEFAULTS = {
    "alpha": DEFAULT_ALPHA_DB_PER_KM,
    "speed": DEFAULT_SPEED_KM_PER_S,
    "t0": "physical",
    "min_nesting": DEFAULT_MIN_NESTING,
    "max_nesting": DEFAULT_MAX_NESTING,
    "tolerance": 1e-4,
    "jobs": 1,
    "seed": 42,
    "trials": 10**6,
}


class CliError(Exception):
    """A rejected input; :func:`main` prints it as ``error: ...`` and returns 2."""


class _Parser(argparse.ArgumentParser):
    """argparse's own errors (bad value, unknown flag, missing subcommand)
    are reported like every other rejected input."""

    def error(self, message: str):
        raise CliError(message)


def _number(cast, ok, valid: str):
    """Type function: ``cast(text)``, finite and accepted by ``ok``; ``valid``
    names the valid set in the error."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or (cast is float and not math.isfinite(value)) or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {valid}, got {text!r}")
        return value

    return parse


def _nesting_of(stations: int) -> int:
    return (stations + 1).bit_length() - 1


def _is_chain(stations: int) -> bool:
    """stations = 2^N - 1 with N <= MAX_NESTING_LEVEL."""
    return 0 <= stations < 2**MAX_NESTING_LEVEL and (stations + 1) & stations == 0


_UNIT = _number(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_POSITIVE = _number(float, lambda v: v > 0, "a positive number")
_NESTING = _number(int, lambda n: 0 <= n <= MAX_NESTING_LEVEL, f"0...{MAX_NESTING_LEVEL}")
_STATIONS = _number(int, _is_chain, f"2^N - 1 stations with N in 0...{MAX_NESTING_LEVEL}")


def _station_list(text: str) -> list[int]:
    """Comma list of station counts 2^N - 1 with N >= 1."""
    counts = [_STATIONS(s) for s in text.split(",") if s.strip()]
    if not counts or 0 in counts:
        raise argparse.ArgumentTypeError(f"expected a comma list of 2^N - 1, N >= 1, got {text!r}")
    return counts


def _range(ok, valid: str):
    """Type function for an inclusive range 'start:stop:step': the values
    start + k*step up to stop (with 1e-9*step slack), at most
    MAX_RANGE_POINTS of them, each accepted by ``ok``."""

    def parse(text: str) -> list[float]:
        try:
            start, stop, step = (float(p) for p in text.split(":"))
        except ValueError:
            start = stop = step = math.nan
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0:
            raise argparse.ArgumentTypeError(f"expected finite start:stop:step, step > 0: {text!r}")
        if stop < start:
            raise argparse.ArgumentTypeError(f"range is empty: {text!r}")
        values: list[float] = []
        while len(values) <= MAX_RANGE_POINTS:
            value = start + len(values) * step
            if value > stop + 1e-9 * step:
                break
            values.append(value)
        else:
            raise argparse.ArgumentTypeError(f"more than {MAX_RANGE_POINTS} points in {text!r}")
        if not all(map(ok, values)):
            raise argparse.ArgumentTypeError(f"range values must be {valid}, got {text!r}")
        return values

    return parse


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _row(*values: float) -> str:
    return ",".join(map(_fmt, values))


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        path = os.environ.get("REPEATER_KEYRATE_CONFIG")
    if not path:
        return {}
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    return values


def _resolve(argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv`` and resolve each value flag of its subcommand once: the
    command-line value, else the config value run through the flag's own
    type function, else the built-in default.  ``given`` holds the dests that
    parsing left not None: the flags given, and every store_true flag."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.given = {dest for dest, value in vars(args).items() if value is not None}
    for key, raw in _load_config(args.config).items():
        if getattr(args, key, False) is None:  # a value flag of this subcommand, not given
            try:
                parsed = parser.parse_args([args.command, f"--{key.replace('_', '-')}={raw}"])
            except CliError as exc:
                raise CliError(f"config value for {key} is not valid: {raw!r} ({exc})")
            setattr(args, key, getattr(parsed, key))
    defaults = dict(_DEFAULTS)
    if getattr(args, "paper_fig8_defaults", False):
        defaults.update(fidelity=FIG8_FIDELITY, t0="1")
        if args.beta is None:
            defaults["gate_quality"] = FIG8_GATE_QUALITY
    for dest, value in defaults.items():
        if getattr(args, dest, False) is None:
            setattr(args, dest, value)
    return args


def _reject(args: argparse.Namespace, mode: str, *dests: str) -> None:
    """Flags the chosen mode does not read are errors when given on the
    command line; config keys are not, as one config file serves every
    subcommand."""
    for dest in dests:
        if dest in args.given:
            raise CliError(f"--{dest.replace('_', '-')} does not apply to {mode}")


def _fiber(args: argparse.Namespace) -> dict:
    t0_mode = "physical" if args.t0 == "physical" else "normalized"
    return {"alpha_db_per_km": args.alpha, "speed_km_per_s": args.speed, "t0_mode": t0_mode}


def _point(args: argparse.Namespace) -> dict:
    """F0, beta and the fiber keywords of the rate functions; --beta and
    --gate-quality = 1 - beta name the same value."""
    if args.beta is not None and args.gate_quality is not None:
        raise CliError("--beta and --gate-quality are mutually exclusive")
    if args.fidelity is None or args.beta is None and args.gate_quality is None:
        raise CliError("--fidelity and one of --beta or --gate-quality are required")
    beta = args.beta if args.gate_quality is None else 1.0 - args.gate_quality
    return {"beta": beta, "f0": args.fidelity, **_fiber(args)}


def _require_timed(args: argparse.Namespace, distances: list[float], nesting: int) -> None:
    """Reject, before any rate work, a distance whose segments at the deepest
    nesting level are too short for T0 = L0/c to give a finite rate."""
    for distance in distances:
        try:
            RepeaterParams(beta=0.0, f0=1.0, distance_km=distance, nesting=nesting, **_fiber(args))
        except ValueError as exc:
            raise CliError(f"--distance {_fmt(distance)}: {exc}")


def _nesting_range(args: argparse.Namespace) -> range:
    if args.max_nesting < args.min_nesting:
        raise CliError(f"--max-nesting {args.max_nesting} < --min-nesting {args.min_nesting}")
    return range(args.min_nesting, args.max_nesting + 1)


def _write_rows(path: str | None, header: str, rows: list[str]) -> None:
    text = "".join(line + "\n" for line in [header, *rows])
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as out:
            out.write(text)
    except OSError as exc:
        raise CliError(f"cannot write --output {path}: {exc}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_keyrate(args: argparse.Namespace) -> int:
    point = _point(args)
    if args.distance is None:
        raise CliError("--distance (km, positive) is required")
    if args.nesting is not None and args.stations is not None:
        raise CliError("--nesting and --stations are mutually exclusive")
    nesting = args.nesting if args.stations is None else _nesting_of(args.stations)
    if args.optimize == (nesting is not None):
        raise CliError("exactly one of --optimize or --nesting/--stations is required")

    if args.optimize:
        n_range = _nesting_range(args)
        _require_timed(args, [args.distance], n_range[-1])
        n_best, report = optimize_over_stations(args.distance, n_range=n_range, **point)
    else:
        _reject(args, "keyrate without --optimize", "min_nesting", "max_nesting")
        _require_timed(args, [args.distance], nesting)
        n_best, report = nesting, key_rate(
            RepeaterParams(distance_km=args.distance, nesting=nesting, **point)
        )

    lines = [
        f"distance_km={_fmt(args.distance)}",
        f"F0={_fmt(point['f0'])}",
        f"p_G={_fmt(1.0 - point['beta'])}",
        f"beta={_fmt(point['beta'])}",
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

    if args.output is not None:
        header = "L_km,F0,p_G,N_opt,L0_km,P0,Z,R_per_s,eX,eY,eZ,r_inf,K_per_mem_per_s"
        row = _row(
            args.distance, point["f0"], 1.0 - point["beta"], n_best, report.l0_km,
            report.p0, report.z_value, report.rate_pairs_per_s,
            report.e_x, report.e_y, report.e_z,
            report.secret_fraction, report.key_rate,
        )
        _write_rows(args.output, header, [row])
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    station_list = list(TABLE_STATION_COUNTS) if args.stations is None else args.stations
    header = "r,N,p_G_min,F_0_min,p_G_min_full,F_0_min_full"
    rows = []
    print(f"{'r':>5} {'N':>3} {'p_G,min':>9} {'F_0,min':>9}")
    for r in station_list:
        n = _nesting_of(r)
        try:
            pg = threshold_gate_quality(r, tol=args.tolerance)
            f0 = threshold_fidelity(r, tol=args.tolerance)
        except NoThresholdError as exc:
            print(f"{r:>5} {n:>3}  no threshold in bracket ({exc})")
            continue
        print(f"{r:>5} {n:>3} {pg:>9.3f} {f0:>9.3f}")
        rows.append(f"{r},{n},{pg:.3f},{f0:.3f},{_fmt(pg)},{_fmt(f0)}")
    if args.output is not None:
        _write_rows(args.output, header, rows)
    return 0


def _optimize_point(task: tuple[float, list[int], dict]) -> tuple[int, RateReport]:
    distance, n_values, common = task
    return optimize_over_stations(distance, n_range=n_values, **common)


def _optimize_points(
    tasks: list[tuple[float, list[int], dict]], jobs: int
) -> list[tuple[int, RateReport]]:
    """(N_opt, report) for each (distance, nesting levels, common) task."""
    if jobs == 1:
        return [_optimize_point(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_optimize_point, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))


def cmd_sweep(args: argparse.Namespace) -> int:
    n_values = list(_nesting_range(args))

    if args.distance_range is not None:
        if args.fidelity_range is not None or args.gate_quality_range is not None:
            raise CliError("--distance-range cannot be combined with surface ranges")
        _reject(args, "a --distance-range sweep", "distance")
        point = _point(args)
        distances = args.distance_range
        _require_timed(args, distances, n_values[-1])
        results = _optimize_points([(d, n_values, point) for d in distances], args.jobs)
        rows = [
            _row(
                d, n_best, rep.l0_km, rep.p0, rep.z_value, rep.rate_pairs_per_s,
                rep.e_x, rep.e_y, rep.e_z, rep.secret_fraction, rep.key_rate,
            )
            for d, (n_best, rep) in zip(distances, results)
        ]
        header = "L_km,N_opt,L0_km,P0,Z,R_per_s,eX,eY,eZ,r_inf,K_per_mem_per_s"
    elif args.fidelity_range is not None and args.gate_quality_range is not None:
        _reject(args, "a surface sweep", "fidelity", "beta", "gate_quality")
        if args.distance is None:
            raise CliError("--distance (km, positive) is required for a surface sweep")
        count = len(args.fidelity_range) * len(args.gate_quality_range)
        if count > MAX_RANGE_POINTS:
            raise CliError(f"a surface sweep has at most {MAX_RANGE_POINTS} points, got {count}")
        _require_timed(args, [args.distance], n_values[-1])
        fiber = _fiber(args)
        points = [(f0, pg) for f0 in args.fidelity_range for pg in args.gate_quality_range]
        tasks = [
            (args.distance, n_values, {"beta": 1.0 - pg, "f0": f0, **fiber}) for f0, pg in points
        ]
        rows = [
            _row(f0, pg, rep.key_rate, n_best)
            for (f0, pg), (n_best, rep) in zip(points, _optimize_points(tasks, args.jobs))
        ]
        header = "F0,pG,K_per_mem_per_s,N_opt"
    else:
        raise CliError("sweep needs --distance-range, or --fidelity-range and --gate-quality-range")

    _write_rows(args.output, header, rows)
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    point = _point(args)
    if args.distance_range is not None:
        _reject(args, "a --distance-range cost", "distance")
    elif args.distance is None:
        raise CliError("--distance (km, positive) or --distance-range is required")
    distances = args.distance_range or [args.distance]

    n_range = _nesting_range(args)
    _require_timed(args, distances, n_range[-1])
    header = "L_km,C,C_prime,N_opt,L0_km"
    rows = []
    for distance in distances:
        rep = cost_coefficient(distance, n_range=n_range, **point)
        rows.append(_row(distance, rep.cost, rep.cost_coefficient, rep.nesting, rep.l0_km))
        print(
            f"L={_fmt(distance)} km: C={_fmt(rep.cost)} memory-qubits/secret-bit, "
            f"C'={_fmt(rep.cost_coefficient)} /km, N*={rep.nesting}, L0*={_fmt(rep.l0_km)} km"
        )
    if args.output is not None:
        _write_rows(args.output, header, rows)
    return 0


def cmd_enumerate_errors(args: argparse.Namespace) -> int:
    """The 6^3 error-pair combos, the 160 correctable ones and the 64
    distinct states they give.  The 160 x 6 = 960 count treats position
    permutations apart and is printed only for parity with that convention."""
    from itertools import product

    from .frames import ERROR_PAIR_LABELS, _admissible, _correctable_frames

    combos = list(product(ERROR_PAIR_LABELS, repeat=3))
    admissible = [labels for labels in combos if _admissible(labels)]
    print(f"raw_combinations={len(combos)}")
    print(f"admissible_combinations={len(admissible)}")
    print(f"position_permutation_count={6 * len(admissible)}")
    print(f"distinct_orthogonal_states={len(_correctable_frames())}")
    if args.list:
        for labels in admissible:
            print(" ".join(labels))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .validation import run_checks

    results = run_checks(seed=args.seed, trials=args.trials, full=args.full)
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

def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.  Each subcommand declares only the flags it reads, and
    every value flag defaults to None, so that :func:`_resolve` can tell a
    flag left out from one given."""
    parser = _Parser(
        prog="repeater-keyrate",
        description=(
            "Secret key rates, thresholds and resource costs for a quantum "
            f"repeater encoded with the three-qubit repetition code "
            f"(M = {MEMORIES_PER_HALF_NODE} memories per half node)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    ranges = f"start:stop:step, at most {MAX_RANGE_POINTS} points"
    km_range = _range(lambda v: v > 0, "positive")
    unit_range = _range(lambda v: 0 <= v <= 1, "in [0, 1]")

    config = _Parser(add_help=False)
    config.add_argument("--config", help="key = value config file (or set REPEATER_KEYRATE_CONFIG)")
    output = _Parser(add_help=False, parents=[config])
    output.add_argument("--output", help="write CSV to this path ('-' for stdout)")
    rate = _Parser(add_help=False, parents=[output])
    rate.add_argument("--fidelity", type=_UNIT, help="source Bell fidelity F0 in [0, 1]")
    rate.add_argument("--gate-quality", type=_UNIT, help="gate quality p_G = 1 - beta in [0, 1]")
    rate.add_argument("--beta", type=_UNIT, help="two-qubit gate error parameter in [0, 1]")
    rate.add_argument("--alpha", type=_POSITIVE,
                      help=f"fiber attenuation, dB/km, > 0 (default {DEFAULT_ALPHA_DB_PER_KM})")
    rate.add_argument("--speed", type=_POSITIVE,
                      help=f"signal speed in fiber, km/s, > 0 (default {DEFAULT_SPEED_KM_PER_S:g})")
    rate.add_argument("--t0", choices=("physical", "1", "normalized"),
                      help="fundamental time: 'physical' (L0/c, default) or '1' (normalized)")
    rate.add_argument("--min-nesting", type=_NESTING, help=f"smallest nesting level scanned, >= 0 "
                      f"(default {DEFAULT_MIN_NESTING}; 0 enables the repeaterless extension)")
    rate.add_argument("--max-nesting", type=_NESTING, help=f"largest nesting level scanned, "
                      f"up to {MAX_NESTING_LEVEL} (default {DEFAULT_MAX_NESTING})")

    p = sub.add_parser("keyrate", parents=[rate], help="secret key rate for one parameter point")
    p.add_argument("--distance", type=_POSITIVE, help="total distance L in km, > 0")
    p.add_argument("--nesting", type=_NESTING, help=f"nesting level N, 0...{MAX_NESTING_LEVEL}")
    p.add_argument("--stations", type=_STATIONS, help="station count r = 2^N - 1, N as above")
    p.add_argument("--optimize", action="store_true", help="maximize the key rate over N")
    p.set_defaults(func=cmd_keyrate)

    p = sub.add_parser("threshold", parents=[output],
                       help="minimal gate quality / fidelity per station count")
    p.add_argument("--stations", type=_station_list,
                   help=f"comma list of 2^N - 1, N in 1...{MAX_NESTING_LEVEL} (default 1,...,127)")
    p.add_argument("--tolerance", type=_POSITIVE, help="bisection tolerance, > 0 (default 1e-4)")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("sweep", parents=[rate],
                       help="CSV sweep over distance or the (F0, p_G) surface")
    p.add_argument("--distance", type=_POSITIVE, help="total distance L in km, > 0 (surface sweep)")
    p.add_argument("--distance-range", type=km_range, help=f"{ranges}, in km (distance sweep)")
    p.add_argument("--fidelity-range", type=unit_range, help=f"{ranges}, for F0")
    p.add_argument("--gate-quality-range", type=unit_range,
                   help=f"{ranges}, for p_G; at most {MAX_RANGE_POINTS} surface points in all")
    max_jobs = os.cpu_count() or 1
    p.add_argument("--jobs", type=_number(int, lambda n: 1 <= n <= max_jobs, f"1...{max_jobs}"),
                   help="parallel worker processes, 1 to the CPU count (default 1)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cost", parents=[rate],
                       help="memory qubits per secret bit, optimized over N")
    p.add_argument("--distance", type=_POSITIVE, help="total distance L in km, > 0")
    p.add_argument("--distance-range", type=km_range, help=f"{ranges}, in km")
    p.add_argument("--paper-fig8-defaults", action="store_true",
                   help=f"default to F0={FIG8_FIDELITY}, p_G={FIG8_GATE_QUALITY}, normalized T0")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("enumerate-errors", parents=[config],
                       help="correctable error-pattern counts")
    p.add_argument("--list", action="store_true", help="also print the admissible combinations")
    p.set_defaults(func=cmd_enumerate_errors)

    p = sub.add_parser("validate", parents=[config], help="run the numerical self-check suite")
    p.add_argument("--seed", type=_number(int, lambda n: n >= 0, "an integer >= 0"),
                   help="Monte Carlo seed, >= 0 (default 42)")
    p.add_argument("--trials", type=_number(int, lambda n: MIN_TRIALS <= n <= MAX_TRIALS,
                                            f"{MIN_TRIALS}...{MAX_TRIALS}"),
                   help=f"Monte Carlo trials, {MIN_TRIALS}...{MAX_TRIALS} (default 1000000)")
    p.add_argument("--full", action="store_true",
                   help="include the slow full-register equivalence checks")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _resolve(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
