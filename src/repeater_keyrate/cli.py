"""Command-line front end.

Subcommands: keyrate, threshold, sweep, cost, enumerate-errors, validate, each
with one flag table (``_COMMANDS``) that the parser, the config file and the
help text read.  Parameter precedence is CLI flag > config file (``--config``
or the REPEATER_KEYRATE_CONFIG environment variable, ``key = value`` lines) >
built-in defaults; flag and config values pass the flag's type function.  All
tabular output is CSV with a header row and values printed to 10 significant
digits, so identical inputs give byte-identical files.

The rate commands (keyrate, sweep, cost and threshold, N = 0 included) and
enumerate-errors run on the stdlib alone.  What only an opt-in input needs
is imported when that input first asks for it, so a default command
compiles none of it: the N = 0 decode rows
(:mod:`repeater_keyrate.repeaterless`) on the first level scored at N = 0,
the config reader and the help screen (:mod:`repeater_keyrate.cliextra`)
when a config file is named or on ``-h``/``--help``, the Pauli-frame core
(:mod:`repeater_keyrate.frames`) by enumerate-errors (no rate command loads
it at any N), the process pool by ``--jobs`` above 1 (no numpy), and numpy
and the dense layer by validate.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

from . import __version__
from .rates import (
    DEFAULT_ALPHA_DB_PER_KM,
    DEFAULT_MAX_NESTING,
    DEFAULT_MIN_NESTING,
    DEFAULT_SPEED_KM_PER_S,
    TABLE_STATION_COUNTS,
    NoThresholdError,
    RateReport,
    check_link,
    cost_coefficient,
    key_rate,
    nesting_of,
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
# zero, which the check divides by; 10^7 take ~1.2 s and ~0.35 GB.
MIN_TRIALS, MAX_TRIALS = 100, 10**7

# Built-in values of the flags that have one; a flag or config value wins.
_DEFAULTS = {
    "alpha": DEFAULT_ALPHA_DB_PER_KM, "speed": DEFAULT_SPEED_KM_PER_S, "t0": "physical",
    "min_nesting": DEFAULT_MIN_NESTING, "max_nesting": DEFAULT_MAX_NESTING,
    "tolerance": 1e-4, "jobs": 1, "seed": 42, "trials": 10**6,
}


class CliError(Exception):
    """A rejected input; :func:`main` prints it as ``error: ...`` and returns 2."""


def _number(cast, ok, valid: str):
    """Type function: ``cast(text)``, accepted by ``ok`` and finite if a float;
    ``valid`` names the valid set in the error."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or (cast is float and not math.isfinite(value)) or not ok(value):
            raise ValueError(f"expected {valid}, got {text!r}")
        return value

    return parse


def _is_chain(stations: int) -> bool:
    """stations = 2^N - 1 with N <= MAX_NESTING_LEVEL."""
    nesting = nesting_of(stations)
    return nesting is not None and nesting <= MAX_NESTING_LEVEL


_UNIT = _number(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_POSITIVE = _number(float, lambda v: v > 0, "a positive number")
_NESTING = _number(int, lambda n: 0 <= n <= MAX_NESTING_LEVEL, f"0...{MAX_NESTING_LEVEL}")
_STATIONS = _number(int, _is_chain, f"2^N - 1 stations with N in 0...{MAX_NESTING_LEVEL}")
_T0 = _number(str, ("physical", "1", "normalized").__contains__, "physical, 1 or normalized")
_MAX_JOBS = os.cpu_count() or 1
_JOBS = _number(int, lambda n: 1 <= n <= _MAX_JOBS, f"1...{_MAX_JOBS}")
_TRIALS = _number(int, lambda n: MIN_TRIALS <= n <= MAX_TRIALS, f"{MIN_TRIALS}...{MAX_TRIALS}")
# Flags of one choice: one on the command line drops the config values of all.
_CHOICES = ({"optimize", "nesting", "stations"}, {"beta", "gate_quality"})


def _station_list(text: str) -> list[int]:
    """Comma list of station counts 2^N - 1 with N >= 1."""
    counts = [_STATIONS(s) for s in text.split(",") if s.strip()]
    if not counts or 0 in counts:
        raise ValueError(f"expected a comma list of 2^N - 1, N >= 1, got {text!r}")
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
            raise ValueError(f"expected finite start:stop:step, step > 0: {text!r}")
        if stop < start:
            raise ValueError(f"range is empty: {text!r}")
        values: list[float] = []
        while len(values) <= MAX_RANGE_POINTS:
            value = start + len(values) * step
            if value > stop + 1e-9 * step:
                break
            values.append(value)
        else:
            raise ValueError(f"more than {MAX_RANGE_POINTS} points in {text!r}")
        if not all(map(ok, values)):
            raise ValueError(f"range values must be {valid}, got {text!r}")
        return values

    return parse


def _row(*values: float) -> str:
    # one %-format for the row: each value to 10 significant digits, in one call
    return ("%.10g," * len(values))[:-1] % values


def _resolve(argv: list[str] | None) -> SimpleNamespace:
    """Parse ``argv`` and resolve each flag of its subcommand once: the
    command-line value, else the config value (``cliextra.read_config``,
    loaded only when ``--config`` or REPEATER_KEYRATE_CONFIG names a file)
    unless the command line gives a flag of its :data:`_CHOICES`, else the
    built-in default.  ``given``: the dests on the command line."""
    command, given = _parse(sys.argv[1:] if argv is None else argv)
    table = _COMMANDS[command][2]
    values = {dest: False if kind is None else None for dest, (kind, _) in table.items()} | given
    path = values["config"]
    if path is None:
        path = os.environ.get("REPEATER_KEYRATE_CONFIG")
    if path:
        from .cliextra import read_config

        overridden = set(given).union(*(c for c in _CHOICES if c & given.keys()))
        try:
            values |= read_config(path, _COMMANDS, command, overridden)
        except ValueError as exc:
            raise CliError(str(exc))
    defaults = dict(_DEFAULTS)
    if values.get("paper_fig8_defaults"):  # --beta, if given, names p_G instead
        gate_quality = FIG8_GATE_QUALITY if values["beta"] is None else None
        defaults.update(fidelity=FIG8_FIDELITY, t0="1", gate_quality=gate_quality)
    values.update((d, v) for d, v in defaults.items() if values.get(d, False) is None)
    return SimpleNamespace(command=command, given=set(given), **values)


def _reject(args: SimpleNamespace, mode: str, *dests: str) -> None:
    """Flags the chosen mode does not read are errors when given on the
    command line; config keys are not, as one config file serves every
    subcommand."""
    for dest in dests:
        if dest in args.given:
            raise CliError(f"{_flag(dest)} does not apply to {mode}")


def _fiber(args: SimpleNamespace) -> dict:
    t0_mode = "physical" if args.t0 == "physical" else "normalized"
    return {"alpha_db_per_km": args.alpha, "speed_km_per_s": args.speed, "t0_mode": t0_mode}


def _point(args: SimpleNamespace) -> dict:
    """F0, beta and the fiber keywords of the rate functions; --beta and
    --gate-quality = 1 - beta name the same value."""
    if args.beta is not None and args.gate_quality is not None:
        raise CliError("--beta and --gate-quality are mutually exclusive")
    if args.fidelity is None or args.beta is None and args.gate_quality is None:
        raise CliError("--fidelity and one of --beta or --gate-quality are required")
    beta = args.beta if args.gate_quality is None else 1.0 - args.gate_quality
    return {"beta": beta, "f0": args.fidelity, **_fiber(args)}


def _require_timed(args: SimpleNamespace, distances: list[float], nesting: int) -> None:
    """Reject, before any rate work, a distance whose segments at the deepest
    nesting level are too short for T0 = L0/c to give a finite rate."""
    for distance in distances:
        try:
            check_link(distance, nesting, **_fiber(args))
        except ValueError as exc:
            raise CliError(f"--distance {_row(distance)}: {exc}")


def _nesting_range(args: SimpleNamespace) -> range:
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


def cmd_keyrate(args: SimpleNamespace) -> int:
    point = _point(args)
    if args.distance is None:
        raise CliError("--distance (km, positive) is required")
    if args.nesting is not None and args.stations is not None:
        raise CliError("--nesting and --stations are mutually exclusive")
    nesting = args.nesting if args.stations is None else nesting_of(args.stations)
    if args.optimize == (nesting is not None):
        raise CliError("exactly one of --optimize or --nesting/--stations is required")

    if args.optimize:
        n_range = _nesting_range(args)
        _require_timed(args, [args.distance], n_range[-1])
        n_best, report = optimize_over_stations(args.distance, n_range=n_range, **point)
    else:
        _reject(args, "keyrate without --optimize", "min_nesting", "max_nesting")
        _require_timed(args, [args.distance], nesting)
        n_best, report = nesting, key_rate(args.distance, nesting=nesting, **point)

    # one field table for stdout and the CSV row, which names L and N as L_km and N_opt
    fields = {
        "distance_km": args.distance, "F0": point["f0"], "p_G": 1.0 - point["beta"],
        "beta": point["beta"], "N": n_best, "stations": 2**n_best - 1, "L0_km": report.l0_km,
        "P0": report.p0, "Z": report.z_value, "R_per_s": report.rate_pairs_per_s,
        "p_s": report.p_s, "P_r": report.p_r, "eX": report.e_x, "eY": report.e_y,
        "eZ": report.e_z, "r_inf": report.secret_fraction,
        "K_per_mem_per_s": report.key_rate, "M": report.memories,
    }
    print("\n".join(f"{name}={_row(value)}" for name, value in fields.items()))
    if args.output is not None:
        header = "L_km,F0,p_G,N_opt,L0_km,P0,Z,R_per_s,eX,eY,eZ,r_inf,K_per_mem_per_s"
        aliases = {"L_km": "distance_km", "N_opt": "N"}
        row = _row(*(fields[aliases.get(name, name)] for name in header.split(",")))
        _write_rows(args.output, header, [row])
    return 0


def cmd_threshold(args: SimpleNamespace) -> int:
    station_list = list(TABLE_STATION_COUNTS) if args.stations is None else args.stations
    header = "r,N,p_G_min,F_0_min,p_G_min_full,F_0_min_full"
    rows = []
    print(f"{'r':>5} {'N':>3} {'p_G,min':>9} {'F_0,min':>9}")
    for r in station_list:
        n = nesting_of(r)
        try:
            pg = threshold_gate_quality(r, tol=args.tolerance)
            f0 = threshold_fidelity(r, tol=args.tolerance)
        except NoThresholdError as exc:
            print(f"{r:>5} {n:>3}  no threshold in bracket ({exc})")
            continue
        print(f"{r:>5} {n:>3} {pg:>9.3f} {f0:>9.3f}")
        rows.append(f"{r},{n},{pg:.3f},{f0:.3f},{_row(pg, f0)}")
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


def cmd_sweep(args: SimpleNamespace) -> int:
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


def cmd_cost(args: SimpleNamespace) -> int:
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
            f"L={_row(distance)} km: C={_row(rep.cost)} memory-qubits/secret-bit, "
            f"C'={_row(rep.cost_coefficient)} /km, N*={rep.nesting}, L0*={_row(rep.l0_km)} km"
        )
    if args.output is not None:
        _write_rows(args.output, header, rows)
    return 0


def cmd_enumerate_errors(args: SimpleNamespace) -> int:
    """The 6^3 error-pair combos, the 160 correctable ones and the 64
    distinct states they give.  The 160 x 6 = 960 count treats position
    permutations apart and is printed only for parity with that convention."""
    from .frames import ERROR_PAIR_LABELS, _admissible_combos, _correctable_frames

    admissible = _admissible_combos()
    print(f"raw_combinations={len(ERROR_PAIR_LABELS) ** 3}")
    print(f"admissible_combinations={len(admissible)}")
    print(f"position_permutation_count={6 * len(admissible)}")
    print(f"distinct_orthogonal_states={len(_correctable_frames())}")
    if args.list:
        for labels in admissible:
            print(" ".join(labels))
    return 0


def cmd_validate(args: SimpleNamespace) -> int:
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


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _parse(argv: list[str]) -> tuple[str, dict]:
    """(command, {dest: value} of the flags given).  A flag is ``--name
    value`` or ``--name=value``, ``name`` a flag of the scope or a unique
    prefix of one; a switch takes no value, and no value starts with ``--``."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    flags = _COMMANDS[command][2] if command else _TOP
    given = {}
    tokens = iter(argv[1:] if command else argv)
    for token in tokens:
        name, has_value, value = ("--help" if token == "-h" else token).partition("=")
        dests = [d for d in flags if _flag(d) == name] or [
            d for d in flags if _flag(d).startswith(name)]
        if len(name) < 3 or not dests:
            raise CliError(f"unrecognized argument {token!r}")
        if len(dests) > 1:
            raise CliError(f"ambiguous option: {name} could match {', '.join(map(_flag, dests))}")
        dest = dests[0]
        name, kind = _flag(dest), flags[dest][0]
        if kind is None and has_value:
            raise CliError(f"argument {name}: ignored explicit argument {value!r}")
        if dest == "help":
            from .cliextra import help_screen

            print(help_screen(command, flags, _COMMANDS, _DEFAULTS, _flag))
            raise SystemExit(0)
        if dest == "version":
            print(f"repeater-keyrate {__version__}")
            raise SystemExit(0)
        if kind is not None and not has_value:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise CliError(f"argument {name}: expected one argument")
        try:
            given[dest] = True if kind is None else kind(value)
        except ValueError as exc:
            raise CliError(f"argument {name}: {exc}")
    if command is None:
        raise CliError(f"expected a command: {', '.join(_COMMANDS)}")
    return command, given


_RANGE = f"start:stop:step, at most {MAX_RANGE_POINTS} points"
_KM_RANGE = _range(lambda v: v > 0, "positive")
_UNIT_RANGE = _range(lambda v: 0 <= v <= 1, "in [0, 1]")
# A command reads only its table's flags, {dest: (type function or None for a switch, help)}.
_TOP = {"help": (None, "show this help and exit"), "version": (None, "print the version and exit")}
_CONFIG = {"help": _TOP["help"],
           "config": (str, "key = value config file (or set REPEATER_KEYRATE_CONFIG)")}
_OUTPUT = {**_CONFIG, "output": (str, "write CSV to this path ('-' for stdout)")}
_RATE = {
    **_OUTPUT,
    "fidelity": (_UNIT, "source Bell fidelity F0 in [0, 1]"),
    "gate_quality": (_UNIT, "gate quality p_G = 1 - beta in [0, 1]"),
    "beta": (_UNIT, "two-qubit gate error parameter in [0, 1]"),
    "alpha": (_POSITIVE, "fiber attenuation, dB/km, > 0"),
    "speed": (_POSITIVE, "signal speed in fiber, km/s, > 0"),
    "t0": (_T0, "fundamental time: 'physical' (L0/c) or '1' (normalized)"),
    "min_nesting": (_NESTING, "smallest nesting level scanned, >= 0; 0 adds the repeaterless link"),
    "max_nesting": (_NESTING, f"largest nesting level scanned, up to {MAX_NESTING_LEVEL}"),
}
_COMMANDS = {
    "keyrate": (cmd_keyrate, "secret key rate for one parameter point", {
        **_RATE,
        "distance": (_POSITIVE, "total distance L in km, > 0"),
        "nesting": (_NESTING, f"nesting level N, 0...{MAX_NESTING_LEVEL}"),
        "stations": (_STATIONS, "station count r = 2^N - 1, N as above"),
        "optimize": (None, "maximize the key rate over N")}),
    "threshold": (cmd_threshold, "minimal gate quality / fidelity per station count", {
        **_OUTPUT,
        "stations": (_station_list, f"comma list of 2^N - 1, N in 1...{MAX_NESTING_LEVEL} "
                     "(default 1,...,127)"),
        "tolerance": (_POSITIVE, "bisection tolerance, > 0")}),
    "sweep": (cmd_sweep, "CSV sweep over distance or the (F0, p_G) surface", {
        **_RATE,
        "distance": (_POSITIVE, "total distance L in km, > 0 (surface sweep)"),
        "distance_range": (_KM_RANGE, f"{_RANGE}, in km (distance sweep)"),
        "fidelity_range": (_UNIT_RANGE, f"{_RANGE}, for F0"),
        "gate_quality_range": (_UNIT_RANGE, f"{_RANGE}, for p_G; at most {MAX_RANGE_POINTS} "
                               "surface points in all"),
        "jobs": (_JOBS, "parallel worker processes, 1 to the CPU count")}),
    "cost": (cmd_cost, "memory qubits per secret bit, optimized over N", {
        **_RATE,
        "distance": (_POSITIVE, "total distance L in km, > 0"),
        "distance_range": (_KM_RANGE, f"{_RANGE}, in km"),
        "paper_fig8_defaults": (None, f"default to F0={FIG8_FIDELITY}, p_G={FIG8_GATE_QUALITY} "
                                "and normalized T0")}),
    "enumerate-errors": (cmd_enumerate_errors, "correctable error-pattern counts", {
        **_CONFIG, "list": (None, "also print the admissible combinations")}),
    "validate": (cmd_validate, "run the numerical self-check suite", {
        **_CONFIG,
        "seed": (_number(int, lambda n: n >= 0, "an integer >= 0"), "Monte Carlo seed, >= 0"),
        "trials": (_TRIALS, f"Monte Carlo trials, {MIN_TRIALS}...{MAX_TRIALS}"),
        "full": (None, "include the slow full-register equivalence checks")}),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _resolve(argv)
        return _COMMANDS[args.command][0](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
