"""Command-line front end.

Subcommands: keyrate, threshold, sweep, cost, enumerate-errors, validate, each
with one flag table (``_COMMANDS``) that the parser, the config file and the
help text read.  Parameter precedence is CLI flag > config file (``--config``
or the REPEATER_KEYRATE_CONFIG environment variable, ``key = value`` lines) >
built-in defaults; flag and config values pass the flag's type function.  All
tabular output is CSV with a header row and values printed to 10 significant
digits, so identical inputs give byte-identical files.

This module holds the parser, the flag tables, :func:`main` and the sweep
and threshold commands, which compute the paper's key rate over distance
and its threshold table.  The keyrate, cost, enumerate-errors and validate
commands, the config reader and the help screen live in
:mod:`repeater_keyrate.cliextra`, which :func:`main` imports when it first
runs one of those commands, a config file is named or ``-h``/``--help`` is
given (README "Running" lists what each command loads).  Both sweeps run
through one helper that maps a :mod:`repeater_keyrate.rates` function over
tasks, in a process pool, loaded only then, when ``--jobs`` is above 1: a
distance sweep maps :func:`~repeater_keyrate.rates.optimize_over_stations`
over its distances, a surface sweep
:func:`~repeater_keyrate.rates.surface_key_rates` over one interleaved chunk
of its grid per job, so the CSV is the same at every ``--jobs``.

The parse finds each flag by one lookup of its full name, and looks for a
unique prefix only on a miss.  Its last step checks that ``--output`` can be
written, so a command that cannot save its CSV fails before it computes or
prints anything.  A reader that closes stdout early ends the command with
exit code 1 and no traceback: :func:`main` flushes stdout itself and, on a
``BrokenPipeError``, points it at ``os.devnull``.
"""

import math
import os
import sys
from functools import partial
from types import SimpleNamespace

from . import __version__
from .rates import (
    DEFAULT_ALPHA_DB_PER_KM,
    DEFAULT_MAX_NESTING,
    DEFAULT_MIN_NESTING,
    DEFAULT_SPEED_KM_PER_S,
    TABLE_STATION_COUNTS,
    NoThresholdError,
    check_link,
    nesting_of,
    optimize_over_stations,
    surface_key_rates,
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

# Built-in values of the flags that have one; a flag or config value wins.
_DEFAULTS = {
    "alpha": DEFAULT_ALPHA_DB_PER_KM, "speed": DEFAULT_SPEED_KM_PER_S, "t0": "physical",
    "min_nesting": DEFAULT_MIN_NESTING, "max_nesting": DEFAULT_MAX_NESTING,
    "tolerance": 1e-4, "jobs": 1,
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
    MAX_RANGE_POINTS of them, each accepted by ``ok``, each above the last;
    start == stop is one point, whatever the step."""

    def parse(text: str) -> list[float]:
        try:
            start, stop, step = (float(p) for p in text.split(":"))
        except ValueError:
            start = stop = step = math.nan
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0:
            raise ValueError(f"expected finite start:stop:step, step > 0: {text!r}")
        if stop < start:
            raise ValueError(f"range is empty: {text!r}")
        values = [start]
        while start < stop:
            value = start + len(values) * step
            if value > stop + 1e-9 * step:
                break
            if value == values[-1]:
                raise ValueError(f"step {step!r} leaves two values equal in {text!r}")
            if len(values) == MAX_RANGE_POINTS:
                raise ValueError(f"more than {MAX_RANGE_POINTS} points in {text!r}")
            values.append(value)
        if not all(map(ok, values)):
            raise ValueError(f"range values must be {valid}, got {text!r}")
        return values

    return parse


def _row(*values: float) -> str:
    # one %-format for the row: each value to 10 significant digits, in one call
    return ("%.10g," * len(values))[:-1] % values


def _extra():
    """:mod:`repeater_keyrate.cliextra`, which the first call compiles."""
    from . import cliextra

    return cliextra


def _resolve(argv: list[str] | None) -> SimpleNamespace:
    """Parse ``argv`` and resolve each flag of its subcommand once: the
    command-line value, else the config value (``cliextra.read_config``,
    loaded only when ``--config`` or REPEATER_KEYRATE_CONFIG names a file)
    unless the command line gives a flag of its :data:`_CHOICES`, else the
    built-in default.  ``given``: the dests on the command line;
    ``output_file``: the new --output file, open (:func:`_open_output`)."""
    command, given = _parse(sys.argv[1:] if argv is None else argv)
    table = _COMMANDS[command][2]
    values = {dest: False if kind is None else None for dest, (kind, _) in table.items()} | given
    path = values["config"]
    if path is None:
        path = os.environ.get("REPEATER_KEYRATE_CONFIG")
    if path:
        overridden = set(given).union(*(c for c in _CHOICES if c & given.keys()))
        values |= _extra().read_config(path, command, overridden)
    defaults = dict(_DEFAULTS)
    if values.get("paper_fig8_defaults"):  # --beta, if given, names p_G instead
        gate_quality = FIG8_GATE_QUALITY if values["beta"] is None else None
        defaults.update(fidelity=FIG8_FIDELITY, t0="1", gate_quality=gate_quality)
    values.update((d, v) for d, v in defaults.items() if values.get(d, False) is None)
    path = values.get("output")
    values["output_file"] = None if path in (None, "-") else _open_output(path)
    return SimpleNamespace(command=command, given=set(given), **values)


def _open_output(path: str):
    """The --output check, the last step of the parse, so that a command that
    cannot save its rows fails before it computes or prints anything: a new
    file is created and held open for the rows (:func:`main` removes it if the
    command stops before it writes them), and an existing one is opened for
    appending, which leaves it as it was until the rows replace it; None then."""
    try:
        try:
            return open(path, "x", encoding="utf-8", newline="")
        except FileExistsError:
            open(path, "a").close()
            return None
    except OSError as exc:
        raise CliError(f"cannot write --output {path}: {exc}")


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


def _write_rows(args: SimpleNamespace, header: str, rows: list[str]) -> None:
    """The CSV to stdout without --output or with '-', else to the --output file."""
    text = "".join(line + "\n" for line in [header, *rows])
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
        return
    try:
        with args.output_file or open(args.output, "w", encoding="utf-8", newline="") as out:
            out.write(text)
    except OSError as exc:
        raise CliError(f"cannot write --output {args.output}: {exc}")


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
        _write_rows(args, header, rows)
    return 0


def _map(function, tasks: list, jobs: int) -> list:
    """``function`` of each task, in order: here at ``jobs`` = 1, else in a pool
    of ``jobs`` worker processes."""
    if jobs == 1:
        return list(map(function, tasks))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(function, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))


def cmd_sweep(args: SimpleNamespace) -> int:
    n_values = list(_nesting_range(args))

    if args.distance_range is not None:
        if args.fidelity_range is not None or args.gate_quality_range is not None:
            raise CliError("--distance-range cannot be combined with surface ranges")
        _reject(args, "a --distance-range sweep", "distance")
        point = _point(args)
        distances = args.distance_range
        _require_timed(args, distances, n_values[-1])
        results = _map(partial(optimize_over_stations, n_range=n_values, **point), distances,
                       args.jobs)
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
        points = [(f0, pg) for f0 in args.fidelity_range for pg in args.gate_quality_range]
        # one interleaved chunk of the grid per job, each scored in one call: point i
        # is entry i // jobs of chunk i % jobs, whose (N, K) reversed is its K, N_opt
        jobs = args.jobs
        chunks = [[(1.0 - pg, f0) for f0, pg in points[i::jobs]] for i in range(jobs)]
        grid = partial(surface_key_rates, args.distance, n_range=n_values, **_fiber(args))
        best = _map(grid, chunks, jobs)
        rows = [_row(f0, pg, *best[i % jobs][i // jobs][::-1]) for i, (f0, pg) in enumerate(points)]
        header = "F0,pG,K_per_mem_per_s,N_opt"
    else:
        raise CliError("sweep needs --distance-range, or --fidelity-range and --gate-quality-range")

    _write_rows(args, header, rows)
    return 0


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _parse(argv: list[str]) -> tuple[str, dict]:
    """(command, {dest: value} of the flags given).  A flag is ``--name
    value`` or ``--name=value``, ``name`` a flag of the scope or a unique
    prefix of one; a switch takes no value, and no value starts with ``--``."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    flags = _COMMANDS[command][2] if command else _TOP
    names = {_flag(dest): dest for dest in flags}
    given = {}
    tokens = iter(argv[1:] if command else argv)
    for token in tokens:
        name, has_value, value = ("--help" if token == "-h" else token).partition("=")
        dest = names.get(name)
        if dest is None:  # not a flag's name: a unique prefix of one, three characters or more
            flagged = [flag for flag in names if flag.startswith(name)]
            if len(name) < 3 or not flagged:
                raise CliError(f"unrecognized argument {token!r}")
            if len(flagged) > 1:
                raise CliError(f"ambiguous option: {name} could match {', '.join(flagged)}")
            name = flagged[0]
            dest = names[name]
        kind = flags[dest][0]
        if kind is None and has_value:
            raise CliError(f"argument {name}: ignored explicit argument {value!r}")
        if dest == "help":
            print(_extra().help_screen(command, flags))
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
    "keyrate": (lambda args: _extra().cmd_keyrate(args),
                 "secret key rate for one parameter point", {
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
    "cost": (lambda args: _extra().cmd_cost(args),
             "memory qubits per secret bit, optimized over N", {
        **_RATE,
        "distance": (_POSITIVE, "total distance L in km, > 0"),
        "distance_range": (_KM_RANGE, f"{_RANGE}, in km"),
        "paper_fig8_defaults": (None, f"default to F0={FIG8_FIDELITY}, p_G={FIG8_GATE_QUALITY} "
                                "and normalized T0")}),
    "enumerate-errors": (lambda args: _extra().cmd_enumerate_errors(args),
                         "correctable error-pattern counts", {
        **_CONFIG, "list": (None, "also print the admissible combinations")}),
    "validate": (lambda args: _extra().cmd_validate(args),
                "run the numerical self-check suite", {
        **_CONFIG, "full": (None, "include the slow full-register equivalence checks")}),
}


def main(argv: list[str] | None = None) -> int:
    args = None
    try:
        try:
            args = _resolve(argv)
            return _COMMANDS[args.command][0](args)
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            rows = None if args is None else args.output_file
            if rows is not None and not rows.closed:
                # the command stopped before it wrote its rows: it leaves no file behind
                rows.close()
                os.remove(rows.name)
            sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader of stdout has gone: later flushes, the one at exit among them,
        # write to os.devnull (Python docs, module signal, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    # Under python -m this module runs as __main__: register it under its package
    # name too, so that cliextra imports this module, not a second copy whose
    # CliError main would not catch.
    sys.modules["repeater_keyrate.cli"] = sys.modules[__name__]
    sys.exit(main())
