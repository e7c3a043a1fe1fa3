"""The command line's commands and inputs that no default import compiles.

:mod:`repeater_keyrate.cli` compiles the parser, the flag tables, ``main``
and the ``sweep`` and ``threshold`` commands, which compute the paper's key
rate over distance and its threshold table.  This module holds the rest and
loads on first use: the ``keyrate``, ``cost``, ``enumerate-errors`` and
``validate`` commands when ``main`` first runs one, the config reader when
``--config`` or REPEATER_KEYRATE_CONFIG names a file, and the help screen on
``-h``/``--help``.  It imports its helpers and tables from
:mod:`repeater_keyrate.cli`; under ``python -m repeater_keyrate.cli`` that
name is the running module, so its ``CliError`` is the one ``main`` catches.
"""

from types import SimpleNamespace

from .cli import (
    _COMMANDS,
    _DEFAULTS,
    CliError,
    _flag,
    _nesting_range,
    _point,
    _reject,
    _require_timed,
    _row,
    _write_rows,
)
from .rates import (
    MEMORIES_PER_HALF_NODE,
    cost_coefficient,
    key_rate,
    nesting_of,
    optimize_over_stations,
)

# The values a config file may give a switch, in any case, and whether each turns it on.
_SWITCH = {word: i > 3 for i, word in enumerate("0 false no off 1 true yes on".split())}

_ABOUT = ("Secret key rates, thresholds and resource costs for a quantum repeater encoded with "
          f"the three-qubit repetition code (M = {MEMORIES_PER_HALF_NODE} memories per half node).")


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
        _write_rows(args, header, [row])
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
        _write_rows(args, header, rows)
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

    results = run_checks(full=args.full)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"[{status}] {r.name:<{width}}  tolerance: {r.tolerance}; observed: {r.observed}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def read_config(path: str, command: str, overridden: set) -> dict:
    """{dest: value} of the ``key = value`` config file at ``path`` for
    ``command``.  Every key must name a flag of some subcommand, as one
    config file serves every subcommand; a key of ``command``'s own table
    that is not ``overridden`` passes its flag's type function, or is looked
    up in :data:`_SWITCH` for a switch.  The last of a repeated key wins.  A
    file that cannot be read, a malformed line, an unknown key or an invalid
    value raises CliError."""
    lines: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if not any(key in table for _, _, table in _COMMANDS.values()):
                    raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
                lines[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    table = _COMMANDS[command][2]
    values = {}
    for key, raw in lines.items():
        if key in table and key not in overridden:
            kind = table[key][0]
            try:
                if kind is None and raw.lower() not in _SWITCH:
                    raise ValueError(f"expected {', '.join(_SWITCH)}, in any case")
                values[key] = _SWITCH[raw.lower()] if kind is None else kind(raw)
            except ValueError as exc:
                raise CliError(f"config value for {key} is not valid: {raw!r} ({exc})")
    return values


def help_screen(command: str | None, flags: dict) -> str:
    """The help of ``command`` (None: the top level, which lists the
    subcommands): one row per entry of its ``flags`` table, with the
    default the flag has."""
    lines = [f"usage: repeater-keyrate {command or 'COMMAND'} [FLAGS]", "",
             _COMMANDS[command][1] if command else _ABOUT, ""]
    if command is None:
        lines += [f"  {name:<28}{text}" for name, (_, text, _) in _COMMANDS.items()]
    for dest, (kind, text) in flags.items():
        default = f" (default {_DEFAULTS[dest]})" if dest in _DEFAULTS else ""
        lines.append(f"  {_flag(dest) + ('' if kind is None else ' VALUE'):<28}{text}{default}")
    return "\n".join(lines)
