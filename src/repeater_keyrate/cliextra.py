"""The command line's opt-in inputs: the config file and the help screen.

:mod:`repeater_keyrate.cli` imports this module only when ``--config`` or
REPEATER_KEYRATE_CONFIG names a file, or on ``-h``/``--help``, so a
default command does not compile it.  It takes the CLI's flag tables as
arguments and imports nothing from :mod:`repeater_keyrate.cli`: under
``python -m repeater_keyrate.cli`` that import would load a second ``cli``
module, whose ``CliError`` the running ``main`` would not catch.  So it
raises ValueError, whose message ``cli`` prints as ``error: ...``.
"""

from __future__ import annotations

from .rates import MEMORIES_PER_HALF_NODE

# The values a config file may give a switch, in any case, and whether each turns it on.
_SWITCH = {word: i > 3 for i, word in enumerate("0 false no off 1 true yes on".split())}

_ABOUT = ("Secret key rates, thresholds and resource costs for a quantum repeater encoded with "
          f"the three-qubit repetition code (M = {MEMORIES_PER_HALF_NODE} memories per half node).")


def read_config(path: str, commands: dict, command: str, overridden: set) -> dict:
    """{dest: value} of the ``key = value`` config file at ``path`` for
    ``command``.  Every key must name a flag of some table in ``commands``,
    as one config file serves every subcommand; a key of ``command``'s own
    table that is not ``overridden`` passes its flag's type function, or is
    looked up in :data:`_SWITCH` for a switch.  The last of a repeated key
    wins.  A file that cannot be read, a malformed line, an unknown key or an
    invalid value raises ValueError with the message to print."""
    lines: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if not any(key in table for _, _, table in commands.values()):
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                lines[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}")
    table = commands[command][2]
    values = {}
    for key, raw in lines.items():
        if key in table and key not in overridden:
            kind = table[key][0]
            try:
                if kind is None and raw.lower() not in _SWITCH:
                    raise ValueError(f"expected {', '.join(_SWITCH)}, in any case")
                values[key] = _SWITCH[raw.lower()] if kind is None else kind(raw)
            except ValueError as exc:
                raise ValueError(f"config value for {key} is not valid: {raw!r} ({exc})")
    return values


def help_screen(command: str | None, flags: dict, commands: dict, defaults: dict, flag) -> str:
    """The help of ``command`` (None: the top level, which lists the
    ``commands``): one row per entry of its ``flags`` table, the flag
    spelled by ``flag(dest)``, with the ``defaults`` the flag has."""
    lines = [f"usage: repeater-keyrate {command or 'COMMAND'} [FLAGS]", "",
             commands[command][1] if command else _ABOUT, ""]
    if command is None:
        lines += [f"  {name:<28}{text}" for name, (_, text, _) in commands.items()]
    for dest, (kind, text) in flags.items():
        default = f" (default {defaults[dest]})" if dest in defaults else ""
        lines.append(f"  {flag(dest) + ('' if kind is None else ' VALUE'):<28}{text}{default}")
    return "\n".join(lines)
