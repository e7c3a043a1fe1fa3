"""Mutation audit: which sampled mutants of one module does a command catch?

    python tools/mutants.py MODULE [--sample N] [--seed S] [-- COMMAND...]

MODULE is a dotted name under ``src/``.  Its mutation sites are the binary
operators (swapped as in SWAPS), the comparisons (flipped: < to >=, == to !=,
in to not in, ...), the int constants (+1) and the nonzero float constants
(x (1 + 1e-6)), outside annotations and f-strings.  Without COMMAND the sites
are listed.  Otherwise ``--sample`` sites are drawn by ``random.Random(seed)``,
and ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a temporary
directory, where COMMAND runs on the unmutated copy (it must pass), then on
each mutant in turn, with the copy's ``src/`` first on PYTHONPATH and no
bytecode written.  A mutant is killed when COMMAND exits nonzero or runs past
TIMEOUT seconds; its line names the ``[FAIL]`` lines COMMAND printed, else its
last line of output.  The checkout is only read.  Deselect Tier-1's one known
failure (README "Running"), else every mutant reads as killed.
"""

import argparse
import ast
import copy
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600.0
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.FloorDiv: ast.Mod, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
         ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
         ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
         ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}


def _skipped(tree: ast.AST) -> set:
    """The ids of the nodes inside annotations and f-strings."""
    roots = [getattr(n, "annotation", getattr(n, "returns", n)) for n in ast.walk(tree)
             if isinstance(n, (ast.JoinedStr, ast.arg, ast.AnnAssign, ast.FunctionDef))]
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def sites(source: str) -> list:
    """(line, column, node, k) of every mutation site; k is the index of a
    comparison operator, else 0."""
    tree, out = ast.parse(source), []
    skip = _skipped(tree)
    for node in (n for n in ast.walk(tree) if id(n) not in skip):
        if isinstance(node, ast.Compare):
            out += [(node.lineno, node.col_offset, node, k)
                    for k, op in enumerate(node.ops) if type(op) in SWAPS]
        elif type(getattr(node, "op", None)) in SWAPS or isinstance(node, ast.Constant) and (
                type(node.value) is int or type(node.value) is float and node.value != 0.0):
            out.append((node.lineno, node.col_offset, node, 0))
    return sorted(out, key=lambda s: (s[0], s[1], s[3]))


def mutate(source: str, site) -> tuple[str, str, str]:
    """(mutated source, old text, new text): the site's node spliced out and
    its mutant in, every other byte kept."""
    _, _, node, k = site
    new = copy.deepcopy(node)
    if isinstance(node, ast.Constant):
        new.value = node.value + 1 if type(node.value) is int else node.value * (1 + 1e-6)
        text = repr(new.value)
    elif isinstance(node, ast.Compare):
        new.ops[k] = SWAPS[type(node.ops[k])]()
        text = f"({ast.unparse(new)})"
    else:
        new.op = SWAPS[type(node.op)]()
        text = ast.unparse(new) if isinstance(node, ast.AugAssign) else f"({ast.unparse(new)})"
    raw, starts = source.encode(), [0]
    for line in raw.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    a = starts[node.lineno - 1] + node.col_offset
    b = starts[node.end_lineno - 1] + node.end_col_offset
    return (raw[:a] + text.encode() + raw[b:]).decode(), raw[a:b].decode(), text


def _env(workdir: Path) -> dict:
    path = os.pathsep.join(filter(None, [str(workdir / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)


def run(command: list, workdir: Path) -> tuple[bool, str]:
    """(passed, what it printed as [FAIL], else its last line of output)."""
    try:
        done = subprocess.run(command, cwd=workdir, env=_env(workdir), capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT:g} s"
    fails = [line[6:].split("  ")[0].strip() for line in done.stdout.splitlines()
             if line.startswith("[FAIL]")]
    lines = (done.stderr + done.stdout).strip().splitlines()
    return done.returncode == 0, "; ".join(fails) or (lines[-1] if lines else "")


def main(argv: list) -> int:
    command = argv[argv.index("--") + 1:] if "--" in argv else []
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module")
    parser.add_argument("--sample", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv[:len(argv) - len(command) - ("--" in argv)])
    relative = Path("src", *args.module.split(".")).with_suffix(".py")
    source = (ROOT / relative).read_text(encoding="utf-8")
    every = sites(source)
    if not command:
        for n, site in enumerate(every):
            print(f"{n:4d} {relative}:{site[0]}:{site[1]} {mutate(source, site)[1]!r}")
        return 0
    chosen = sorted(random.Random(args.seed).sample(range(len(every)),
                                                    min(args.sample, len(every))))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp).resolve()
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        where = f"import {args.module} as m; print(m.__file__)"
        found = subprocess.run([sys.executable, "-c", where], cwd=work, env=_env(work),
                               capture_output=True, text=True).stdout
        if not found.startswith(str(work)):
            sys.exit(f"error: {args.module} does not import from the copy: {found!r}")
        passed, why = run(command, work)
        if not passed:
            sys.exit(f"error: the command fails on the unmutated copy ({why}); "
                     "every mutant would read as killed")
        killed = 0
        for n in chosen:
            mutated, old, new = mutate(source, every[n])
            (work / relative).write_text(mutated, encoding="utf-8")
            passed, why = run(command, work)
            (work / relative).write_text(source, encoding="utf-8")
            killed += not passed
            status = "survived" if passed else f"killed   {why}"
            print(f"{n:4d} {relative}:{every[n][0]}:{every[n][1]} {old!r} -> {new!r}  {status}",
                  flush=True)
    print(f"{args.module}: {killed} of {len(chosen)} sampled mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
