"""Record the benchmark's reference CSVs or a result ledger.

Usage (from the repository root):
    python3 bench/record.py refs
        Re-record bench/refs/<workload>-seed<N>.csv for the default seed and
        the held-out seed.  Do this only in a change that moves output bytes
        on purpose, and say there which rows changed and why.
    python3 bench/record.py ledger --tag TAG [--seconds S]
        Run every workload at the default seed, untraced and traced, and
        write bench/results/BENCH_<TAG>.json with each run's provenance.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import run
import workloads

REF_SEEDS = (0, 9001)   # the default seed and the held-out seed
RESULTS = run.HERE / "results"


def record_refs() -> None:
    check.REFS.mkdir(exist_ok=True)
    run.WORK.mkdir(exist_ok=True)
    for name in workloads.BUILDERS:
        for seed in REF_SEEDS:
            wl = workloads.build(name, seed)
            work = Path(tempfile.mkdtemp(dir=run.WORK))
            try:
                runner = run.Runner(wl, seed, work, time.monotonic() + run.DEADLINE_S, probe=False)
                _, text = runner.command(work / "out.csv")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if text is None:
                sys.exit(f"{name} seed {seed}: the command failed")
            path = check.ref_path(name, seed)
            path.write_text(text, encoding="utf-8")
            _, failed, reasons = check.check_output(wl, text, seed)
            if failed:
                sys.exit(f"{name} seed {seed}: recorded output breaks an invariant: {reasons}")
            print(f"wrote {path.relative_to(run.ROOT)}")


def record_ledger(tag: str, seconds: float) -> None:
    runs = []
    for name in workloads.BUILDERS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.splitlines()
            runs.append({
                "workload": name,
                "trace": trace,
                **json.loads(lines[-2]),
                "samples": [l for l in proc.stderr.splitlines() if l.startswith("samples:")],
                "result": json.loads(lines[-1]),
            })
            print(f"{name} trace={trace}: {lines[-1]}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{tag}.json"
    path.write_text(json.dumps({"tag": tag, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("refs")
    ledger = sub.add_parser("ledger")
    ledger.add_argument("--tag", required=True)
    ledger.add_argument("--seconds", type=float, default=36.0)
    args = parser.parse_args()
    if args.what == "refs":
        record_refs()
    else:
        record_ledger(args.tag, args.seconds)


if __name__ == "__main__":
    main()
