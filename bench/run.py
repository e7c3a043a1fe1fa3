"""Benchmark of the repeater-keyrate CLI.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each repetition is a fresh Python process
(bench/child.py) that imports ``repeater_keyrate.cli`` from ``src/`` and runs
one command to completion, with BLAS threads pinned to 1, exactly as a CLI
user pays for it.  Repetitions follow one another (a closed loop, one
client) until ``--seconds`` are used.  Every output row is checked
(bench/check.py).

With ``--trace 0`` the end-to-end metrics are reported, in reference
seconds: each repetition's times are scaled by the host speed that
bench/child.py probes around and during it.  With ``--trace 1``
the per-layer metrics of traced repetitions (bench/layertrace.py),
interleaved with untraced ones to measure the tracing overhead.  The last
stdout line is the JSON result; the line before it records provenance.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}
DEADLINE_S = 170          # the whole run ends within this, whatever the workload
MIN_SETUP_SAMPLES = 7     # setup_s is the median of at least this many imports
IMPORTTIME_SAMPLES = 3
IMPORT_PACKAGES = ("numpy", "scipy", "mpmath", "repeater_keyrate")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{name: unit for name, (_, unit, _) in layertrace.METRICS.items()},
    **{f"setup.import.{pkg}_s": "s" for pkg in IMPORT_PACKAGES},
    "trace.overhead_s": "s",
}


class Failed(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, wl: workloads.Workload, seed: int, work: Path, deadline: float,
                 *, probe: bool):
        self.wl = wl
        self.probe = probe
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "REPEATER_KEYRATE_CONFIG"}
        self.env.update(THREAD_ENV)
        self.env.pop("PYTHONPATH", None)
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def _child(self, argv: list[str] | None, trace: bool = False, flags: tuple = ()) -> dict:
        self.count += 1
        result = self.work / f"result{self.count}.json"
        job = {"src": str(SRC), "argv": argv, "trace": trace, "probe": self.probe,
               "result": str(result)}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise Failed("out of time")
        try:
            proc = subprocess.run(
                [sys.executable, *flags, str(HERE / "child.py"), json.dumps(job)],
                env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise Failed(f"repetition did not finish within {timeout:.0f} s")
        if proc.returncode != 0 or not result.exists():
            raise Failed(f"child exited with {proc.returncode}:\n{proc.stderr}")
        out = json.loads(result.read_text(encoding="utf-8"))
        out["stderr"] = proc.stderr
        return out

    def import_only(self) -> dict:
        return self._child(None)

    def command(self, csv: Path, trace: bool = False) -> tuple[dict, str | None]:
        """Run the workload's command once; return the measurements and the CSV."""
        out = self._child([*self.wl.argv, "--output", str(csv)], trace)
        text = csv.read_text(encoding="utf-8") if out["exit"] == 0 and csv.exists() else None
        return out, text

    def repetition(self, trace: bool) -> dict:
        out, text = self.command(self.work / f"out{self.count + 1}.csv", trace)
        attempted, failed, reasons = check.check_output(self.wl, text, self.seed)
        self.attempted += attempted
        self.failed += failed
        for reason in reasons[:10]:
            print(f"check: {reason}", file=sys.stderr)
        if out["exit"] != 0:
            print(f"command exited with {out['exit']}", file=sys.stderr)
        return out

    def importtime(self) -> dict[str, float]:
        """Seconds spent in each package's own modules, from -X importtime."""
        out = self._child(None, flags=("-X", "importtime"))
        totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        for line in out["stderr"].splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if m and m.group(2).split(".")[0] in totals:
                totals[m.group(2).split(".")[0]] += int(m.group(1)) / 1e6
        return totals


def _loop(seconds: float, step) -> list:
    """Call ``step`` at least once, and again while it would end less than
    half a call past ``seconds``."""
    start = time.monotonic()
    samples, durations = [], []
    while True:
        t = time.monotonic()
        samples.append(step())
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(durations) / 2 > seconds:
            return samples


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    reps = _loop(seconds, lambda: runner.repetition(trace=False))
    children = list(reps)
    while len(children) < MIN_SETUP_SAMPLES:
        children.append(runner.import_only())
    walls = [r["wall_s"] * r["scale"] for r in reps]
    setup = [c["import_s"] * c["scale"] for c in children]
    print(f"samples: {len(walls)} repetitions, {len(setup)} imports; "
          f"wall_s quartiles {_quartiles(walls)}; "
          f"raw wall_s {[round(r['wall_s'], 4) for r in reps]}; "
          f"raw setup_s {statistics.median(c['import_s'] for c in children):.4f}; "
          f"scale {statistics.median(c['scale'] for c in children):.4f}", file=sys.stderr)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(runner: Runner, seconds: float) -> dict[str, float]:
    pairs = _loop(
        seconds,
        lambda: (runner.repetition(trace=False), runner.repetition(trace=True)),
    )
    traced = [t for _, t in pairs]
    absent = sorted(set().union(*(t["absent"] for t in traced)))
    if absent:
        print(f"absent layers: {', '.join(absent)}")
    metrics = {
        name: statistics.median(t["layers"][name] for t in traced)
        for name in layertrace.METRICS
    }
    imports = [runner.importtime() for _ in range(IMPORTTIME_SAMPLES)]
    for pkg in IMPORT_PACKAGES:
        metrics[f"setup.import.{pkg}_s"] = statistics.median(i[pkg] for i in imports)
    metrics["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced)
        - statistics.median(u["wall_s"] for u, _ in pairs)
    )
    print(f"samples: {len(pairs)} traced/untraced pairs, {len(imports)} importtime runs",
          file=sys.stderr)
    return metrics


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a (one sample)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g}/{q2:.4g}/{q3:.4g}"


def _git_commit() -> str:
    """HEAD from the .git directory, if the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args: argparse.Namespace, wl: workloads.Workload) -> dict:
    import importlib.metadata as md

    def version(pkg: str) -> str:
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "absent"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": wl.argv,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "threads": THREAD_ENV,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repeater-keyrate CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "repeater_keyrate" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'repeater_keyrate'}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        # per-layer times must not include the host-speed probes
        runner = Runner(wl, args.seed, work, deadline, probe=not args.trace)
        runner.import_only()  # untimed: compiles bytecode and warms the file cache
        if args.trace:
            values, units = per_layer(runner, args.seconds), PER_LAYER_UNITS
        else:
            values, units = end_to_end(runner, args.seconds), END_TO_END_UNITS
    except Failed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"provenance": provenance(args, wl)}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
