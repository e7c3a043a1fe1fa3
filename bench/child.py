"""One repetition in a fresh interpreter: import the CLI, run one command.

Usage: python3 bench/child.py JOB_JSON

JOB_JSON holds ``src`` (the package's source directory), ``argv`` (the CLI
arguments, or null to only import), ``trace`` (wrap the layers first),
``probe`` (sample the host's speed during the command too) and ``result``
(where this process writes its JSON measurements).  The import is timed
separately from the command, because a CLI user pays both on every
invocation.  ``scale`` converts this process's times to reference seconds
(see README.md, "Host speed").
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

PROBE_LOOPS = 200_000
REFERENCE_PROBE_S = 0.02   # PROBE_LOOPS on the reference host, about its usual speed
PROBE_EVERY_S = 0.5


class HostSpeed:
    """Times a fixed pure-Python loop: before the import, on a timer signal
    while the command runs, and after it.  ``spent`` is the time the timer
    probes took, which the command's own time excludes."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def probe(self) -> None:
        start = time.perf_counter()
        x = 0
        for k in range(PROBE_LOOPS):
            x += k * k
        self.samples.append(time.perf_counter() - start)

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probe()
        self.spent += time.perf_counter() - start

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.samples)


def main() -> None:
    job = json.loads(sys.argv[1])
    # one core for the probes and the command alike
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = HostSpeed()
    speed.probe()
    speed.probe()
    sys.path.insert(0, job["src"])
    start = time.perf_counter()
    import repeater_keyrate.cli as cli
    result = {"import_s": time.perf_counter() - start}

    where = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if where != os.path.abspath(job["src"]):
        raise SystemExit(f"imported repeater_keyrate from {where}, not {job['src']}")

    if job["argv"] is not None:
        tracer = None
        if job["trace"]:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        if job["probe"]:
            speed.start_timer()
        start = time.perf_counter()
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        speed.stop_timer()
        elapsed = time.perf_counter() - start
        result["wall_s"] = elapsed - speed.spent
        result["exit"] = code
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["absent"] = tracer.absent()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.probe()
    speed.probe()
    result["scale"] = speed.scale()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
