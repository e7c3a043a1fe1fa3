"""The benchmark's workloads: seed -> CLI argv, and the rows to expect.

Each workload is one `repeater-keyrate` command run to completion in a fresh
process (a closed loop with one client).  The seed moves the grid and the
parameter point but never the workload's size or shape, so every seed costs
about the same.  Seed 0 is the canonical point described in README.md.
``tiny=True`` shrinks a workload for the self-tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TABLE_STATION_COUNTS = (1, 3, 7, 15, 31, 63, 127)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]          # without --output, which the runner appends
    header: str
    expected_keys: list[tuple]  # identifying columns of each expected row, in order
    min_nesting: int
    max_nesting: int


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def distance_sweep(seed: int, tiny: bool = False) -> Workload:
    """7 distances 1800 km wide, at F0 = p_G = 0.9999 (N_opt = 6 interior)."""
    rng = random.Random(seed)
    start = 200 + (rng.randrange(50) if seed else 0)
    f0 = 0.9999 + (rng.uniform(-2e-5, 2e-5) if seed else 0.0)
    pg = 0.9999 + (rng.uniform(-2e-5, 2e-5) if seed else 0.0)
    step, count, max_n = (300, 7, 10) if not tiny else (900, 2, 3)
    stop = start + step * (count - 1)
    distances = [float(start + step * i) for i in range(count)]
    argv = [
        "sweep", "--distance-range", f"{start}:{stop}:{step}",
        "--fidelity", _fmt(f0), "--gate-quality", _fmt(pg),
        "--min-nesting", "1", "--max-nesting", str(max_n), "--jobs", "1",
    ]
    return Workload(
        "distance_sweep", argv,
        "L_km,N_opt,L0_km,P0,Z,R_per_s,eX,eY,eZ,r_inf,K_per_mem_per_s",
        [(d,) for d in distances], 1, max_n,
    )


def surface_sweep(seed: int, tiny: bool = False) -> Workload:
    """11x11 (F0, p_G) grid at 600 km whose last point is the ideal corner (1, 1).

    Grid steps are k/10000 with k in 6..10; for each of them the range parser
    lands on exactly 1.0, so the corner is always in the grid.
    """
    rng = random.Random(seed)
    kf = rng.randrange(6, 11) if seed else 10
    kg = rng.randrange(6, 11) if seed else 10
    points, max_n = (11, 10) if not tiny else (2, 2)

    def axis(k: int) -> tuple[str, list[float]]:
        step = k / 10000
        start = f"{1 - (points - 1) * step:.4f}"
        values = [float(start) + i * float(f"{step:.4f}") for i in range(points)]
        if values[-1] != 1.0:
            raise ValueError(f"grid step {step} misses the ideal corner")
        return f"{start}:1:{step:.4f}", values

    f_spec, f_values = axis(kf)
    g_spec, g_values = axis(kg)
    argv = [
        "sweep", "--distance", "600",
        "--fidelity-range", f_spec, "--gate-quality-range", g_spec,
        "--min-nesting", "1", "--max-nesting", str(max_n), "--jobs", "1",
    ]
    keys = [(f, g) for f in f_values for g in g_values]
    return Workload("surface_sweep", argv, "F0,pG,K_per_mem_per_s,N_opt", keys, 1, max_n)


def threshold_table(seed: int, tiny: bool = False) -> Workload:
    """All seven published station counts, in a seed-shuffled order.

    The tolerance moves within [1e-4, 1.5e-4], where scipy's bisection takes
    the same number of steps over both brackets, so the work is fixed.
    """
    rng = random.Random(seed)
    stations = list(TABLE_STATION_COUNTS if not tiny else (1, 3))
    tol = 1e-4
    if seed:
        rng.shuffle(stations)
        tol = 1e-4 * (1 + 0.5 * rng.random())
    argv = ["threshold", "--stations", ",".join(map(str, stations)), "--tolerance", _fmt(tol)]
    return Workload(
        "threshold_table", argv, "r,N,p_G_min,F_0_min,p_G_min_full,F_0_min_full",
        [(r,) for r in stations], 1, 7,
    )


BUILDERS = {
    "distance_sweep": distance_sweep,
    "surface_sweep": surface_sweep,
    "threshold_table": threshold_table,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, tiny)
