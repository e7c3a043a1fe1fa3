"""Output check: byte-exact comparison with recorded CSVs, plus invariants.

Every expected row is checked.  A row fails when it is missing, when it
differs byte for byte from the reference CSV recorded for this seed (if one
exists), or when it breaks one of the workload's invariants:

- 0 <= eX, eY, eZ <= 1 and K = R * max(r_inf, 0) / 6;
- 1/P0 <= Z <= 3 * 2^N / P0 (the wait for the slowest of 3 * 2^N pairs);
- N_opt lies in the scanned nesting range;
- threshold columns lie inside their bisection brackets and do not
  decrease in r.

Values are printed to 10 significant digits, so relations between printed
numbers hold up to a relative slack of ``REL``.
"""

from __future__ import annotations

import math
from pathlib import Path

from workloads import Workload

REFS = Path(__file__).resolve().parent / "refs"
REL = 1e-8
MEMORIES_PER_HALF_NODE = 6
GATE_BRACKET = (0.95, 1.0)   # p_G = 1 - beta, beta bisected over [0, 0.05]
FIDELITY_BRACKET = (0.9, 1.0)


def ref_path(name: str, seed: int) -> Path:
    return REFS / f"{name}-seed{seed}.csv"


def _same(values: list[float], key: tuple) -> bool:
    return all(math.isclose(v, k, rel_tol=REL) for v, k in zip(values, key, strict=True))


def _le(a: float, b: float) -> bool:
    return a <= b + REL * max(abs(a), abs(b))


def _nesting_ok(n: float, wl: Workload) -> bool:
    return n == int(n) and wl.min_nesting <= n <= wl.max_nesting


def _distance_row(v: list[float], key: tuple, wl: Workload) -> bool:
    l_km, n, l0, p0, z, rate, e_x, e_y, e_z, r_inf, k = v
    return (
        _same([l_km], key)
        and _nesting_ok(n, wl)
        and math.isclose(l0, l_km / 2**n, rel_tol=REL)
        and all(0.0 <= e <= 1.0 for e in (e_x, e_y, e_z))
        and 0.0 < p0 <= 1.0
        and _le(1.0 / p0, z) and _le(z, 3 * 2**n / p0)
        and math.isclose(k, rate * max(r_inf, 0.0) / MEMORIES_PER_HALF_NODE,
                         rel_tol=REL, abs_tol=1e-300)
    )


def _surface_row(v: list[float], key: tuple, wl: Workload) -> bool:
    f0, pg, k, n = v
    return _same([f0, pg], key) and k >= 0.0 and _nesting_ok(n, wl)


def _threshold_row(v: list[float], key: tuple, wl: Workload) -> bool:
    r, n, pg3, f3, pg, f = v
    return (
        _same([r], key)
        and 2**n == r + 1
        and GATE_BRACKET[0] <= pg <= GATE_BRACKET[1]
        and FIDELITY_BRACKET[0] <= f <= FIDELITY_BRACKET[1]
        and abs(pg3 - pg) <= 5e-4 + 1e-12 and abs(f3 - f) <= 5e-4 + 1e-12
    )


ROW_CHECKS = {
    "distance_sweep": _distance_row,
    "surface_sweep": _surface_row,
    "threshold_table": _threshold_row,
}


def _threshold_monotone(rows: dict[tuple, list[float]]) -> set[tuple]:
    """Keys of rows whose thresholds drop below those of a smaller r."""
    bad = set()
    ordered = sorted(rows.items(), key=lambda kv: kv[0][0])
    for (_, prev), (key, cur) in zip(ordered, ordered[1:]):
        if cur[4] < prev[4] or cur[5] < prev[5]:
            bad.add(key)
    return bad


def check_output(wl: Workload, text: str | None, seed: int) -> tuple[int, int, list[str]]:
    """Return (attempted rows, failed rows, reasons) for one command's CSV.

    ``text`` is None when the command failed; then every row fails.
    """
    attempted = len(wl.expected_keys)
    if text is None:
        return attempted, attempted, ["command failed"]
    lines = text.splitlines()
    if not lines or lines[0] != wl.header:
        return attempted, attempted, ["header differs"]
    got = lines[1:]
    reasons = []
    ref = ref_path(wl.name, seed)
    ref_rows = ref.read_text(encoding="utf-8").splitlines()[1:] if ref.exists() else None
    row_ok = ROW_CHECKS[wl.name]
    parsed: dict[tuple, list[float]] = {}
    failed = 0
    for i, key in enumerate(wl.expected_keys):
        if i >= len(got):
            reasons.append(f"row {i + 1} missing")
            failed += 1
            continue
        line = got[i]
        if ref_rows is not None and (i >= len(ref_rows) or line != ref_rows[i]):
            reasons.append(f"row {i + 1} differs from {ref.name}: {line}")
            failed += 1
            continue
        try:
            values = [float(x) for x in line.split(",")]
            ok = row_ok(values, key, wl)
        except ValueError:  # unparsable cells or wrong column count
            ok = False
        if not ok:
            reasons.append(f"row {i + 1} breaks an invariant: {line}")
            failed += 1
            continue
        parsed[key] = values
    if wl.name == "threshold_table":
        for key in _threshold_monotone(parsed):
            reasons.append(f"threshold for r={key[0]:g} decreases in r")
            failed += 1
    extra = len(got) - len(wl.expected_keys)
    if extra > 0:
        reasons.append(f"{extra} unexpected extra rows")
        attempted += extra
        failed += extra
    return attempted, failed, reasons
