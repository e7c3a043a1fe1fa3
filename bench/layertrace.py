"""Per-layer tracing from outside the package.

Wraps the package's public functions wherever a module has bound them (so
``rates.encoded_pair`` and ``decode.encoded_pair`` are both wrapped), keeps
the spans' sums in memory and turns them into the per-layer metrics when the
command has finished.  ``.s`` is inclusive time, ``.self_s`` subtracts the
time spent in wrapped children, ``.distinct`` counts first-seen arguments:
the work the package's caches cannot hide.  A layer whose functions no
longer exist is reported as absent, with every metric -1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "repeater_keyrate"

# layer -> the (module, function) pairs whose calls are its spans
SPANS = {
    "rates.z_n": [("rates", "z_n")],
    "encgen.encoded_pair": [("encgen", "encoded_pair")],
    "encswap.swap_success_prob": [("encswap", "swap_success_prob")],
    "decode.final_state": [("decode", "final_state")],
    "qstate.bell_diag_coeffs": [("qstate", "bell_diag_coeffs")],
    "rates.key_rate": [("rates", "key_rate")],
    "rates.secret_fraction_six_state": [("rates", "secret_fraction_six_state")],
    "rates.threshold": [("rates", "threshold_gate_quality"), ("rates", "threshold_fidelity")],
    "cli": [("cli", "main")],
}
# layers whose distinct arguments are counted
DISTINCT = ("rates.z_n", "encgen.encoded_pair")
COUNTED_CLASS = ("qstate.density_operator", "qstate", "DensityOperator")

# metric name -> (layer, unit, value from the layer's record)
METRICS = {
    "rates.z_n.calls": ("rates.z_n", "count", lambda r: r.calls),
    "rates.z_n.distinct": ("rates.z_n", "count", lambda r: len(r.seen)),
    "rates.z_n.s": ("rates.z_n", "s", lambda r: r.s),
    "rates.z_n.max_pairs": ("rates.z_n", "count", lambda r: max((k[0] for k in r.seen), default=0)),
    "encgen.encoded_pair.calls": ("encgen.encoded_pair", "count", lambda r: r.calls),
    "encgen.encoded_pair.distinct": ("encgen.encoded_pair", "count", lambda r: len(r.seen)),
    "encgen.encoded_pair.distinct_f0": (
        "encgen.encoded_pair", "count", lambda r: len({k[1] for k in r.seen})),
    "encgen.encoded_pair.s": ("encgen.encoded_pair", "s", lambda r: r.s),
    "encswap.swap_success_prob.calls": ("encswap.swap_success_prob", "count", lambda r: r.calls),
    "encswap.swap_success_prob.s": ("encswap.swap_success_prob", "s", lambda r: r.s),
    "decode.final_state.calls": ("decode.final_state", "count", lambda r: r.calls),
    "decode.final_state.self_s": ("decode.final_state", "s", lambda r: r.self_s),
    "qstate.bell_diag_coeffs.calls": ("qstate.bell_diag_coeffs", "count", lambda r: r.calls),
    "qstate.bell_diag_coeffs.s": ("qstate.bell_diag_coeffs", "s", lambda r: r.s),
    "qstate.density_operator.count": ("qstate.density_operator", "count", lambda r: r.calls),
    "rates.key_rate.calls": ("rates.key_rate", "count", lambda r: r.calls),
    "rates.key_rate.self_s": ("rates.key_rate", "s", lambda r: r.self_s),
    "rates.secret_fraction_six_state.calls": (
        "rates.secret_fraction_six_state", "count", lambda r: r.calls),
    "rates.secret_fraction_six_state.s": ("rates.secret_fraction_six_state", "s", lambda r: r.s),
    # secret-fraction evaluations per bisection
    "rates.threshold.evals": (
        "rates.threshold", "count", lambda r: r.evals / r.calls if r.calls else 0.0),
    "rates.threshold.self_s": ("rates.threshold", "s", lambda r: r.self_s),
    "cli.self_s": ("cli", "s", lambda r: r.self_s),
}


class Record:
    """Sums over one layer's spans."""

    def __init__(self):
        self.present = False
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.seen: set[tuple] = set()
        self.evals = 0


class Tracer:
    def __init__(self):
        self.records = {name: Record() for name in (*SPANS, COUNTED_CLASS[0])}
        self._stack: list[list[float]] = []  # [start, time in wrapped children]

    def install(self) -> None:
        """Wrap every traced function of the (already imported) package."""
        for layer, targets in SPANS.items():
            for module, name in targets:
                fn = _lookup(module, name)
                if callable(fn):
                    _rebind(fn, self._wrap(layer, fn))
                    self.records[layer].present = True
        layer, module, name = COUNTED_CLASS
        cls = _lookup(module, name)
        if isinstance(cls, type):
            self._count_constructions(layer, cls)

    def _wrap(self, layer: str, fn):
        rec = self.records[layer]
        threshold = self.records["rates.threshold"]
        sig = inspect.signature(fn) if layer in DISTINCT else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec.calls += 1
            if sig is not None:
                rec.seen.add(tuple(sig.bind(*args, **kwargs).arguments.values()))
            if layer == "rates.secret_fraction_six_state" and threshold.active:
                threshold.evals += 1
            frame = [clock(), 0.0]
            self._stack.append(frame)
            rec.active += 1
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                self._stack.pop()
                rec.active -= 1
                if not rec.active:
                    rec.s += duration
                rec.self_s += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration

        return traced

    def _count_constructions(self, layer: str, cls: type) -> None:
        rec = self.records[layer]
        rec.present = True
        init = cls.__init__

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            rec.calls += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted

    def metrics(self) -> dict[str, float]:
        out = {}
        for metric, (layer, _, value) in METRICS.items():
            rec = self.records[layer]
            out[metric] = value(rec) if rec.present else -1
        return out

    def absent(self) -> list[str]:
        return [name for name, rec in self.records.items() if not rec.present]


def _lookup(module: str, name: str):
    try:
        return getattr(importlib.import_module(f"{PACKAGE}.{module}"), name, None)
    except ImportError:
        return None


def _rebind(original, replacement) -> None:
    """Point every package-module global bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
