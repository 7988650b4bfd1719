"""Per-layer spans around the public functions of each twinstripe module.

The tracer wraps functions from the benchmark's side and touches no
package source.  A wrapped name is replaced in every twinstripe module
that holds it, so the ``from .model_core import ...`` copies in
``energy``, ``optimize`` and ``localization`` are timed too; methods are
replaced on their class.

Each call is a span.  A span's self time is its duration minus the part
of it that its child spans cover.  Spans nest on a per-thread stack.  A
span that starts on a worker thread with an empty stack takes the
innermost open span of the main thread as its parent: that is the
``phase_sweep`` call waiting on its pool.  Children on the parent's own
thread run one after another, so their durations add; children on
worker threads may overlap, so the parent subtracts the union of their
intervals.  Spans are aggregated per name as they close.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute path, metric name); the metric name is
# "<module>.<function>" and drops the dunder of __post_init__.
TARGETS = (
    ("model_core", "l2_distance", "model_core.l2_distance"),
    ("model_core", "SawtoothProfile.evaluate", "model_core.SawtoothProfile.evaluate"),
    ("model_core", "SawtoothProfile.__post_init__", "model_core.SawtoothProfile.init"),
    ("model_core", "fourier_coefficients", "model_core.fourier_coefficients"),
    ("energy", "h_half_sq_fourier", "energy.h_half_sq_fourier"),
    ("energy", "h_half_inner", "energy.h_half_inner"),
    ("energy", "strain_energy", "energy.strain_energy"),
    ("energy", "total_energy", "energy.total_energy"),
    ("one_dim", "optimal_even_m", "one_dim.optimal_even_m"),
    ("one_dim", "make_w_m", "one_dim.make_w_m"),
    ("chessboard", "e_infinity", "chessboard.e_infinity"),
    ("chessboard", "screened_energy", "chessboard.screened_energy"),
    ("chessboard", "check_rp_inequality", "chessboard.check_rp_inequality"),
    ("chessboard", "check_chessboard_bound", "chessboard.check_chessboard_bound"),
    ("chessboard", "check_master_inequality", "chessboard.check_master_inequality"),
    ("localization", "certificate_check", "localization.certificate_check"),
    ("localization", "build_partition", "localization.build_partition"),
    ("localization", "build_comparison", "localization.build_comparison"),
    ("localization", "classify_intervals", "localization.classify_intervals"),
    ("localization", "local_error_terms", "localization.local_error_terms"),
    ("localization", "bmo_seminorm", "localization.bmo_seminorm"),
    ("localization", "hilbert_slope_exact", "localization.hilbert_slope_exact"),
    ("optimize", "relax", "optimize.relax"),
    ("optimize", "branched_candidate", "optimize.branched_candidate"),
    ("optimize", "phase_sweep", "optimize.phase_sweep"),
    ("cli", "main", "cli.main"),
)

# Counters read from a call's arguments or result, beside calls and self time.
COUNTERS = (
    "model_core.fourier_coefficients.modes_x_corners",
    "localization.hilbert_slope_exact.points",
    "chessboard.e_infinity.failed",
    "optimize.relax.accepted_moves",
    "optimize.relax.l2_calls",
)


@dataclass
class _Span:
    start: float
    parent: "_Span | None"
    same_thread: bool
    covered: float = 0.0
    worker_intervals: list = field(default_factory=list)


def _union_length(intervals: list, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Wraps the TARGETS of a loaded twinstripe package; undo with uninstall()."""

    def __init__(self) -> None:
        self.calls = {name: 0 for _, _, name in TARGETS}
        self.self_s = {name: 0.0 for _, _, name in TARGETS}
        self.counters = {name: 0 for name in COUNTERS}
        self._local = threading.local()
        self._main_stack: list[_Span] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _close(self, span: _Span, name: str, end: float) -> None:
        duration = end - span.start
        covered = span.covered
        if span.worker_intervals:
            with self._lock:
                intervals = list(span.worker_intervals)
            covered += _union_length(intervals, span.start, end)
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += max(0.0, duration - covered)
        parent = span.parent
        if parent is None:
            return
        if span.same_thread:
            parent.covered += duration
        else:
            with self._lock:
                parent.worker_intervals.append((span.start, end))

    def _wrap(self, fn, name: str, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                span = _Span(time.perf_counter(), stack[-1], True)
            else:
                main = tracer._main_stack
                parent = main[-1] if (main and stack is not main) else None
                span = _Span(time.perf_counter(), parent, False)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "chessboard.e_infinity":
                    with tracer._lock:
                        tracer.counters["chessboard.e_infinity.failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(span, name, end)
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return traced

    def _extras(self, name: str):
        counters, lock = self.counters, self._lock

        def add(key: str, value: int) -> None:
            with lock:
                counters[key] += value

        if name == "model_core.fourier_coefficients":
            return lambda a, k, r: add(
                "model_core.fourier_coefficients.modes_x_corners", len(r) * len(a[0].corners)
            )
        if name == "localization.hilbert_slope_exact":
            return lambda a, k, r: add("localization.hilbert_slope_exact.points", int(np.size(r)))
        return None

    def _relax_wrapper(self, fn):
        """relax: accepted moves from the history list, l2 calls inside it."""
        traced = self._wrap(fn, "optimize.relax", None)
        tracer = self

        @functools.wraps(fn)
        def relax(start, opts, history=None, **kwargs):
            before = tracer.calls["model_core.l2_distance"]
            result = traced(start, opts, history=history, **kwargs)
            if history is not None:  # the CLI always passes one
                with tracer._lock:
                    tracer.counters["optimize.relax.accepted_moves"] += max(0, len(history) - 1)
                    tracer.counters["optimize.relax.l2_calls"] += (
                        tracer.calls["model_core.l2_distance"] - before
                    )
            return result

        return relax

    def install(self, package) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == package.__name__ or key.startswith(package.__name__ + ".")
        ]
        for module_name, path, name in TARGETS:
            owner = sys.modules[f"{package.__name__}.{module_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if name == "optimize.relax":
                wrapper = self._relax_wrapper(original)
            else:
                wrapper = self._wrap(original, name, self._extras(name))
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for _, _, name in TARGETS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        inits = self.calls["model_core.SawtoothProfile.init"]
        evals = self.calls["model_core.SawtoothProfile.evaluate"]
        out["model_core.evals_per_profile"] = (evals / inits if inits else 0.0, "ratio")
        for key in (
            "model_core.fourier_coefficients.modes_x_corners",
            "localization.hilbert_slope_exact.points",
            "chessboard.e_infinity.failed",
            "optimize.relax.accepted_moves",
        ):
            out[key] = (self.counters[key], "count")
        accepted = self.counters["optimize.relax.accepted_moves"]
        l2_in_relax = self.counters["optimize.relax.l2_calls"]
        out["optimize.relax.l2_calls_per_accept"] = (
            l2_in_relax / accepted if accepted else 0.0,
            "ratio",
        )
        return out
