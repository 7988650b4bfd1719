"""Closed-loop benchmark of the twinstripe command line.

Run from the root of a checkout:

    python3 bench/run.py --workload relax --seed 1 --seconds 25 --trace 0

One client calls ``twinstripe.cli.main(argv)`` in-process; the next op
starts when the previous one returns.  The workloads (see workloads.py)
are relax, sweep, verify and certify.  Every op's output is checked.

With ``--trace 0`` the run measures whole rounds of ops until their
summed wall time reaches ``--seconds`` and reports the end-to-end
metrics.  Op latency and CPU time are scaled to the machine's nominal
speed by a reference kernel timed between ops (reference.py); the
unscaled figures are printed on the ``details`` line.  With
``--trace 1`` it runs a fixed op list untraced and then again with the
public functions of the package's modules wrapped (layers.py), and
reports per-layer calls, self time and counters plus the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it record the environment and the details behind the metrics.
The package is imported from ``src/`` of the checkout; without it the
run exits with a non-zero code before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# set-ups per run for setup_s: this process plus SETUP_CHILDREN fresh interpreters
SETUP_CHILDREN = 4
# op time between two timings of the reference kernel
REF_EVERY_S = 0.5
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TWINSTRIPE_THREADS")

# Layer cells that must read zero calls: a workload that stops isolating
# its layer fails the run.
CHESSBOARD = (
    "chessboard.e_infinity",
    "chessboard.screened_energy",
    "chessboard.check_rp_inequality",
    "chessboard.check_chessboard_bound",
    "chessboard.check_master_inequality",
)
LOCALIZATION = (
    "localization.certificate_check",
    "localization.build_partition",
    "localization.build_comparison",
    "localization.classify_intervals",
    "localization.local_error_terms",
    "localization.bmo_seminorm",
    "localization.hilbert_slope_exact",
)
PREDICTED_ZERO = {
    "relax": CHESSBOARD + LOCALIZATION,
    "sweep": CHESSBOARD + LOCALIZATION + ("energy.h_half_sq_fourier",),
    "verify": LOCALIZATION + ("energy.h_half_sq_fourier", "model_core.l2_distance"),
    "certify": CHESSBOARD,
}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(PREDICTED_ZERO))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one timed set-up in a fresh interpreter, used for setup_s
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_package():
    """Import twinstripe from this checkout's src/, never from elsewhere."""
    if not (SRC / "twinstripe" / "cli.py").is_file():
        raise SystemExit(f"bench: no twinstripe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twinstripe

    if Path(twinstripe.__file__).resolve().parent != SRC / "twinstripe":
        raise SystemExit(f"bench: imported twinstripe from {twinstripe.__file__}")
    return twinstripe


def _setup(args: argparse.Namespace, workdir: Path):
    """Imports, input generation and input files.

    Returns (seconds, warm-up op, rounds), the seconds scaled to the
    machine's nominal speed by the reference kernel timed right after.
    """
    t0 = time.perf_counter()
    _import_package()
    import twinstripe.cli  # noqa: F401  (the program the ops run)
    import workloads

    if args.trace:
        rounds = workloads.trace_rounds(args.workload, args.seconds)
    else:
        rounds = workloads.pool_rounds(args.workload, args.seconds)
    warmup, pool = workloads.build(args.workload, args.seed, rounds, workdir)
    elapsed = time.perf_counter() - t0
    import reference

    ref = statistics.mean(reference.reference_seconds() for _ in range(2))
    return elapsed * reference.REF_NOMINAL_S / ref, warmup, pool


def _child_setups(args: argparse.Namespace) -> list[float]:
    """Set-up time of SETUP_CHILDREN fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_CHILDREN):
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--setup-only",
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class _Runner:
    """Runs ops through cli.main, times them and checks their output.

    Timed ops are recorded as samples [label, latency_s, cpu_s, factor];
    the factor scales them to the machine's nominal speed and is filled
    in once the reference kernel has been timed after the op.
    """

    def __init__(self, workload: str):
        import reference
        import twinstripe.cli
        import workloads

        self.cli = twinstripe.cli
        self.workloads = workloads
        self.reference = reference
        self.workload = workload
        self.samples: list[list] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pairing_rel_err = 0.0
        self._pending: list[list] = []
        self._last_ref = 0.0
        self._since_ref = 0.0

    def start_timing(self) -> None:
        self.samples = []
        self._pending = []
        self._last_ref = self.reference.reference_seconds()
        self._since_ref = 0.0

    def finish_timing(self) -> None:
        if self._pending:
            self._take_reference()

    def _take_reference(self) -> None:
        ref = self.reference.reference_seconds()
        factor = self.reference.REF_NOMINAL_S / (0.5 * (self._last_ref + ref))
        for sample in self._pending:
            sample[3] = factor
        self._pending = []
        self._last_ref = ref
        self._since_ref = 0.0

    def run(self, op, timed: bool = True) -> None:
        out, err = io.StringIO(), io.StringIO()
        code, problem = None, None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv)
        except Exception:  # a raising op is a failed op; the loop goes on
            problem = "raised " + traceback.format_exc(limit=-3)
        latency = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self.attempted += 1
        if problem is None and code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()}"
        if problem is None:
            problem = self.workloads.check(self.workload, op, out.getvalue())
        if problem is None and op.expect.get("kind") == "random":
            payload = json.loads(out.getvalue())
            self.pairing_rel_err = max(
                self.pairing_rel_err, self.workloads.pairing_rel_err(payload)
            )
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.label} {' '.join(op.argv)}: {problem}")
        if timed:
            sample = [op.label, latency, cpu, None]
            self.samples.append(sample)
            self._pending.append(sample)
            self._since_ref += latency
            if self._since_ref >= REF_EVERY_S:
                self._take_reference()

    def raw_seconds(self) -> float:
        return sum(s[1] for s in self.samples)

    def scaled(self, column: int) -> list[float]:
        return [s[column] * s[3] for s in self.samples]


def _tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With 10 samples or
    fewer no such percentile exists and the maximum is returned with
    the count of samples beyond it, 0.
    """
    n = len(sorted_values)
    if n <= 10:
        return sorted_values[-1], 100.0, 0
    rank = n - 10  # 1-based rank of the value with exactly 10 above it
    return sorted_values[rank - 1], 100.0 * rank / n, 10


def _environment(args: argparse.Namespace) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_untraced(args, runner: _Runner, warmup, pool) -> tuple[dict, dict]:
    runner.run(warmup, timed=False)
    runner.start_timing()
    rounds = 0
    while runner.raw_seconds() < args.seconds:
        # the pool holds 2x the rounds a run needs at the nominal pace;
        # only a much faster program cycles back to its first round
        for op in pool[rounds % len(pool)]:
            runner.run(op)
        rounds += 1
    runner.finish_timing()
    lat = sorted(runner.scaled(1))
    raw = sorted(s[1] for s in runner.samples)
    tail, pct, beyond = _tail(lat)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "cpu_s_per_op": (sum(runner.scaled(2)) / len(lat), "s"),
    }
    details = {
        "rounds": rounds,
        "ops": len(lat),
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "raw_op_tail_ms": 1e3 * _tail(raw)[0],
        "raw_cpu_s": sum(s[2] for s in runner.samples),
        "speed_factor_median": statistics.median(s[3] for s in runner.samples),
        "class_p50_ms": {
            label: 1e3 * statistics.median(
                s[1] * s[3] for s in runner.samples if s[0] == label
            )
            for label in dict.fromkeys(s[0] for s in runner.samples)
        },
    }
    return metrics, details


def _run_traced(args, runner: _Runner, warmup, pool, package) -> tuple[dict, dict, list[str]]:
    import layers

    ops = [op for rnd in pool for op in rnd]
    runner.run(warmup, timed=False)
    runner.start_timing()
    for op in ops:
        runner.run(op)
    runner.finish_timing()
    untraced = sum(runner.scaled(1))
    tracer = layers.Tracer()
    runner.start_timing()
    tracer.install(package)
    try:
        for op in ops:
            runner.run(op)
    finally:
        tracer.uninstall()
    runner.finish_timing()
    traced = sum(runner.scaled(1))
    metrics = tracer.metrics()
    metrics["trace_overhead"] = (traced / untraced - 1.0, "ratio")
    metrics["localization.pairing_rel_err"] = (runner.pairing_rel_err, "ratio")
    nonzero = [
        name for name in PREDICTED_ZERO[args.workload] if metrics[f"{name}.calls"][0] != 0
    ]
    details = {"ops": len(ops), "untraced_s": untraced, "traced_s": traced}
    return metrics, details, nonzero


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    # cap the sweep's worker pool at the usable cores
    os.environ["TWINSTRIPE_THREADS"] = str(len(os.sched_getaffinity(0)))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=WORK))
    try:
        if args.setup_only:
            setup_s, _, _ = _setup(args, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        own_setup, warmup, pool = _setup(args, workdir)
        runner = _Runner(args.workload)
        nonzero: list[str] = []
        if args.trace:
            package = sys.modules["twinstripe"]
            metrics, details, nonzero = _run_traced(args, runner, warmup, pool, package)
        else:
            child = _child_setups(args)
            metrics, details = _run_untraced(args, runner, warmup, pool)
            metrics["setup_s"] = (statistics.median([own_setup, *child]), "s")
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
            details["setup_samples_s"] = [own_setup, *child]
            details["pairing_rel_err"] = runner.pairing_rel_err
        details["attempted"] = runner.attempted
        details["failed"] = runner.failed
        details["fail_rate"] = runner.failed / runner.attempted
        for message in runner.failures:
            print(f"bench: failed op: {message}", file=sys.stderr)
        for name in nonzero:
            print(f"bench: {name} was called on {args.workload}; predicted zero", file=sys.stderr)
        print("env " + json.dumps(_environment(args)))
        print("details " + json.dumps(details))
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value!r} {unit}")
        correct = runner.failed == 0 and not nonzero
        result = {
            "correct": correct,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # succeeds only when no other run still uses it


if __name__ == "__main__":
    sys.exit(main())
