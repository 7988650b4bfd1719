"""Seeded inputs and output checks for the four benchmark workloads.

Each workload is a list of rounds.  A round holds one op per input
class, so every round has the same mix of sizes and only the seeded
jitter inside each class changes from round to round and from seed to
seed.  The runner executes whole rounds, which keeps the op mix, and
with it every end-to-end metric, comparable between runs.

An op is one ``twinstripe`` command line.  Inputs that the command
reads from files are written as JSON configurations during set-up; the
program sees only those files and its flags.  Only flags that stay in
the command line for good are passed (no ``--cutoff``, ``--doublings``,
``--threads``, and no ``--seed`` on relax or sweep), so every op runs at
the defaults users run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from twinstripe.model_core import Configuration, ModelParams, SawtoothProfile, random_profile
from twinstripe.one_dim import C0, e1d, make_w_m, optimal_even_m
from twinstripe.optimize import striped_candidate

# Seconds one round takes at the seed commit on a 2-core box.  It sizes
# the input pool (see pool_rounds) and the traced op list; it never
# decides how long a run measures.
NOMINAL_ROUND_S = {"relax": 5.0, "sweep": 2.5, "verify": 2.0, "certify": 0.7}

# Relax input classes as (corners, stations).  Few stations make the
# boundary half-norm dominate; many stations make the L2 strain dominate.
# Every class costs about 1 s per op, so op latency is unimodal and its
# median and tail do not jump between classes from run to run.  Ten or
# more corners cost 2-6 s per op even at 2 stations and are left out.
RELAX_CLASSES = ((4, 28), (4, 32), (6, 8), (6, 9), (8, 2))
# beta of the acceptance case; epsilon is set per class so that the
# class's corner count is the optimal one
RELAX_BETA = 1e-3
# The relaxed energy must land within this fraction of e1d(m*).
RELAX_RTOL = 1e-4

VERIFY_TRIALS = 3
VERIFY_OPS_PER_ROUND = 10
VERIFY_SLACK_FLOOR = -1e-9
VERIFY_ALPHAS = 3  # the CLI default --alphas 0.1,1,10

SWEEP_OPS_PER_ROUND = 4
# log-uniform ranges; each round splits every range into one stratum per op
SWEEP_BETA_LO = (0.03, 0.08)
SWEEP_BETA_HI = (0.2, 0.4)
SWEEP_EPS_LO = (2e-4, 6e-4)
SWEEP_EPS_HI = (2e-3, 6e-3)
SWEEP_RTOL = 1e-12

# certify classes per round: striped, pair-perturbed, offset-perturbed, random
CERTIFY_MIX = ("striped",) * 4 + ("pair",) * 4 + ("offset",) * 4 + ("random",) * 8
CERTIFY_STRIPED_EXCESS = 1e-12
CERTIFY_PERTURBED_EXCESS = 1e-6
# pairing_quadrature against pairing_spectral on random inputs.  The
# spectral route's truncation error is about 1e-7 absolute at the default
# mode cutoff, so the relative error is floored at pairings of 1e-2.
PAIRING_RTOL = 1e-4
PAIRING_FLOOR = 1e-2


@dataclass
class Op:
    """One command line with what its output must satisfy."""

    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def pool_rounds(workload: str, seconds: float) -> int:
    """Rounds of inputs to generate: twice what a run at the seed commit
    consumes, so a program up to twice as fast still gets fresh inputs
    before the runner cycles through the pool again."""
    return max(2, math.ceil(2.0 * seconds / NOMINAL_ROUND_S[workload]) + 1)


def trace_rounds(workload: str, seconds: float) -> int:
    """Rounds in the traced op list: a fixed amount of work per
    (workload, seconds), so layer counts compare across commits."""
    return max(1, round(seconds / (2.0 * NOMINAL_ROUND_S[workload])))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, stream]))


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """n log-uniform draws, one per equal log-width stratum, in stratum order."""
    edges = np.linspace(math.log(lo), math.log(hi), n + 1)
    return [float(x) for x in np.exp(rng.uniform(edges[:-1], edges[1:]))]


def _write(path: Path, config: Configuration) -> str:
    path.write_text(config.dumps(), encoding="utf-8")
    return str(path)


def _params_with_optimum(rng: np.random.Generator, m: int, beta: float) -> ModelParams:
    """Unit-cell params whose optimal even interface count is exactly m.

    m is the unique even minimizer of e1d when the continuous optimum
    m_c satisfies m (m - 2) < m_c^2 < m (m + 2).
    """
    mc_sq = m * m + rng.uniform(-0.8, 0.8) * 2 * m
    params = ModelParams(beta, beta * C0 / mc_sq, 1.0, 1.0)
    if optimal_even_m(params).m_star != (m,):
        raise RuntimeError(f"input generator: m* is not {m} for {params}")
    return params


# -- relax ---------------------------------------------------------------------


def _relax_op(rng: np.random.Generator, m: int, stations: int, path: Path) -> Op:
    """Jittered equispaced striped start: each corner pair shifted by up to 0.1/m."""
    params = _params_with_optimum(rng, m, RELAX_BETA)
    base = make_w_m(m, params, y0=float(rng.uniform(0.15, 0.85)) / m)

    def jittered() -> SawtoothProfile:
        # one shift per equal-width stratum of [-0.1/m, 0.1/m], shuffled
        # over the pairs: every start carries the same spread of shifts,
        # which keeps the cost of an op steady within its class
        edges = np.linspace(-0.1 / m, 0.1 / m, m // 2 + 1)
        shifts = rng.permutation(rng.uniform(edges[:-1], edges[1:]))
        cs = np.asarray(base.corners, dtype=float)
        cs[0::2] += shifts
        cs[1::2] += shifts
        return SawtoothProfile(base.period, base.offset, base.initial_slope, tuple(cs))

    xs = tuple(np.linspace(0.0, params.length_L, stations))
    start = Configuration(params, xs, tuple(jittered() for _ in xs))
    return Op(
        f"c{m}s{stations}",
        ["relax", "--config", _write(path, start)],
        {"e_ref": e1d(m, params)},
    )


def _relax_round(seed: int, r: int, workdir: Path) -> list[Op]:
    rng = _rng(seed, r)
    return [
        _relax_op(rng, m, n, workdir / f"relax_{r}_{k}.json")
        for k, (m, n) in enumerate(RELAX_CLASSES)
    ]


def _check_relax(op: Op, out: str) -> str | None:
    payload = json.loads(out)
    parts = payload["energy"]
    if not all(math.isfinite(parts[k]) for k in ("austenite", "strain", "surface", "total")):
        return f"non-finite energy parts {parts}"
    config = payload["configuration"]
    values = [x for p in config["profiles"] for x in [p["offset"], *p["corners"]]]
    if not all(math.isfinite(v) for v in values):
        return "non-finite corner or offset in the relaxed configuration"
    final, start = parts["total"], payload["initial_energy"]
    if final > start + 1e-12 * abs(start):
        return f"energy rose from {start!r} to {final!r}"
    e_ref = op.expect["e_ref"]
    if abs(final - e_ref) > RELAX_RTOL * e_ref:
        return f"final energy {final!r} is not within {RELAX_RTOL} of e1d(m*) = {e_ref!r}"
    return None


# -- sweep -----------------------------------------------------------------------


def _sweep_round(seed: int, r: int, workdir: Path) -> list[Op]:
    """Small (beta, epsilon) grids whose sigma straddles the crossover.

    Every grid has at least as many points as usable cores, so the
    sweep's worker pool has one point per worker.
    """
    rng = _rng(seed, r)
    n = SWEEP_OPS_PER_ROUND
    n_beta = max(2, math.ceil(usable_cores() / 2))
    # op k draws every parameter from its k-th stratum: beta and epsilon
    # rise together, which keeps sigma, m* and so the cost of the ops of
    # a round alike
    columns = [
        _strata(rng, *bounds, n)
        for bounds in (SWEEP_BETA_LO, SWEEP_BETA_HI, SWEEP_EPS_LO, SWEEP_EPS_HI)
    ]
    ops = []
    for k in rng.permutation(n):
        b_lo, b_hi, e_lo, e_hi = (col[k] for col in columns)
        betas = [float(b) for b in np.geomspace(b_lo, b_hi, n_beta)]
        epsilons = [e_lo, e_hi]
        ops.append(
            Op(
                f"grid{n_beta}x2",
                [
                    "sweep",
                    "--betas",
                    ",".join(repr(b) for b in betas),
                    "--epsilons",
                    ",".join(repr(e) for e in epsilons),
                ],
                {"points": len(betas) * len(epsilons)},
            )
        )
    return ops


def _check_sweep(op: Op, out: str) -> str | None:
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if len(rows) != op.expect["points"]:
        return f"expected {op.expect['points']} rows, got {len(rows)}"
    for row in rows:
        params = ModelParams(float(row["beta"]), float(row["epsilon"]), 1.0, 1.0)
        e_striped = float(row["E_striped"])
        e_branched = float(row["E_branched"])
        m_star = int(row["m_star"])
        e_ref = e1d(m_star, params)
        if optimal_even_m(params).m_star[0] != m_star:
            return f"m_star {m_star} is not optimal at {row}"
        if abs(e_striped - e_ref) > SWEEP_RTOL * e_ref:
            return f"E_striped {e_striped!r} differs from e1d(m_star) = {e_ref!r}"
        if not (math.isfinite(e_branched) and e_branched > 0.0):
            return f"E_branched {e_branched!r} is not finite and positive"
        if e_striped < e_branched:
            winner = "striped"
        elif e_branched < e_striped:
            winner = "branched"
        else:
            winner = "degenerate"
        if row["winner"] != winner:
            return f"winner {row['winner']!r} is not the argmin ({winner}) at {row}"
    return None


# -- verify-chessboard -------------------------------------------------------------


def _verify_round(seed: int, r: int, workdir: Path) -> list[Op]:
    rng = _rng(seed, r)
    seeds = rng.integers(0, 2**31, size=VERIFY_OPS_PER_ROUND)
    return [
        Op(
            f"trials{VERIFY_TRIALS}",
            ["verify-chessboard", "--trials", str(VERIFY_TRIALS), "--seed", str(int(s))],
            {"count": VERIFY_TRIALS * VERIFY_ALPHAS},
        )
        for s in seeds
    ]


def _check_verify(op: Op, out: str) -> str | None:
    payload = json.loads(out)
    for family in ("rp", "chessboard", "master"):
        stats = payload[family]
        if stats["count"] != op.expect["count"]:
            return f"{family}: count {stats['count']} != {op.expect['count']}"
        if not stats["min_slack"] >= VERIFY_SLACK_FLOOR:
            return f"{family}: min slack {stats['min_slack']!r} below {VERIFY_SLACK_FLOOR}"
    return None


# -- certify -----------------------------------------------------------------------


def _certify_op(rng: np.random.Generator, kind: str, path: Path) -> Op:
    if kind == "random":
        n = int(rng.integers(2, 4))
        params = ModelParams(
            _log_uniform(rng, 0.05, 1.0), _log_uniform(rng, 0.01, 0.2), 1.0, 1.0
        )
        # 2-12 corners per trace; the far trace needs 4 to build a partition
        teeth = [int(rng.integers(1, 7)) for _ in range(n - 1)] + [int(rng.integers(2, 7))]
        profiles = tuple(random_profile(rng, 1.0, t) for t in teeth)
        config = Configuration(params, tuple(np.linspace(0.0, 1.0, n)), profiles)
        return Op(f"random{n}", ["certify", "--config", _write(path, config)], {"kind": kind})
    m = int(rng.choice((4, 6, 8, 10, 12, 14)))
    stations = int(rng.integers(3, 10))
    beta = _log_uniform(rng, 1e-3, 1e-1)
    config = striped_candidate(_params_with_optimum(rng, m, beta), stations=stations)
    if kind != "striped":
        j = int(rng.integers(1, stations - 1))  # one interior column
        prof = config.profiles[j]
        if kind == "pair":
            i = 2 * int(rng.integers(0, m // 2))
            cs = list(prof.corners)
            shift = float(rng.uniform(0.04, 0.08)) / m
            cs[i] += shift
            cs[i + 1] += shift
            bent = SawtoothProfile(prof.period, prof.offset, prof.initial_slope, tuple(cs))
        else:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            bent = prof.with_offset_shift(sign * float(rng.uniform(0.05, 0.15)) / m)
        config = config.replace_profile(j, bent)
    return Op(f"{kind}{m}", ["certify", "--config", _write(path, config)], {"kind": kind})


def _certify_round(seed: int, r: int, workdir: Path) -> list[Op]:
    rng = _rng(seed, r)
    kinds = rng.permutation(CERTIFY_MIX)
    return [
        _certify_op(rng, str(kind), workdir / f"certify_{r}_{k}.json")
        for k, kind in enumerate(kinds)
    ]


def pairing_rel_err(payload: dict) -> float:
    """|pairing_quadrature - pairing_spectral| / |pairing_spectral|.

    The denominator is floored at PAIRING_FLOOR: when the comparison
    profile nearly equals the trace, both pairings are close to zero and
    only their absolute difference means something.
    """
    quad, spectral = payload["pairing_quadrature"], payload["pairing_spectral"]
    return abs(quad - spectral) / max(abs(spectral), PAIRING_FLOOR)


def _check_certify(op: Op, out: str) -> str | None:
    payload = json.loads(out)
    kind = op.expect["kind"]
    excess = payload["excess"]
    if kind == "striped":
        if not (payload["certified"] and abs(excess) < CERTIFY_STRIPED_EXCESS):
            return f"striped input: certified={payload['certified']}, excess {excess!r}"
    elif kind in ("pair", "offset"):
        if not excess > CERTIFY_PERTURBED_EXCESS:
            return f"{kind}-perturbed input: excess {excess!r} not above {CERTIFY_PERTURBED_EXCESS}"
    else:
        keys = ("excess", "sum_terms", "global_quantity", "pairing_quadrature",
                "pairing_spectral", "cbar_measured")
        bad = [k for k in keys if not math.isfinite(payload[k])]
        if bad:
            return f"random input: non-finite {bad}"
        if pairing_rel_err(payload) > PAIRING_RTOL:
            return f"random input: pairing routes disagree by {pairing_rel_err(payload):.3e}"
    return None


ROUND_BUILDERS = {
    "relax": _relax_round,
    "sweep": _sweep_round,
    "verify": _verify_round,
    "certify": _certify_round,
}
CHECKS = {
    "relax": _check_relax,
    "sweep": _check_sweep,
    "verify": _check_verify,
    "certify": _check_certify,
}

# Stream index for the warm-up round, outside any pool round index.
WARMUP_STREAM = 2**31


def build(workload: str, seed: int, rounds: int, workdir: Path) -> tuple[Op, list[list[Op]]]:
    """The warm-up op and `rounds` rounds of inputs, files written to workdir."""
    make = ROUND_BUILDERS[workload]
    warmup = make(seed, WARMUP_STREAM, workdir)[0]
    return warmup, [make(seed, r, workdir) for r in range(rounds)]


def check(workload: str, op: Op, out: str) -> str | None:
    """None when the op's output is correct, else what is wrong with it."""
    try:
        return CHECKS[workload](op, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
