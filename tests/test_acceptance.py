"""End-to-end acceptance gate: twelve numbered checks, one verdict line each.

Each test exercises one headline guarantee of the package at a pinned
tolerance and prints a single PASS/FAIL line (visible with pytest -s or
in failure reports), so the whole gate reads as a twelve-line scorecard.
"""

import math
import time

import numpy as np

from twinstripe.model_core import (
    Configuration,
    ModelParams,
    SawtoothProfile,
    l2_distance,
    random_profile,
)
from twinstripe.energy import (
    AusteniteField,
    austenite_energy,
    fourier_coefficients,
    h_half_inner,
    h_half_sq,
    h_half_sq_fourier,
    h_half_sq_realspace,
    strain_energy,
    surface_energy,
    total_energy,
)
from twinstripe.one_dim import (
    C0,
    e1d,
    lower_bound_decomposition,
    make_w_m,
    optimal_even_m,
)
from twinstripe.chessboard import (
    check_master_inequality,
    kernel_identity_check,
    verify_suite,
)
from twinstripe import localization as loc
from twinstripe import optimize as op

ZETA3 = 1.2020569031595942854
UNIT = ModelParams(1.0, 1e-3, 1.0, 1.0)


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {number:02d} {label}: {detail}")
    assert ok, f"{number:02d} {label}: {detail}"


def test_01_striped_constant_from_mode_sum():
    target = 14.0 * ZETA3 / math.pi**2
    worst = 0.0
    for m in (2, 4, 8, 16):
        val = h_half_sq_fourier(make_w_m(m, UNIT), 4096) * m
        worst = max(worst, abs(val - target) / target)
    _verdict(1, "striped trace constant", worst < 1e-6, f"max rel err {worst:.3e}")


def test_02_half_norm_duality_fourier_vs_realspace():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        prof = random_profile(rng, 1.0, max_teeth=16)
        a = h_half_sq_fourier(prof, 4096)
        b = h_half_sq_realspace(prof)
        worst = max(worst, abs(a - b) / max(a, b))
    _verdict(2, "half-norm duality", worst < 1e-3, f"max rel err {worst:.3e}")


def test_03_harmonic_extension_mode_by_mode():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        prof = random_profile(rng, 1.0, max_teeth=12)
        beta = float(rng.uniform(0.1, 10.0))
        field = AusteniteField(prof, mode_cutoff=512)
        ks = np.arange(1, 513)
        coeffs = fourier_coefficients(prof, ks)
        w = 2.0 * np.pi * ks / prof.period
        per_mode_field = (
            4.0 * np.pi * beta * (w**2 + w**2)
            * np.abs(coeffs) ** 2 * prof.period / (4.0 * np.pi * ks / prof.period)
        )
        per_mode_trace = beta * 8.0 * math.pi**2 * ks * np.abs(coeffs) ** 2
        mask = per_mode_trace > 0
        worst = max(
            worst,
            float(
                np.max(
                    np.abs(per_mode_field[mask] - per_mode_trace[mask])
                    / per_mode_trace[mask]
                )
            ),
        )
        total = austenite_energy(field, beta)
        ref = beta * h_half_sq_fourier(prof, 512)
        worst = max(worst, abs(total - ref) / ref)
    _verdict(3, "extension energy mode by mode", worst < 1e-12, f"max rel err {worst:.3e}")


def test_04_optimal_stripe_count_grid():
    worst_gap = 0.0
    mismatches = 0
    for b in np.logspace(-2, 2, 20):
        for e in np.logspace(-5, -1, 20):
            p = ModelParams(float(b), float(e), 1.0, 1.0)
            res = optimal_even_m(p)
            m_hi = max(4, 2 * int(2 * res.m_continuous) + 8)
            brute = min(range(2, m_hi + 1, 2), key=lambda m: e1d(m, p))
            if e1d(brute, p) != res.energy:
                mismatches += 1
            if b >= 10.0 * e:
                worst_gap = max(worst_gap, abs(res.m_star[0] - res.m_continuous))
    ok = mismatches == 0 and worst_gap <= 2.0
    _verdict(
        4,
        "optimal stripe count",
        ok,
        f"{mismatches} exhaustive mismatches, worst |M*-continuous| {worst_gap:.3f}",
    )


def test_05_reflection_bound_suite_and_master_equality():
    report = verify_suite(trials=1000, seed=0, alphas=(0.1, 1.0, 10.0))
    rp_min = report["rp"]["min_slack"]
    cb_min = report["chessboard"]["min_slack"]

    rng = np.random.default_rng(3)
    rand_min = math.inf
    for _ in range(200):
        prof = random_profile(rng, 1.0, max_teeth=16)
        rep = check_master_inequality(prof, integrate=False)
        scale = max(1.0, max(abs(v) for v in rep.lhs))
        rand_min = min(rand_min, rep.min_slack / scale)
    eq_worst = 0.0
    for m in (2, 4, 8, 16):
        rep = check_master_inequality(make_w_m(m, UNIT), integrate=False)
        eq_worst = max(eq_worst, max(abs(v) for v in rep.slack))
    ok = (
        rp_min >= -1e-9
        and cb_min >= -1e-9
        and rand_min >= -1e-9
        and eq_worst < 1e-6
    )
    _verdict(
        5,
        "reflection bound suite",
        ok,
        f"min slacks rp {rp_min:.2e}, chessboard {cb_min:.2e}, "
        f"master {rand_min:.2e}; equispaced equality {eq_worst:.2e}",
    )


def test_06_screening_kernel_identity():
    worst = max(row["rel_error"] for row in kernel_identity_check(ds=(0.1, 1.0, 3.0)))
    _verdict(6, "screening kernel identity", worst < 1e-6, f"max rel err {worst:.3e}")


def test_07_lower_bound_decomposition():
    params = ModelParams(1.0, 1e-3, 1.0, 1.0)
    rng = np.random.default_rng(7)
    worst = math.inf
    for _ in range(200):
        prof = random_profile(rng, 1.0, max_teeth=16)
        base, spread = lower_bound_decomposition(prof, params)
        lhs = params.beta * h_half_sq(prof) + (
            params.epsilon * params.length_L * prof.interface_count()
        )
        worst = min(worst, lhs - base - spread)
    eq_worst = 0.0
    for m in (2, 4, 8, 16):
        w = make_w_m(m, params)
        base, spread = lower_bound_decomposition(w, params)
        lhs = params.beta * h_half_sq(w) + (
            params.epsilon * params.length_L * m
        )
        eq_worst = max(eq_worst, abs(lhs - base - spread))
    ok = worst >= -1e-6 and eq_worst < 1e-8
    _verdict(
        7,
        "lower-bound decomposition",
        ok,
        f"min slack {worst:.3e}, equispaced residual {eq_worst:.3e}",
    )


def test_08_pairing_dual_routes():
    rng = np.random.default_rng(101)
    worst = 0.0
    tested = 0
    while tested < 50:
        u1 = random_profile(rng, 1.0, int(rng.integers(2, 7)))
        u0 = random_profile(rng, 1.0, int(rng.integers(1, 7)))
        part = loc.build_partition(u1)
        cmp = loc.build_comparison(u0, part)
        w = cmp.profile
        if l2_distance(u0, w) < 1e-6:
            continue  # trace already matched, both routes are zero
        tested += 1
        spectral = h_half_inner(w, u0) - h_half_sq(w)
        exact = float(np.sum(loc._interval_pairings(w, u0, part)))
        worst = max(worst, abs(spectral - exact) / abs(spectral))
    _verdict(8, "pairing dual routes", worst < 1e-9, f"max rel err {worst:.3e} on {tested} pairs")


def test_09_localization_recomposition_and_matching():
    rng = np.random.default_rng(41)
    params = ModelParams(0.8, 0.05, 1.0, 1.0)
    worst = 0.0
    for _ in range(100):
        u1 = random_profile(rng, 1.0, int(rng.integers(2, 7)))
        u0 = random_profile(rng, 1.0, int(rng.integers(1, 7)))
        part = loc.build_partition(u1)
        cmp = loc.build_comparison(u0, part)

        # matching conditions: endpoint values, per-window mass, containment
        for k in range(part.count):
            lo, hi = part.interval(k)
            for edge in (lo, hi):
                worst = max(worst, abs(cmp.profile.evaluate(edge) - u0.evaluate(edge)))
            worst = max(
                worst,
                abs(
                    loc._window_integral(cmp.profile, lo, hi)
                    - loc._window_integral(u0, lo, hi)
                ),
            )
            inside = [
                z
                for z in cmp.profile.corners
                if lo - 1e-12 <= z < hi or lo - 1e-12 <= z + 1.0 < hi
            ]
            del inside  # containment is asserted by the builder itself

        # recomposition: local shares resum to the global quantities
        config = Configuration(params, (0.0, 1.0), (u0, u1))
        terms = loc.classify_intervals(config, part)
        f1 = sum(t.f1 for t in terms)
        f2 = sum(t.f2 for t in terms)
        strain = strain_energy(config)
        surface_excess = surface_energy(config) - params.epsilon * part.m_corners
        scale1 = max(1.0, abs(strain))
        scale2 = max(1.0, abs(surface_excess))
        worst = max(worst, abs(f1 - strain) / scale1, abs(f2 - surface_excess) / scale2)

    striped = op.striped_candidate(ModelParams(1e-3, 1e-5, 1.0, 1.0), stations=5)
    part = loc.build_partition(striped.profiles[-1])
    types = [t.itype for t in loc.classify_intervals(striped, part)]
    ok = worst < 1e-10 and all(t == 1 for t in types)
    _verdict(
        9,
        "localization recomposition",
        ok,
        f"max residual {worst:.3e}; striped interval types {sorted(set(types))}",
    )


def test_10_relaxation_recovers_striped():
    params = ModelParams(1e-3, 1e-5, 1.0, 1.0)
    m = optimal_even_m(params).m_star[0]
    base = make_w_m(m, params, y0=0.3 / m)
    rng = np.random.default_rng(42)

    def jittered():
        cs = np.asarray(base.corners, dtype=float)
        for i in range(0, len(cs), 2):
            d = rng.uniform(-0.1 / m, 0.1 / m)
            cs[i] += d
            cs[i + 1] += d
        return SawtoothProfile(base.period, base.offset, base.initial_slope, tuple(cs))

    xs = tuple(np.linspace(0.0, params.length_L, 64))
    start = Configuration(params, xs, tuple(jittered() for _ in xs))

    t0 = time.time()
    hist = []
    final = op.relax(start, op.RelaxOptions(max_iters=200, tol_energy=1e-12), history=hist)
    elapsed = time.time() - t0

    e_ref = e1d(m, params)
    e_final = total_energy(final).total
    rel = abs(e_final - e_ref) / e_ref
    dev = max(
        l2_distance(p, final.profiles[0]) for p in final.profiles[1:]
    )
    # the descent accepts the moves it accepted when every probe built the
    # moved profile and re-integrated its cells: 1156, ending at the total below
    moves = len(hist) - 1
    same = moves == 1156 and abs(hist[-1] - 2.617938306722383e-4) <= 1e-12 * hist[-1]
    ok = rel < 1e-2 and dev < 1e-3 and elapsed <= 300.0 and same
    _verdict(
        10,
        "relaxation recovery",
        ok,
        f"energy off by {rel:.3e}, station deviation {dev:.3e}, {moves} moves, {elapsed:.0f}s",
    )


def test_11_scaling_slopes_and_crossover():
    eps_grid = tuple(float(e) for e in np.logspace(-5, -2, 7))
    sweep = op.phase_sweep(
        op.SweepGrid((1.0,), eps_grid), ModelParams(1.0, 1e-3, 1.0, 1.0), levels_max=8
    )
    logs = np.log(np.asarray(eps_grid))
    slope_s = float(np.polyfit(logs, np.log([r.e_striped for r in sweep.rows]), 1)[0])
    slope_b = float(np.polyfit(logs, np.log([r.e_branched for r in sweep.rows]), 1)[0])

    slice_sweep = op.phase_sweep(
        op.SweepGrid((0.0985, 0.3092), (1e-3,)),
        ModelParams(1.0, 1e-3, 1.0, 1.0),
        levels_max=8,
    )
    winners = [r.winner for r in slice_sweep.rows]
    sigmas = [r.sigma for r in slice_sweep.rows]
    ok = (
        abs(slope_s - 0.5) <= 0.02
        and 0.60 <= slope_b <= 0.73
        and winners == ["striped", "branched"]
        and sigmas[0] < sigmas[1]
    )
    _verdict(
        11,
        "scaling slopes and crossover",
        ok,
        f"striped slope {slope_s:.4f}, branched slope {slope_b:.4f}, "
        f"winner {winners[0]} at sigma {sigmas[0]:.2f} vs {winners[1]} at {sigmas[1]:.2f}",
    )


def test_12_certificate_flags_single_column_changes():
    params = ModelParams(1e-3, 1e-5, 1.0, 1.0)
    base = op.striped_candidate(params, stations=9)
    rep0 = loc.certificate_check(base)

    prof = base.profiles[4]
    cs = list(prof.corners)
    cs[4] += 0.004
    cs[5] += 0.004
    pair = base.replace_profile(
        4, SawtoothProfile(prof.period, prof.offset, prof.initial_slope, tuple(cs))
    )
    rep_pair = loc.certificate_check(pair)
    rep_off = loc.certificate_check(base.replace_profile(4, prof.with_offset_shift(0.01)))

    ok = (
        abs(rep0.excess) < 1e-12
        and rep0.certified
        and rep_pair.excess > 1e-6
        and rep_off.excess > 1e-6
    )
    _verdict(
        12,
        "interface certificate",
        ok,
        f"striped excess {rep0.excess:.2e}; perturbed excesses "
        f"{rep_pair.excess:.2e} and {rep_off.excess:.2e}",
    )
