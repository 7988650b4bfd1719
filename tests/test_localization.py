"""Localization machinery: Hilbert transform, ascent-midpoint partition,
matched comparison profile, local energy shares, interval classification,
and the certificate that assembles them."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from twinstripe.model_core import (
    Configuration,
    InvariantError,
    ModelParams,
    SawtoothProfile,
    l2_distance,
    random_profile,
)
from twinstripe import energy
from twinstripe.energy import (
    h_half_inner,
    h_half_sq,
    strain_energy,
    surface_energy,
    total_energy,
)
from twinstripe.one_dim import C0, make_w_m, optimal_even_m
from twinstripe import localization as loc
from twinstripe.optimize import striped_candidate

from oracles import (
    bmo_seminorm_loop,
    classification_sensitivity,
    hilbert_transform,
    interval_l2_sq_reference,
    interval_pairing_mp,
    star_excess_reference,
    window_integral_reference,
)


UNIT = ModelParams(1.0, 1.0, 1.0, 1.0)


def profile_from_gaps(rise_gaps, fall_gaps, period=1.0):
    """Sawtooth with a valley at 0 and alternating rise/fall gaps."""
    gaps = np.empty(2 * len(rise_gaps))
    gaps[0::2] = rise_gaps
    gaps[1::2] = fall_gaps
    assert abs(gaps.sum() - period) < 1e-12
    corners = np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    return SawtoothProfile(period, 0.0, 1, tuple(corners))


def two_station_config(u0, u1, beta=1.0, epsilon=1.0):
    params = ModelParams(beta, epsilon, 1.0, u0.period)
    return Configuration(params, (0.0, 1.0), (u0, u1))


# -- Hilbert transform ---------------------------------------------------------


def test_hilbert_kills_constants_and_rotates_sine():
    flat = hilbert_transform(np.array([0.0 + 0.0j]), period=1.0)
    ys = np.linspace(0.0, 1.0, 17)
    assert np.allclose(flat.evaluate(ys), 0.0)
    # sin(2 pi y) has one-sided coefficient -i/2 and maps to -2 pi cos(2 pi y)
    sine = hilbert_transform(np.array([-0.5j]), period=1.0)
    assert np.allclose(sine.evaluate(ys), -2.0 * math.pi * np.cos(2.0 * math.pi * ys),
                       atol=1e-12)


def test_hilbert_squares_to_minus_identity():
    rng = np.random.default_rng(21)
    prof = random_profile(rng, 1.0, 4)
    once = hilbert_transform(prof, cutoff=512)
    twice = hilbert_transform(once.coeffs, period=1.0)
    from twinstripe.model_core import fourier_coefficients

    ks = np.arange(1, 513)
    direct = fourier_coefficients(prof, ks)
    assert np.allclose(twice.coeffs, -4.0 * math.pi**2 * direct, rtol=0, atol=1e-12)


def test_hilbert_signal_sampling_matches_pointwise():
    rng = np.random.default_rng(22)
    sig = hilbert_transform(random_profile(rng, 1.0, 3), cutoff=256)
    n = 1024
    ys = np.arange(n) / n
    assert np.allclose(sig.sample(n), sig.evaluate(ys), atol=1e-12)
    with pytest.raises(InvariantError):
        sig.sample(16)


def test_hilbert_signal_blocks_match_single_block(monkeypatch):
    sig = hilbert_transform(random_profile(np.random.default_rng(23), 1.0, 3))
    step = energy._BLOCK_ENTRIES // len(sig.coeffs)
    rng = np.random.default_rng(24)
    cases = [rng.uniform(0.0, 1.0, n) for n in (1, step - 1, step, step + 1, 2 * step + 1)]
    blocked = [sig.evaluate(ys) for ys in cases]
    monkeypatch.setattr(energy, "_BLOCK_ENTRIES", 2**40)
    for ys, got in zip(cases, blocked):
        assert np.max(np.abs(got - sig.evaluate(ys))) <= 1e-12


def test_hilbert_signal_memory_bounded_in_point_count():
    # unblocked, 4096 points x 1024 modes would hold 64 MB per complex array
    sig = hilbert_transform(random_profile(np.random.default_rng(25), 1.0, 3), cutoff=1024)
    ys = np.linspace(0.0, 1.0, 4096)
    tracemalloc.start()
    try:
        sig.evaluate(ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_hilbert_slope_exact_memory_bounded_in_point_count():
    # unblocked, 8192 points x 1024 corners would hold 64 MB per array
    prof = make_w_m(1024, UNIT)
    ys = (np.arange(8192) + 0.25) / 8192
    tracemalloc.start()
    try:
        out = loc.hilbert_slope_exact(prof, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out))
    assert peak < 16e6


def test_slope_transform_closed_form_tracks_spectral_series():
    # the log form is exact; the truncated series drifts toward it like 1/K
    rng = np.random.default_rng(3)
    prof = random_profile(rng, 1.0, 3)
    shifted = np.add.outer(np.asarray(prof.corners), np.array([-1.0, 0.0, 1.0]))
    ys = np.linspace(0.013, 0.997, 211)
    dist = np.min(np.abs(ys[:, None] - shifted.ravel()[None, :]), axis=1)
    ys = ys[dist > 0.04]
    exact = loc.hilbert_slope_exact(prof, ys)
    errs = []
    for cutoff in (4096, 65536):
        series = hilbert_transform(prof, cutoff=cutoff, derivative=True)
        errs.append(np.max(np.abs(series.evaluate(ys) - exact)))
    assert errs[1] < errs[0] / 8.0
    assert errs[1] < 1e-3


def test_pairing_integral_matches_spectral_inner_product():
    # dual evaluation of (w, u0 - w): exact pairing per interval against
    # the corner-pair sum of the full traces
    rng = np.random.default_rng(101)
    kept = 0
    for _ in range(50):
        u1 = random_profile(rng, 1.0, int(rng.integers(2, 7)))
        u0 = random_profile(rng, 1.0, int(rng.integers(1, 7)))
        part = loc.build_partition(u1)
        cmp = loc.build_comparison(u0, part)
        if l2_distance(u0, cmp.profile) < 1e-6:
            continue  # trace already matched, both routes are zero
        kept += 1
        spectral = h_half_inner(cmp.profile, u0) - h_half_sq(cmp.profile)
        exact = float(np.sum(loc._interval_pairings(cmp.profile, u0, part)))
        assert abs(spectral - exact) < 1e-13
    assert kept >= 35


def test_interval_pairings_match_mpmath_quadrature():
    rng = np.random.default_rng(7)
    tested = 0
    while tested < 6:
        u1 = random_profile(rng, 1.0, int(rng.integers(2, 6)))
        u0 = random_profile(rng, 1.0, int(rng.integers(2, 6)))
        part = loc.build_partition(u1)
        cmp = loc.build_comparison(u0, part)
        if l2_distance(u0, cmp.profile) < 1e-6:
            continue
        tested += 1
        exact = loc._interval_pairings(cmp.profile, u0, part)
        assert exact.shape == (part.count,)
        for k in range(part.count):
            ref = interval_pairing_mp(cmp.profile, u0, *part.interval(k))
            assert abs(exact[k] - ref) < 1e-13, (tested, k)


def test_interval_pairings_blocks_match_single_block(monkeypatch):
    rng = np.random.default_rng(9)
    u0 = random_profile(rng, 1.0, 7)
    part = loc.build_partition(random_profile(rng, 1.0, 5))
    w = loc.build_comparison(u0, part).profile
    ys = rng.uniform(0.0, 1.0, 50)
    monkeypatch.setattr(loc, "_KERNEL_BLOCK_ENTRIES", 2**40)
    whole = loc._interval_pairings(w, u0, part)
    hilbert = loc.hilbert_slope_exact(w, ys)
    for rows in (1, 2, 7):
        monkeypatch.setattr(loc, "_KERNEL_BLOCK_ENTRIES", rows * len(w.corners))
        sizes = []
        loc._corner_sums(w, ys, lambda d: sizes.append(len(d)) or (d,))
        assert max(sizes) == rows and sum(sizes) == len(ys)
        assert np.max(np.abs(loc._interval_pairings(w, u0, part) - whole)) <= 1e-15
        # a row's place in a BLAS block can move its last bit
        moved = np.max(np.abs(loc.hilbert_slope_exact(w, ys) - hilbert))
        assert moved <= 1e-15 * np.max(np.abs(hilbert))


def test_partition_boundaries_are_built_once(monkeypatch):
    # interval(k), star_pieces(k) and widths read one cached array, so a
    # pass over all K intervals costs O(K), not O(K^2)
    rng = np.random.default_rng(10)
    part = loc.build_partition(random_profile(rng, 1.0, 6))
    appends = []
    append = np.append
    monkeypatch.setattr(np, "append", lambda *a, **k: appends.append(1) or append(*a, **k))
    bnd = part.boundaries
    for k in range(part.count):
        a, b = part.interval(k)
        assert part.star_pieces(k)[1] == (a, b) == (bnd[k], bnd[k + 1])
    assert np.array_equal(part.widths, np.diff(bnd))
    assert part.boundaries is bnd and len(appends) <= 1
    assert not bnd.flags.writeable


def assert_interval_l2_matches_windows(p, q, part):
    got = loc._interval_l2_sq(p, q, part)
    ref = interval_l2_sq_reference(p, q, part)
    assert got.shape == (part.count,)
    tol = np.maximum(1e-13 * np.abs(ref), 1e-15 * part.period)
    assert np.all(np.abs(got - ref) <= tol), np.max(np.abs(got - ref) / tol)


def test_interval_l2_sq_matches_windowed_l2_distance():
    rng = np.random.default_rng(13)
    for h in (1.0, 0.7, 2.5):
        for _ in range(30):
            u1 = random_profile(rng, h, int(rng.integers(2, 8)))
            part = loc.build_partition(u1)
            p = random_profile(rng, h, int(rng.integers(1, 8)))
            q = random_profile(rng, h, int(rng.integers(1, 8)))
            assert_interval_l2_matches_windows(p, q, part)
            assert_interval_l2_matches_windows(p, u1, part)
            # the comparison profile shares the boundary values with p
            assert_interval_l2_matches_windows(p, loc.build_comparison(p, part).profile, part)


def test_interval_l2_sq_on_wrapping_interval_and_boundary_nodes():
    # rising midpoints at 0.1, 0.4 and 0.8: the interval starting at 0.8
    # runs past the period end to 1.1
    u1 = profile_from_gaps([0.2, 0.1, 0.2], [0.15, 0.15, 0.2]).translated(0.7)
    part = loc.build_partition(u1)
    assert part.boundaries[-2] < 1.0 < part.boundaries[-1]
    rng = np.random.default_rng(14)
    for _ in range(10):
        assert_interval_l2_matches_windows(random_profile(rng, 1.0, 5), u1, part)
    # partition boundaries at 0.125 and 0.625 sit on corners of both profiles
    part = loc.build_partition(make_w_m(4, UNIT))
    eighths = SawtoothProfile(1.0, 0.0, -1, tuple(np.arange(8) / 8.0))
    notched = SawtoothProfile(1.0, 0.0, -1, (0.125, 0.625))
    assert_interval_l2_matches_windows(eighths, notched, part)
    assert_interval_l2_matches_windows(eighths, make_w_m(8, UNIT), part)


def test_interval_l2_sq_vanishes_on_matched_intervals():
    u = make_w_m(8, UNIT)
    part = loc.build_partition(u)
    assert np.all(loc._interval_l2_sq(u, u, part) == 0.0)
    assert_interval_l2_matches_windows(u, loc.build_comparison(u, part).profile, part)
    # one falling segment moved inside its interval: the others stay matched
    i = int(np.flatnonzero(u.slope_after_corners() < 0)[0])
    cs = list(u.corners)
    cs[i] += 0.01
    cs[i + 1] += 0.01
    bent = SawtoothProfile(1.0, u.offset, u.initial_slope, tuple(cs))
    got = loc._interval_l2_sq(u, bent, part)
    assert got.max() > 1e-7 and np.count_nonzero(got > 1e-15) == 1
    assert_interval_l2_matches_windows(u, bent, part)


# -- oscillation seminorm ------------------------------------------------------


def test_bmo_linear_ramp_and_constant():
    n = 4096
    xs = (np.arange(n) + 0.5) / n
    ramp = loc.bmo_seminorm(xs)
    # widest window wins: variance of a uniform ramp is 1/12
    assert ramp == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-5)
    assert loc.bmo_seminorm(np.full(n, 0.7)) == 0.0


def test_bmo_grows_under_window_refinement():
    rng = np.random.default_rng(31)
    vals = rng.standard_normal(2048).cumsum()
    coarse = loc.bmo_seminorm(vals, min_width_frac=1.0 / 4.0)
    fine = loc.bmo_seminorm(vals, min_width_frac=1.0 / 256.0)
    assert fine >= coarse


def test_bmo_rows_match_one_dimensional_calls():
    rng = np.random.default_rng(33)
    w = random_profile(rng, 1.0, 5)
    n = 2048
    ys = (np.arange(n) + 0.5) / n
    at_corner = np.asarray(loc.hilbert_slope_exact(w, ys))
    at_corner[17] = -np.inf  # a sample on a corner of w
    rows = np.stack([
        rng.standard_normal(n).cumsum(),
        np.asarray(loc.hilbert_slope_exact(w, ys)),
        np.full(n, 0.7),
        ys,
        at_corner,
    ])
    for frac in (1.0, 0.25, loc.BMO_MIN_FRAC):
        with np.errstate(invalid="ignore"):  # the corner row's oscillations are NaN
            got = loc.bmo_seminorm(rows, min_width_frac=frac)
            assert all(got[k] == loc.bmo_seminorm(rows[k], frac) for k in range(len(rows)))
        assert got.shape == (len(rows),)
    short = rng.standard_normal((3, 5))
    assert all(loc.bmo_seminorm(short)[k] == loc.bmo_seminorm(short[k]) for k in range(3))
    assert type(loc.bmo_seminorm(rows[0])) is float
    with pytest.raises(InvariantError):
        loc.bmo_seminorm(np.zeros((3, 3)))


def test_bmo_one_pass_scan_equals_the_per_width_loop():
    rng = np.random.default_rng(34)
    w = random_profile(rng, 1.0, 4)
    n = 2048
    ys = (np.arange(n) + 0.5) / n
    samples = np.asarray(loc.hilbert_slope_exact(w, ys))
    on_corner, spiked, early = samples.copy(), samples.copy(), samples.copy()
    on_corner[1500] = -np.inf  # a sample on a corner of w
    spiked[0] = 1e155  # its square overflows: the full window inf, all narrower ones NaN
    early[3] = np.nan
    rows = np.stack([rng.standard_normal(n).cumsum(), samples, np.full(n, 0.7), ys,
                     on_corner, spiked, early])
    batches = [rows] + [rng.standard_normal((3, k)) for k in range(4, 10)]
    batches[1][1, 2] = -np.inf
    for batch in batches:
        for frac in (1.0, 0.25, loc.BMO_MIN_FRAC):
            with np.errstate(invalid="ignore", over="ignore"):
                got = loc.bmo_seminorm(batch, frac)
                want = bmo_seminorm_loop(batch, frac)
                assert got.shape == want.shape and (got == want).all()
                assert all(loc.bmo_seminorm(row, frac) == bmo_seminorm_loop(row, frac)
                           for row in batch)
    with np.errstate(invalid="ignore", over="ignore"):
        assert loc.bmo_seminorm(spiked) == math.inf  # the NaN widths do not win


def test_hilbert_kernel_runs_in_place_and_equals_the_plain_form(monkeypatch):
    kernels = []
    corner_sums = loc._corner_sums

    def spy(profile, y, kernel):
        kernels.append(kernel)
        return corner_sums(profile, y, kernel)

    monkeypatch.setattr(loc, "_corner_sums", spy)
    rng = np.random.default_rng(35)
    for h in (1.0, 0.37, 3.0):
        w = random_profile(rng, h, 5)
        z = np.asarray(w.corners)
        ys = rng.uniform(-h, 2.0 * h, 300)
        ys[:3] = z[:3]  # on corners: log 0
        kernels.clear()
        with np.errstate(divide="ignore", invalid="ignore"):
            loc.hilbert_slope_exact(w, ys)
            (kernel,) = kernels
            d = np.subtract.outer(ys, z)
            want = np.log(np.abs(2.0 * np.sin(np.pi * d / h)))
            block = d.copy()
            (got,) = kernel(block)
        assert got is block  # no new array
        assert (got == want).all()
        assert np.isneginf(got[:3]).sum() == 3


def test_bmo_of_transformed_slope_stays_bounded():
    # H w' has log singularities yet small mean-square oscillation
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(100):
        w = random_profile(rng, 1.0, int(rng.integers(1, 7)))
        ys = (np.arange(512) + 0.5) / 512.0
        val = loc.bmo_seminorm(np.asarray(loc.hilbert_slope_exact(w, ys)))
        assert np.isfinite(val)
        worst = max(worst, val)
    assert worst < 50.0


def test_certify_prices_no_cell_between_one_profile_object(tmp_path, monkeypatch):
    from twinstripe import cli

    params = ModelParams(0.02, 1e-3, 1.0, 1.0)
    base = striped_candidate(params, stations=7)
    u = base.profiles[0]
    a, c = u.translated(0.003), u.translated(-0.002)
    stations = (a, a, u, u, u, c, c)
    path = tmp_path / "shared.json"
    path.write_text(Configuration(params, base.stations, stations).dumps(), encoding="utf-8")
    # the same values with every station its own object
    copies = tuple(SawtoothProfile.from_json(p.to_json()) for p in stations)
    want = loc.certificate_check(Configuration(params, base.stations, copies)).to_json()

    l2_cells, distances, carriers = [], [], []
    interval_l2_sq, l2_distance, window_counts = (
        loc._interval_l2_sq, energy.l2_distance, loc._window_counts)

    def counting_interval_l2_sq(p, q, *args):
        l2_cells.append((p, q))
        return interval_l2_sq(p, q, *args)

    def counting_l2_distance(p, q):
        distances.append((p, q))
        return l2_distance(p, q)

    def counting_window_counts(profile, *args):
        carriers.append(profile)
        return window_counts(profile, *args)

    monkeypatch.setattr(loc, "_interval_l2_sq", counting_interval_l2_sq)
    monkeypatch.setattr(energy, "l2_distance", counting_l2_distance)
    monkeypatch.setattr(loc, "_window_counts", counting_window_counts)
    assert cli.main(["certify", "--config", str(path), "--output", str(tmp_path / "out.json")]) == 0
    got = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    assert got == json.loads(json.dumps(want))
    assert all(p is not q for p, q in l2_cells + distances)
    # two strain cells (a|u, u|c), the comparison mismatch and the ratio's denominator
    assert len(l2_cells) == 4
    assert len(distances) == 2
    # every cell is charged at its later station: carriers a, u and c, each counted once
    assert len(carriers) == 3 and len({id(p) for p in carriers}) == 3


# -- partition -----------------------------------------------------------------


def test_partition_of_striped_profile_is_equispaced():
    m = 12
    u1 = make_w_m(m, UNIT)
    part = loc.build_partition(u1)
    assert part.count == m // 2
    assert part.m_corners == m
    assert np.allclose(part.widths, 2.0 / m, atol=1e-12)
    assert np.allclose(part.ascent_gaps, 1.0 / m)
    assert np.allclose(part.descent_gaps, 1.0 / m)
    assert abs(part.widths.sum() - 1.0) < 1e-9


def test_partition_rejects_single_tooth():
    with pytest.raises(InvariantError):
        loc.build_partition(SawtoothProfile(1.0, 0.0, 1, (0.0, 0.5)))


def test_partition_intervals_hold_one_falling_pair():
    rng = np.random.default_rng(41)
    profiles = [random_profile(rng, 1.0, int(rng.integers(2, 9))) for _ in range(50)]
    # a rising segment through y = 0 with its midpoint past the period and
    # before it, a peak and a valley at y = 0
    profiles += [
        SawtoothProfile(1.0, 0.0, slope, corners)
        for slope, corners in ((1, (0.2, 0.4, 0.6, 0.9)), (1, (0.1, 0.3, 0.4, 0.7)),
                               (-1, (0.0, 0.2, 0.6, 0.9)), (1, (0.0, 0.3, 0.5, 0.7)))
    ]
    # the same for random profiles: their first valley moved to y = 0 or
    # to 0.3 or 0.7 of its rise before y = 0
    for u in profiles[:10]:
        first = np.flatnonzero(u.slope_after_corners() > 0)[0]
        rise = u._gaps()[first]
        profiles += [u.translated(-(u.corners[first] + f * rise)) for f in (0.0, 0.3, 0.7)]
    for u1 in profiles:
        part = loc.build_partition(u1)
        corners = np.asarray(u1.corners)
        assert abs(part.widths.sum() - 1.0) < 1e-9 * 1.0
        # the midpoints rise inside one period, as the intervals are indexed
        assert 0.0 <= part.midpoints[0] and part.midpoints[-1] < 1.0
        assert np.all(part.widths > 0)
        n = part.count
        for k in range(n):
            lo, hi = part.interval(k)
            inside = np.mod(corners - lo, 1.0) < (hi - lo)
            assert inside.sum() == 2
            assert lo < part.descent_mid[k] < hi
            # width equals half the flanking rises plus the enclosed fall
            expect = (
                part.ascent_gaps[k] / 2.0
                + part.descent_gaps[k]
                + part.ascent_gaps[(k + 1) % n] / 2.0
            )
            assert hi - lo == pytest.approx(expect, abs=1e-12)
        # star windows cover the circle exactly twice
        star_total = sum(b - a for k in range(n) for a, b in part.star_pieces(k))
        assert star_total == pytest.approx(2.0, abs=1e-9)


# -- comparison profile --------------------------------------------------------


def test_comparison_fixes_striped_trace():
    for m in (4, 10, 14):
        u = make_w_m(m, UNIT)
        part = loc.build_partition(u)
        cmp = loc.build_comparison(u, part)
        assert l2_distance(u, cmp.profile) < 1e-12
        assert np.allclose(cmp.virtual_gaps, 1.0 / m, atol=1e-12)
        assert not cmp.degenerate.any()


def test_comparison_matching_conditions():
    # per interval: equal endpoint values, equal mean, one falling pair
    rng = np.random.default_rng(51)
    for _ in range(100):
        u1 = random_profile(rng, 1.0, int(rng.integers(2, 7)))
        u0 = random_profile(rng, 1.0, int(rng.integers(1, 7)))
        part = loc.build_partition(u1)
        cmp = loc.build_comparison(u0, part)
        w = cmp.profile
        for k in range(part.count):
            lo, hi = part.interval(k)
            assert w.evaluate(lo) == pytest.approx(float(u0.evaluate(lo)), abs=1e-10)
            assert w.evaluate(hi) == pytest.approx(float(u0.evaluate(hi)), abs=1e-10)
            assert window_integral_reference(w, lo, hi) == pytest.approx(
                window_integral_reference(u0, lo, hi), abs=1e-10
            )
            if not cmp.degenerate[k]:
                down, up = cmp.down_corners[k], cmp.up_corners[k]
                assert lo - 1e-12 <= down < up <= hi + 1e-12
        assert cmp.virtual_gaps.sum() == pytest.approx(1.0, abs=1e-10)


def test_comparison_handles_matched_interval_without_notch():
    # u0 rises across one whole interval, so no material needs moving there
    u1 = make_w_m(4, UNIT)
    part = loc.build_partition(u1)
    assert np.allclose(part.midpoints, [0.125, 0.625])
    u0 = SawtoothProfile(1.0, 0.0, -1, (0.125, 0.625))
    cmp = loc.build_comparison(u0, part)
    assert bool(cmp.degenerate[0])
    assert not bool(cmp.degenerate[1])
    assert cmp.down_corners[0] == pytest.approx(cmp.up_corners[0])
    assert l2_distance(u0, cmp.profile) < 1e-12


def test_notch_profile_assembly_merges_zero_length_segments():
    # boundaries 0.125, 0.625 and 1.125; each notch falls by a quarter
    u1 = make_w_m(4, UNIT)
    part = loc.build_partition(u1)
    none = np.zeros(2, dtype=bool)
    for gap in (0.0, 0.4e-12):
        # a zero-length connector: notch 0 ends where notch 1 starts, so
        # the trace falls straight through the interior boundary
        downs = np.array([0.375, 0.625 + gap])
        ups = np.array([0.625, 0.875 + gap])
        w = loc._assemble_notch_profile(u1, part, downs, ups, none)
        assert w.corners == pytest.approx((0.375, 0.875 + gap), abs=1e-15)
        assert len(w.corners) == 2 and w.initial_slope == 1
        assert w.evaluate(0.125) == u1.evaluate(0.125)
        # a wrap pair: notch 1 ends at b_0 + h, where notch 0 starts
        downs = np.array([0.125 + gap, 0.875])
        ups = np.array([0.375 + gap, 1.125])
        w = loc._assemble_notch_profile(u1, part, downs, ups, none)
        assert w.corners == pytest.approx((0.375 + gap, 0.875), abs=1e-15)
        assert len(w.corners) == 2 and w.initial_slope == -1
        assert w.evaluate(0.125) == u1.evaluate(0.125)
    # gaps at the tolerance are kept
    downs = np.array([0.375, 0.625 + 2e-12])
    ups = np.array([0.625, 0.875 + 2e-12])
    w = loc._assemble_notch_profile(u1, part, downs, ups, none)
    assert len(w.corners) == 4
    with pytest.raises(InvariantError):
        loc._assemble_notch_profile(u1, part, downs, ups, np.ones(2, dtype=bool))


# -- local shares recompose the global energy ----------------------------------


def test_local_shares_recompose_global_terms():
    rng = np.random.default_rng(11)
    params = ModelParams(0.8, 0.05, 1.0, 1.0)
    profs = tuple(random_profile(rng, 1.0, 4) for _ in range(3))
    config = Configuration(params, (0.0, 0.45, 1.0), profs)
    part = loc.build_partition(profs[-1])
    terms = loc.classify_intervals(config, part)
    cmp = loc.build_comparison(profs[0], part)

    sum_f1 = sum(t.f1 for t in terms)
    assert sum_f1 == pytest.approx(strain_energy(config), rel=1e-12)

    sum_f2 = sum(t.f2 for t in terms)
    excess = surface_energy(config) - params.epsilon * part.m_corners
    assert sum_f2 == pytest.approx(excess, rel=1e-12)

    # notch gaps enter three windows each, connector gaps four
    target = 1.0 / part.m_corners
    notch = np.sum((cmp.notch_gaps - target) ** 2)
    conn = np.sum((cmp.connector_gaps - target) ** 2)
    sum_f0 = sum(t.f0 for t in terms)
    weighted = params.beta * C0 / 7.0 * (3.0 * notch + 4.0 * conn)
    assert sum_f0 == pytest.approx(weighted, rel=1e-12)
    plain = params.beta * C0 * float(np.sum((cmp.virtual_gaps - target) ** 2))
    assert sum_f0 <= plain + 1e-10


def test_local_strain_share_controls_trace_mismatch():
    # each interval's share dominates a third of the windowed L2 mismatch
    rng = np.random.default_rng(12)
    for _ in range(20):
        u0 = random_profile(rng, 1.0, int(rng.integers(1, 5)))
        u1 = random_profile(rng, 1.0, int(rng.integers(2, 5)))
        config = two_station_config(u0, u1)
        part = loc.build_partition(u1)
        terms = loc.classify_intervals(config, part)
        mism = interval_l2_sq_reference(u0, u1, part)
        window_mism = mism + np.roll(mism, 1) + np.roll(mism, -1)
        for t in terms:
            assert t.f1 >= window_mism[t.index] / 3.0 - 1e-12


def test_classification_requires_unit_geometry():
    params = ModelParams(1.0, 1.0, 2.0, 1.0)
    u = make_w_m(6, ModelParams(1.0, 1.0, 2.0, 1.0))
    config = Configuration(params, (0.0, 2.0), (u, u))
    part = loc.build_partition(u)
    with pytest.raises(InvariantError):
        loc.classify_intervals(config, part)


# -- interval types ------------------------------------------------------------


def test_classification_striped_is_all_good():
    u = make_w_m(14, UNIT)
    config = two_station_config(u, u)
    part = loc.build_partition(u)
    terms = loc.classify_intervals(config, part)
    assert all(t.itype == 1 for t in terms)


def test_classification_flags_stretched_intervals():
    # one long fall makes a width above 6/M; its whole 3-window is type 4
    rise = [0.2, 0.2, 0.0333, 0.0333, 0.0334]
    fall = [0.42, 0.02, 0.02, 0.02, 0.02]
    u1 = profile_from_gaps(rise, fall)
    config = two_station_config(u1, u1)
    part = loc.build_partition(u1)
    assert part.widths[0] == pytest.approx(0.62)
    terms = loc.classify_intervals(config, part)
    types = [t.itype for t in terms]
    assert types[0] == 4 and types[1] == 4 and types[-1] == 4
    assert all(tt in (1, 4) for tt in types)


def test_classification_flags_pinched_gaps():
    # a fall shorter than kappa/M taints every window that sees it
    rise = [0.1] * 5
    fall = [0.005, 0.13, 0.12, 0.12, 0.125]
    u1 = profile_from_gaps(rise, fall)
    config = two_station_config(u1, u1)
    part = loc.build_partition(u1)
    terms = loc.classify_intervals(config, part)
    types = [t.itype for t in terms]
    assert types[0] == 2 and types[1] == 2 and types[4] == 2
    assert types[2] == 1 and types[3] == 1


def test_classification_flags_strained_intervals():
    u1 = make_w_m(10, UNIT)
    u0 = u1.translated(0.013)
    config = two_station_config(u0, u1)
    part = loc.build_partition(u1)
    terms = loc.classify_intervals(config, part)
    assert all(t.itype == 3 for t in terms)
    # with a permissive strain threshold the same data is all good
    relaxed = loc.classify_intervals(config, part, eta=1e6)
    assert all(t.itype == 1 for t in relaxed)


def test_classification_sensitivity_marks_threshold_dependence():
    u1 = make_w_m(10, UNIT)
    config = two_station_config(u1.translated(0.004), u1)
    part = loc.build_partition(u1)
    report = classification_sensitivity(config, part)
    assert set(report) == {"base", "eta_half", "eta_double", "kappa_half", "kappa_double"}
    base = report["base"]["counts"]
    assert sum(base) == part.count
    # raising eta can only demote type 3 counts
    assert report["eta_double"]["counts"][2] <= base[2]
    assert report["eta_half"]["counts"][2] >= base[2]
    # shrinking kappa can only demote type 2 counts
    assert report["kappa_half"]["counts"][1] <= base[1]


def test_classification_sensitivity_builds_one_comparison_profile(monkeypatch):
    built = []
    build = loc.build_comparison

    def counting_build(u0, part):
        built.append(1)
        return build(u0, part)

    u1 = make_w_m(10, UNIT)
    config = two_station_config(u1.translated(0.004), u1)
    part = loc.build_partition(u1)
    expected = {
        label: [sum(t.itype == i for t in loc.classify_intervals(config, part, e, k))
                for i in (1, 2, 3, 4)]
        for label, e, k in (("base", 1e-3, 0.1), ("eta_half", 5e-4, 0.1),
                            ("kappa_double", 1e-3, 0.2))
    }
    monkeypatch.setattr(loc, "build_comparison", counting_build)
    report = classification_sensitivity(config, part)
    assert len(built) == 1
    for label, counts in expected.items():
        assert report[label]["counts"] == counts
    # every threshold pair is checked before anything is built
    built.clear()
    with pytest.raises(InvariantError):
        classification_sensitivity(config, part, eta=1e308)
    assert built == []


# -- error terms ---------------------------------------------------------------


def test_error_terms_vanish_on_matched_trace():
    u = make_w_m(8, UNIT)
    part = loc.build_partition(u)
    cmp = loc.build_comparison(u, part)
    errors = loc.local_error_terms(u, cmp, part)
    for e in errors:
        assert e.err < 1e-12
        assert abs(e.pairing) < 1e-9
        assert e.cbar == 0.0


def test_pairing_bounded_by_oscillation_times_mismatch():
    # the mismatch has zero interval mean, so only the oscillation of
    # H w' can pair with it
    rng = np.random.default_rng(61)
    for _ in range(15):
        u1 = random_profile(rng, 1.0, int(rng.integers(2, 6)))
        u0 = random_profile(rng, 1.0, int(rng.integers(1, 6)))
        part = loc.build_partition(u1)
        cmp = loc.build_comparison(u0, part)
        errors = loc.local_error_terms(u0, cmp, part)
        for e in errors:
            assert abs(e.pairing) <= e.bmo * e.err * 1.05 + 1e-12


# -- certificate ---------------------------------------------------------------


def test_certificate_accepts_striped_candidate():
    params = ModelParams(1e-3, 1e-5, 1.0, 1.0)
    m = optimal_even_m(params).m_star[0]
    assert m == 14
    u = make_w_m(m, params)
    config = Configuration(params, tuple(np.linspace(0.0, 1.0, 5)), (u,) * 5)
    report = loc.certificate_check(config)
    assert report.m == m and report.m_star == m
    assert all(t.itype == 1 for t in report.terms)
    assert abs(report.sum_terms) < 1e-12
    assert abs(report.excess) < 1e-12
    assert report.certified
    assert report.cbar < 1e-6
    text = json.dumps(report.to_json())
    assert '"certified": true' in text


def test_matched_intervals_report_zero_cbar():
    # the bench pair recipe: one interior pair shifted, the trace untouched,
    # so u0 - w is rounding noise on every interval and must not set cbar
    params = ModelParams(1e-3, 1e-5, 1.0, 1.0)
    config = striped_candidate(params, stations=5)
    prof = config.profiles[2]
    cs = list(prof.corners)
    cs[4] += 0.06 / 14
    cs[5] += 0.06 / 14
    bent = SawtoothProfile(1.0, prof.offset, prof.initial_slope, tuple(cs))
    report = loc.certificate_check(config.replace_profile(2, bent))
    matched = [
        e for t, e in zip(report.terms, report.errors)
        if e.err / math.sqrt(t.width) <= loc.MATCH_FLOOR
    ]
    assert len(matched) == report.m // 2
    assert all(e.cbar == 0.0 for e in matched)
    assert report.cbar == 0.0
    assert report.excess > 1e-6 and report.certified


def test_certificate_flags_interior_column_shift():
    # moving one tooth pair at an interior station adds strain that the
    # local shares see while the trace terms stay zero
    params = ModelParams(1e-3, 1e-5, 1.0, 1.0)
    u = make_w_m(14, params)
    cs = list(u.corners)
    cs[4] += 0.004
    cs[5] += 0.004
    bent = SawtoothProfile(1.0, u.offset, u.initial_slope, tuple(cs))
    stations = tuple(np.linspace(0.0, 1.0, 9))
    profiles = tuple(bent if j == 4 else u for j in range(9))
    config = Configuration(params, stations, profiles)
    report = loc.certificate_check(config)
    assert report.excess > 1e-6
    assert report.certified
    assert any(t.itype == 3 for t in report.terms)
    assert report.sum_f1 == pytest.approx(strain_energy(config), rel=1e-10)


def test_certificate_cross_checks_pairing_routes():
    rng = np.random.default_rng(5)
    u0 = random_profile(rng, 1.0, 3)
    u1 = random_profile(rng, 1.0, 4)
    config = two_station_config(u0, u1, beta=0.5, epsilon=0.1)
    report = loc.certificate_check(config)
    assert report.pairing_quadrature == pytest.approx(
        report.pairing_spectral, rel=1e-12, abs=1e-14
    )
    assert report.interpolation_max is None or report.interpolation_max < 10.0
    assert math.isfinite(report.excess)


def test_certificate_builds_one_comparison_profile(monkeypatch):
    built = []
    build = loc.build_comparison

    def counting_build(u0, part):
        built.append(1)
        return build(u0, part)

    monkeypatch.setattr(loc, "build_comparison", counting_build)
    rng = np.random.default_rng(5)
    config = two_station_config(random_profile(rng, 1.0, 3), random_profile(rng, 1.0, 4), 0.5, 0.1)
    report = loc.certificate_check(config)
    assert len(built) == 1
    # the public classifier builds its own and classifies alike
    norm, _ = loc.normalize_configuration(config)
    part = loc.build_partition(norm.profiles[-1])
    built.clear()
    assert loc.classify_intervals(norm, part) == list(report.terms)
    assert len(built) == 1


def test_certificate_prices_the_comparison_mismatch_once(monkeypatch):
    comparisons, grids = [], []
    build, merged_grid = loc.build_comparison, loc._merged_grid

    def recording_build(u0, part):
        comparisons.append(build(u0, part))
        return comparisons[-1]

    def recording_grid(p, q, part):
        grids.append(q)
        return merged_grid(p, q, part)

    monkeypatch.setattr(loc, "build_comparison", recording_build)
    monkeypatch.setattr(loc, "_merged_grid", recording_grid)
    rng = np.random.default_rng(5)
    config = two_station_config(random_profile(rng, 1.0, 3), random_profile(rng, 1.0, 4), 0.5, 0.1)
    report = loc.certificate_check(config)
    # one grid of u0 and the comparison profile serves the pairing, the
    # error terms' mismatch and the interpolation ratio's numerator
    (cmp,) = comparisons
    assert sum(q is cmp.profile for q in grids) == 1
    norm, _ = loc.normalize_configuration(config)
    u0, part = norm.profiles[0], loc.build_partition(norm.profiles[-1])
    nums = np.sqrt(loc._interval_l2_sq(u0, cmp.profile, part)).tolist()
    dens = np.sqrt(loc._interval_l2_sq(u0, norm.profiles[-1], part)).tolist()
    widths = part.widths.tolist()
    want = tuple(n / (w * d ** (1.0 / 3.0)) for n, d, w in zip(nums, dens, widths))
    assert report.interpolation_ratios == want


def test_certificate_samples_all_windows_in_one_call(monkeypatch):
    calls = []
    sample = loc.hilbert_slope_exact

    def counting_sample(profile, y):
        calls.append(np.shape(y))
        return sample(profile, y)

    monkeypatch.setattr(loc, "hilbert_slope_exact", counting_sample)
    rng = np.random.default_rng(5)
    config = two_station_config(random_profile(rng, 1.0, 3), random_profile(rng, 1.0, 4), 0.5, 0.1)
    report = loc.certificate_check(config)
    assert calls == [(len(report.errors), loc.BMO_SAMPLES)]


def test_certificate_makes_no_windowed_l2_calls(monkeypatch):
    calls = []
    original = l2_distance

    def counting_l2(p, q):
        calls.append(1)
        return original(p, q)

    for name, module in list(sys.modules.items()):
        if name.startswith("twinstripe") and getattr(module, "l2_distance", None) is original:
            monkeypatch.setattr(module, "l2_distance", counting_l2)
    rng = np.random.default_rng(6)
    params = ModelParams(0.5, 0.1, 1.0, 1.0)
    profs = tuple(random_profile(rng, 1.0, t) for t in (3, 2, 4))
    config = Configuration(params, (0.0, 0.4, 1.0), profs)
    report = loc.certificate_check(config)
    assert math.isfinite(report.excess)
    # only strain_energy's full-period cells remain
    assert len(calls) == len(profs) - 1


def test_star_window_counts_match_per_piece_loop():
    rng = np.random.default_rng(15)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        teeth = [int(rng.integers(1, 7)) for _ in range(n - 1)] + [int(rng.integers(2, 7))]
        profs = tuple(random_profile(rng, 1.0, t) for t in teeth)
        stations = (0.0,) if n == 1 else tuple(np.linspace(0.0, 1.0, n))
        config = Configuration(ModelParams(0.5, 0.03, 1.0, 1.0), stations, profs)
        part = loc.build_partition(profs[-1])
        got = loc._interface_excess_per_interval(config, part, 0.03)
        assert np.array_equal(got, star_excess_reference(config, part, 0.03))
    # corners on every star-piece end: each piece is half open, [lo, hi)
    w4 = make_w_m(4, UNIT)
    eighths = SawtoothProfile(1.0, 0.0, -1, tuple(np.arange(8) / 8.0))
    config = Configuration(UNIT, (0.0, 1.0), (eighths, w4))
    part = loc.build_partition(w4)
    got = loc._interface_excess_per_interval(config, part, 1.0)
    assert np.array_equal(got, star_excess_reference(config, part, 1.0))
    assert np.array_equal(got, 0.5 * (np.array([8.0, 8.0]) - 4.0))


def test_normalization_preserves_energy_up_to_scale():
    rng = np.random.default_rng(71)
    h, L = 0.7, 2.3
    params = ModelParams(0.9, 0.04, L, h)
    profs = tuple(random_profile(rng, h, 3) for _ in range(3))
    config = Configuration(params, (0.0, 1.1, L), profs)
    norm, scale = loc.normalize_configuration(config)
    assert scale == pytest.approx(h**3 / L)
    before = total_energy(config)
    after = total_energy(norm)
    assert before.austenite == pytest.approx(scale * after.austenite, rel=1e-9)
    assert before.strain == pytest.approx(scale * after.strain, rel=1e-12)
    assert before.surface == pytest.approx(scale * after.surface, rel=1e-12)


def test_normalization_returns_a_normalized_configuration_itself():
    config = striped_candidate(ModelParams(2e-2, 1e-3, 1.0, 1.0), stations=4)
    norm, scale = loc.normalize_configuration(config)
    assert norm is config and scale == 1.0
    # a period 1e-13 short of h passes the configuration check but is not
    # exactly 1.0, so the profiles are rebuilt at period 1.0, still shared
    prof = config.profiles[0]
    short = SawtoothProfile(1.0 - 1e-13, prof.offset, prof.initial_slope, prof.corners)
    near = Configuration(config.params, config.stations, (short,) * 4)
    norm, scale = loc.normalize_configuration(near)
    assert norm is not near and scale == 1.0
    assert norm.profiles[0].period == 1.0 and norm.profiles[0] is not short
    assert all(p is norm.profiles[0] for p in norm.profiles)
    assert norm.params == near.params and norm.stations == near.stations


@pytest.mark.parametrize("teeth", [2, 3, 7])
def test_partition_neighbors_gather_what_np_roll_gives(teeth):
    part = loc.build_partition(random_profile(np.random.default_rng(teeth), 1.0, teeth))
    assert part.count == teeth
    prev2, prev, nxt = part._neighbors
    assert part._neighbors is part._neighbors  # built once per partition
    x = np.random.default_rng(5).random(teeth)
    assert np.array_equal(x[prev2], np.roll(x, 2))
    assert np.array_equal(x[prev], np.roll(x, 1))
    assert np.array_equal(x[nxt], np.roll(x, -1))
