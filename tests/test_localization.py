"""Localization machinery: Hilbert transform, ascent-midpoint partition,
matched comparison profile, local energy shares, interval classification,
and the certificate that assembles them."""

import json
import math
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

from oracles import interval_pairing_mp


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
    flat = loc.hilbert_transform(np.array([0.0 + 0.0j]), period=1.0)
    ys = np.linspace(0.0, 1.0, 17)
    assert np.allclose(flat.evaluate(ys), 0.0)
    # sin(2 pi y) has one-sided coefficient -i/2 and maps to -2 pi cos(2 pi y)
    sine = loc.hilbert_transform(np.array([-0.5j]), period=1.0)
    assert np.allclose(sine.evaluate(ys), -2.0 * math.pi * np.cos(2.0 * math.pi * ys),
                       atol=1e-12)


def test_hilbert_squares_to_minus_identity():
    rng = np.random.default_rng(21)
    prof = random_profile(rng, 1.0, 4)
    once = loc.hilbert_transform(prof, cutoff=512)
    twice = loc.hilbert_transform(once.coeffs, period=1.0)
    from twinstripe.model_core import fourier_coefficients

    ks = np.arange(1, 513)
    direct = fourier_coefficients(prof, ks)
    assert np.allclose(twice.coeffs, -4.0 * math.pi**2 * direct, rtol=0, atol=1e-12)


def test_hilbert_signal_sampling_matches_pointwise():
    rng = np.random.default_rng(22)
    sig = loc.hilbert_transform(random_profile(rng, 1.0, 3), cutoff=256)
    n = 1024
    ys = np.arange(n) / n
    assert np.allclose(sig.sample(n), sig.evaluate(ys), atol=1e-12)
    with pytest.raises(InvariantError):
        sig.sample(16)


def test_hilbert_signal_blocks_match_single_block(monkeypatch):
    sig = loc.hilbert_transform(random_profile(np.random.default_rng(23), 1.0, 3))
    step = energy._BLOCK_ENTRIES // len(sig.coeffs)
    rng = np.random.default_rng(24)
    cases = [rng.uniform(0.0, 1.0, n) for n in (1, step - 1, step, step + 1, 2 * step + 1)]
    blocked = [sig.evaluate(ys) for ys in cases]
    monkeypatch.setattr(energy, "_BLOCK_ENTRIES", 2**40)
    for ys, got in zip(cases, blocked):
        assert np.max(np.abs(got - sig.evaluate(ys))) <= 1e-12


def test_hilbert_signal_memory_bounded_in_point_count():
    # unblocked, 4096 points x 1024 modes would hold 64 MB per complex array
    sig = loc.hilbert_transform(random_profile(np.random.default_rng(25), 1.0, 3), cutoff=1024)
    ys = np.linspace(0.0, 1.0, 4096)
    tracemalloc.start()
    try:
        sig.evaluate(ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
        series = loc.hilbert_transform(prof, cutoff=cutoff, derivative=True)
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
    monkeypatch.setattr(loc, "_BLOCK_ENTRIES", 2**40)
    whole = loc._interval_pairings(w, u0, part)
    for rows in (1, 2, 7):
        monkeypatch.setattr(loc, "_BLOCK_ENTRIES", rows * len(w.corners))
        assert np.max(np.abs(loc._interval_pairings(w, u0, part) - whole)) <= 1e-15


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
    for _ in range(50):
        u1 = random_profile(rng, 1.0, int(rng.integers(2, 9)))
        part = loc.build_partition(u1)
        corners = np.asarray(u1.corners)
        assert abs(part.widths.sum() - 1.0) < 1e-9 * 1.0
        n = part.count
        for k in range(n):
            lo, hi = part.interval(k)
            inside = np.mod(corners - lo, 1.0) < (hi - lo)
            assert inside.sum() == 2
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
            assert loc._window_integral(w, lo, hi) == pytest.approx(
                loc._window_integral(u0, lo, hi), abs=1e-10
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
        mism = np.array(
            [l2_distance(u0, u1, window=part.interval(k)) ** 2 for k in range(part.count)]
        )
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
    report = loc.classification_sensitivity(config, part)
    assert set(report) == {"base", "eta_half", "eta_double", "kappa_half", "kappa_double"}
    base = report["base"]["counts"]
    assert sum(base) == part.count
    # raising eta can only demote type 3 counts
    assert report["eta_double"]["counts"][2] <= base[2]
    assert report["eta_half"]["counts"][2] >= base[2]
    # shrinking kappa can only demote type 2 counts
    assert report["kappa_half"]["counts"][1] <= base[1]


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
