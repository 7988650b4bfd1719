"""Profile model: construction invariants, evaluation, exact integrals."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from twinstripe.model_core import (
    Configuration,
    EnergyBreakdown,
    InvariantError,
    ModelParams,
    SawtoothProfile,
    fourier_coefficients,
    _json_dumps,
    _json_numbers,
    _merge_degenerate,
    _merged_nodes,
    l2_distance,
    random_profile,
)

from twinstripe.localization import IntervalPartition, _interval_l2_sq

from oracles import (
    evaluate_reference,
    fourier_coefficient,
    l2_distance_reference,
    load_configuration,
    merge_degenerate_reference,
    nodes_reference,
    quad_fourier_coefficient,
    quad_l2_distance,
    quad_mean_square,
)

W2 = SawtoothProfile(1.0, 0.0, 1, (0.0, 0.5))
W4 = SawtoothProfile(1.0, 0.0, 1, (0.0, 0.25, 0.5, 0.75))


def profiles_for_trials(n, seed=7, **kw):
    rng = np.random.default_rng(seed)
    return [random_profile(rng, **kw) for _ in range(n)]


# -- construction and invariants ----------------------------------------------


def test_params_validation():
    p = ModelParams(1.0, 1e-4, 2.0, 0.5)
    assert p.sigma() == pytest.approx(1.0 * (1e-4) ** (-1 / 3) * 2.0 ** (1 / 3))
    for bad in [
        dict(beta=0.0, epsilon=1.0, length_L=1.0, height_h=1.0),
        dict(beta=1.0, epsilon=-2.0, length_L=1.0, height_h=1.0),
        dict(beta=1.0, epsilon=1.0, length_L=math.inf, height_h=1.0),
        dict(beta=1.0, epsilon=1.0, length_L=1.0, height_h=float("nan")),
    ]:
        with pytest.raises(InvariantError):
            ModelParams(**bad)


def test_profile_validation():
    with pytest.raises(InvariantError):
        SawtoothProfile(1.0, 0.0, 2, (0.0, 0.5))
    with pytest.raises(InvariantError):
        SawtoothProfile(1.0, 0.0, 1, (0.5, 0.25))
    with pytest.raises(InvariantError):
        SawtoothProfile(1.0, 0.0, 1, (0.0, 1.5))
    with pytest.raises(InvariantError):
        SawtoothProfile(1.0, 0.0, 1, (0.0, 0.25, 0.5))  # odd count
    # unbalanced rising/falling lengths cannot close periodically
    with pytest.raises(InvariantError):
        SawtoothProfile(1.0, 0.0, 1, (0.0, 0.25, 0.5, 0.875))


def test_degenerate_corners_merge_pairwise():
    # a zero-length tooth collapses and leaves a valid 2-corner profile
    p = SawtoothProfile(1.0, 0.0, 1, (0.0, 0.5, 0.7, 0.7 + 1e-14))
    assert p.corners == (0.0, 0.5)
    assert p.interface_count() == 2
    # corner count stays even after the merge
    assert p.interface_count() % 2 == 0


def test_merge_matches_the_rescanning_reference():
    # clusters of near-coincident corners, also across the wrap, merge as
    # the rescanning loop merged them, pair by pair and in the same order
    rng = np.random.default_rng(17)
    tiny = 1e-13
    for trial in range(400):
        base = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(1, 6))))
        picks = [[c + tiny * k for k in range(int(rng.integers(1, 4)))] for c in base]
        corners = sorted(c % 1.0 for group in picks for c in group)
        if trial % 3 == 0:  # short pairs on both sides of the wrap: the inner one goes first
            corners = sorted([0.0, tiny] + corners + [1.0 - tiny / 2])
        elif trial % 3 == 1:  # a pair straddling y = 0
            corners = sorted([0.0] + corners + [1.0 - tiny / 2])
        slope = int(rng.choice([-1, 1]))
        expected = merge_degenerate_reference(corners, slope, 1.0)
        assert _merge_degenerate(list(corners), slope, 1.0) == expected, corners


def test_constructor_arrays_equal_the_diff_form():
    rng = np.random.default_rng(29)
    profiles = [random_profile(rng, float(rng.uniform(0.2, 3.0))) for _ in range(498)]
    profiles.append(SawtoothProfile(1.0, 0.1, -1, (0.0, 0.3, 0.5, 0.7)))  # a corner at 0
    merged = SawtoothProfile(1.0, 0.0, 1, (0.1, 0.35, 0.6, 0.6 + 1e-14, 0.7, 0.95))
    assert merged.corners == (0.1, 0.35, 0.7, 0.95)
    profiles.append(merged)
    for p in profiles:
        c, h = np.asarray(p.corners), p.period
        gaps = np.diff(np.append(c, c[0] + h))
        slopes = (p.initial_slope if c[0] == 0.0 else -p.initial_slope) * (-1.0) ** np.arange(len(c))
        vals = np.empty(len(c))
        vals[0] = p.offset + p.initial_slope * c[0]
        vals[1:] = vals[0] + np.cumsum(slopes[:-1] * gaps[:-1])
        assert np.array_equal(p._gaps(), gaps)
        assert np.array_equal(p.slope_after_corners(), slopes)
        assert np.array_equal(p.corner_values(), vals)
        assert not p._gaps().flags.writeable


def test_periodicity_closure():
    rng = np.random.default_rng(3)
    for p in profiles_for_trials(20, seed=11, max_teeth=12):
        y = rng.random(64) * 3.0 - 1.0
        a = np.asarray(p.evaluate(y))
        b = np.asarray(p.evaluate(y + p.period))
        assert np.max(np.abs(a - b)) <= 1e-12 * p.period


def test_lipschitz_bound():
    for p in profiles_for_trials(10, seed=5):
        y = np.linspace(0, p.period, 2049)
        u = np.asarray(p.evaluate(y))
        slopes = np.diff(u) / np.diff(y)
        assert np.max(np.abs(slopes)) <= 1.0 + 1e-9


def test_balance_halves():
    for p in profiles_for_trials(10, seed=9, max_teeth=10):
        gaps = p._gaps()
        s = p.slope_after_corners()
        rising = gaps[s > 0].sum()
        assert rising == pytest.approx(p.period / 2, rel=1e-12)


def test_evaluate_matches_w2_example():
    assert W2.evaluate(0.25) == pytest.approx(0.25, abs=1e-15)
    assert W2.evaluate(0.75) == pytest.approx(0.25, abs=1e-15)
    assert W2.evaluate(1.0) == pytest.approx(0.0, abs=1e-15)


# -- cached geometry against the pre-cache kernel --------------------------------


def kernel_profiles(n=40, seed=101):
    """Seeded random profiles, every other one re-anchored to a corner at 0."""
    out = []
    for j, p in enumerate(profiles_for_trials(n, seed=seed, max_teeth=9)):
        q = p.translated(-p.corners[0]) if j % 2 else p
        if j % 2:
            assert q.corners[0] == 0.0
        out.append(q)
    out += [W2, W4, W2.with_offset_shift(-0.3)]
    return out


def test_evaluate_and_nodes_equal_pre_cache_kernel_exactly():
    rng = np.random.default_rng(5)
    for p in kernel_profiles():
        h = p.period
        ys, vs = nodes_reference(p)
        y = np.concatenate((
            rng.random(64) * 4 * h - 2 * h,  # y < 0 and y >= h included
            np.asarray(p.corners), np.asarray(p.corners) - h, [0.0, h, 2 * h, -h, -0.0],
            np.nextafter(np.asarray(p.corners), -1.0),
        ))
        assert np.array_equal(p.evaluate(y), evaluate_reference(p, y))
        grid = y[: len(y) // 2 * 2].reshape(2, -1)  # 2-D input keeps its shape
        assert np.array_equal(p.evaluate(grid), evaluate_reference(p, grid))
        for t in (0.0, -0.25 * h, h, 1.5 * h, float(p.corners[-1]), float(y[3])):
            got = p.evaluate(t)
            assert type(got) is float and got == evaluate_reference(p, t)
        assert np.array_equal(p.evaluate(np.float64(y[1])), evaluate_reference(p, y[1]))
        ny, nv = p.nodes()
        assert np.array_equal(ny, ys) and np.array_equal(nv, vs)


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bits (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_merged_nodes_and_evaluate_equal_union1d_and_the_masked_form():
    # random pairs, half of them with a corner at 0, plus pairs sharing
    # corners (an offset shift, a copy) and a profile with itself
    rng = np.random.default_rng(18)
    profs = kernel_profiles(n=24, seed=18)
    pairs = list(zip(profs, profs[1:] + profs[:1]))
    pairs += [(p, p) for p in profs[:4]]
    pairs += [(p, p.with_offset_shift(0.1)) for p in profs[4:8]]
    pairs += [(p, SawtoothProfile(p.period, p.offset, p.initial_slope, p.corners)) for p in profs[8:12]]
    pairs.append((SawtoothProfile(1.0, 0.0, 1, (-0.0, 0.5)), W2))  # a signed-zero corner first
    pairs.append((W2, SawtoothProfile(1.0, 0.0, 1, (-0.0, 0.5))))
    assert any(p.corners[0] == 0.0 and q.corners[0] == 0.0 for p, q in pairs)
    for p, q in pairs:
        h = p.period
        ys = _merged_nodes(p, q)
        assert same_bits(ys, np.union1d(p.nodes()[0], q.nodes()[0]))
        y = np.concatenate((ys, rng.random(16) * 4 * h - 2 * h, [-0.0, h, -h, 2.5 * h]))
        for r in (p, q):
            assert same_bits(r.evaluate(y), evaluate_reference(r, y))
            grid = y[: len(y) // 4 * 4].reshape(2, 2, -1)
            assert same_bits(r.evaluate(grid), evaluate_reference(r, grid))
            assert same_bits(r.evaluate(y[:0]), evaluate_reference(r, y[:0]))
            for t in (0.0, -0.0, float(y[-5]), -1.25 * h, 3.0 * h):
                got = r.evaluate(t)
                assert type(got) is float and same_bits(got, evaluate_reference(r, t))


def partition_at(period, *cuts):
    """Partition of one period at increasing cuts, cuts[0] in [0, period);
    the last interval closes at cuts[0] + period."""
    mids = np.asarray(cuts, dtype=float)
    zero = np.zeros_like(mids)
    return IntervalPartition(period, mids, zero, zero, zero)


def window_l2_sq(p, q, lo, hi):
    """Integral of (p - q)^2 over the window [lo, hi], from the partition
    whose first interval is the window (folded into [0, period))."""
    h = p.period
    a = lo % h
    part = partition_at(h, a) if hi - lo >= h else partition_at(h, a, a + (hi - lo))
    return float(_interval_l2_sq(p, q, part)[0])


def test_l2_distance_equals_pre_cache_kernel_exactly():
    rng = np.random.default_rng(8)
    profs = kernel_profiles(n=30, seed=77)
    for p, q in zip(profs, profs[1:] + profs[:1]):
        h = p.period
        assert l2_distance(p, q) == l2_distance_reference(p, q)
        a = rng.random() * 3 * h - 1.5 * h
        windows = [
            (0.0, h),  # full period as a window
            (a, a + h),  # full period, shifted
            (0.1 * h, 0.6 * h),  # inside the period
            (0.9 * h, 1.3 * h),  # wraps the seam
            (-0.2 * h, 0.1 * h),  # negative start, wraps
            (a, a + rng.random() * h),
            (float(p.corners[0]), float(q.corners[-1]) + 1e-3 * h),
        ]
        # windowed integrals come from the partition grid, to rounding
        for w in windows:
            ref = l2_distance_reference(p, q, window=w) ** 2
            assert abs(window_l2_sq(p, q, *w) - ref) <= 1e-13 * ref + 1e-15 * h, w


def test_cached_geometry_is_read_only_and_per_profile():
    p = kernel_profiles(n=2, seed=3)[0]
    ys, vs = p.nodes()
    for arr in (ys, vs, p.corner_values(), p.slope_after_corners(), p._gaps()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert np.array_equal(p.nodes()[1], nodes_reference(p)[1])
    shifted = p.with_offset_shift(0.375)
    moved = replace(p, corners=tuple(np.asarray(p.corners) * 0.5), period=0.5 * p.period)
    for q in (shifted, moved):
        qy, qv = q.nodes()
        ry, rv = nodes_reference(q)
        assert np.array_equal(qy, ry) and np.array_equal(qv, rv)
        assert not np.shares_memory(qv, vs)
        assert q.evaluate(0.0) == evaluate_reference(q, 0.0)
    assert np.allclose(shifted.nodes()[1], vs + 0.375, rtol=0, atol=1e-12)
    # the source profile keeps its own cache
    assert np.array_equal(p.nodes()[1], nodes_reference(p)[1])


# -- fourier coefficients ------------------------------------------------------


def test_triangle_wave_coefficient_against_quadrature():
    # oracle: midpoint quadrature at 1e6 nodes
    c_oracle = quad_fourier_coefficient(W2, 1)
    assert abs(c_oracle - (-1 / np.pi**2)) < 1e-10
    c_impl = fourier_coefficient(W2, 1)
    assert abs(c_impl - c_oracle) < 1e-9
    assert abs(abs(c_impl) - 1 / np.pi**2) < 1e-12


def test_coefficients_against_quadrature_random():
    for p in profiles_for_trials(6, seed=21, max_teeth=6):
        for k in (-64, -3, -1, 0, 1, 2, 5, 64):
            c_impl = fourier_coefficient(p, k)
            c_oracle = quad_fourier_coefficient(p, k, nodes=10**6)
            assert abs(c_impl - c_oracle) < 1e-9


def test_conjugate_symmetry():
    for p in profiles_for_trials(5, seed=2):
        ks = np.array([1, 2, 3, 7, 19])
        plus = fourier_coefficients(p, ks)
        minus = fourier_coefficients(p, -ks)
        assert np.allclose(minus, np.conj(plus), rtol=0, atol=1e-15)


def test_parseval_consistency():
    # sum over |k| <= 2048 of |uhat|^2 recovers the mean square value
    K = 2048
    ks = np.concatenate((np.arange(-K, 0), np.arange(1, K + 1)))
    for p in profiles_for_trials(8, seed=13, max_teeth=32):
        coeffs = fourier_coefficients(p, ks)
        mean = p.mean()
        total = float(np.sum(np.abs(coeffs) ** 2)) + mean * mean
        ms = quad_mean_square(p, nodes=2 * 10**6)
        assert total == pytest.approx(ms, rel=1e-6)


# -- l2 distance ---------------------------------------------------------------


def test_l2_distance_w2_w4():
    val = l2_distance(W2, W4)
    oracle = quad_l2_distance(W2, W4)
    assert val == pytest.approx(oracle, abs=1e-7)
    assert val == pytest.approx(math.sqrt(1.0 / 24.0), rel=1e-12)


def test_l2_distance_windows_and_additivity():
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = random_profile(rng)
        q = random_profile(rng)
        a = rng.random() * 0.5
        b = a + 0.2 + rng.random() * 0.5
        mid = (a + b) / 2
        full = window_l2_sq(p, q, a, b)
        halves = _interval_l2_sq(p, q, partition_at(1.0, a, mid, b))
        assert full == pytest.approx(halves[0] + halves[1], rel=1e-12)
        assert full == pytest.approx(l2_distance_reference(p, q, window=(a, b)) ** 2, rel=1e-12)
        assert math.sqrt(full) == pytest.approx(
            quad_l2_distance(p, q, window=(a, b)), abs=1e-6
        )
        # the intervals of a partition add up to the full-period distance
        assert halves.sum() == pytest.approx(l2_distance(p, q) ** 2, rel=1e-12)


def test_l2_distance_wrapped_window():
    # window crossing the period seam equals the two straight pieces
    val = window_l2_sq(W2, W4, 0.9, 1.3)
    straight = _interval_l2_sq(W2, W4, partition_at(1.0, 0.0, 0.3, 0.9))
    assert val == pytest.approx(straight[2] + straight[0], rel=1e-12)
    assert val == pytest.approx(l2_distance_reference(W2, W4, window=(0.9, 1.3)) ** 2, rel=1e-12)


def test_l2_distance_period_mismatch():
    other = SawtoothProfile(2.0, 0.0, 1, (0.0, 1.0))
    with pytest.raises(InvariantError):
        l2_distance(W2, other)


# -- transforms ----------------------------------------------------------------


def test_translated_profile():
    rng = np.random.default_rng(31)
    for p in profiles_for_trials(5, seed=23):
        dy = rng.random() * 2 - 1
        q = p.translated(dy)
        y = rng.random(32)
        assert np.allclose(q.evaluate(y), p.evaluate(y - dy), atol=1e-12)


def test_from_positions_rebuilds_a_profile_from_its_corners():
    # dyadic corners on a unit period, so moving one by -1 or +1 and
    # wrapping it back is exact
    rng = np.random.default_rng(41)
    for trial in range(40):
        m = int(rng.integers(1, 7))
        gaps = np.empty(2 * m)
        gaps[0::2] = 1 + rng.multinomial(512 - m, np.full(m, 1.0 / m))
        gaps[1::2] = 1 + rng.multinomial(512 - m, np.full(m, 1.0 / m))
        lead = int(rng.integers(0, gaps[-1])) if trial % 2 else 0
        corners = (lead + np.concatenate(([0.0], np.cumsum(gaps[:-1])))) / 1024.0
        # rising after the first corner, so y = 0 lies on that rise when
        # the first corner sits at 0 and on the last, falling, segment else
        p = SawtoothProfile(1.0, float(rng.normal()), 1 if lead == 0 else -1, tuple(corners))
        assert (p.corners[0] == 0.0) == (lead == 0)
        order = rng.permutation(2 * m)
        shifted = corners[order] + rng.integers(-1, 2, size=2 * m)
        slopes = p.slope_after_corners()[order]
        assert SawtoothProfile.from_positions(1.0, p.offset, shifted, slopes) == p


def test_offset_shift():
    q = W2.with_offset_shift(0.7)
    y = np.linspace(0, 1, 11)
    assert np.allclose(np.asarray(q.evaluate(y)) - np.asarray(W2.evaluate(y)), 0.7)


# -- serialization -------------------------------------------------------------


def test_profile_json_round_trip():
    for p in profiles_for_trials(5, seed=41):
        blob = json.dumps(p.to_json())
        q = SawtoothProfile.from_json(json.loads(blob))
        assert q == p


def test_configuration_round_trip_and_validation():
    params = ModelParams(1.0, 1e-3, 1.0, 1.0)
    cfg = Configuration(params, (0.0, 0.5, 1.0), (W2, W2, W4))
    blob = cfg.dumps()
    back = load_configuration(blob)
    assert back == cfg
    with pytest.raises(InvariantError):
        Configuration(params, (0.0, 1.0), (W2,))
    with pytest.raises(InvariantError):
        Configuration(params, (0.1, 1.0), (W2, W2))
    with pytest.raises(InvariantError):
        Configuration(params, (0.0, 0.5), (W2, W2))  # last station must hit L
    bad_blob = json.loads(blob)
    del bad_blob["params"]["beta"]
    with pytest.raises(InvariantError):
        Configuration.from_json(bad_blob)


def test_loader_shares_consecutive_bit_identical_profiles():
    params = ModelParams(1.0, 1e-3, 1.0, 1.0)
    cfg = Configuration(params, (0.0, 0.25, 0.5, 0.75, 1.0), (W4, W4, W2, W4, W4))
    text = cfg.dumps()
    back = Configuration.from_json(json.loads(text))
    p = back.profiles
    assert p[0] is p[1] and p[3] is p[4]
    assert p[1] is not p[2] and p[2] is not p[3] and p[0] is not p[3]  # neighbours only
    assert back == cfg and back.dumps() == text
    # a signed zero in the offset or a corner is equal under == but not bit for bit
    zero = SawtoothProfile(1.0, 0.0, 1, (0.0, 0.5))
    for other in (replace(zero, offset=-0.0), SawtoothProfile(1.0, 0.0, 1, (-0.0, 0.5))):
        assert other == zero
        cfg = Configuration(params, (0.0, 0.5, 1.0), (zero, other, other))
        text = cfg.dumps()
        assert "-0.0" in text
        back = Configuration.from_json(json.loads(text))
        assert back.profiles[0] is not back.profiles[1]
        assert back.profiles[1] is back.profiles[2]
        assert back.dumps() == text


JSON_EDGE_VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 5e-324, 0.1, 7, -3, 0, 2**70,
    True, False, None, "", "plain", "\u00e9\u2603 \"quoted\"\n\t\\", [], {}, [[]], [{}], {"a": []},
    {"a": {}, "b": [[], {}]}, np.float64(0.1), np.float64(-0.0), [np.float64(0.5), 1.0],
    [1.0, math.nan, 2.0], [math.inf, -math.inf], [1e308, 1e308], [0.5, 1, True, None],
    (1.0, 2.0), {"\u00e9l\u00e8ve": [1.0, -0.0], "\u043a\u043b\u044e\u0447": {"x": (0.25,)}},
    {"nested": [{"k": [1.5, {"deep": [None, False]}]}]},
    {1: "int key", 2.5: [1.0], None: {}, True: 0.5},  # keys json.dumps converts
]


@pytest.mark.parametrize("value", JSON_EDGE_VALUES, ids=range(len(JSON_EDGE_VALUES)))
def test_json_writer_equals_json_dumps_indent_2(value):
    assert _json_dumps(value) == json.dumps(value, indent=2)


def test_json_writer_refuses_what_json_dumps_refuses():
    for bad in (np.int64(3), [np.array([1.0])], {"a": object()}, {(1, 2): 1.0}):
        with pytest.raises(TypeError) as expected:
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError) as got:
            _json_dumps(bad)
        assert str(got.value) == str(expected.value)


def test_json_numbers_fast_path_keeps_the_checked_values_and_messages():
    assert _json_numbers([0.5, -0.0, 1e308, 1e308], "c") == (0.5, -0.0, 1e308, 1e308)
    assert _json_numbers([1, 0.5], "c") == (1.0, 0.5) and _json_numbers([], "c") == ()
    for bad, message in (([0.5, math.nan], "c[1] must be finite"),
                         ([math.inf, 0.5], "c[0] must be finite"),
                         ([0.5, True], "c[1] must be a number")):
        with pytest.raises(InvariantError, match=re.escape(message)):
            _json_numbers(bad, "c")


def test_energy_breakdown_consistency():
    b = EnergyBreakdown.from_parts(1.0, 2.0, 3.0)
    assert b.total == 6.0
    with pytest.raises(InvariantError):
        EnergyBreakdown(1.0, 2.0, 3.0, 6.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvariantError, match="strain"):
            EnergyBreakdown.from_parts(1.0, bad, 3.0)
        with pytest.raises(InvariantError, match="total"):
            EnergyBreakdown(1.0, 2.0, 3.0, bad)


def test_configuration_rejects_non_finite_stations():
    params = ModelParams(1.0, 1e-3, 1.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvariantError, match="stations"):
            Configuration(params, (0.0, bad, 1.0), (W2, W2, W2))
