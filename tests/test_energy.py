"""Energy module: spectral vs real-space half-norm, extension energy,
strain and surface terms."""

import math
import tracemalloc

import numpy as np
import pytest

from twinstripe import energy
from twinstripe.model_core import (
    Configuration,
    InvariantError,
    ModelParams,
    NonConvergenceError,
    SawtoothProfile,
    random_profile,
)
from twinstripe.energy import (
    AusteniteField,
    austenite_energy,
    h_half_inner,
    h_half_sq,
    h_half_sq_fourier,
    h_half_sq_realspace,
    l2_norm_sq,
    periodized_kernel,
    strain_energy,
    surface_energy,
    total_energy,
)

import mpmath as mp

from oracles import (
    C0_EXACT,
    h_half_inner_closed_form,
    h_half_sq_closed_form,
    quad_mean_square,
)

W2 = SawtoothProfile(1.0, 0.0, 1, (0.0, 0.5))


def make_wm(m, h=1.0):
    return SawtoothProfile(h, 0.0, 1, tuple(h * np.arange(m) / m))


# -- spectral half-norm --------------------------------------------------------


def test_uniform_sawtooth_constant():
    # M teeth at spacing h/M carry half-norm c0 h^2 / M
    for m in (2, 4, 8, 16):
        v = h_half_sq_fourier(make_wm(m))
        assert v * m == pytest.approx(C0_EXACT, rel=1e-6)


def test_uniform_sawtooth_constant_other_period():
    h = 0.37
    for m in (2, 8):
        v = h_half_sq_fourier(make_wm(m, h))
        assert v == pytest.approx(C0_EXACT * h * h / m, rel=1e-6)


def test_fourier_against_closed_form_oracle():
    # trilogarithm pair formula, evaluated at 30 digits
    rng = np.random.default_rng(100)
    for _ in range(8):
        p = random_profile(rng, n_teeth=int(rng.integers(1, 9)))
        exact = h_half_sq_closed_form(p)
        approx = h_half_sq_fourier(p)
        assert approx == pytest.approx(exact, rel=5e-6)
        assert approx <= exact + 1e-12  # truncation only discards mass


def test_offset_and_translation_leave_half_norm():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = random_profile(rng)
        q = p.translated(rng.random()).with_offset_shift(rng.normal())
        assert h_half_sq_fourier(q) == pytest.approx(h_half_sq_fourier(p), rel=1e-12)


def test_joint_scaling_is_quadratic():
    # scaling (y, u) -> (s y, s u) stays admissible and scales the form by s^2
    rng = np.random.default_rng(8)
    p = random_profile(rng, n_teeth=3)
    s = 2.5
    q = SawtoothProfile(
        s * p.period, s * p.offset, p.initial_slope, tuple(s * c for c in p.corners)
    )
    assert h_half_sq_fourier(q) == pytest.approx(s * s * h_half_sq_fourier(p), rel=1e-10)


# -- corner-pair closed form ---------------------------------------------------


def test_pair_sum_matches_trilogarithm_oracle():
    # the production kernel against the mpmath pair sum, up to 16 teeth
    rng = np.random.default_rng(102)
    for _ in range(6):
        p = random_profile(rng, n_teeth=int(rng.integers(1, 17)))
        assert h_half_sq(p) == pytest.approx(h_half_sq_closed_form(p), rel=1e-12)
    for _ in range(4):
        f = random_profile(rng, n_teeth=int(rng.integers(1, 17)))
        g = random_profile(rng, n_teeth=int(rng.integers(1, 17)))
        # relative to the Cauchy-Schwarz scale, which an inner product can
        # undershoot by cancellation
        scale = math.sqrt(h_half_sq(f) * h_half_sq(g))
        exact = h_half_inner_closed_form(f, g)
        assert abs(h_half_inner(f, g) - exact) <= 1e-12 * max(abs(exact), scale)


def test_clausen2_matches_mpmath():
    # odd and 2 pi periodic: the folding must keep the float argument's
    # distance to the nearest multiple of 2 pi, where Cl_2' is infinite
    theta = np.concatenate((
        [0.0, 1e-300, -1e-300, 1e-9, -1e-9, np.pi, -np.pi],
        2.0 * np.pi * np.arange(-2, 3),
        np.linspace(-4.0 * np.pi, 4.0 * np.pi, 1001),
    ))
    ref = np.array([float(mp.clsin(2, mp.mpf(float(t)))) for t in theta])
    assert np.max(np.abs(energy._clausen2(theta) - ref)) < 1e-15


def test_pair_sum_equispaced_constant_up_to_1024_teeth():
    # m W_m carries c0 exactly; rounding in the m^2-term pair sum grows
    # like m^2 eps (measured 1.5e-10 relative at m = 1024)
    eps = np.finfo(float).eps
    for m, bound in ((2, 1e-12), (64, 1e-12), (1024, 2.0 * 1024**2 * eps)):
        assert h_half_sq(make_wm(m)) * m == pytest.approx(C0_EXACT, rel=bound)
    h = 0.37
    assert h_half_sq(make_wm(8, h)) == pytest.approx(C0_EXACT * h * h / 8, rel=1e-12)


def test_pair_sum_rejects_unequal_periods():
    with pytest.raises(InvariantError):
        h_half_inner(W2, make_wm(2, 0.5))


# -- real-space route ----------------------------------------------------------


def test_periodized_kernel_matches_trig_closed_form():
    h = 0.83
    t = np.linspace(1e-3 * h, h - 1e-3 * h, 257)
    kv = periodized_kernel(t, h)
    exact = (np.pi / h) ** 2 / np.sin(np.pi * t / h) ** 2
    # the documented tail remainder bound is ~1e-7 relative at 64 images
    assert np.max(np.abs(kv / exact - 1)) < 1e-7
    assert np.max(np.abs(periodized_kernel(t, h, images=512) / exact - 1)) < 5e-10


def test_periodized_kernel_refuses_short_image_sum():
    with pytest.raises(NonConvergenceError):
        periodized_kernel(np.array([0.5]), 1.0, images=1, rtol=1e-12)


def test_realspace_matches_fourier():
    rng = np.random.default_rng(55)
    for _ in range(20):
        p = random_profile(rng, n_teeth=int(rng.integers(1, 17)))
        a = h_half_sq_fourier(p)
        b = h_half_sq_realspace(p)
        assert b == pytest.approx(a, rel=1e-3)


def test_realspace_w2_value():
    assert h_half_sq_realspace(W2) == pytest.approx(C0_EXACT / 2, rel=1e-4)


# -- inner product -------------------------------------------------------------


def test_inner_reduces_to_norm():
    assert h_half_inner(W2, W2) == pytest.approx(h_half_sq(W2), rel=1e-12)


def test_inner_half_period_shift_flips_sign():
    shifted = W2.translated(0.5)
    v = h_half_inner(W2, shifted)
    assert v == pytest.approx(-h_half_sq(W2), rel=1e-9)


def test_inner_symmetry_and_derivative_bound():
    rng = np.random.default_rng(77)
    for _ in range(10):
        f = random_profile(rng)
        g = random_profile(rng)
        v = h_half_inner(f, g)
        assert v == pytest.approx(h_half_inner(g, f), rel=1e-12, abs=1e-15)
        # |(f,g)| <= 2 pi ||f'|| ||g|| with ||f'||^2 = h for unit slopes
        bound = 2 * np.pi * math.sqrt(f.period) * math.sqrt(l2_norm_sq(g))
        assert abs(v) <= bound * (1 + 1e-9)


def test_l2_norm_sq_against_quadrature():
    rng = np.random.default_rng(78)
    for _ in range(5):
        p = random_profile(rng)
        assert l2_norm_sq(p) == pytest.approx(quad_mean_square(p) * p.period, rel=1e-6)


# -- harmonic extension --------------------------------------------------------


def test_extension_boundary_trace():
    field = AusteniteField(W2)
    y = np.linspace(0, 1, 501)
    trace = field.evaluate(0.0, y)
    assert np.max(np.abs(trace - np.asarray(W2.evaluate(y)))) < 1e-3


def test_extension_decays_to_mean():
    field = AusteniteField(W2)
    far = field.evaluate(-3.0, 0.3)
    assert far == pytest.approx(W2.mean(), abs=1e-7)
    with pytest.raises(InvariantError):
        field.evaluate(0.5, 0.0)


def test_extension_energy_equals_half_norm():
    rng = np.random.default_rng(91)
    for _ in range(20):
        p = random_profile(rng, n_teeth=int(rng.integers(1, 9)))
        beta = float(rng.uniform(0.1, 3.0))
        field = AusteniteField(p)
        v = austenite_energy(field, beta)
        ref = beta * h_half_sq_fourier(p)
        assert v == pytest.approx(ref, rel=1e-12)


def test_constant_trace_extension_energy_is_zero():
    # a two-corner profile with a unit period carries the minimum possible
    # half-norm; the zero-energy statement needs a flat trace, which the
    # admissible class cannot represent, so check the mean mode instead:
    # shifting the offset adds nothing
    f0 = austenite_energy(AusteniteField(W2), 1.0)
    f1 = austenite_energy(AusteniteField(W2.with_offset_shift(5.0)), 1.0)
    assert f0 == pytest.approx(f1, rel=1e-12)


def test_extension_blocks_match_single_block(monkeypatch):
    # point counts around the block length, against one block holding all
    field = AusteniteField(random_profile(np.random.default_rng(92), n_teeth=4))
    step = energy._BLOCK_ENTRIES // field.mode_cutoff
    rng = np.random.default_rng(93)
    cases = []
    for n in (1, step - 1, step, step + 1, 2 * step + 1):
        x, y = -rng.uniform(0.0, 0.2, n), rng.uniform(0.0, 1.0, n)
        cases.append((x, y, field.evaluate(x, y)))
    monkeypatch.setattr(energy, "_BLOCK_ENTRIES", 2**40)
    for x, y, blocked in cases:
        assert np.max(np.abs(blocked - field.evaluate(x, y))) <= 1e-12


def test_extension_memory_bounded_in_point_count():
    # unblocked, 4096 points x 1024 modes would hold 64 MB per complex array
    field = AusteniteField(random_profile(np.random.default_rng(94), n_teeth=4), 1024)
    y = np.linspace(0.0, 1.0, 4096)
    tracemalloc.start()
    try:
        field.evaluate(-0.01, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_pair_sum_blocks_match_single_block(monkeypatch):
    # corner counts are even, so the rows of f are held fixed and the
    # block length moves around them: one row per block, a last block of
    # one row, an exact fit, one oversize block, two full blocks
    rng = np.random.default_rng(95)
    f = random_profile(rng, n_teeth=12)
    g = random_profile(rng, n_teeth=5)
    rows, cols = len(f.corners), len(g.corners)
    monkeypatch.setattr(energy, "_BLOCK_ENTRIES", 2**40)
    whole = (h_half_inner(f, g), h_half_sq(f))
    for step in (1, rows - 1, rows, rows + 1, rows // 2):
        monkeypatch.setattr(energy, "_BLOCK_ENTRIES", step * cols)
        assert abs(h_half_inner(f, g) - whole[0]) <= 1e-12
        monkeypatch.setattr(energy, "_BLOCK_ENTRIES", step * rows)
        assert abs(h_half_sq(f) - whole[1]) <= 1e-12


def test_pair_sum_memory_bounded_in_corner_count():
    # unblocked, 2048 x 2048 corner pairs would hold about 224 MB of temporaries
    prof = make_wm(2048)
    tracemalloc.start()
    try:
        h_half_sq(prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


# -- strain and surface --------------------------------------------------------


def params(beta=1.0, eps=1e-3, L=1.0, h=1.0):
    return ModelParams(beta, eps, L, h)


def test_strain_energy_two_station():
    w4 = make_wm(4)
    cfg = Configuration(params(), (0.0, 1.0), (W2, w4))
    from twinstripe.model_core import l2_distance

    assert strain_energy(cfg) == pytest.approx(l2_distance(W2, w4) ** 2, rel=1e-12)


def test_strain_zero_for_constant_configuration():
    cfg = Configuration(params(), (0.0, 0.5, 1.0), (W2, W2, W2))
    assert strain_energy(cfg) == 0.0


def test_strain_refinement_poincare():
    # strain of any station path dominates the straight-line bound
    rng = np.random.default_rng(13)
    profs = tuple(random_profile(rng, n_teeth=3) for _ in range(4))
    cfg = Configuration(params(), (0.0, 0.3, 0.7, 1.0), profs)
    from twinstripe.model_core import l2_distance

    lower = l2_distance(profs[0], profs[-1]) ** 2 / 1.0
    assert strain_energy(cfg) >= lower - 1e-12


def test_surface_energy_max_convention():
    w4 = make_wm(4)
    cfg = Configuration(params(eps=0.5), (0.0, 0.25, 1.0), (W2, w4, w4))
    # cell 1 carries max(2,4)=4 over length 0.25, cell 2 carries 4 over 0.75
    assert surface_energy(cfg) == pytest.approx(0.5 * (0.25 * 4 + 0.75 * 4))
    single = Configuration(params(eps=2.0), (0.0,), (W2,))
    assert surface_energy(single) == pytest.approx(2.0 * 1.0 * 2)


def test_total_energy_breakdown_and_invariance():
    w4 = make_wm(4)
    cfg = Configuration(params(beta=0.7, eps=0.01), (0.0, 1.0), (W2, w4))
    b = total_energy(cfg)
    assert b.total == pytest.approx(b.austenite + b.strain + b.surface, rel=1e-12)
    assert b.austenite == pytest.approx(0.7 * h_half_sq(W2), rel=1e-12)
    # translating every profile and shifting all offsets changes nothing
    dy = 0.237
    cfg2 = Configuration(
        cfg.params,
        cfg.stations,
        tuple(p.translated(dy).with_offset_shift(1.5) for p in cfg.profiles),
    )
    b2 = total_energy(cfg2)
    assert b2.total == pytest.approx(b.total, rel=1e-10)
