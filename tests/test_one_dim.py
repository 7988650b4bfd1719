"""Tests for the exact striped (x-independent) theory."""

import math

import mpmath
import numpy as np
import pytest

from twinstripe import energy, model_core, one_dim
from twinstripe.model_core import InvariantError, ModelParams

import oracles


def test_zeta3_constant_matches_reference():
    ref = float(mpmath.zeta(3))
    assert abs(one_dim.ZETA3 - ref) <= 1e-15 * ref
    assert abs(one_dim.C0 - oracles.C0_EXACT) <= 1e-14
    assert abs(one_dim.CS - 2.0 * math.sqrt(oracles.C0_EXACT)) <= 1e-14


def test_e1d_value_at_moderate_count():
    params = ModelParams(beta=1.0, epsilon=1e-4, length_L=1.0, height_h=1.0)
    got = one_dim.e1d(130, params)
    want = oracles.C0_EXACT / 130.0 + 1e-4 * 130.0
    assert abs(got - want) <= 1e-12
    assert abs(got - 0.0261162) <= 5e-7


def test_e1d_rejects_odd_and_nonpositive_counts():
    params = ModelParams(beta=1.0, epsilon=1e-2, length_L=1.0, height_h=1.0)
    for m in (3, 1, 0, -2):
        with pytest.raises(InvariantError):
            one_dim.e1d(m, params)


def test_optimal_even_m_matches_exhaustive_search():
    betas = np.logspace(-1, 2, 7)
    epss = np.logspace(-4, -1, 7)
    for b in betas:
        for e in epss:
            params = ModelParams(beta=float(b), epsilon=float(e), length_L=1.0, height_h=1.0)
            res = one_dim.optimal_even_m(params)
            want_ms, want_val = oracles.brute_force_even_m(
                float(b), float(e), 1.0, 1.0, oracles.C0_EXACT, m_max=4000
            )
            assert list(res.m_star) == want_ms, (b, e)
            assert abs(res.energy - want_val) <= 1e-12 * want_val


def test_optimal_m_tracks_continuous_minimizer():
    # in the regime beta >= 10 eps L / h^2 the even minimizer sits
    # within 2 of the unconstrained real one
    rng = np.random.default_rng(7)
    for _ in range(50):
        b = float(10.0 ** rng.uniform(-1, 2))
        e = float(10.0 ** rng.uniform(-5, -2))
        if b < 10.0 * e:
            continue
        params = ModelParams(beta=b, epsilon=e, length_L=1.0, height_h=1.0)
        res = one_dim.optimal_even_m(params)
        for m in res.m_star:
            assert abs(m - res.m_continuous) <= 2.0


def test_optimal_even_m_reports_exact_ties():
    # e1d(2) == e1d(4) exactly when beta c0 h^2 / (eps L) = 8
    eps = one_dim.C0 / 8.0
    params = ModelParams(beta=1.0, epsilon=eps, length_L=1.0, height_h=1.0)
    res = one_dim.optimal_even_m(params)
    assert res.m_star == (2, 4)


def test_make_w_m_basic_shape():
    params = ModelParams(beta=1.0, epsilon=1e-2, length_L=1.0, height_h=1.0)
    w2 = one_dim.make_w_m(2, params)
    assert w2.corners == (0.0, 0.5)
    assert w2.initial_slope == 1
    assert w2.evaluate(0.25) == pytest.approx(0.25, abs=1e-15)
    assert w2.evaluate(0.75) == pytest.approx(0.25, abs=1e-15)
    w8 = one_dim.make_w_m(8, params)
    assert w8.interface_count() == 8
    assert np.allclose(np.diff(w8.corners), 0.125)


def test_make_w_m_anchor_and_offset():
    params = ModelParams(beta=1.0, epsilon=1e-2, length_L=1.0, height_h=1.0)
    prof = one_dim.make_w_m(4, params, y0=0.3, a0=-0.1)
    assert prof.evaluate(0.3) == pytest.approx(-0.1, abs=1e-14)
    # rising with unit slope just after the anchor
    assert prof.evaluate(0.3 + 0.05) == pytest.approx(-0.05, abs=1e-14)
    gaps = np.diff(np.concatenate([prof.corners, [1.0 + prof.corners[0]]]))
    assert np.allclose(gaps, 0.25, atol=1e-12)


def test_make_w_m_rejects_odd_count():
    params = ModelParams(beta=1.0, epsilon=1e-2, length_L=1.0, height_h=1.0)
    with pytest.raises(InvariantError):
        one_dim.make_w_m(5, params)


def test_spread_term_on_uneven_profile():
    # gaps 0.375, 0.25, 0.125, 0.25 deviate from 0.25 by
    # (+1/8, 0, -1/8, 0), so the spread term is c0 * 2 * (1/8)^2
    params = ModelParams(beta=1.0, epsilon=1e-2, length_L=1.0, height_h=1.0)
    prof = model_core.SawtoothProfile(1.0, 0.0, 1, (0.0, 0.375, 0.625, 0.75))
    base, spread = one_dim.lower_bound_decomposition(prof, params)
    assert base == pytest.approx(one_dim.e1d(4, params), abs=1e-15)
    assert spread == pytest.approx(one_dim.C0 * 0.03125, rel=1e-12)


def test_lower_bound_holds_for_random_profiles():
    params = ModelParams(beta=1.0, epsilon=1e-2, length_L=1.0, height_h=1.0)
    rng = np.random.default_rng(20260114)
    for _ in range(200):
        prof = model_core.random_profile(rng, 1.0)
        m0 = prof.interface_count()
        lhs = params.beta * energy.h_half_sq_fourier(prof) + params.epsilon * m0
        base, spread = one_dim.lower_bound_decomposition(prof, params)
        rhs = base + spread
        assert (lhs - rhs) / rhs >= -1e-6


def test_lower_bound_equality_at_equispaced_profile():
    params = ModelParams(beta=1.0, epsilon=1e-2, length_L=1.0, height_h=1.0)
    for m in (2, 4, 8):
        prof = one_dim.make_w_m(m, params)
        lhs = params.beta * energy.h_half_sq_fourier(prof, cutoff=32768)
        lhs += params.epsilon * m
        base, spread = one_dim.lower_bound_decomposition(prof, params)
        assert spread <= 1e-12
        assert abs(lhs - base) <= 1e-8


def test_asymptotic_square_root_law():
    params = ModelParams(beta=1.0, epsilon=1e-4, length_L=1.0, height_h=1.0)
    rep = oracles.cs_asymptotic_check(params)
    assert rep.in_regime
    assert rep.passes
    assert 1.0 - 1e-3 <= rep.ratio <= 1.0 + 1e-3


def test_asymptotic_check_flags_out_of_regime():
    params = ModelParams(beta=1e-3, epsilon=0.5, length_L=1.0, height_h=1.0)
    rep = oracles.cs_asymptotic_check(params)
    assert not rep.in_regime
    assert rep.passes  # vacuous outside the regime


def test_energy_module_agrees_with_exact_formula():
    # single-station configuration holding w_M: total energy equals e1d(M)
    params = ModelParams(beta=1.0, epsilon=1e-2, length_L=1.0, height_h=1.0)
    for m in (2, 4, 8, 16):
        prof = one_dim.make_w_m(m, params)
        config = model_core.Configuration(params, (0.0,), (prof,))
        bd = energy.total_energy(config)
        assert bd.strain == 0.0
        assert bd.surface == pytest.approx(params.epsilon * m, abs=1e-15)
        assert bd.total == pytest.approx(one_dim.e1d(m, params), rel=2e-6)
