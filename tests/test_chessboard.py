"""Tests for the reflection / screened-kernel machinery."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from twinstripe import chessboard as cb
from twinstripe import energy, model_core, one_dim
from twinstripe.model_core import InvariantError

import oracles


def test_segment_validation():
    with pytest.raises(InvariantError):
        cb.Segment((), ())
    with pytest.raises(InvariantError):
        cb.Segment((1.0,), (0.0,))
    with pytest.raises(InvariantError):
        cb.Segment((1.0, -0.5), (0.0, 1.0, 0.0))
    seg = cb.Segment.from_breakpoints([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert seg.length == pytest.approx(1.0)
    with pytest.raises(InvariantError):
        cb.Segment.from_breakpoints([0.1, 1.0], [0.0, 1.0])


def test_reflect_examples():
    ramp = cb.Segment.linear(0.0, 1.0, 1.0)
    mirrored = ramp.reflect()
    assert mirrored.values == (1.0, 0.0)
    bump = cb.Segment((0.5, 0.5), (0.0, 1.0, 0.0))
    assert bump.reflect() == bump
    rng = np.random.default_rng(1)
    for _ in range(20):
        seg = cb.random_segment(rng)
        assert seg.reflect().reflect() == seg


def test_juxtapose_single_and_tent():
    ramp = cb.Segment.linear(0.0, 1.0, 1.0)
    cells = cb._juxtapose((ramp,), 0.0)
    assert (cells[0, 0], cells[-1, 1]) == (0.0, 1.0)
    tent = cb._juxtapose((ramp, ramp.reflect()), 0.0)
    assert (tent[0, 0], tent[-1, 1]) == (0.0, 2.0)
    assert tent.shape == (2, 4)
    # mirror gluing: values rise to 1 at the join then fall back
    assert tent[0, 3] == 1.0 and tent[1, 2] == 1.0 and tent[1, 3] == 0.0
    rng = np.random.default_rng(2)
    segs = [cb.random_segment(rng) for _ in range(4)]
    cells = cb._juxtapose(segs, -1.0)
    length = np.sum(cells[:, 1] - cells[:, 0])
    assert length == pytest.approx(sum(s.length for s in segs), rel=1e-12)
    assert cells[0, 0] == pytest.approx(-1.0)


def test_screened_energy_zero_and_constant():
    assert cb.screened_energy(cb.Segment.constant(0.0, 2.0), 1.3) == 0.0
    for alpha in (0.3, 1.0, 5.0):
        for c, T in ((1.0, 1.0), (-0.7, 2.3)):
            got = cb.screened_energy(cb.Segment.constant(c, T), alpha)
            want = -c * c * (2 * T / alpha - 2 * (1 - math.exp(-alpha * T)) / alpha**2)
            assert got == pytest.approx(want, rel=1e-13)


def test_screened_energy_against_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(6):
        seg = cb.random_segment(rng)
        cells = cb._juxtapose((seg, seg.reflect()), 0.0)
        for alpha in (0.3, 1.0, 5.0):
            got = cb.screened_energy(cells, alpha)
            want = oracles.quad_screened_energy(cells, alpha, nodes_per_cell=800)
            assert got == pytest.approx(want, rel=5e-6, abs=1e-6)


def test_quadrature_converges_to_closed_form():
    # the oracle's error comes from the kernel kink on the diagonal;
    # it shrinks like nodes^-2 toward the closed-form value
    seg = cb.Segment.linear(-0.5, 0.5, 1.0)
    exact = cb.screened_energy(seg, 0.51)
    errs = [
        abs(oracles.quad_screened_energy(seg.cells(), 0.51, nodes_per_cell=n) - exact)
        for n in (200, 400, 800)
    ]
    assert errs[0] > 3.0 * errs[1] > 9.0 * errs[2]


def test_screened_energy_small_alpha_branch():
    # alpha*T far below the series/direct switchover
    seg = cb.Segment.linear(-0.5, 0.5, 1.0)
    got = cb.screened_energy(seg, 1e-3)
    want = oracles.quad_screened_energy(seg.cells(), 1e-3, nodes_per_cell=800)
    assert got == pytest.approx(want, rel=2e-5)
    # continuity across the branch point at alpha*T = 1/2
    lo = cb.screened_energy(seg, 0.5 - 1e-9)
    hi = cb.screened_energy(seg, 0.5 + 1e-9)
    assert abs(hi - lo) < 1e-10


def test_screened_energy_never_positive():
    rng = np.random.default_rng(4)
    for _ in range(100):
        seg = cb.random_segment(rng)
        alpha = float(10.0 ** rng.uniform(-1, 1))
        assert cb.screened_energy(seg, alpha) <= 1e-12


def test_screened_energy_rejects_bad_input():
    seg = cb.Segment.constant(1.0, 1.0)
    with pytest.raises(InvariantError):
        cb.screened_energy(seg, 0.0)
    with pytest.raises(InvariantError):
        cb.screened_energy([[0.0, 1.0, 0.0, 1.0], [0.5, 1.5, 0.0, 1.0]], 1.0)
    for bad in ([[0.0, 0.0, 1.0, 1.0]], [[0.0, 1.0, 1.0]], np.zeros((0, 4))):
        with pytest.raises(InvariantError):
            cb.screened_energy(bad, 1.0)
    # a non-finite end, width or value in any column, alone or next to a good cell
    for column in range(4):
        for x in (math.nan, math.inf, -math.inf):
            cell = [0.0, 1.0, 0.5, -0.5]
            cell[column] = x
            for cells in ([cell], [[2.0, 3.0, 1.0, 1.0], cell]):
                with pytest.raises(InvariantError, match="cells"):
                    cb.screened_energy(cells, 1.0)


def test_e_infinity_matches_explicit_chain():
    # the energy density of n alternating periods is e_infinity + C/n
    # up to terms of order rho^n, rho = exp(-alpha * period), so one
    # Richardson step on explicit chains of n and 2n periods recovers
    # the limit once rho^n < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(3):
        seg = cb.random_segment(rng)
        period = (seg, seg.reflect())
        for alpha in (0.3, 2.0):
            n = math.ceil(12.0 * math.log(10.0) / (alpha * 2.0 * seg.length))

            def density(periods):
                chain = cb._juxtapose(period * periods, 0.0)
                return cb.screened_energy(chain, alpha) / np.sum(chain[:, 1] - chain[:, 0])

            extrapolated = 2.0 * density(2 * n) - density(n)
            got = cb.e_infinity(seg, alpha)
            assert got == pytest.approx(extrapolated, rel=1e-12, abs=1e-12)


def test_e_infinity_takes_one_segment():
    seg = cb.Segment.constant(1.0, 1.0)
    for bad in ((seg, seg), [seg], seg.cells()):
        with pytest.raises(InvariantError):
            cb.e_infinity(bad, 1.0)


def test_e_infinity_constant_segment():
    for alpha in (0.5, 2.0):
        for c, T in ((0.8, 1.3), (-0.4, 0.6)):
            got = cb.e_infinity(cb.Segment.constant(c, T), alpha)
            assert got == pytest.approx(-2 * c * c / alpha, rel=1e-12)


def test_e_infinity_reflection_invariant():
    rng = np.random.default_rng(12)
    for _ in range(5):
        seg = cb.random_segment(rng)
        for alpha in (0.5, 2.0):
            a = cb.e_infinity(seg, alpha)
            b = cb.e_infinity(seg.reflect(), alpha)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


def test_e_infinity_fast_oscillation_averages_out():
    """A zero-mean segment with period much shorter than 1/alpha
    contributes almost nothing per unit length, unlike a constant of
    the same amplitude."""
    fast = cb.Segment.linear(-1.0, 1.0, 0.02)
    got = cb.e_infinity(fast, 1.0)
    assert abs(got) < 1e-3
    assert abs(cb.e_infinity(cb.Segment.constant(1.0, 0.02), 1.0)) > 1.0


def test_e_infinity_small_alpha_constant_segment():
    # the screening length 1/alpha far exceeds the period: no window
    # average has settled there, the closed form is exact all the same
    for alpha in (0.01, 0.001):
        for c, T in ((1.0, 1.0), (0.8, 1.3), (-0.4, 0.6)):
            got = cb.e_infinity(cb.Segment.constant(c, T), alpha)
            assert got == pytest.approx(-2 * c * c / alpha, rel=1e-12)


def test_alpha_must_be_positive_and_finite():
    seg = cb.Segment.constant(1.0, 1.0)
    prof = model_core.random_profile(np.random.default_rng(0), 1.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvariantError):
            cb.e_infinity(seg, bad)
        with pytest.raises(InvariantError):
            cb.check_rp_inequality((seg,), (seg,), bad)
        with pytest.raises(InvariantError):
            cb.screened_mismatch(prof, [1.0, bad])


def test_rp_equality_for_symmetric_sequence():
    rng = np.random.default_rng(13)
    plus = tuple(cb.random_segment(rng) for _ in range(2))
    minus = tuple(s.reflect() for s in reversed(plus))
    rep = cb.check_rp_inequality(minus, plus, 1.0)
    assert abs(rep.slack) <= 1e-10
    assert rep.ok


def test_rp_single_segment_reduction():
    # empty left side: the bound degenerates to comparing one segment
    # against half the energy of its symmetrized double
    rng = np.random.default_rng(14)
    seg = cb.random_segment(rng)
    rep = cb.check_rp_inequality(None, (seg,), 1.0)
    lhs = cb.screened_energy(seg, 1.0)
    rhs = 0.5 * cb.screened_energy(cb._juxtapose((seg.reflect(), seg), -seg.length), 1.0)
    assert rep.lhs == pytest.approx(lhs, rel=1e-14)
    assert rep.rhs == pytest.approx(rhs, rel=1e-14)
    assert rep.slack >= -1e-9


def test_rp_inequality_random_trials():
    rng = np.random.default_rng(15)
    for _ in range(100):
        minus = tuple(cb.random_segment(rng) for _ in range(int(rng.integers(1, 4))))
        plus = tuple(cb.random_segment(rng) for _ in range(int(rng.integers(1, 4))))
        for alpha in (0.1, 1.0, 10.0):
            rep = cb.check_rp_inequality(minus, plus, alpha)
            assert rep.slack >= -1e-9


def test_chessboard_bound_single_segment():
    rng = np.random.default_rng(16)
    for _ in range(10):
        seg = cb.random_segment(rng)
        rep = cb.check_chessboard_bound((seg,), 1.0)
        assert rep.slack >= -1e-9
        assert rep.bound == pytest.approx(seg.length * cb.e_infinity(seg, 1.0), rel=1e-12)


def test_chessboard_bound_random_sequences():
    rng = np.random.default_rng(17)
    for _ in range(25):
        seq = tuple(cb.random_segment(rng) for _ in range(6))
        for alpha in (0.5, 2.0):
            rep = cb.check_chessboard_bound(seq, alpha)
            assert rep.ok
            assert rep.slack >= -1e-9


def test_chessboard_bound_tightens_for_repeated_symmetric_segment():
    sym = cb.Segment((0.25, 0.25), (0.1, 0.9, 0.1))
    rels = []
    for n in (2, 8, 32):
        rep = cb.check_chessboard_bound(tuple(sym for _ in range(n)), 1.0)
        rels.append(rep.rel_slack)
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] < 0.1


def test_master_equality_for_equispaced_profile():
    params = model_core.ModelParams(beta=1.0, epsilon=1e-2, length_L=1.0, height_h=1.0)
    for m in (2, 4, 8):
        prof = one_dim.make_w_m(m, params)
        rep = cb.check_master_inequality(prof)
        assert max(abs(s) for s in rep.slack) < 1e-6
        assert rep.ok
        # span sum of the integrated version collapses to c0 h^2 / M, and
        # equal spacing makes it the half-norm
        assert rep.c0_quadratic == pytest.approx(one_dim.C0 / m, rel=1e-12)
        assert rep.integrated_rhs == pytest.approx(rep.c0_quadratic, rel=1e-12)
        assert rep.integrated_lhs == pytest.approx(rep.c0_quadratic, rel=1e-12)
        # the alpha quadrature of the screened mismatches reproduces both
        spans = zip(*cb._spans(prof))
        bumps = sum(oracles.bump_alpha_energy(*span) for span in spans)
        assert bumps == pytest.approx(rep.c0_quadratic, rel=1e-6)
        whole = oracles.profile_alpha_energy(prof)
        assert whole >= bumps - 1e-6 * max(1.0, abs(whole))


def test_master_inequality_is_translation_invariant():
    # both sides are priced as drawn: a profile and its copy anchored at
    # its first corner agree to rounding
    rng = np.random.default_rng(37)
    for _ in range(40):
        prof = model_core.random_profile(rng, 1.0)
        got = cb.check_master_inequality(prof)
        want = cb.check_master_inequality(prof.translated(-prof.corners[0]))
        np.testing.assert_allclose(got.lhs, want.lhs, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(got.rhs, want.rhs, rtol=1e-13, atol=0.0)


def test_master_inequality_random_profiles():
    rng = np.random.default_rng(18)
    for _ in range(20):
        prof = model_core.random_profile(rng, 1.0)
        rep = cb.check_master_inequality(prof)
        assert rep.ok
        assert rep.min_slack >= -1e-9
        assert rep.integrated_lhs >= rep.integrated_rhs - 1e-9
        assert rep.integrated_rhs == pytest.approx(rep.c0_quadratic, rel=1e-12)
        got = energy.h_half_sq_fourier(prof)
        assert rep.integrated_lhs == pytest.approx(got, rel=1e-4)
        assert oracles.profile_alpha_energy(prof) == pytest.approx(rep.integrated_lhs, rel=1e-4)


def test_screened_mismatch_spectral_oracle():
    """The whole-profile mismatch has a spectral series: each Fourier
    mode contributes 8h |u_k|^2 w^2 / (alpha (alpha^2 + w^2)) with
    w = 2 pi k / h."""
    rng = np.random.default_rng(19)
    for _ in range(5):
        prof = model_core.random_profile(rng, 1.0)
        ks = np.arange(1, 32769)
        coeffs = model_core.fourier_coefficients(prof, ks)
        w = 2.0 * np.pi * ks / prof.period
        for alpha in (0.1, 1.0, 10.0):
            spectral = float(
                np.sum(8.0 * prof.period * np.abs(coeffs) ** 2 * w**2 / (alpha * (alpha**2 + w**2)))
            )
            got = float(cb.screened_mismatch(prof, alpha)[0])
            assert got == pytest.approx(spectral, rel=1e-4)


def test_single_bump_alpha_integral_hits_c0():
    for width in (0.3, 1.0, 2.5):
        rising = oracles.bump_alpha_energy(0.0, width, width)
        falling = oracles.bump_alpha_energy(width, 0.0, width)
        want = one_dim.C0 * width * width
        assert rising == pytest.approx(want, rel=1e-5)
        assert falling == pytest.approx(want, rel=1e-5)
        # one tooth of period 2 width: a rising and a falling span, in
        # either order, each worth c0 width^2 in closed form
        for slope in (1, -1):
            tooth = model_core.SawtoothProfile(2.0 * width, 0.0, slope, (0.0, width))
            rep = cb.check_master_inequality(tooth)
            assert rep.integrated_rhs == pytest.approx(2.0 * want, rel=1e-12)
            assert rep.integrated_lhs == pytest.approx(2.0 * want, rel=1e-12)


def test_kernel_identity():
    for entry in oracles.kernel_identity_check():
        assert entry["rel_error"] <= 1e-6


def test_verify_suite_smoke():
    report = cb.verify_suite(trials=25, seed=7)
    for family in ("rp", "chessboard", "master"):
        assert report[family]["count"] == 75
        assert report[family]["min_slack"] >= -1e-9
    json.dumps(report)


@pytest.mark.parametrize("alphas", [(0.1, 1.0, 10.0), (0.01,), (0.5, 2.0, 7.0, 100.0)])
def test_verify_suite_matches_per_case_reference(alphas):
    for seed in range(10):
        for trials in (1, 3, 50):
            got = cb.verify_suite(trials=trials, seed=seed, alphas=alphas)
            want = oracles.verify_suite_reference(trials, seed, alphas)
            for family in ("rp", "chessboard", "master"):
                assert got[family]["count"] == want[family]["count"] == trials * len(alphas)
                for stat in ("min_slack", "mean_slack"):
                    assert abs(got[family][stat] - want[family][stat]) <= 1e-13


def _ragged_cells(rng, n, z0):
    widths = rng.uniform(0.05, 0.5, n)
    bp = z0 + np.concatenate([[0.0], np.cumsum(widths)])
    values = rng.uniform(-1.0, 1.0, n + 1)
    cells = np.column_stack([bp[:-1], bp[1:], values[:-1], values[1:]])
    if n > 1:
        # a join that overlaps by less than the tolerance is accepted
        cells[int(rng.integers(1, n)), 0] -= 0.5 * cb._OVERLAP_TOL
    return cells


def test_grouped_kernels_match_single_group_calls():
    rng = np.random.default_rng(21)
    alphas = np.array([0.01, 0.3, 1.0, 10.0])
    sizes = list(range(1, 19)) + [18, 1, 7, 2]
    lines = [_ragged_cells(rng, n, float(rng.uniform(-2.0, 2.0))) for n in sizes]
    shuffled = [rng.permutation(cells) for cells in lines]  # rows in any order
    got = cb._screened_groups(np.vstack(shuffled), cb._group_starts(shuffled), alphas)
    assert got.shape == (len(sizes), alphas.size)
    for g, cells in enumerate(lines):
        want = cb._screened_groups(cells, [0], alphas)[0]
        np.testing.assert_allclose(got[g], want, rtol=1e-14, atol=0.0)
        assert got[g, 1] == pytest.approx(cb.screened_energy(cells, 0.3), rel=1e-14)

    periods = []
    for cells in lines:
        cells[:, :2] -= cells[0, 0] - float(rng.uniform(0.0, 0.2))
        # the last cell may end past the period by less than the tolerance
        periods.append(cells[-1, 1] + float(rng.choice([-0.5 * cb._OVERLAP_TOL, 0.3])))
    got = cb._periodic_cross_groups(np.vstack(lines), cb._group_starts(lines), periods, alphas)
    for g, (cells, period) in enumerate(zip(lines, periods)):
        want = cb._periodic_cross_groups(cells, [0], [period], alphas)[0]
        np.testing.assert_allclose(got[g], want, rtol=1e-14, atol=0.0)


def test_grouped_kernels_reject_overlap_and_cells_outside_period():
    alphas = np.array([0.5, 2.0])
    tent = [[0.0, 0.5, 0.0, 1.0], [0.5, 1.0, 1.0, 0.0]]
    inside = [[0.2, 0.4, 1.0, 1.0]]
    # groups are priced apart: a cell inside another group's span is fine
    cb._screened_groups(np.array(tent + inside), [0, 2], alphas)
    with pytest.raises(InvariantError):
        cb._screened_groups(np.array(inside + tent + inside), [0, 1], alphas)
    cb._periodic_cross_groups(np.array(tent + [[0.0, 1.5, 1.0, 0.0]]), [0, 2], [1.0, 1.5], alphas)
    with pytest.raises(InvariantError):
        cb._periodic_cross_groups(np.array(tent + [[0.0, 1.5, 1.0, 0.0]]), [0, 2], [1.0, 1.0], alphas)
    with pytest.raises(InvariantError):
        cb._periodic_cross_groups(np.array(tent + [[-0.1, 0.5, 1.0, 0.0]]), [0, 2], [1.0, 1.0], alphas)


def test_verify_suite_blocks_match_one_block(monkeypatch):
    whole = cb.verify_suite(trials=40, seed=3, alphas=(0.1, 1.0, 10.0))
    # every block now holds one case, or the few that fit 100 entries
    for entries in (1, 100):
        monkeypatch.setattr(cb, "_BLOCK_ENTRIES", entries)
        assert cb.verify_suite(trials=40, seed=3, alphas=(0.1, 1.0, 10.0)) == whole


def test_verify_suite_block_makes_one_call_per_kernel(monkeypatch):
    """A block prices all of its families in one screened and one periodic
    kernel call; the periodic kernel's own call with tables is not counted."""
    calls = []
    screened, periodic = cb._screened_groups, cb._periodic_cross_groups

    def count_screened(cells, starts, alphas, tables=None):
        if tables is None:
            calls.append("screened")
        return screened(cells, starts, alphas, tables)

    def count_periodic(*args):
        calls.append("periodic")
        return periodic(*args)

    monkeypatch.setattr(cb, "_screened_groups", count_screened)
    monkeypatch.setattr(cb, "_periodic_cross_groups", count_periodic)
    cb.verify_suite(trials=3, seed=0)
    assert sorted(calls) == ["periodic", "screened"]
    # one case per block: rp has no periods, master no plain lines
    calls.clear()
    monkeypatch.setattr(cb, "_BLOCK_ENTRIES", 1)
    cb.verify_suite(trials=2, seed=0)
    assert calls.count("screened") == 4 and calls.count("periodic") == 4


def test_verify_suite_memory_follows_the_pair_budget(monkeypatch):
    """Blocks are sized by their cell pairs, so traced memory scales with
    _BLOCK_ENTRIES: under 16 MB at the default and 2,000 trials, here an
    eighth of both.  Blocks sized by cells would hold about 5x as much."""
    monkeypatch.setattr(cb, "_BLOCK_ENTRIES", 2**15)
    tracemalloc.start()
    try:
        cb.verify_suite(trials=250, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20 // 8


def test_verify_suite_rejects_a_negative_seed():
    with pytest.raises(InvariantError, match="seed"):
        cb.verify_suite(trials=1, seed=-1)


def test_group_sums_equals_the_insert_form():
    # the zero-led padding np.insert builds, reduced the same way
    rng = np.random.default_rng(36)
    for trial in range(60):
        sizes = rng.integers(1, 6, size=int(rng.integers(1, 12)))
        sizes[rng.random(sizes.size) < 0.4] = 1  # one-column groups
        starts = np.concatenate(([0], np.cumsum(sizes[:-1]))).astype(np.intp)
        scale = 10.0 ** rng.integers(-8, 9, size=(1, int(sizes.sum())))
        values = rng.standard_normal((int(rng.integers(1, 4)), int(sizes.sum()))) * scale
        if trial % 3 == 0:
            values = np.asfortranarray(values)
        padded = np.insert(np.ascontiguousarray(values), starts, 0.0, axis=1)
        want = np.add.reduceat(padded, starts + np.arange(starts.size), axis=1)
        got = cb._group_sums(values, starts)
        assert got.shape == want.shape == (values.shape[0], sizes.size)
        assert (got == want).all()
