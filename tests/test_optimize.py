"""Trial states, coordinate descent, and the phase sweep table."""

import math

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
from twinstripe.energy import h_half_inner, strain_energy, surface_energy, total_energy
from twinstripe.one_dim import C0, e1d, make_w_m, optimal_even_m
from twinstripe import optimize as op

from oracles import striped_breakdown


def test_relax_options_validation():
    with pytest.raises(InvariantError):
        op.RelaxOptions(max_iters=0)
    with pytest.raises(InvariantError):
        op.RelaxOptions(tol_energy=0.0)
    opts = op.RelaxOptions()
    assert opts.max_iters >= 1 and opts.tol_energy > 0


def test_sweep_grid_validation():
    with pytest.raises(InvariantError):
        op.SweepGrid((), (1e-3,))
    with pytest.raises(InvariantError):
        op.SweepGrid((1.0,), (-1e-3,))
    with pytest.raises(InvariantError):
        op.SweepGrid((1.0,), (1e-3,), compare=("lamellar",))
    grid = op.SweepGrid([1.0], [1e-3])
    assert grid.compare == ("striped", "branched")


# -- striped candidate -----------------------------------------------------------


def test_striped_candidate_matches_closed_form():
    params = ModelParams(1.0, 1e-4, 1.0, 1.0)
    m = optimal_even_m(params).m_star[0]
    config = op.striped_candidate(params)
    assert len(config.stations) == op.DEFAULT_STATIONS
    assert config.stations[0] == 0.0 and config.stations[-1] == params.length_L
    assert all(p is config.profiles[0] for p in config.profiles)
    assert config.profiles[0].interface_count() == m

    closed = striped_breakdown(params)
    assert closed.total == pytest.approx(e1d(m, params), rel=1e-12)
    assert closed.strain == 0.0
    assert closed.surface == params.epsilon * params.length_L * m
    assert closed.austenite == pytest.approx(params.beta * C0 / m, rel=1e-12)

    # the corner-pair route reproduces the closed form to rounding
    paired = total_energy(config)
    assert paired.strain == 0.0
    assert paired.surface == pytest.approx(closed.surface, rel=1e-12)
    assert paired.austenite == pytest.approx(closed.austenite, rel=1e-12)


def test_striped_candidate_is_relax_fixed_point():
    params = ModelParams(1e-3, 1e-5, 1.0, 1.0)
    start = op.striped_candidate(params, stations=12)
    hist = []
    out = op.relax(start, op.RelaxOptions(max_iters=4), history=hist)
    assert len(hist) == 1  # initial energy only, no accepted move
    assert out.profiles == start.profiles


# -- branched candidate ----------------------------------------------------------


def test_branched_level_zero_is_coarsest_striped():
    params = ModelParams(1.0, 1e-2, 1.0, 1.0)
    config = op.branched_candidate(params, 0)
    assert len(config.stations) == 2
    assert config.profiles[0] is config.profiles[1]
    bd = total_energy(config)
    assert bd.strain == 0.0
    m0 = config.profiles[0].interface_count()
    assert bd.total == pytest.approx(e1d(m0, params), rel=1e-12)


def test_branched_validation():
    params = ModelParams(1.0, 1e-2, 1.0, 1.0)
    with pytest.raises(InvariantError):
        op.branched_candidate(params, -1)
    with pytest.raises(InvariantError):
        op.branched_candidate(params, 1, m0=3)
    with pytest.raises(InvariantError):
        op.branched_candidate(params, 41, m0=2)  # finest period under the floor


def test_branched_geometry_doubles_toward_boundary():
    params = ModelParams(1.0, 1e-2, 1.0, 1.0)
    config = op.branched_candidate(params, 2, m0=4)
    xs = np.asarray(config.stations)
    assert xs[0] == 0.0 and xs[-1] == params.length_L
    assert np.all(np.diff(xs) > 0)
    assert config.profiles[0].interface_count() == 16
    assert config.profiles[-1].interface_count() == 4
    # x = 0 trace is equispaced
    gaps = np.diff(np.append(config.profiles[0].corners, 1.0))
    assert np.allclose(gaps, 1.0 / 16.0, atol=1e-12)
    # corner motion is continuous: neighboring stations stay close
    dists = [
        l2_distance(a, b)
        for a, b in zip(config.profiles[:-1], config.profiles[1:])
    ]
    assert max(dists) < 0.1


def test_branched_beats_striped_in_branching_regime():
    params = ModelParams(1.0, 1e-2, 1.0, 1.0)
    e_b = total_energy(op.branched_candidate(params, 4)).total
    e_s = striped_breakdown(params).total
    assert e_b < e_s


def test_branched_breakdown_matches_built_layouts():
    eps = np.finfo(float).eps
    for params in (ModelParams(1.0, 1e-2, 1.0, 1.0), ModelParams(0.7, 3e-3, 2.5, 0.6)):
        for levels in range(6):
            for m0 in (2, 4, 6, 10, 32):
                config = op.branched_candidate(params, levels, m0=m0)
                closed = op._branched_breakdown(params, levels, m0)
                where = (params, levels, m0)
                assert closed.strain == pytest.approx(strain_energy(config), rel=1e-12), where
                assert closed.surface == pytest.approx(surface_energy(config), rel=1e-12), where
                # the pair sum itself carries rounding up to 2 m^2 eps
                m_fine = m0 * 2**levels
                rel = max(1e-12, 2.0 * m_fine**2 * eps)
                paired = total_energy(config).austenite
                assert closed.austenite == pytest.approx(paired, rel=rel), where


def test_branched_m0_is_the_best_even_count():
    # a doubling scan refined at nine counts lands on m0 = 22 here; 24 is lower
    params = ModelParams(0.24825986857805218, 2.018715383134175e-4, 1.0, 1.0)
    config = op.branched_candidate(params, 1)
    m0 = config.profiles[-1].interface_count()
    energy = total_energy(config).total
    for other in (m0 - 2, m0 + 2):
        assert energy <= total_energy(op.branched_candidate(params, 1, m0=other)).total


def test_branched_build_cap_and_merge_floor():
    params = ModelParams(1.0, 1e-2, 1.0, 1.0)
    cap = op.MAX_BUILD_CORNERS
    config = op.branched_candidate(params, 1, m0=cap // 2)
    assert config.profiles[0].interface_count() == cap
    with pytest.raises(InvariantError, match="levels"):
        op.branched_candidate(params, 1, m0=cap // 2 + 2)
    for levels in (30, 10**6):
        with pytest.raises(InvariantError, match="levels"):
            op.branched_candidate(params, levels)


def test_best_branched_is_the_closed_form_minimum():
    params = ModelParams(1.0, 1e-3, 1.0, 1.0)
    best = op._best_branched(params, 6)
    every = [
        op._branched_breakdown(params, lv, m0).total
        for lv in range(1, 7)
        for m0 in range(2, op.MAX_COARSE_COUNT + 1, 2)
    ]
    assert best == min(every)
    assert op._best_branched(params, 10**9) == op._best_branched(params, 40)


# -- relax -----------------------------------------------------------------------


def jittered_striped(params, m, stations, seed):
    base = make_w_m(m, params, y0=0.3 / m)
    rng = np.random.default_rng(seed)

    def one():
        cs = np.asarray(base.corners, dtype=float)
        for i in range(0, len(cs), 2):
            d = rng.uniform(-0.1 / m, 0.1 / m)
            cs[i] += d
            cs[i + 1] += d
        return SawtoothProfile(base.period, base.offset, base.initial_slope, tuple(cs))

    xs = tuple(np.linspace(0.0, params.length_L, stations))
    return Configuration(params, xs, tuple(one() for _ in xs))


def test_relax_recovers_striped_from_jitter_small():
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    m = optimal_even_m(params).m_star[0]
    start = jittered_striped(params, m, 8, seed=9)
    hist = []
    final = op.relax(start, op.RelaxOptions(max_iters=80), history=hist)
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))
    e_final = total_energy(final).total
    assert abs(e_final / e1d(m, params) - 1.0) < 1e-2
    dev = max(l2_distance(p, final.profiles[0]) for p in final.profiles)
    assert dev < 1e-3


def test_relax_topology_moves_remove_surplus_teeth():
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    assert optimal_even_m(params).m_star[0] == 4
    start_prof = make_w_m(6, params)
    xs = (0.0, 0.5, 1.0)
    start = Configuration(params, xs, (start_prof,) * 3)
    final = op.relax(start, op.RelaxOptions(max_iters=60, topology_moves=True))
    assert final.profiles[0].interface_count() == 4
    e_final = total_energy(final).total
    assert abs(e_final / e1d(4, params) - 1.0) < 5e-3


def test_relax_is_deterministic():
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    start = jittered_striped(params, 4, 5, seed=3)
    opts = op.RelaxOptions(max_iters=25)
    a = op.relax(start, opts)
    b = op.relax(start, opts)
    assert a.profiles == b.profiles


def test_relax_sums_the_boundary_term_only_where_it_is_read(monkeypatch):
    # without a history, the pair sum of h_half_sq runs at most once per
    # sweep end (plus the start), and twice per whole-profile move priced
    # at station 0; station-0 pair shifts are accepted far more often
    start = jittered_striped(ModelParams(1.0, 1e-2, 1.0, 1.0), 14, 3, seed=2)
    opts = op.RelaxOptions(max_iters=3)
    sums, whole, accepts_at_0 = [], [], []
    delta, apply = op._RelaxState.delta, op._RelaxState.apply

    def counting_inner(f, g):
        sums.append(f)
        return h_half_inner(f, g)

    def counting_delta(self, updates):
        if 0 in updates and updates[0] is not self.profiles[0]:
            whole.append(updates)
        return delta(self, updates)

    def counting_apply(self, updates):
        if 0 in updates and updates[0] is not self.profiles[0]:
            accepts_at_0.append(updates)
        apply(self, updates)

    monkeypatch.setattr("twinstripe.energy.h_half_inner", counting_inner)
    monkeypatch.setattr(op._RelaxState, "delta", counting_delta)
    monkeypatch.setattr(op._RelaxState, "apply", counting_apply)
    final = op.relax(start, opts)
    assert len(sums) <= opts.max_iters + 1 + 2 * len(whole)
    assert len(accepts_at_0) > 2 * (opts.max_iters + 1 + 2 * len(whole))
    monkeypatch.undo()
    assert final.profiles == op.relax(start, opts, history=[]).profiles


# Accepted-move counts and final energies of the descent before probes
# were priced from the moment tables (each probe built the moved profile
# and re-integrated its cells).  Exact pricing changes only rounding, so
# the descent must accept the same moves and land on the same energy.
RECORDED_DESCENTS = {
    # (stations, seed, max_iters): (accepted moves, final total)
    (8, 9, 80): (29, 0.00826278398817507),
    (5, 3, 25): (19, 0.008262783988175133),
}


@pytest.mark.parametrize("stations,seed,max_iters", sorted(RECORDED_DESCENTS))
def test_relax_accepts_the_recorded_moves(stations, seed, max_iters):
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    m = optimal_even_m(params).m_star[0]
    start = jittered_striped(params, m, stations, seed=seed)
    hist = []
    op.relax(start, op.RelaxOptions(max_iters=max_iters), history=hist)
    moves, total = RECORDED_DESCENTS[(stations, seed, max_iters)]
    assert len(hist) - 1 == moves
    assert abs(hist[-1] - total) <= 1e-12 * total


@pytest.mark.parametrize("stations,seed,max_iters", sorted(RECORDED_DESCENTS))
def test_run_record_matches_the_per_accept_history(stations, seed, max_iters):
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    start = jittered_striped(params, optimal_even_m(params).m_star[0], stations, seed=seed)
    opts = op.RelaxOptions(max_iters=max_iters)
    hist = []
    with_history = op.relax(start, opts, history=hist)
    final, run = op._descend(start, opts, None)
    assert final.profiles == with_history.profiles
    assert (run.initial, run.accepted, run.sweep_totals[-1]) == (hist[0], len(hist) - 1, hist[-1])
    assert all(b <= a for a, b in zip([run.initial] + run.sweep_totals, run.sweep_totals))
    assert len(run.sweep_totals) <= max_iters


# The same for a descent with topology moves: (accepted moves, accepted
# station-level and column-level topology moves, final total), recorded
# when each kind of whole-profile move still had its own pricing code.
RECORDED_TOPOLOGY = (661, 7, 6, 0.21527850524322067)


def test_relax_with_topology_accepts_the_recorded_moves(monkeypatch):
    start = jittered_striped(ModelParams(1.0, 1e-2, 1.0, 1.0), 16, 3, seed=2)
    kinds = {"station": 0, "column": 0}
    apply = op._RelaxState.apply

    def recording_apply(self, updates):
        # a topology move hands out new profiles with a new corner count;
        # copies and uniform moves hand out profiles already in the state
        fresh = all(all(p is not q for q in self.profiles) for p in updates.values())
        recount = any(len(p.corners) != len(self.profiles[j].corners) for j, p in updates.items())
        if fresh and recount:
            kinds["station" if len(updates) == 1 else "column"] += 1
        apply(self, updates)

    monkeypatch.setattr(op._RelaxState, "apply", recording_apply)
    hist = []
    op.relax(start, op.RelaxOptions(max_iters=30, topology_moves=True), history=hist)
    moves, station, column, total = RECORDED_TOPOLOGY
    assert (len(hist) - 1, kinds["station"], kinds["column"]) == (moves, station, column)
    assert abs(hist[-1] - total) <= 1e-12 * total


def _check_delta(config, updates):
    """delta matches the change of the whole energy to 1e-12 of its parts."""
    state = op._RelaxState(config)
    profiles = list(config.profiles)
    for j, prof in updates.items():
        profiles[j] = prof
    old = total_energy(config)
    new = total_energy(Configuration(config.params, config.stations, tuple(profiles)))
    scale = sum(abs(e.austenite) + e.strain + e.surface for e in (old, new))
    assert abs(state.delta(updates) - (new.total - old.total)) <= 1e-12 * scale, sorted(updates)


def test_delta_prices_multi_station_updates():
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    m = optimal_even_m(params).m_star[0]
    rng = np.random.default_rng(11)
    configs = (
        jittered_striped(params, m, 6, seed=4),
        jittered_striped(params, 4, 3, seed=6),
        Configuration(params, (0.0, 0.3, 1.0), tuple(random_profile(rng) for _ in range(3))),
    )
    checked = 0
    for config in configs:
        n = len(config.profiles)
        # column topology candidates: one maker at every station
        for make in op._TOPOLOGY_MOVES:
            cands = [make(p) for p in config.profiles]
            if all(c is not None for c in cands):
                _check_delta(config, dict(enumerate(cands)))
                checked += 1
        # uniform candidates: one station's profile everywhere
        for prof in config.profiles:
            _check_delta(config, dict.fromkeys(range(n), prof))
            checked += 1
        # a few stations at once, station 0 among them
        ps = config.profiles
        _check_delta(config, {0: ps[1], n - 1: ps[0]})
        _check_delta(config, {0: op._create_tooth(ps[0]), 1: ps[n - 1]})
        _check_delta(config, {1: ps[0], 2: ps[0]})
        checked += 3
    assert checked >= 25


def test_column_move_keeps_a_shared_profile_shared(monkeypatch):
    # the sweep's uniform move puts one profile object at every station;
    # the column move after it must shift that object once and hand the
    # same shifted profile to every station
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    m = optimal_even_m(params).m_star[0]
    base = make_w_m(m, params, y0=0.3 / m)
    cs = list(base.corners)
    cs[1] += 0.02
    cs[2] += 0.02
    prof = SawtoothProfile(base.period, base.offset, base.initial_slope, tuple(cs))
    start = Configuration(params, tuple(np.linspace(0.0, 1.0, 5)), (prof,) * 5)
    accepts = []
    apply = op._RelaxState.apply

    def recording_apply(self, updates):
        accepts.append(dict(updates))
        apply(self, updates)

    monkeypatch.setattr(op._RelaxState, "apply", recording_apply)
    final = op.relax(start, op.RelaxOptions(max_iters=1))
    uniform, column = accepts[-2], accepts[-1]
    assert len(uniform) == len(column) == 5
    assert len({id(p) for p in uniform.values()}) == 1
    assert column[0].corners != uniform[0].corners
    assert len(column[0].corners) == len(uniform[0].corners)
    assert len({id(p) for p in column.values()}) == 1
    assert len({id(p) for p in final.profiles}) == 1


def test_shared_profile_cells_are_free(monkeypatch):
    # a cell between two stations holding one profile object has e = 0
    # exactly: its table is zeros on the profile's nodes, built without
    # merging node sets or evaluating either profile
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    start = jittered_striped(params, 4, 5, seed=3)
    state = op._RelaxState(start)
    prof = start.profiles[2]
    calls = []
    union1d, evaluate = np.union1d, SawtoothProfile.evaluate
    monkeypatch.setattr(np, "union1d", lambda *a: calls.append("union1d") or union1d(*a))
    monkeypatch.setattr(
        SawtoothProfile, "evaluate", lambda self, y: calls.append("evaluate") or evaluate(self, y)
    )
    state.apply(dict.fromkeys(range(5), prof))
    assert calls == []
    ys = prof.nodes()[0]
    assert np.array_equal(state.table[0, :, : len(ys)], np.tile(ys, (4, 1)))
    assert np.all(state.table[0, :, len(ys):] == np.inf)
    assert not state.table[1:].any()
    assert state.strain == state.mass == [0.0] * 4
    # the general route lands on the same table: e = p - p is +0.0 everywhere
    monkeypatch.undo()
    twin = op._RelaxState(Configuration(params, start.stations, tuple(
        SawtoothProfile(prof.period, prof.offset, prof.initial_slope, prof.corners)
        if j % 2 else prof for j in range(5)
    )))
    assert np.array_equal(twin.table, state.table[:, :, : len(ys)])
    assert twin.strain == state.strain and twin.mass == state.mass


def shared_tail_start(stations=7, seed=5):
    """Stations 1..n-1 hold one profile object, station 0 a different one."""
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    first, rest = jittered_striped(params, optimal_even_m(params).m_star[0], 2, seed=seed).profiles
    xs = tuple(np.linspace(0.0, 1.0, stations))
    return Configuration(params, xs, (first,) + (rest,) * (stations - 1))


def _between_copies(state, j):
    """Station j > 0 and every station it shares a cell with hold one profile object."""
    n = len(state.profiles)
    return j > 0 and all(state.profiles[k] is state.profiles[j] for k in (j - 1, j + 1) if k < n)


def test_relax_prices_no_move_between_copies_of_a_profile(monkeypatch):
    # at j > 0 between copies of its own profile object both cells have
    # e = 0: a copy changes nothing and a pair shift only adds strain, so
    # neither is priced
    start = shared_tail_start()
    pricers, deltas, visits, wasted = [], [], [], []
    shift_pricer, delta, offset_delta = (
        op._RelaxState.shift_pricer, op._RelaxState.delta, op._RelaxState.offset_delta
    )

    def counting_pricer(self, js, i):
        pricers.append(js)
        if len(js) == 1 and _between_copies(self, js.start):
            wasted.append(("pair", js.start, i))
        return shift_pricer(self, js, i)

    def counting_delta(self, updates):
        deltas.append(len(updates))
        if len(updates) == 1:
            ((j, prof),) = updates.items()
            if prof is self.profiles[j] or _between_copies(self, j):
                wasted.append(("whole", j))
        return delta(self, updates)

    def counting_offsets(self, j, d):  # priced at every station visit
        visits.append(_between_copies(self, j))
        return offset_delta(self, j, d)

    monkeypatch.setattr(op._RelaxState, "shift_pricer", counting_pricer)
    monkeypatch.setattr(op._RelaxState, "delta", counting_delta)
    monkeypatch.setattr(op._RelaxState, "offset_delta", counting_offsets)
    hist = []
    op.relax(start, op.RelaxOptions(max_iters=6), history=hist)
    assert len(hist) > 1 and pricers and deltas
    assert any(visits)  # the descent did visit stations between copies
    assert wasted == []


def test_a_pair_shift_between_copies_prices_the_same_positive_both_ways():
    # the premise of skipping those line searches: with both cells at
    # e = 0, +-s price the same ||D||^2 / dx > 0, at an interior station
    # and at the last one, for every pair
    state = op._RelaxState(shared_tail_start())
    n = len(state.profiles)
    checked = 0
    for j in (n // 2, n - 1):
        assert _between_copies(state, j)
        prof = state.profiles[j]
        s = prof.period / (32.0 * len(prof.corners))  # relax's step
        for i in range(len(prof.corners) - 1):
            lo, hi = op._shift_range(prof, i)
            for d in (s, 0.5 * min(hi, -lo), 1e-3 * s):
                up, down = state.shift_pricer(range(j, j + 1), i)([d, -d])
                assert up == down > 0.0, (j, i, d)
                checked += 1
    assert checked == 2 * 3 * (len(state.profiles[-1].corners) - 1)


def trapezoid(prof, i, d, y):
    """new - old for corners i, i+1 of prof shifted by d, at the points y."""
    a = prof.slope_after_corners()[i - 1]
    lo, w = min(d, 0.0), abs(d)
    ramp = lambda c: np.clip(y - (c + lo), 0.0, w)
    return 2.0 * a * math.copysign(1.0, d) * (ramp(prof.corners[i]) - ramp(prof.corners[i + 1]))


def test_shift_pair_moves_a_corner_off_zero_without_flipping_slopes():
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    prof = make_w_m(4, params)
    assert prof.corners[0] == 0.0
    moved = op._shift_pair(prof, 0, 0.01)
    np.testing.assert_array_equal(moved.slope_after_corners(), prof.slope_after_corners())
    y = (np.arange(64) + 0.5) / 64.0
    np.testing.assert_allclose(
        moved.evaluate(y) - prof.evaluate(y), trapezoid(prof, 0, 0.01, y), rtol=0, atol=1e-15
    )
    assert moved.evaluate(0.25) == pytest.approx(0.23, abs=1e-15)


def _pair_cases(state):
    """(station, pair, step) covering both ends of the pair range and both signs."""
    n = len(state.profiles)
    for j in sorted({0, n // 2, n - 1}):
        m = len(state.profiles[j].corners)
        for i in sorted({0, m - 2}):
            lo, hi = op._shift_range(state.profiles[j], i)
            for d in (0.5 * hi, 0.5 * lo, 0.9 * hi, 1e-3 * lo):
                if lo < d < hi and d != 0.0:
                    yield j, i, d


def _check_one_pass(pricer, steps):
    """Pricing steps in one call gives each one's own price, bit for bit."""
    assert pricer(steps) == [pricer([d])[0] for d in steps], steps


def _check_probe_prices(config):
    state = op._RelaxState(config)
    n = len(state.profiles)
    h = config.params.height_h
    cells = lambda j: [c for c in (j - 1, j) if 0 <= c < n - 1]
    checked = 0
    for j, i, d in _pair_cases(state):
        moved = op._shift_pair(state.profiles[j], i, d)
        exact = state.shift_pricer(range(j, j + 1), i)([d])[0]
        full = state.delta({j: moved})
        norm = l2_distance(moved, state.profiles[j]) ** 2
        scale = abs(state.austenite) + sum(
            state.strain[c] + norm / state.dx[c] for c in cells(j)
        )
        assert abs(exact - full) <= 1e-12 * max(1e-300, scale), (j, i, d, exact, full)
        checked += 1
    for j in range(n):
        for i in range(len(state.profiles[j].corners) - 1):
            # the +-s probes of a line search, then every case of the station at once
            pricer = state.shift_pricer(range(j, j + 1), i)
            s = state.profiles[j].period / (32.0 * len(state.profiles[j].corners))
            _check_one_pass(pricer, [s, -s])
            _check_one_pass(pricer, [d for jj, ii, d in _pair_cases(state) if (jj, ii) == (j, i)])
    for j in range(n):
        for d in (1e-2 * h, -3e-3 * h):
            full = state.delta({j: state.profiles[j].with_offset_shift(d)})
            scale = abs(state.austenite) + sum(
                state.strain[c] + d * d * h / state.dx[c] for c in cells(j)
            )
            assert abs(state.offset_delta(j, d) - full) <= 1e-12 * max(1e-300, scale)
    return checked


def test_pair_and_offset_prices_match_full_recompute():
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    m = optimal_even_m(params).m_star[0]
    for stations, seed in ((8, 9), (5, 3), (2, 1)):
        assert _check_probe_prices(jittered_striped(params, m, stations, seed)) > 0
    # two corners: the boundary term has no other rows to change against
    assert _check_probe_prices(jittered_striped(params, 2, 3, seed=6)) > 0
    # a station corner at 0 (the pair through it can only move up)
    assert _check_probe_prices(op.striped_candidate(params, stations=4)) > 0
    # one station: only the boundary term moves
    single = Configuration(params, (0.0,), (jittered_striped(params, m, 2, 5).profiles[0],))
    assert _check_probe_prices(single) > 0


def test_pair_prices_match_next_to_a_different_corner_count():
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    start = jittered_striped(params, 4, 5, seed=3)
    profiles = list(start.profiles)
    profiles[2] = op._create_tooth(profiles[2])
    profiles[0] = op._create_tooth(profiles[0])
    assert [p.interface_count() for p in profiles] == [6, 4, 6, 4, 4]
    assert _check_probe_prices(Configuration(params, start.stations, tuple(profiles))) > 0


def test_column_prices_match_full_recompute():
    params = ModelParams(1e-2, 1e-3, 1.0, 1.0)
    m = optimal_even_m(params).m_star[0]
    # random stations share a corner count, not a slope pattern
    rng = np.random.default_rng(8)
    mixed = tuple(random_profile(rng, n_teeth=2, min_gap_frac=0.3) for _ in range(4))
    assert len({tuple(p.slope_after_corners()) for p in mixed}) > 1
    configs = (
        jittered_striped(params, m, 6, seed=4),
        op.striped_candidate(params, 3),
        Configuration(params, (0.0, 0.2, 0.7, 1.0), mixed),
    )
    checked = 0
    for config in configs:
        state = op._RelaxState(config)
        n = len(state.profiles)
        for i in range(len(state.profiles[0].corners) - 1):
            ranges = [op._shift_range(p, i) for p in state.profiles]
            lo, hi = max(r[0] for r in ranges), min(r[1] for r in ranges)
            for d in (0.5 * hi, 0.5 * lo, 0.9 * hi):
                if not (lo < d < hi and d != 0.0):
                    continue
                moved = [op._shift_pair(p, i, d) for p in state.profiles]
                full = op._RelaxState(Configuration(params, config.stations, tuple(moved))).total
                full -= state.total
                norms = [l2_distance(q, p) ** 2 for p, q in zip(state.profiles, moved)]
                scale = abs(state.austenite) + sum(
                    state.strain[c] + (norms[c] + norms[c + 1]) / state.dx[c] for c in range(n - 1)
                )
                exact = state.shift_pricer(range(n), i)([d])[0]
                assert abs(exact - full) <= 1e-12 * scale, (i, d, exact, full)
                checked += 1
            pricer = state.shift_pricer(range(n), i)
            s = state.profiles[0].period / (32.0 * len(state.profiles[0].corners))
            _check_one_pass(pricer, [s, -s])
            _check_one_pass(pricer, [0.5 * hi, 0.5 * lo, 0.9 * hi])
    assert checked >= 12


# -- phase sweep -----------------------------------------------------------------


def test_phase_sweep_table_and_csv():
    grid = op.SweepGrid((1e-3, 1.0), (1e-3,))
    template = ModelParams(1.0, 1.0, 1.0, 1.0)
    result = op.phase_sweep(grid, template, levels_max=4)
    assert len(result.rows) == 2
    for r in result.rows:
        assert r.sigma == pytest.approx(r.beta * r.epsilon ** (-1.0 / 3.0))
        assert r.winner in ("striped", "branched", "degenerate")
        assert r.e_striped == pytest.approx(e1d(r.m_star, ModelParams(r.beta, r.epsilon, 1.0, 1.0)))
    # small sigma favors stripes, large sigma favors branching
    assert result.rows[0].winner == "striped"
    assert result.rows[1].winner == "branched"
    assert result.c_lower > 0.0
    assert result.c_striped > 0.0 and result.c_branched > 0.0

    csv = result.to_csv()
    again = op.phase_sweep(grid, template, levels_max=4).to_csv()
    assert csv == again
    lines = csv.strip().split("\n")
    assert lines[0] == "beta,epsilon,sigma,E_striped,E_branched,E_relaxed,winner,m_star"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1e-3 and first[5] == ""


def test_phase_sweep_builds_no_branched_layout(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the branched column must not build a layout")

    monkeypatch.setattr(op, "_branched_layout", refuse)
    grid = op.SweepGrid((1e-3, 1.0), (1e-4, 1e-2))
    result = op.phase_sweep(grid, ModelParams(1.0, 1.0, 2.0, 0.5), levels_max=8)
    assert len(result.rows) == 4


def test_phase_sweep_rejects_levels_max_below_one():
    grid = op.SweepGrid((1.0,), (1e-3,))
    for bad in (0, -1, 2.5):
        with pytest.raises(InvariantError, match="levels_max"):
            op.phase_sweep(grid, ModelParams(1.0, 1.0, 1.0, 1.0), levels_max=bad)


def test_phase_sweep_with_relaxed_column():
    grid = op.SweepGrid((1e-3,), (1e-4,), compare=("striped", "branched", "relaxed"))
    template = ModelParams(1.0, 1.0, 1.0, 1.0)
    result = op.phase_sweep(grid, template, levels_max=3,
                            relax_opts=op.RelaxOptions(max_iters=3))
    row = result.rows[0]
    assert row.e_relaxed is not None
    assert row.e_relaxed <= row.e_striped * (1.0 + 1e-6)
    assert "E_relaxed" in result.to_csv().split("\n")[0]
    assert repr(row.e_relaxed) in result.to_csv()
