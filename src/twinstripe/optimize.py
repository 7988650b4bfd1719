"""Minimization of the discrete functional.

Trial states and descent:

* ``striped_candidate`` builds the constant-in-x lamellar state at the
  optimal even interface count, whose energy is known in closed form.
* ``branched_candidate`` builds a period-doubling trial state whose
  interface count doubles in geometrically shrinking bands toward the
  austenite boundary at x = 0, with corner trajectories linear in x
  inside each band.  Band lengths shrink by theta = 1/4 per level so
  that every band contributes the same strain.  Its energy has the
  closed form ``_branched_breakdown`` (the Kohn-Mueller branching
  ansatz),

      E(levels, m0) = beta c0 h^2 / (m0 2^levels)
                      + levels h^3 (3b - 1) / (12 b m0^2 L (1 - theta))
                      + epsilon L m0 (3 - 2^(1 - levels)),

  with b stations per band, so the coarse count m0 and the depth are
  chosen by exact minimization of E, and a layout is built only when a
  configuration is wanted.
* ``relax`` runs deterministic coordinate descent over an explicit move
  set (tooth shifts, rigid column shifts, offset shifts, neighbor
  copying, optional tooth creation/annihilation), accepting only moves
  that lower the total energy.
* ``phase_sweep`` tabulates striped against branched (and optionally
  relaxed) energies over a (beta, epsilon) grid together with the
  regime indicator sigma = beta eps^(-1/3) L^(1/3) and the measured
  scaling constants of both branches.

All moves keep profiles in the admissible sawtooth class by
construction: corners move in pairs so the rise/fall balance is exact,
and slopes stay +-1 because only corner ordinates ever change.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass, field

import numpy as np

from .model_core import (
    Configuration,
    EnergyBreakdown,
    InvariantError,
    MERGE_TOL,
    ModelParams,
    SawtoothProfile,
    _merged_nodes,
    l2_distance,
)
from .energy import h_half_sq, pair_sum
from .one_dim import C0, e1d, make_w_m, optimal_even_m

__all__ = [
    "BAND_THETA",
    "DEFAULT_STATIONS",
    "RelaxOptions",
    "SweepGrid",
    "SweepRow",
    "SweepResult",
    "branched_candidate",
    "phase_sweep",
    "relax",
    "striped_candidate",
]

DEFAULT_STATIONS = 64
BAND_THETA = 0.25
BAND_STATIONS = 4
MAX_COARSE_COUNT = 512
# Most corners the x = 0 profile of a built branched layout may carry: the
# boundary pair sum of a build costs time quadratic in this count.
MAX_BUILD_CORNERS = 2**13
# A layout is admissible while m0 2^levels stays below this count
# (see _admissible); _DEEPEST is the deepest level it admits, at m0 = 2.
_FLOOR_COUNT = 1.0 / (4 * BAND_STATIONS * MERGE_TOL)
_DEEPEST = int(math.log2(_FLOOR_COUNT / 2))


@dataclass(frozen=True)
class RelaxOptions:
    """Sweep budget, stopping tolerance and move set of ``relax``.

    The descent visits stations and moves in a fixed order, so it has no
    random seed: the same start and options give the same result.
    """

    max_iters: int = 200
    tol_energy: float = 1e-10
    topology_moves: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise InvariantError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not (self.tol_energy > 0 and math.isfinite(self.tol_energy)):
            raise InvariantError(f"tol_energy must be positive, got {self.tol_energy!r}")


@dataclass(frozen=True)
class SweepGrid:
    """Grid of (beta, epsilon) pairs and the set of candidates to compare."""

    beta_values: tuple[float, ...]
    epsilon_values: tuple[float, ...]
    compare: tuple[str, ...] = ("striped", "branched")

    def __post_init__(self) -> None:
        betas = tuple(float(b) for b in self.beta_values)
        epss = tuple(float(e) for e in self.epsilon_values)
        if not betas or not epss:
            raise InvariantError("sweep grid must be nonempty")
        if any(not (b > 0 and math.isfinite(b)) for b in betas):
            raise InvariantError("beta_values must be positive")
        if any(not (e > 0 and math.isfinite(e)) for e in epss):
            raise InvariantError("epsilon_values must be positive")
        allowed = {"striped", "branched", "relaxed"}
        comps = tuple(self.compare)
        if not comps or any(c not in allowed for c in comps):
            raise InvariantError(f"compare must be a nonempty subset of {sorted(allowed)}")
        object.__setattr__(self, "beta_values", betas)
        object.__setattr__(self, "epsilon_values", epss)
        object.__setattr__(self, "compare", comps)


# -- striped trial state -------------------------------------------------------


def striped_candidate(params: ModelParams, stations: int = DEFAULT_STATIONS) -> Configuration:
    """Constant-in-x configuration carrying the optimal equispaced profile.

    On an exact tie between two interface counts the smaller one is used.
    """
    if stations < 2:
        raise InvariantError("striped candidate needs at least 2 stations")
    m = optimal_even_m(params).m_star[0]
    prof = make_w_m(m, params)
    xs = tuple(np.linspace(0.0, params.length_L, stations))
    return Configuration(params, xs, (prof,) * stations)


# -- branched trial state ------------------------------------------------------


def _equispaced(n_interfaces: int, h: float) -> SawtoothProfile:
    return SawtoothProfile(h, 0.0, 1, tuple(h * np.arange(n_interfaces) / n_interfaces))


def _doubling_profile(q: int, t: float, h: float) -> SawtoothProfile:
    """q-tooth pattern splitting each tooth in two as t runs 0 -> 1.

    Each cell of width P = h/q carries corners {0, P/2 - tP/4,
    3P/4 - tP/4, 3P/4}: at t = 0 the trailing pair is width zero and the
    cell is a single tooth, at t = 1 the corners are equispaced at P/4.
    Rise and fall lengths stay balanced for every t.
    """
    p = h / q
    if t <= 0.0:
        return _equispaced(2 * q, h)
    if t >= 1.0:
        return _equispaced(4 * q, h)
    cell = np.array([0.0, p / 2.0 - t * p / 4.0, 0.75 * p - t * p / 4.0, 0.75 * p])
    corners = (np.add.outer(p * np.arange(q), cell)).ravel()
    return SawtoothProfile(h, 0.0, 1, tuple(corners))


def _admissible(levels: int, m0):
    """Whether the layout (levels, m0) keeps its band corners apart.

    A quarter of the finest tooth width 2h / (m0 2^levels), split over
    the band stations, must stay above twice MERGE_TOL h; that also keeps
    the finest period above 4 MERGE_TOL h.  Elementwise over counts.
    """
    if levels > _DEEPEST:  # before 2**levels can outgrow a float
        return np.zeros_like(m0, dtype=bool)
    return m0 * 2**levels < _FLOOR_COUNT


def _branched_layout(
    params: ModelParams, levels: int, m0: int
) -> tuple[tuple[float, ...], tuple[SawtoothProfile, ...]]:
    if not _admissible(levels, m0):
        raise InvariantError(f"levels={levels} with m0={m0} puts corners below the merge tolerance")
    fine = m0 * 2**levels
    if fine > MAX_BUILD_CORNERS:
        raise InvariantError(
            f"levels={levels} with m0={m0} needs {fine} corners at x = 0, "
            f"more than the {MAX_BUILD_CORNERS} a built layout may carry"
        )
    h, L = params.height_h, params.length_L
    # below the normal floats, corners and stations lose their relative precision
    if not h >= sys.float_info.min:
        raise InvariantError(f"height_h: a built layout needs a normal float period, got {h!r}")
    if not L * BAND_THETA**levels >= sys.float_info.min:
        raise InvariantError(f"length_L: the innermost band edge underflows at L={L!r}")
    if levels == 0:
        prof = _equispaced(m0, h)
        return (0.0, L), (prof, prof)
    xs: list[float] = [0.0, L * BAND_THETA**levels]
    profs: list[SawtoothProfile] = [_equispaced(fine, h)] * 2
    for m in range(levels - 1, -1, -1):
        x_out = L * BAND_THETA**m
        x_in = L * BAND_THETA ** (m + 1)
        q = (m0 // 2) * 2**m
        for j in range(BAND_STATIONS - 1, -1, -1):
            t = j / BAND_STATIONS
            xs.append(x_out - t * (x_out - x_in))
            profs.append(_doubling_profile(q, t, h))
    return tuple(xs), tuple(profs)


def _branched_scales(params: ModelParams) -> None:
    """Refuse parameters whose branched closed form overflows: the austenite
    term scales as beta h^2 and a band's strain as h^3 / L.  O(1)."""
    h, L = params.height_h, params.length_L
    if not params.beta * C0 * h * h < math.inf:
        raise InvariantError(f"beta, height_h: beta c0 h^2 overflows at {params}")
    try:
        strain = h**3 / L
    except OverflowError:
        strain = math.inf
    if not strain < math.inf:
        raise InvariantError(f"height_h, length_L: the band strain h^3 / L overflows at {params}")


def _branched_parts(params: ModelParams, levels: int, m0):
    """(austenite, strain, surface) of the layout in closed form, elementwise over m0."""
    h, L, b = params.height_h, params.length_L, BAND_STATIONS
    austenite = params.beta * C0 * h * h / (m0 * 2**levels)
    strain = levels * h**3 * (3 * b - 1) / (12 * b * m0**2 * L * (1.0 - BAND_THETA))
    surface = params.epsilon * L * m0 * (3.0 - 2.0 ** (1 - levels))
    return austenite, strain, surface


def _branched_breakdown(params: ModelParams, levels: int, m0: int) -> EnergyBreakdown:
    """Energy of the layout (levels, m0) without building it.

    The closed form E(levels, m0) of the module docstring, b =
    BAND_STATIONS.  The x = 0 trace is equispaced, so the boundary term
    is the striped one at the finest count.  Inside a band only the
    trailing corner pair of each cell moves, linearly in x, so every
    station cell costs a fixed triangle integral; with theta = 1/4 the
    count doubling and the band shrinking by four cancel, and every band
    costs the same strain.  Each band is charged at its doubled count,
    which sums to the surface factor 3 - 2^(1 - levels).
    """
    return EnergyBreakdown.from_parts(*_branched_parts(params, levels, m0))


def _best_m0(params: ModelParams, levels: int) -> int:
    """Admissible even m0 <= MAX_COARSE_COUNT of least closed-form energy; ties take the smaller."""
    counts = np.arange(2, MAX_COARSE_COUNT + 1, 2)
    counts = counts[_admissible(levels, counts)]
    if counts.size == 0:
        raise InvariantError(f"levels={levels} admits no coarse count above the merge tolerance")
    return int(counts[np.argmin(sum(_branched_parts(params, levels, counts)))])


def branched_candidate(params: ModelParams, levels: int, m0: int | None = None) -> Configuration:
    """Period-doubling trial state with ``levels`` refinement bands.

    The interface count starts at m0 on the outer edge x = L and doubles
    at bands of length proportional to theta^m approaching x = 0, where
    theta = 1/4 keeps the strain contribution of every band equal.
    With levels = 0 the construction degenerates to the striped state at
    the coarsest count.  When m0 is not given it is the exact minimizer
    of the closed-form energy (``_branched_breakdown``) over every
    admissible even count up to MAX_COARSE_COUNT; the layout is then
    built once.  A layout whose x = 0 profile would carry more than
    MAX_BUILD_CORNERS corners is refused.
    """
    if not isinstance(levels, (int, np.integer)) or levels < 0:
        raise InvariantError(f"levels must be a nonnegative integer, got {levels!r}")
    _branched_scales(params)
    if m0 is None:
        m0 = _best_m0(params, levels)
    elif m0 < 2 or m0 % 2 != 0:
        raise InvariantError(f"m0 must be an even count >= 2, got {m0!r}")
    return Configuration(params, *_branched_layout(params, levels, m0))


# -- coordinate descent --------------------------------------------------------


class _RelaxState:
    """Energy bookkeeping of ``relax``: stored parts plus exact probe prices.

    Cell c, between stations c and c+1, keeps a moment table of e_c =
    p_{c+1} - p_c on the merged nodes of its two profiles (the nodes
    ``l2_distance`` integrates over): at each node y_k the values of e_c,
    of its slope, and of the prefix integrals E = int_0^y e_c and Phi =
    int_0^y E, so Phi is a cubic between nodes.  The stored strain
    ||e_c||^2 / dx_c comes from the same full-cell integral as
    ``l2_distance``, bit for bit.  A table is rebuilt only when one of its
    two stations takes a new profile (``apply``), once per cell however
    many stations change; between two stations that hold one profile
    object e_c is exactly 0, so its table is zeros and costs nothing.

    Probes are priced from the tables without building a profile, the
    steps of a line search in one pass, each bit for bit its own price:

    * Shifting corners i, i+1 of a station by d adds a trapezoid on
      [c_i + min(d, 0), c_{i+1} + max(d, 0)], of height 2 a d (a the
      slope before corner i) while |d| <= c_{i+1} - c_i.  Its slope is
      a zero-mass sum of two boxes of width w = |d| and weight
      +-2 a sign(d), starting at c_i + min(d, 0) and c_{i+1} + min(d, 0),
      which holds for every d.  A cell whose stations move by delta_L and
      delta_R changes its strain by (2 <D, e_c> + ||D||^2) / dx_c, D =
      delta_R - delta_L; for box weights b_k at x_k,

          <D, e_c> = -sum_k b_k (Phi(x_k + w) - Phi(x_k)),
          ||D||^2 = -1/2 sum_{k,l} b_k b_l Psi(x_k - x_l),
          Psi(z) = w^2 |z| + max(w - |z|, 0)^3 / 3.

      A pair shift prices its one or two cells this way, a column shift
      all n - 1 cells in one array computation.  At station 0 the
      boundary term changes by the pair sum over rows i and i+1 only,
      with one Cl_3 evaluation for every step of the call.
    * Shifting the offset of station j by d changes ||e_c||^2 by
      +-2 d E(h) + d^2 h and leaves the boundary term alone.

    Moves that hand whole profiles to stations (neighbor copies, uniform
    and topology moves) are priced by ``delta`` from ``l2_distance`` and
    the pair sum.
    The boundary term is not stored: it is summed when read, once per
    profile object (``h_half_sq`` keeps it on the profile).
    """

    def __init__(self, config: Configuration):
        self.params = config.params
        self.stations = list(config.stations)
        self.profiles = list(config.profiles)
        self.dx = np.diff(np.asarray(self.stations)).tolist()
        n = len(self.profiles)
        self.strain = [0.0] * (n - 1)
        self.surface = [0.0] * (n - 1)
        self.mass = [0.0] * (n - 1)
        # moment tables: (y, Phi, E, e / 2, slope / 6) per cell and node,
        # padded with y = inf past the cell's last node
        self.table = np.zeros((5, n - 1, 1))
        self.table[0] = np.inf
        self.single_surface = 0.0
        self.apply(dict(enumerate(self.profiles)))

    def _surfaces(self, cells) -> list[float]:
        """Surface term of each cell: epsilon dx_c times its larger corner count."""
        eps, ps = self.params.epsilon, self.profiles
        return [eps * self.dx[c] * max(len(ps[c].corners), len(ps[c + 1].corners)) for c in cells]

    def _table_cell(self, c: int) -> float:
        """Rebuild the moment table of cell c and return its strain."""
        p, q = self.profiles[c], self.profiles[c + 1]
        if p is q:  # a shared profile: e = q - p is exactly +0.0, so is every moment
            ys = p.nodes()[0]
            self._cell_rows(c, len(ys))[0] = ys
            self.mass[c] = 0.0
            return 0.0
        ys = _merged_nodes(p, q)
        e = q.evaluate(ys) - p.evaluate(ys)
        dy, ea, eb = ys[1:] - ys[:-1], e[:-1], e[1:]
        total = float((dy * (ea * ea + ea * eb + eb * eb) / 3.0).sum())
        y, phi, big_e, e2, g6 = self._cell_rows(c, len(ys))
        y[:], e2[:], g6[:-1] = ys, 0.5 * e, (eb - ea) / dy / 6.0
        np.cumsum(dy * (ea + 3.0 * g6[:-1] * dy), out=big_e[1:])
        np.cumsum(dy * (big_e[:-1] + dy * (0.5 * ea + dy * g6[:-1])), out=phi[1:])
        self.mass[c] = float(big_e[-1])
        d = math.sqrt(max(total, 0.0))
        return d * d / self.dx[c]

    def _cell_rows(self, c: int, k: int) -> np.ndarray:
        """Cell c's rows on its k nodes, zeroed (y = inf past them); the table grows to fit."""
        if k > self.table.shape[2]:
            grown = np.zeros(self.table.shape[:2] + (k,))
            grown[0] = np.inf
            grown[:, :, : self.table.shape[2]] = self.table
            self.table = grown
        self.table[:, c] = 0.0
        self.table[0, c, k:] = np.inf
        return self.table[:, c, :k]

    @property
    def austenite(self) -> float:
        return self.params.beta * h_half_sq(self.profiles[0])

    @property
    def total(self) -> float:
        return self.austenite + sum(self.strain) + sum(self.surface) + self.single_surface

    def _single_surface(self) -> float:
        return self.params.epsilon * self.params.length_L * self.profiles[0].interface_count()

    def _cells_of(self, j: int) -> tuple[int, ...]:
        return tuple(c for c in (j - 1, j) if 0 <= c < len(self.profiles) - 1)

    def _touched(self, stations) -> range | list[int]:
        """Cells with an end among the given stations, in order."""
        if len(stations) == len(self.profiles):
            return range(len(self.dx))
        return sorted({c for j in stations for c in self._cells_of(j)})

    def delta(self, updates: dict[int, SawtoothProfile]) -> float:
        """Energy change if the given stations took the given profiles.

        Summed as each touched cell's strain then surface change, then
        the boundary term, then the surface of a lone station.
        """
        old = self.profiles
        self.profiles = old.copy()
        for j, prof in updates.items():
            self.profiles[j] = prof
        delta = 0.0
        cells = self._touched(updates)
        for c, surface in zip(cells, self._surfaces(cells)):
            p, q = self.profiles[c], self.profiles[c + 1]
            d = 0.0 if p is q else l2_distance(p, q)  # l2_distance(p, p) is exactly 0
            delta += d * d / self.dx[c] - self.strain[c]
            delta += surface - self.surface[c]
        if self.profiles[0] is not old[0]:
            beta = self.params.beta
            delta += beta * h_half_sq(self.profiles[0]) - beta * h_half_sq(old[0])
        if len(old) == 1:
            delta += self._single_surface() - self.single_surface
        self.profiles = old
        return delta

    def offset_delta(self, j: int, d: float) -> float:
        """Energy change if station j shifted its offset by d."""
        h = self.profiles[j].period
        delta = 0.0
        for c, sign in ((j - 1, 1.0), (j, -1.0)):
            if 0 <= c < len(self.strain):
                delta += (sign * 2.0 * d * self.mass[c] + d * d * h) / self.dx[c]
        return delta

    def shift_pricer(self, js: range, i: int):
        """Function steps -> energy changes if stations js shifted corners i, i+1 by each step.

        js is one station or every station, each with more than i + 1
        corners.  Nothing is built, so the pricer may be called as often
        as wanted while the state does not change.  The steps of one call
        are priced in one pass, each bit for bit as if it came alone.
        """
        cells = list(self._cells_of(js.start) if len(js) == 1 else range(len(self.dx)))
        profs = self.profiles[js.start:js.stop]
        a = np.array([p.slope_after_corners()[i - 1] for p in profs])
        corners = np.array([p.corners[i:i + 2] for p in profs])
        if len(js) == 1:
            # one station: its two boxes enter the cell on its left with
            # sign + and the cell on its right with sign -
            signs = np.array([1.0 if c < js.start else -1.0 for c in cells])
            starts = np.repeat(corners, len(cells), axis=0)
            weights = np.outer(signs * a, [1.0, -1.0])
        else:
            # every station: cell c carries the boxes of both its ends
            starts = np.hstack((corners[1:], corners[:-1]))
            weights = np.column_stack((a[1:], -a[1:], -a[:-1], a[:-1]))
        # weights are the box weights over 2 sign(d), one row per cell
        rows = np.array(cells, dtype=int)[:, None]
        ys = self.table[0][rows]
        boxes = starts.shape[1]
        dist = np.abs(starts[:, :, None] - starts[:, None, :])
        pairs = weights[:, :, None] * weights[:, None, :]
        lin = (pairs * dist).sum(axis=(1, 2))
        inv_dx = 1.0 / np.array([self.dx[c] for c in cells])
        boundary = None
        if js.start == 0:
            first = self.profiles[0]
            cs, ss = np.asarray(first.corners), first.slope_after_corners()
            rest = np.ones(len(cs), dtype=bool)
            rest[i:i + 2] = False
            slopes = np.concatenate((ss[i:i + 2], -ss[i:i + 2]))
            boundary = (cs[i:i + 2], slopes, cs[rest], ss[rest], first.period)

        def price(steps) -> list[float]:
            # a leading probe axis; each sum runs over one probe's entries as if alone
            d = np.asarray(steps, dtype=float)[:, None, None]
            w = np.abs(d)
            x = starts + np.minimum(d, 0.0)
            pts = np.concatenate((x, x + w), axis=2)
            k = (ys <= pts[..., None]).sum(axis=3) - 1
            y0, phi, big_e, e2, g6 = self.table[:, rows, k]
            t = pts - y0
            phi = phi + t * (big_e + t * (e2 + t * g6))
            ends = phi[..., :boxes] - phi[..., boxes:]
            inner = np.copysign(2.0, d[:, 0]) * (weights * ends).sum(axis=2)
            cubes = np.maximum(w[..., None] - dist, 0.0)
            cubes = (pairs * cubes * cubes * cubes).sum(axis=(2, 3))
            norm = -2.0 * w[:, 0] * w[:, 0] * lin - (2.0 / 3.0) * cubes
            deltas = [float(np.dot(v, inv_dx)) for v in 2.0 * inner + norm]
            if boundary is not None:
                pair, slopes, cs_rest, ss_rest, h = boundary
                moved = np.hstack((pair + d[:, 0], np.broadcast_to(pair, (len(deltas), 2))))
                sums = pair_sum(moved, slopes, cs_rest, ss_rest, h)
                deltas = [v + 2.0 * self.params.beta * b for v, b in zip(deltas, sums)]
            return deltas

        return price

    def apply(self, updates: dict[int, SawtoothProfile]) -> None:
        """Set the given stations' profiles; each touched cell is rebuilt once."""
        for j, prof in updates.items():
            self.profiles[j] = prof
        cells = self._touched(updates)
        for c, surface in zip(cells, self._surfaces(cells)):
            self.strain[c] = self._table_cell(c)
            self.surface[c] = surface
        if len(self.profiles) == 1:
            self.single_surface = self._single_surface()

    def config(self) -> Configuration:
        return Configuration(self.params, tuple(self.stations), tuple(self.profiles))


def _shift_range(prof: SawtoothProfile, i: int) -> tuple[float, float]:
    """Open interval of admissible joint shifts for corners i and i+1."""
    cs = prof.corners
    margin = 10.0 * MERGE_TOL * prof.period
    lo = (cs[i - 1] + margin if i > 0 else 0.0) - cs[i]
    right = cs[i + 2] if i + 2 < len(cs) else prof.period
    hi = (right - margin) - cs[i + 1]
    return lo, hi


def _shift_pair(prof: SawtoothProfile, i: int, delta: float) -> SawtoothProfile | None:
    """Move corners i and i+1 together; None when the order would break.

    Shifting an adjacent pair lengthens one gap and shortens another of
    the same rise/fall parity, so the closure balance is untouched and
    every slope stays with its corner.  A corner at 0 can only move up;
    the segment through 0 is then the wrap segment, whose slope becomes
    the initial one.
    """
    lo, hi = _shift_range(prof, i)
    if not (lo < delta < hi):
        return None
    cs = list(prof.corners)
    init = prof.initial_slope
    if cs[0] == 0.0 and i == 0:
        init = int(prof.slope_after_corners()[-1])
    cs[i] += delta
    cs[i + 1] += delta
    return SawtoothProfile(prof.period, prof.offset, init, tuple(cs))


def _rebuild_from_gaps(
    prof: SawtoothProfile,
    anchor: float,
    gaps: np.ndarray,
    slope_after_anchor: int,
) -> SawtoothProfile:
    """Profile with the given cyclic gap sequence starting at anchor.

    Rise gaps and fall gaps are rescaled separately to cover half the
    period each, so the result closes exactly; the offset is chosen to
    preserve the mean of the original profile.
    """
    h = prof.period
    signs = slope_after_anchor * (-1.0) ** np.arange(len(gaps))
    rise = gaps[signs > 0].sum()
    fall = gaps[signs < 0].sum()
    if rise <= 0 or fall <= 0:
        raise InvariantError("degenerate gap sequence")
    scaled = np.where(signs > 0, gaps * (h / 2.0) / rise, gaps * (h / 2.0) / fall)
    pos = anchor + np.concatenate(([0.0], np.cumsum(scaled[:-1])))
    trial = SawtoothProfile.from_positions(h, 0.0, pos, signs)
    return trial.with_offset_shift(prof.mean() - trial.mean())


def _annihilate_tooth(prof: SawtoothProfile) -> SawtoothProfile | None:
    """Drop the shortest tooth and renormalize the remaining gaps."""
    if prof.interface_count() <= 2:
        return None
    corners = np.asarray(prof.corners)
    slopes, gaps = prof.slope_after_corners(), prof._gaps()
    rises = np.flatnonzero(slopes > 0)
    i = int(rises[np.argmin(gaps[rises])])
    keep = [j for j in range(len(corners)) if j not in (i, (i + 1) % len(corners))]
    anchor = float(corners[keep[0]])
    new_gaps = np.diff(np.append(corners[keep], corners[keep[0]] + prof.period))
    return _rebuild_from_gaps(prof, anchor, new_gaps, int(slopes[keep[0]]))


def _resnap_count(prof: SawtoothProfile, new_count: int) -> SawtoothProfile | None:
    """Equispaced profile at a new interface count, phase and mean kept.

    The aggressive counterpart of the local topology edits: propose the
    ideal pattern at the changed count and let the energy test decide.
    """
    if new_count < 2 or new_count % 2 != 0:
        return None
    h = prof.period
    valley = prof.corners[int(np.argmax(prof.slope_after_corners() > 0))]  # the first one
    pos = valley + h * np.arange(new_count) / new_count
    trial = SawtoothProfile.from_positions(h, 0.0, pos, (-1) ** np.arange(new_count))
    return trial.with_offset_shift(prof.mean() - trial.mean())


def _create_tooth(prof: SawtoothProfile) -> SawtoothProfile | None:
    """Split the longest fall with a small new tooth, then renormalize."""
    slopes, gaps = prof.slope_after_corners(), prof._gaps()
    falls = np.flatnonzero(slopes < 0)
    i = int(falls[np.argmax(gaps[falls])])
    f = gaps[i]
    if f < 8.0 * MERGE_TOL * prof.period:
        return None
    lead = 0.375 * f
    new_gaps = np.concatenate((gaps[:i], [lead, 0.25 * f, lead], gaps[i + 1:]))
    return _rebuild_from_gaps(prof, prof.corners[0], new_gaps, int(slopes[0]))


# Proposals that change a profile's interface count, tried in this order
# at each station and then at every station at once.
_TOPOLOGY_MOVES = (
    _annihilate_tooth,
    lambda p: _resnap_count(p, len(p.corners) - 2),
    _create_tooth,
    lambda p: _resnap_count(p, len(p.corners) + 2),
)


@dataclass
class _RelaxRun:
    """One descent: its starting total, accepted move count and total after each sweep."""

    initial: float
    accepted: int = 0
    sweep_totals: list[float] = field(default_factory=list)


def relax(
    start: Configuration,
    opts: RelaxOptions,
    history: list[float] | None = None,
) -> Configuration:
    """Deterministic coordinate descent from the starting configuration.

    Per sweep and per station: copy a neighboring profile, shift corner
    pairs with a parabolic line search, shift the additive offset, and
    optionally create or annihilate a tooth.  After the station pass,
    two collective variants of the same moves run: propagating a single
    station's profile across the whole rectangle (a cascade of neighbor
    copies that clears strain in one step) and shifting a corner pair
    rigidly at every station at once (which lowers the boundary term
    without paying strain).  Only strictly improving moves are accepted,
    so the energy sequence never increases.  Stops after max_iters
    sweeps, when a sweep accepts nothing, or when a full sweep improves
    by less than tol_energy.

    The line search probes +-s, then tries the parabolic vertex through
    them clipped to 0.999 (lo, hi).  Pair, offset and column probes are
    priced exactly from per-cell moment tables (a trapezoid added to one
    profile, a constant, a trapezoid added to every profile; see
    ``_RelaxState``), so a profile is built only for an accepted move;
    stored strains still come from the full-cell integral.  Moves that
    hand whole profiles to stations are priced by ``_RelaxState.delta``.
    Moves that cannot be accepted are not priced: a copy of a station's
    own profile, and the pair shifts of a station j > 0 between copies of
    its own profile.

    A given ``history`` gets the starting total and the total after each
    accepted move, which costs a boundary pair sum per station-0 accept.
    """
    return _descend(start, opts, history)[0]


def _descend(
    start: Configuration, opts: RelaxOptions, history: list[float] | None
) -> tuple[Configuration, _RelaxRun]:
    """``relax`` and the record of its run."""
    state = _RelaxState(start)
    run = _RelaxRun(state.total)
    if history is not None:
        history.append(run.initial)
    floor = 1e-15 * max(1.0, abs(run.initial))

    def accept(updates: dict[int, SawtoothProfile]) -> None:
        state.apply(updates)
        run.accepted += 1
        if history is not None:
            history.append(state.total)

    def try_move(updates: dict[int, SawtoothProfile | None]) -> None:
        if all(p is not None for p in updates.values()) and state.delta(updates) < -floor:
            accept(updates)

    def line_search(s: float, lo: float, hi: float, price) -> float | None:
        # probe both directions; take the parabolic vertex if it lowers
        # the energy, else the first probe that does
        steps = [d for d in (s, -s) if lo < d < hi]
        probes = list(zip(steps, price(steps)))
        if len(probes) == 2:
            dp, dm = probes[0][1], probes[1][1]
            a, b = (dp + dm) / (2.0 * s * s), (dp - dm) / (2.0 * s)
            if a > 0.0 and abs(b) > 0.0:
                d = float(np.clip(-b / (2.0 * a), lo * 0.999, hi * 0.999))
                if lo < d < hi and price([d])[0] < -floor:
                    return d
        return next((d for d, val in probes if val < -floor), None)

    def step(prof: SawtoothProfile) -> float:
        return prof.period / (32.0 * len(prof.corners))

    def pair_move(j: int, i: int) -> None:
        prof = state.profiles[j]
        d = line_search(step(prof), *_shift_range(prof, i), state.shift_pricer(range(j, j + 1), i))
        if d is not None:
            accept({j: _shift_pair(prof, i, d)})

    def across(make) -> dict[int, SawtoothProfile | None]:
        # make's image of every station's profile; stations that shared a
        # profile share its image
        distinct = {id(p): p for p in state.profiles}
        made = {key: make(p) for key, p in distinct.items()}
        return {j: made[id(p)] for j, p in enumerate(state.profiles)}

    def column_move(i: int) -> None:
        ranges = [_shift_range(p, i) for p in state.profiles]
        lo = max(r[0] for r in ranges)
        hi = min(r[1] for r in ranges)
        d = line_search(step(state.profiles[0]), lo, hi, state.shift_pricer(range(n), i))
        if d is not None:
            accept(across(lambda p: _shift_pair(p, i, d)))

    def uniform_move() -> None:
        # cascade of neighbor copies: one station's profile everywhere,
        # wiping the strain in a single accepted step
        best, best_delta = None, -floor
        # neighbor copies and column moves leave equal profiles at many
        # stations; a repeat prices the same and cannot beat the first of
        # them, so each distinct profile is priced once, first one first
        for prof in dict.fromkeys(state.profiles):
            delta = state.delta(dict.fromkeys(range(n), prof))
            if delta < best_delta:
                best, best_delta = prof, delta
        if best is not None:
            accept(dict.fromkeys(range(n), best))

    n = len(state.profiles)
    for sweep in range(opts.max_iters):
        before, accepted = state.total, run.accepted
        order = range(n) if sweep % 2 == 0 else range(n - 1, -1, -1)
        for j in order:
            near = [k for k in (j - 1, j + 1) if 0 <= k < n]
            for k in near:  # a copy of its own profile changes nothing
                if state.profiles[k] is not state.profiles[j]:
                    try_move({j: state.profiles[k]})
            # at j > 0 between copies of its own profile both cells have e = 0:
            # +-s price the same ||D||^2 / dx > 0, so no pair shift pays
            if j == 0 or any(state.profiles[k] is not state.profiles[j] for k in near):
                for i in range(len(state.profiles[j].corners) - 1):
                    pair_move(j, i)
            s = step(state.profiles[j])
            for d in (s, -s, s / 8.0, -s / 8.0):
                if state.offset_delta(j, d) < -floor:
                    accept({j: state.profiles[j].with_offset_shift(d)})
            if opts.topology_moves:
                p = state.profiles[j]
                for make in _TOPOLOGY_MOVES:
                    try_move({j: make(p)})
        if n > 1:
            uniform_move()
            if opts.topology_moves:
                # teeth appear or vanish across the whole rectangle at
                # once; one station alone never pays because the cell
                # surface term takes the larger endpoint count
                for make in _TOPOLOGY_MOVES:
                    try_move(across(make))
        # rigid column moves: same pair, same shift, every station at once
        if n > 1 and len({len(p.corners) for p in state.profiles}) == 1:
            for i in range(len(state.profiles[0].corners) - 1):
                column_move(i)
        run.sweep_totals.append(state.total)
        if run.accepted == accepted or before - run.sweep_totals[-1] < opts.tol_energy:
            break
    return state.config(), run


# -- phase sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    beta: float
    epsilon: float
    sigma: float
    e_striped: float
    e_branched: float
    e_relaxed: float | None
    winner: str
    m_star: int
    # the fields as JSON keys and CSV columns
    _COLUMNS = ("beta", "epsilon", "sigma", "E_striped", "E_branched", "E_relaxed", "winner", "m_star")

    def to_json(self) -> dict:
        return dict(zip(self._COLUMNS, astuple(self)))


@dataclass(frozen=True)
class SweepResult:
    """Sweep table plus the measured constants of both scaling branches.

    c_striped bounds E_striped / (sqrt(eps beta / L) h L) from above on
    the grid, c_branched does the same for E_branched against
    (eps/L)^(2/3) h L, and c_lower is the smallest ratio of the best
    energy to the lesser of the two model forms; c_lower > 0 is the
    sandwich shape of the two-branch bound.
    """

    rows: tuple[SweepRow, ...]
    c_striped: float
    c_branched: float
    c_lower: float

    def to_csv(self) -> str:
        lines = [",".join(SweepRow._COLUMNS)]
        for r in self.rows:
            relaxed = "" if r.e_relaxed is None else repr(r.e_relaxed)
            lines.append(
                f"{r.beta!r},{r.epsilon!r},{r.sigma!r},{r.e_striped!r},"
                f"{r.e_branched!r},{relaxed},{r.winner},{r.m_star}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "rows": [r.to_json() for r in self.rows],
            "c_striped": self.c_striped,
            "c_branched": self.c_branched,
            "c_lower": self.c_lower,
        }


def _best_branched(params: ModelParams, levels_max: int) -> float:
    """Lowest energy over genuinely branched states (at least one doubling).

    The exact minimum of the closed form ``_branched_breakdown`` over
    every admissible pair (levels, m0) with 1 <= levels <= levels_max and
    m0 even up to MAX_COARSE_COUNT; nothing is built.  Levels beyond the
    deepest one the merge tolerance admits are never searched.
    """
    _branched_scales(params)
    picks = [(lv, _best_m0(params, lv)) for lv in range(1, min(levels_max, _DEEPEST) + 1)]
    if not picks:
        raise InvariantError("no admissible branched state below levels_max")
    return min(_branched_breakdown(params, lv, m0).total for lv, m0 in picks)


def _sweep_point(
    beta: float,
    epsilon: float,
    template: ModelParams,
    compare: tuple[str, ...],
    levels_max: int,
    relax_opts: RelaxOptions,
) -> SweepRow:
    p = ModelParams(beta, epsilon, template.length_L, template.height_h)
    m_star = optimal_even_m(p).m_star[0]
    e_striped = e1d(m_star, p)
    e_branched = _best_branched(p, levels_max)
    entries = {}
    if "striped" in compare:
        entries["striped"] = e_striped
    if "branched" in compare:
        entries["branched"] = e_branched
    e_relaxed = None
    if "relaxed" in compare:
        start_name = min(entries, key=entries.get) if entries else "striped"
        if start_name == "branched":
            start = branched_candidate(p, 1)
        else:
            start = striped_candidate(p, stations=16)
        e_relaxed = entries["relaxed"] = _descend(start, relax_opts, None)[1].sweep_totals[-1]
    best = min(entries.values())
    winners = [name for name, v in entries.items() if v == best]
    winner = winners[0] if len(winners) == 1 else "degenerate"
    return SweepRow(beta, epsilon, p.sigma(), e_striped, e_branched, e_relaxed, winner, m_star)


def phase_sweep(
    grid: SweepGrid,
    template: ModelParams,
    levels_max: int = 8,
    relax_opts: RelaxOptions | None = None,
) -> SweepResult:
    """Energy comparison over the grid, one grid point after another.

    Points run in grid order in the calling thread: the work holds the
    interpreter lock, so worker threads would only add overhead.  The
    branched column reports the exact minimum of the closed-form
    branched energy over 1 <= levels <= levels_max and every admissible
    even m0, so it always has at least one doubling band and the striped
    and branched columns stay distinct candidates; exact ties are
    reported as "degenerate".  Only the relaxed column builds a branched
    layout, as its starting state.
    """
    if not isinstance(levels_max, (int, np.integer)) or levels_max < 1:
        raise InvariantError(f"levels_max must be an integer >= 1, got {levels_max!r}")
    opts = relax_opts if relax_opts is not None else RelaxOptions(max_iters=30)
    rows = [
        _sweep_point(b, e, template, grid.compare, levels_max, opts)
        for b in grid.beta_values
        for e in grid.epsilon_values
    ]
    h, L = template.height_h, template.length_L
    area = h * L
    c_s = 0.0
    c_b = 0.0
    c_low = math.inf
    for r in rows:
        unit_s = math.sqrt(r.epsilon * r.beta / L) * area
        unit_b = (r.epsilon / L) ** (2.0 / 3.0) * area
        best = min(v for v in (r.e_striped, r.e_branched, r.e_relaxed) if v is not None)
        pairs = zip((r.e_striped, r.e_branched, best), (unit_s, unit_b, min(unit_s, unit_b)))
        scaled = [e / u if u else math.inf for e, u in pairs]
        if not all(v < math.inf for v in scaled):
            raise InvariantError(
                f"betas, epsilons, length_L, height_h: energies over their units leave the "
                f"float range at {r.beta!r}, {r.epsilon!r} with L={L!r}, h={h!r}"
            )
        c_s, c_b, c_low = max(c_s, scaled[0]), max(c_b, scaled[1]), min(c_low, scaled[2])
    return SweepResult(tuple(rows), c_s, c_b, c_low)
