"""Localized lower-bound machinery for the striped regime.

The global argument compares a candidate u against the optimal stripes
and controls the mismatch term 2 beta (w, u0 - w)_{H^{1/2}} through the
Hilbert transform: the half-norm pairing equals the L2 pairing of H w'
against u0 - w, which can be split over a partition {I_k} of the period
built from the corners of the far trace u1.  Each interval carries a
local energy F_k (a gap-spread share, a strain share, and an
excess-interface share) and a local error H_k^{1/2} ||u0 - w||_{L2(I_k)}
whose prefactor is controlled by the BMO seminorm of H w'.  If the sum
of F_k minus the measured error terms is positive, the candidate cannot
beat the striped minimizer: that sum is the certificate quantity
reported here.

Window conventions are chosen so the local terms recompose exactly:
the three-interval strain windows cover each interval three times
(weight 1/3), the star windows cover each point twice (weight 1/2),
and the seven-gap spread windows cover notch gaps three times and
connector gaps four times (weight 1/7, a weighted lower bound on the
plain gap spread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .energy import (
    _clausen2,
    _clausen3_less_zeta3,
    h_half_inner,
    h_half_sq,
    strain_energy,
    surface_energy,
)
from .model_core import (
    Configuration,
    InvariantError,
    ModelParams,
    SawtoothProfile,
    _merge_degenerate,
)
from .one_dim import C0, optimal_even_m

__all__ = [
    "DEFAULT_ETA",
    "DEFAULT_KAPPA",
    "IntervalPartition",
    "ComparisonProfile",
    "LocalTerms",
    "ErrorTerms",
    "CertificateReport",
    "hilbert_slope_exact",
    "bmo_seminorm",
    "build_partition",
    "build_comparison",
    "classify_intervals",
    "local_error_terms",
    "certificate_check",
    "normalize_configuration",
]

DEFAULT_ETA = 1e-3
DEFAULT_KAPPA = 0.1

# BMO search family: H w' sampled at BMO_SAMPLES points per interval,
# dyadic widths down to BMO_MIN_FRAC of the window, each width slid
# across BMO_OFFSETS start offsets.
BMO_MIN_FRAC = 1.0 / 256.0
BMO_OFFSETS = 64
BMO_SAMPLES = 2048

# An interval whose mismatch ||u0 - w||_{L2(I_k)} is at most this (unit
# period, O(1) values) is matched: its err is rounding noise, so the
# ratio 2 |pairing| / err means nothing there and its cbar is reported
# as 0.  On the benchmark's certify inputs, matched intervals measure
# below 1e-14 and genuine ones above 1e-4.
MATCH_FLOOR = 1e-12

# Most entries in one (points x corners) block of a corner-kernel sum, 256 KB;
# chosen by timing certify's samples of H w' at m = 4-14 and at m = 412.
_KERNEL_BLOCK_ENTRIES = 2**15


# -- Hilbert transform --------------------------------------------------------


def _corner_sums(profile: SawtoothProfile, y: np.ndarray, kernel) -> list[np.ndarray]:
    """sum_j 4 s_j k(y - z_j) over the corners z_j and slopes s_j, per kernel output k.

    kernel maps a fresh (points x corners) block of y - z_j, which it may
    overwrite, to a tuple of arrays; the 1-D points y go a block at a time,
    so memory stays bounded in len(y).
    """
    z = np.asarray(profile.corners)
    weights = 4.0 * profile.slope_after_corners()
    step = max(1, _KERNEL_BLOCK_ENTRIES // len(z))
    blocks = [
        [k @ weights for k in kernel(np.subtract.outer(y[lo : lo + step], z))]
        for lo in range(0, max(1, len(y)), step)  # no points: one empty block
    ]
    return [np.concatenate(sums) for sums in zip(*blocks)]


def hilbert_slope_exact(profile: SawtoothProfile, y) -> np.ndarray | float:
    """H applied to the slope profile w', in closed form.

    w'' is a sum of point masses (slope jumps of 2 s_j at the corners z_j),
    and the Hilbert kernel integrates against a step function to a log:

        (H w')(y) = 4 sum_j s_j * log|2 sin(pi (y - z_j) / h)|.

    Exact up to roundoff away from the corners; diverges (to -inf in
    floating point) at the corners.  Points of any shape go in blocks.
    """
    yy, h = np.asarray(y, dtype=float), profile.period

    def log_chord(d: np.ndarray) -> tuple[np.ndarray]:
        # log|2 sin(pi d / h)|, op for op, in place on the fresh block
        d *= np.pi
        d /= h
        np.sin(d, out=d)
        d *= 2.0
        np.abs(d, out=d)
        np.log(d, out=d)
        return (d,)

    (out,) = _corner_sums(profile, yy.ravel(), log_chord)
    return float(out[0]) if yy.ndim == 0 else out.reshape(yy.shape)


@lru_cache(maxsize=8)
def _scan_windows(n: int, min_width_frac: float) -> tuple[np.ndarray, ...]:
    """bmo_seminorm's windows on n samples: starts, ends, widths, first window of each width.

    Dyadic widths from n down to min_width_frac n (at least 2 samples),
    each slid across at most BMO_OFFSETS evenly spaced starts; the
    windows of one width are consecutive.  Built once per (n, fraction).
    """
    starts, widths = [], []
    width = n
    while True:
        m = max(2, int(round(width)))
        lo = np.unique(np.linspace(0, n - m, min(BMO_OFFSETS, n - m + 1)).astype(int))
        starts.append(lo)
        widths.append(np.full(len(lo), m))
        if width <= n * min_width_frac * (1 + 1e-9) or m == 2:
            break
        width /= 2.0
    first = np.cumsum([0] + [len(lo) for lo in starts[:-1]])
    lo, m = np.concatenate(starts), np.concatenate(widths)
    table = (lo, lo + m, m.astype(float), first)
    for arr in table:
        arr.flags.writeable = False
    return table


def bmo_seminorm(
    samples: np.ndarray, min_width_frac: float = BMO_MIN_FRAC
) -> np.ndarray | float:
    """Mean-oscillation seminorm of a sampled function on its window.

    Scans dyadic subinterval widths from the full window down to
    min_width_frac of it, sliding each width across BMO_OFFSETS evenly
    spaced start offsets, and returns the square root of the largest
    mean-square oscillation found.  A lower bound on the true supremum
    that is monotone in the search family.  Reduces over the last axis:
    a (K, n) array holds K windows, scanned together from prefix sums
    along each row, and gives K values; a 1-D input gives a float.  All
    windows of all widths are gathered in one pass; a width whose
    oscillation is NaN (a sample on a corner) never wins.
    """
    g = np.asarray(samples, dtype=float)
    if g.ndim == 0 or g.shape[-1] < 4:
        raise InvariantError("bmo_seminorm needs at least 4 samples")
    if not (0 < min_width_frac <= 1):
        raise InvariantError("min_width_frac must lie in (0, 1]")
    lo, hi, m, first = _scan_windows(g.shape[-1], min_width_frac)
    # oscillation is shift invariant; centering tames cancellation
    g = g - g.mean(axis=-1, keepdims=True)
    zero = np.zeros(g.shape[:-1] + (1,))
    s1 = np.concatenate((zero, np.cumsum(g, axis=-1)), axis=-1)
    s2 = np.concatenate((zero, np.cumsum(g * g, axis=-1)), axis=-1)
    mean = (s1[..., hi] - s1[..., lo]) / m
    msq = (s2[..., hi] - s2[..., lo]) / m
    osc = np.maximum.reduceat(msq - mean * mean, first, axis=-1)  # NaN-propagating, per width
    out = np.sqrt(np.fmax.reduce(osc, axis=-1, initial=0.0))  # NaN widths skipped
    return float(out) if g.ndim == 1 else out


# -- partition of the period from the far trace ------------------------------


@dataclass(frozen=True)
class IntervalPartition:
    """Cyclic partition of one period into ascent-midpoint intervals.

    Built from a profile u1: each interval runs between midpoints of
    consecutive rising segments, so it contains exactly one falling pair
    of u1 corners (a peak, then a valley).  Coordinates are stored
    unwrapped: ``midpoints`` is increasing with midpoints[0] in
    [0, period), and the k-th interval is [midpoints[k], midpoints[k+1])
    with the closing boundary midpoints[0] + period.

    ``descent_mid[k]`` is the midpoint of the falling segment inside
    interval k; the star window of interval k runs from descent_mid[k-1]
    to descent_mid[k+1], i.e. the interval plus the flanks back to the
    neighboring falling midpoints.
    """

    period: float
    midpoints: np.ndarray
    descent_mid: np.ndarray
    ascent_gaps: np.ndarray
    descent_gaps: np.ndarray

    @property
    def count(self) -> int:
        return len(self.midpoints)

    @property
    def m_corners(self) -> int:
        return 2 * len(self.midpoints)

    @cached_property
    def boundaries(self) -> np.ndarray:
        """The K + 1 interval ends, closing boundary included; built once, read-only."""
        bnd = np.append(self.midpoints, self.midpoints[0] + self.period)
        bnd.flags.writeable = False
        return bnd

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @cached_property
    def _neighbors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cyclic indices k - 2, k - 1, k + 1 of interval k (K >= 2): x[k - 1] = np.roll(x, 1)[k]."""
        k = np.arange(self.count)
        return k - 2, k - 1, (k + 1) % self.count

    def interval(self, k: int) -> tuple[float, float]:
        b = self.boundaries
        return float(b[k]), float(b[k + 1])

    def star_pieces(self, k: int) -> list[tuple[float, float]]:
        """The star window as left flank, core interval, right flank."""
        n = self.count
        h = self.period
        a, b = self.interval(k)
        dm_prev = float(self.descent_mid[(k - 1) % n] - (h if k == 0 else 0.0))
        dm_next = float(self.descent_mid[(k + 1) % n] + (h if k == n - 1 else 0.0))
        return [(dm_prev, a), (a, b), (b, dm_next)]


def build_partition(u1: SawtoothProfile) -> IntervalPartition:
    """Partition the period at the midpoints of u1's rising segments."""
    m = u1.interface_count()
    if m < 4:
        raise InvariantError("partition needs a profile with at least 4 corners")
    h = u1.period
    rise = np.flatnonzero(u1.slope_after_corners() > 0)  # slopes alternate
    gaps = u1._gaps()
    asc, desc = gaps[rise], gaps[(rise + 1) % m]
    mids = np.asarray(u1.corners)[rise] + asc / 2.0
    # only the last rising segment can run past h; when its midpoint does, it leads
    wrap = int(mids[-1] >= h)
    mids[-1] -= wrap * h
    mids, asc, desc = (np.roll(x, wrap) for x in (mids, asc, desc))
    return IntervalPartition(h, mids, mids + asc / 2.0 + desc / 2.0, asc, desc)


def _partition_grid(
    part: IntervalPartition, *profiles: SawtoothProfile
) -> tuple[np.ndarray, np.ndarray]:
    """One period's grid on which every given profile is piecewise linear.

    The grid ys merges the partition boundaries with the nodes of the
    profiles folded into [b_0, b_0 + h]; starts[k] indexes the first
    piece of interval k, so np.add.reduceat(pieces, starts) sums each
    interval.
    """
    h = part.period
    bnd = part.boundaries
    nodes = np.concatenate([p.nodes()[0] for p in profiles])
    ys = np.unique(np.concatenate((bnd, bnd[0] + np.mod(nodes - bnd[0], h))))
    return ys, np.searchsorted(ys, bnd[:-1])


# -- comparison profile -------------------------------------------------------


@dataclass(frozen=True)
class ComparisonProfile:
    """Interval-wise two-corner matching of a trace u0.

    On each partition interval the profile rises with unit slope, takes
    one falling notch between down_corners[k] and up_corners[k], and
    meets u0's values at both interval ends with rising slope; the notch
    position makes the interval means of w and u0 agree.  Degenerate
    intervals (u0 rising straight through) carry a coincident virtual
    pair at the interval midpoint and the ``degenerate`` flag.

    ``virtual_gaps`` lists the 2K cyclic distances between consecutive
    virtual corners, alternating notch widths and connector runs, in the
    order [notch_0, connect_0, notch_1, ...].
    """

    partition: IntervalPartition
    profile: SawtoothProfile
    down_corners: np.ndarray
    up_corners: np.ndarray
    degenerate: np.ndarray

    @property
    def notch_gaps(self) -> np.ndarray:
        return self.up_corners - self.down_corners

    @property
    def connector_gaps(self) -> np.ndarray:
        nxt = np.append(self.down_corners[1:], self.down_corners[0] + self.partition.period)
        return nxt - self.up_corners

    @property
    def virtual_gaps(self) -> np.ndarray:
        gaps = np.empty(2 * self.partition.count)
        gaps[0::2] = self.notch_gaps
        gaps[1::2] = self.connector_gaps
        return gaps


def build_comparison(u0: SawtoothProfile, part: IntervalPartition) -> ComparisonProfile:
    """Solve the per-interval matching conditions for the notch profile.

    Boundary values and slopes fix the notch depth g = (H - du0) / 2;
    since the area under the notch family is linear in the notch
    position with rate 2g, matching the interval integral of u0 is a
    one-step solve.  The solution always lands inside the interval for
    unit-slope traces (the extreme notch positions bound every
    admissible trace from below and above); anything else is reported
    as an invariant violation.  All K intervals are solved at once on
    one partition grid of u0, which also gives the end values.
    """
    h = part.period
    if abs(u0.period - h) > 1e-12 * h:
        raise InvariantError("comparison trace and partition periods differ")
    bnd = part.boundaries
    ys, starts = _partition_grid(part, u0)
    v = u0.evaluate(ys)
    ends = v[np.searchsorted(ys, bnd)]
    a, b, ua = bnd[:-1], bnd[1:], ends[:-1]
    width = b - a
    rise = ends[1:] - ua
    bad = np.abs(rise) > width * (1 + 1e-9)
    if bad.any():
        raise InvariantError(f"trace violates the unit slope bound on interval {np.argmax(bad)}")
    g = (width - rise) / 2.0
    degenerate = g <= 1e-12 * width
    # exact interval integrals of u0, linear on each grid piece
    target = np.add.reduceat(np.diff(ys) * (v[:-1] + v[1:]) / 2.0, starts)
    # area of the notch profile with the notch flush left at a
    run = width - g
    left_area = (g * ua - g * g / 2.0) + (run * (ua - g) + run * run / 2.0)
    shift = np.divide(target - left_area, 2.0 * g, out=np.zeros_like(g), where=~degenerate)
    t = a + shift
    bad = ~degenerate & ((t < a - 1e-9 * width) | (t + g > b + 1e-9 * width))
    if bad.any():
        raise InvariantError(f"no admissible notch position on interval {np.argmax(bad)}")
    t = np.minimum(np.maximum(t, a), b - g)
    mid = (a + b) / 2.0
    downs = np.where(degenerate, mid, t)
    ups = np.where(degenerate, mid, t + g)
    profile = _assemble_notch_profile(u0, part, downs, ups, degenerate)
    return ComparisonProfile(part, profile, downs, ups, degenerate)


def _assemble_notch_profile(
    u0: SawtoothProfile,
    part: IntervalPartition,
    downs: np.ndarray,
    ups: np.ndarray,
    degenerate: np.ndarray,
) -> SawtoothProfile:
    """Stitch the per-interval corner pairs into one sawtooth profile.

    The corners stay unwrapped, in [b_0, b_0 + h], while zero-length
    segments are dropped pairwise; the slope after the first corner
    starts at -1 (a notch opens) and flips when the wrap pair goes.
    """
    h = part.period
    events = np.column_stack((downs, ups))[~degenerate].ravel().tolist()
    events, first_slope = _merge_degenerate(events, -1, h)
    if len(events) < 2:
        raise InvariantError("comparison profile degenerated everywhere")
    slopes = first_slope * (-1) ** np.arange(len(events))
    raw = SawtoothProfile.from_positions(h, 0.0, events, slopes)
    anchor = float(part.boundaries[0])
    return raw.with_offset_shift(float(u0.evaluate(anchor)) - float(raw.evaluate(anchor)))


# -- local terms and classification -------------------------------------------


@dataclass(frozen=True)
class LocalTerms:
    """Per-interval energy shares and classification.

    f0: weighted gap-spread share over the seven neighboring virtual gaps
    f1: one third of the strain in the three-interval window
    f2: half the epsilon-weighted excess interface count in the star window
    itype: 1 good; 2 pinched corner gap; 3 strained; 4 stretched interval
    """

    index: int
    lo: float
    hi: float
    width: float
    f0: float
    f1: float
    f2: float
    itype: int

    @property
    def total(self) -> float:
        return self.f0 + self.f1 + self.f2

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "interval": [self.lo, self.hi],
            "width": self.width,
            "f0": self.f0,
            "f1": self.f1,
            "f2": self.f2,
            "total": self.total,
            "type": self.itype,
        }


@dataclass(frozen=True)
class ErrorTerms:
    """Per-interval mismatch data for the localized error bound."""

    index: int
    err: float  # H_k^{1/2} ||u0 - w||_{L2(I_k)}
    bmo: float  # measured oscillation seminorm of H w' on I_k
    pairing: float  # integral of H w' (u0 - w) over I_k
    cbar: float  # 2 |pairing| / err, the measured chain constant

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _require_normalized(params: ModelParams) -> None:
    if abs(params.height_h - 1.0) > 1e-12 or abs(params.length_L - 1.0) > 1e-12:
        raise InvariantError(
            "localization expects height_h = length_L = 1; "
            "use normalize_configuration first"
        )


def _strain_per_interval(config: Configuration, part: IntervalPartition) -> np.ndarray:
    """Strain of the linear-in-x interpolation restricted to each interval.

    A cell between two stations holding one profile object adds exactly
    +0.0 and is skipped.
    """
    out = np.zeros(part.count)
    ps = config.profiles
    for j in range(len(config.stations) - 1):
        if ps[j + 1] is not ps[j]:
            dx = config.stations[j + 1] - config.stations[j]
            out += _interval_l2_sq(ps[j + 1], ps[j], part) / dx
    return out


def _window_counts(
    profile: SawtoothProfile, h: float, lo: np.ndarray, span: np.ndarray, full: np.ndarray
) -> np.ndarray:
    """Corners of profile in each interval's star window, all (K, 3) pieces in one comparison.

    A piece [lo, lo + span) holds the corners c with mod(c - lo, h) <
    span, or all of them when it spans a full period.
    """
    c = np.asarray(profile.corners)
    inside = np.count_nonzero(np.mod(c - lo[..., None], h) < span[..., None], axis=-1)
    return np.where(full, len(c), inside).sum(axis=-1).astype(float)


def _interface_excess_per_interval(
    config: Configuration, part: IntervalPartition, epsilon: float
) -> np.ndarray:
    """(eps/2) * integral over x of (corner count in the star window - 4).

    Each x-cell is charged at the station with the larger total count
    (ties to the later station), matching the surface energy convention,
    with that station's corner positions deciding the window counts,
    which are counted once per distinct carrier object.
    """
    h = part.period
    ps = config.profiles
    pieces = np.asarray([part.star_pieces(k) for k in range(part.count)])  # (K, 3, 2)
    lo, span = pieces[..., 0], pieces[..., 1] - pieces[..., 0]
    full = span >= h * (1 - 1e-12)
    if len(ps) == 1:
        carrier = _window_counts(ps[0], h, lo, span, full)
        return 0.5 * epsilon * config.params.length_L * (carrier - 4.0)
    counts = [p.interface_count() for p in ps]
    picks = [ps[j] if counts[j] > counts[j + 1] else ps[j + 1] for j in range(len(ps) - 1)]
    carriers = {id(p): p for p in picks}
    windows = {key: _window_counts(p, h, lo, span, full) for key, p in carriers.items()}
    out = np.zeros(part.count)
    for j, p in enumerate(picks):
        dx = config.stations[j + 1] - config.stations[j]
        out += 0.5 * epsilon * dx * (windows[id(p)] - 4.0)
    return out


def _gap_spread_per_interval(
    cmp: ComparisonProfile, beta: float, m: int
) -> np.ndarray:
    """Weighted spread of the seven virtual gaps around each interval.

    The window holds the notch gaps of intervals k-1, k, k+1 and the
    connector gaps k-2 .. k+1, each deviation squared against the even
    spacing 1/m and weighted by beta c0 / 7.
    """
    target = cmp.partition.period / m
    notch = (cmp.notch_gaps - target) ** 2
    conn = (cmp.connector_gaps - target) ** 2
    prev2, prev, nxt = cmp.partition._neighbors
    # summed left to right, in window order
    window = (
        notch[prev] + notch + notch[nxt]
        + conn[prev2] + conn[prev] + conn + conn[nxt]
    )
    return beta * C0 / 7.0 * window


def classify_intervals(
    u: Configuration,
    part: IntervalPartition,
    eta: float = DEFAULT_ETA,
    kappa: float = DEFAULT_KAPPA,
) -> list[LocalTerms]:
    """Split the local energy over the partition and tag each interval.

    Expects the normalized geometry (unit period and depth).  An
    interval is good (type 1) when the three neighboring widths stay
    below 6/M, its strain share stays below eta/M^3, and the five
    neighboring corner gaps of the generating trace stay above kappa/M.
    Failing the width test makes it type 4 regardless of the rest;
    failing only the strain test makes it type 3; failing only the gap
    test makes it type 2.
    """
    _check_classify_inputs(u, eta, kappa)
    return _classify(u, part, build_comparison(u.profiles[0], part), eta, kappa)


def _check_classify_inputs(u: Configuration, eta: float, kappa: float) -> None:
    _require_normalized(u.params)
    for name, value in (("eta", eta), ("kappa", kappa)):
        if not (math.isfinite(value) and value > 0):
            raise InvariantError(f"{name} must be positive and finite, got {value!r}")


def _classify(
    u: Configuration, part: IntervalPartition, cmp: ComparisonProfile, eta: float, kappa: float
) -> list[LocalTerms]:
    """classify_intervals with the comparison profile of u's near trace given."""
    m = part.m_corners
    f0 = _gap_spread_per_interval(cmp, u.params.beta, m)
    per_interval = _strain_per_interval(u, part)
    _, prev, nxt = part._neighbors
    # one third of the strain in the three-interval window around k
    f1 = (per_interval + per_interval[prev] + per_interval[nxt]) / 3.0
    f2 = _interface_excess_per_interval(u, part, u.params.epsilon)
    widths = part.widths
    max_w = np.max([widths[prev], widths, widths[nxt]], axis=0)
    asc, desc = part.ascent_gaps, part.descent_gaps
    min_gap = np.min([desc[prev], asc, desc, asc[nxt], desc[nxt]], axis=0)
    # the first failed test decides: width, then strain, then gaps
    itype = np.select([max_w > 6.0 / m, f1 > eta / m**3, min_gap < kappa / m], [4, 3, 2], 1)
    return [
        LocalTerms(k, *part.interval(k), float(widths[k]), float(f0[k]), float(f1[k]),
                   float(f2[k]), int(itype[k]))
        for k in range(part.count)
    ]


# -- exact pairing against the log kernel ------------------------------------


def _slope_at(profile: SawtoothProfile, y: np.ndarray) -> np.ndarray:
    """Slope of the profile on the segment holding each y (any real y)."""
    idx = np.searchsorted(np.asarray(profile.corners), np.mod(y, profile.period), side="right")
    return profile.slope_after_corners()[idx - 1]  # -1: the segment through 0


def _merged_grid(
    p: SawtoothProfile, q: SawtoothProfile, part: IntervalPartition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The partition grid of a profile pair, and p - q on it."""
    ys, starts = _partition_grid(part, q, p)
    return ys, p.evaluate(ys) - q.evaluate(ys), starts


def _interval_l2_sq(
    p: SawtoothProfile, q: SawtoothProfile, part: IntervalPartition, grid=None
) -> np.ndarray:
    """Integral of (p - q)^2 over each partition interval, exact, from one grid."""
    ys, d, starts = _merged_grid(p, q, part) if grid is None else grid
    va, vb = d[:-1], d[1:]
    # exact integral of a linear function squared on each piece
    return np.add.reduceat(np.diff(ys) * (va * va + va * vb + vb * vb) / 3.0, starts)


def _interval_pairings(
    w: SawtoothProfile, u0: SawtoothProfile, part: IntervalPartition, grid=None
) -> np.ndarray:
    """Integral of (H w')(y) (u0(y) - w(y)) dy over each partition interval, exact.

    H w' = 4 sum_j s_j log|2 sin(theta_j / 2)|, theta_j = 2 pi (y - z_j) / h,
    and u0 - w = d is linear with slope sigma between the merged nodes of
    both profiles and the boundaries (``_merged_grid(u0, w, part)``,
    passed as ``grid`` when the caller has it).  From the antiderivatives
    -Cl_2 and -theta Cl_2 - Cl_3 (DLMF 25.12) each piece [a, b] gives

        -(h / 2 pi) [d A]_a^b - sigma (h / 2 pi)^2 [B]_a^b,

    A = 4 sum_j s_j Cl_2(theta_j), B = 4 sum_j s_j (Cl_3 - zeta(3))(theta_j),
    both summed over the grid in blocks (_corner_sums).
    """
    h = part.period
    ys, d, starts = _merged_grid(u0, w, part) if grid is None else grid
    mid = 0.5 * (ys[:-1] + ys[1:])
    sigma = _slope_at(u0, mid) - _slope_at(w, mid)

    def clausen(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e -= h * np.rint(e / h)  # signed distance to the nearest image of each corner
        theta = (2.0 * np.pi / h) * e
        return _clausen2(theta), _clausen3_less_zeta3(np.abs(theta))

    cl2, cl3 = _corner_sums(w, ys, clausen)
    scale = h / (2.0 * np.pi)
    pieces = -scale * np.diff(d * cl2) - scale * scale * sigma * np.diff(cl3)
    return np.add.reduceat(pieces, starts)


def local_error_terms(
    u0: SawtoothProfile,
    w: ComparisonProfile,
    part: IntervalPartition,
) -> list[ErrorTerms]:
    """Per-interval mismatch H_k^{1/2} ||u0 - w||, oscillation, pairing.

    The pairing integral of H w' (u0 - w) is exact; the oscillation
    samples the log form of H w'.  The reported cbar is the measured
    constant of the chain |2 pairing| <= cbar * H^{1/2} ||u0 - w||, zero
    on matched intervals (mismatch at most MATCH_FLOOR).  All K
    mismatches and pairings come from one merged grid of u0 and w, and
    the K windows' samples of H w' come from one hilbert_slope_exact call
    and are scanned in one bmo_seminorm call.
    """
    return _error_terms(u0, w, part)[0]


def _error_terms(
    u0: SawtoothProfile, w: ComparisonProfile, part: IntervalPartition
) -> tuple[list[ErrorTerms], np.ndarray]:
    """local_error_terms, and the K mismatches ||u0 - w||_{L2(I_k)} it used."""
    wp = w.profile
    grid = _merged_grid(u0, wp, part)
    pairings = _interval_pairings(wp, u0, part, grid)
    dists = np.sqrt(_interval_l2_sq(u0, wp, part, grid))
    # BMO_SAMPLES cell midpoints on each interval, all K windows in one call
    cells = (np.arange(BMO_SAMPLES) + 0.5) * (part.widths / BMO_SAMPLES)[:, None]
    bmos = bmo_seminorm(hilbert_slope_exact(wp, part.boundaries[:-1, None] + cells))
    errs = np.sqrt(part.widths) * dists
    matched = dists <= MATCH_FLOOR
    cbars = np.divide(2.0 * np.abs(pairings), errs, out=np.zeros_like(errs), where=~matched)
    rows = zip(errs.tolist(), bmos.tolist(), pairings.tolist(), cbars.tolist())
    return [ErrorTerms(k, *row) for k, row in enumerate(rows)], dists


# -- certificate ---------------------------------------------------------------


def normalize_configuration(config: Configuration) -> tuple[Configuration, float]:
    """Rescale to unit period and unit depth.

    Returns the rescaled configuration and the energy scale h^3 / L, so
    that E(original) = scale * E(rescaled) term by term; the rescaled
    weights are beta L / h and eps L^2 / h^3.  Where h, L and every
    period are exactly 1.0 that is the input itself, returned as it is.
    """
    p = config.params
    h, L = p.height_h, p.length_L
    if h == L == 1.0 and all(q.period == 1.0 for q in config.profiles):
        return config, 1.0
    params = ModelParams(p.beta * L / h, p.epsilon * L**2 / h**3, 1.0, 1.0)
    scaled = {}  # each distinct profile object once, so shared profiles stay shared
    for q in config.profiles:
        if id(q) not in scaled:
            corners = tuple(c / h for c in q.corners)
            scaled[id(q)] = SawtoothProfile(1.0, q.offset / h, q.initial_slope, corners)
    profiles = tuple(scaled[id(q)] for q in config.profiles)
    stations = tuple(x / L for x in config.stations)
    return Configuration(params, stations, profiles), h**3 / L


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the localized lower-bound evaluation.

    ``excess`` is sum_k F_k - cbar * beta * sum_k err_k with the
    measured cbar; a candidate with positive excess cannot be a
    minimizer in the striped regime.  The mismatch pairing is reported
    by two exact routes that agree to rounding: ``pairing_quadrature``
    sums the per-interval closed forms, and ``pairing_spectral`` is the
    global corner-pair sum h_half_inner(w, u0) - h_half_sq(w).  Both
    names predate the closed forms.
    """

    m: int
    m_star: int
    eta: float
    kappa: float
    beta: float
    epsilon: float
    energy_scale: float
    terms: tuple[LocalTerms, ...]
    errors: tuple[ErrorTerms, ...]
    sum_f0: float
    sum_f1: float
    sum_f2: float
    spread_global: float
    strain_global: float
    surface_excess_global: float
    pairing_quadrature: float
    pairing_spectral: float
    cbar: float
    interpolation_ratios: tuple[float, ...]
    excess: float
    certified: bool

    @property
    def sum_terms(self) -> float:
        return self.sum_f0 + self.sum_f1 + self.sum_f2

    @property
    def global_quantity(self) -> float:
        return self.spread_global + self.strain_global + self.surface_excess_global

    @property
    def interpolation_max(self) -> float | None:
        vals = [r for r in self.interpolation_ratios if math.isfinite(r)]
        return max(vals) if vals else None

    def to_json(self) -> dict:
        # a window without mismatch has a NaN ratio; JSON has no NaN, so it is null
        ratios = [r if math.isfinite(r) else None for r in self.interpolation_ratios]
        return {
            "m": self.m,
            "m_star": self.m_star,
            "eta": self.eta,
            "kappa": self.kappa,
            "beta_normalized": self.beta,
            "epsilon_normalized": self.epsilon,
            "energy_scale": self.energy_scale,
            "intervals": [
                {**t.to_json(), **e.to_json(), "interpolation_ratio": r}
                for t, e, r in zip(self.terms, self.errors, ratios)
            ],
            "sum_f0": self.sum_f0,
            "sum_f1": self.sum_f1,
            "sum_f2": self.sum_f2,
            "sum_terms": self.sum_terms,
            "spread_global": self.spread_global,
            "strain_global": self.strain_global,
            "surface_excess_global": self.surface_excess_global,
            "global_quantity": self.global_quantity,
            "pairing_quadrature": self.pairing_quadrature,
            "pairing_spectral": self.pairing_spectral,
            "cbar_measured": self.cbar,
            "interpolation_max": self.interpolation_max,
            "excess": self.excess,
            "certified": self.certified,
        }


def certificate_check(
    u: Configuration,
    eta: float = DEFAULT_ETA,
    kappa: float = DEFAULT_KAPPA,
) -> CertificateReport:
    """Evaluate the localized contradiction quantity on a candidate.

    Normalizes the geometry, builds the partition from the far trace
    and the matching profile from the near trace, assembles the local
    energy shares and error terms, and reports whether the certificate
    quantity (local energy minus measured error bound) is nonnegative.
    The per-interval ratio bounding the comparison mismatch by the
    distance between the two traces is measured and reported, never
    assumed.  Every per-interval L2 window (strain per x-cell, mismatch,
    the ratio's denominator) is one ``_interval_l2_sq`` call over a
    merged grid of the profile pair; the ratio's numerator is the
    mismatch of the error terms, priced once.  eta and kappa must be
    positive and finite.
    """
    norm, scale = normalize_configuration(u)
    u0 = norm.profiles[0]
    u1 = norm.profiles[-1]
    part = build_partition(u1)
    _check_classify_inputs(norm, eta, kappa)
    cmp = build_comparison(u0, part)
    terms = _classify(norm, part, cmp, eta, kappa)
    errors, nums = _error_terms(u0, cmp, part)

    target = part.period / part.m_corners
    spread_global = norm.params.beta * C0 * float(
        np.sum((cmp.virtual_gaps - target) ** 2)
    )
    strain_global = strain_energy(norm)
    surface_excess = surface_energy(norm) - norm.params.epsilon * part.m_corners

    dens = np.sqrt(_interval_l2_sq(u0, u1, part)).tolist()
    ratios = [
        num / (width * den ** (1.0 / 3.0)) if den > 0 else math.nan
        for num, den, width in zip(nums.tolist(), dens, part.widths.tolist())
    ]

    pairing_quad = float(sum(e.pairing for e in errors))
    pairing_spectral = h_half_inner(cmp.profile, u0) - h_half_sq(cmp.profile)
    cbar = max((e.cbar for e in errors), default=0.0)
    sum_f0 = float(sum(t.f0 for t in terms))
    sum_f1 = float(sum(t.f1 for t in terms))
    sum_f2 = float(sum(t.f2 for t in terms))
    err_total = float(sum(e.err for e in errors))
    excess = (sum_f0 + sum_f1 + sum_f2) - cbar * norm.params.beta * err_total
    scale_ref = max(1.0, abs(sum_f0 + sum_f1 + sum_f2))
    return CertificateReport(
        m=part.m_corners,
        m_star=int(optimal_even_m(norm.params).m_star[0]),
        eta=eta,
        kappa=kappa,
        beta=norm.params.beta,
        epsilon=norm.params.epsilon,
        energy_scale=scale,
        terms=tuple(terms),
        errors=tuple(errors),
        sum_f0=sum_f0,
        sum_f1=sum_f1,
        sum_f2=sum_f2,
        spread_global=spread_global,
        strain_global=strain_global,
        surface_excess_global=surface_excess,
        pairing_quadrature=pairing_quad,
        pairing_spectral=pairing_spectral,
        cbar=cbar,
        interpolation_ratios=tuple(ratios),
        excess=excess,
        certified=excess >= -1e-12 * scale_ref,
    )
