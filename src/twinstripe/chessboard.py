"""Reflection-based lower bounds for the screened interaction kernel.

The screened energy of a function w on a finite interval is

    E_alpha(w) = -int int w(y) w(y') exp(-alpha |y - y'|) dy dy'.

Since exp(-alpha|t|) is a positive-definite kernel, E_alpha(w) <= 0 for
every w.  Reflecting the right (or left) part of w across an interior
point can only lower the energy; iterating the reflections bounds
E_alpha(w) from below by the sum of the periodized energy densities of
its pieces (the chessboard estimate).  Applied to one period of a
sawtooth boundary trace u0, together with the kernel identity
1/d^2 = int_0^inf alpha exp(-alpha d) d(alpha), this produces the exact
per-span bound c0 * span^2 that underlies the striped theory.

Everything here is piecewise linear, so every kernel integral reduces
to a closed form per cell pair; quadrature appears only in the explicit
alpha-integration helpers (log-grid Simpson with analytic corrections
for both tails) and in test oracles.

The two kernels, the screened energy and the periodic cross energy,
work on groups: cells of many collections stacked row-wise, with the
row where each collection starts, priced at every alpha in one call.
The public checks hand them the groups of one case; verify_suite hands
them the groups of a whole block of cases, so a randomized suite costs
a few array calls per block instead of a few per case and alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .energy import _BLOCK_ENTRIES
from .model_core import InvariantError, SawtoothProfile, random_profile
from .one_dim import C0

__all__ = [
    "Segment",
    "SegmentSequence",
    "PiecewiseLinear",
    "reflect",
    "juxtapose",
    "screened_energy",
    "e_infinity",
    "check_rp_inequality",
    "check_chessboard_bound",
    "check_master_inequality",
    "screened_mismatch",
    "bump_alpha_energy",
    "profile_alpha_energy",
    "kernel_identity_check",
    "random_segment",
    "verify_suite",
    "RPReport",
    "ChessboardReport",
    "MasterReport",
]

_OVERLAP_TOL = 1e-9

# Power series for the two entire functions behind the cell integrals:
#   f2(x) = x - 1 + exp(-x)          = sum_{n>=2} (-x)^n / n! * (-1)^n ...
#   f4(x) = 1 - exp(-x)(1+x) - x^2/2 + x^3/3
# both suffer catastrophic cancellation for small x, so below x = 1/2
# they are evaluated from their Taylor coefficients instead.
_TERMS = 19
_P2_DESC = np.array(
    [(-1.0) ** m / math.factorial(m + 2) for m in range(_TERMS)][::-1]
)
_P4_DESC = np.array(
    [(-1.0) ** m * (m + 3) / math.factorial(m + 4) for m in range(_TERMS)][::-1]
)


@dataclass(frozen=True)
class Segment:
    """Piecewise-linear function on [0, T].

    Stored as piece widths plus node values so that reflection is an
    exact involution (it just reverses both tuples).
    """

    widths: tuple
    values: tuple

    def __post_init__(self):
        widths = tuple(float(w) for w in self.widths)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "values", values)
        if not widths:
            raise InvariantError("segment needs at least one piece")
        if len(values) != len(widths) + 1:
            raise InvariantError("need one value per breakpoint")
        arr = np.asarray(widths)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise InvariantError("piece widths must be positive and finite")
        if not np.all(np.isfinite(np.asarray(values))):
            raise InvariantError("values must be finite")

    @property
    def length(self) -> float:
        return math.fsum(self.widths)

    @property
    def breakpoints(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.widths)])

    @classmethod
    def from_breakpoints(cls, breakpoints, values) -> "Segment":
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise InvariantError("need at least two breakpoints")
        if abs(bp[0]) > 0.0:
            raise InvariantError("breakpoints must start at 0")
        return cls(tuple(np.diff(bp)), tuple(values))

    @classmethod
    def constant(cls, value: float, length: float) -> "Segment":
        return cls((length,), (value, value))

    @classmethod
    def linear(cls, va: float, vb: float, length: float) -> "Segment":
        return cls((length,), (va, vb))

    def reflect(self) -> "Segment":
        return Segment(self.widths[::-1], self.values[::-1])

    def cells(self, z0: float = 0.0) -> np.ndarray:
        """(n, 4) array of (a, b, va, vb) pieces, shifted to start at z0."""
        bp = self.breakpoints + z0
        vals = np.asarray(self.values)
        return np.column_stack([bp[:-1], bp[1:], vals[:-1], vals[1:]])


def reflect(seg: Segment) -> Segment:
    """Mirror image y -> T - y of a segment."""
    return seg.reflect()


@dataclass(frozen=True)
class SegmentSequence:
    items: tuple

    def __post_init__(self):
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise InvariantError("sequence must be nonempty")
        for seg in items:
            if not isinstance(seg, Segment):
                raise InvariantError("sequence items must be Segments")


class PiecewiseLinear:
    """Sorted, non-overlapping linear cells (a, b, va, vb) on the line."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        arr = np.array(cells, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4 or arr.shape[0] < 1:
            raise InvariantError("cells must be a nonempty (n, 4) array")
        arr = arr[np.argsort(arr[:, 0], kind="stable")]
        if np.any(arr[:, 1] - arr[:, 0] <= 0.0):
            raise InvariantError("cells must have positive width")
        if np.any(arr[1:, 0] - arr[:-1, 1] < -_OVERLAP_TOL):
            raise InvariantError("cells must not overlap")
        self.cells = arr

    @property
    def domain(self) -> tuple:
        return float(self.cells[0, 0]), float(self.cells[-1, 1])

    @property
    def length(self) -> float:
        return float(np.sum(self.cells[:, 1] - self.cells[:, 0]))


def juxtapose(seq, z_start: float = 0.0) -> PiecewiseLinear:
    """Concatenate segments left to right starting at z_start.

    No continuity is required (or enforced) across the joins.
    """
    if isinstance(seq, SegmentSequence):
        items = seq.items
    elif isinstance(seq, Segment):
        items = (seq,)
    else:
        items = tuple(seq)
    if not items:
        raise InvariantError("nothing to juxtapose")
    blocks = []
    z = z_start
    for seg in items:
        blocks.append(seg.cells(z))
        z += seg.length
    return PiecewiseLinear(np.vstack(blocks))


def _cell_tables(cells: np.ndarray, alphas: np.ndarray):
    """Closed-form per-cell integrals against the screened kernel.

    For a linear piece l(y) on (a, b) with width T and slope q, and for
    x = alpha*T:
        R = int l(y) exp(-alpha (y - a)) dy
        L = int l(y) exp(-alpha (b - y)) dy
        I = int int l(y) l(y') exp(-alpha |y - y'|) dy dy'
          = va*vb*K00 + q^2*K11
    with K00 = 2 f2(x)/alpha^2 and K11 = 2 f4(x)/alpha^4.
    Returns (L, R, I), each of shape (len(alphas), n_cells).
    """
    a, b, va, vb = cells.T
    T = b - a
    q = (vb - va) / T
    al = alphas[:, None]
    x = al * T[None, :]
    ex = np.exp(-x)
    E1 = -np.expm1(-x)
    xs = np.minimum(x, 0.5)
    small = x < 0.5
    f2 = np.where(small, xs * xs * np.polyval(_P2_DESC, xs), x - E1)
    f4s = xs**4 * np.polyval(_P4_DESC, xs)
    f4 = np.where(small, f4s, E1 - x * ex - 0.5 * x * x + x**3 / 3.0)
    ttail = np.where(small, 0.5 * xs * xs - xs**3 / 3.0 + f4s, E1 - x * ex)
    inva = 1.0 / al
    R = va * E1 * inva + q * ttail * inva**2
    L = vb * E1 * inva - q * ttail * inva**2
    diag = va * vb * 2.0 * f2 * inva**2 + q * q * 2.0 * f4 * inva**4
    return L, R, diag


def _group_starts(blocks) -> np.ndarray:
    """Row offsets of consecutive cell blocks stacked with np.vstack."""
    sizes = [len(block) for block in blocks]
    return np.cumsum([0] + sizes[:-1], dtype=np.intp)


def _group_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """np.sum of each group of columns of values, bit for bit, shape (A, G).

    np.add.reduceat alone adds x0 + (x1 + ...); a zero column leading
    each group makes it add 0 + (x0 + ...), which is how np.sum adds a
    C-ordered row.
    """
    padded = np.insert(np.ascontiguousarray(values), starts, 0.0, axis=1)
    return np.add.reduceat(padded, starts + np.arange(starts.size), axis=1)


def _screened_groups(cells: np.ndarray, starts, alphas: np.ndarray, tables=None) -> np.ndarray:
    """Screened energies of many cell collections at once, shape (G, A).

    Group g holds the rows starts[g] up to starts[g + 1] of cells, in any
    order.  tables, if given, are _cell_tables(cells, alphas) with the
    cells in given order.  The cross terms follow the carry recurrence
    left to right; one step advances every group still running, at
    every alpha, so the loop runs over positions up to the longest
    group, never over groups.  The diagonal terms are summed per group
    as np.sum adds them (_group_sums), or left to right when tables are
    given: the periodic kernel passes its tables and has always summed
    its periods that way, which keeps its results bit for bit.
    """
    starts = np.asarray(starts, dtype=np.intp)
    n = cells.shape[0]
    lengths = np.diff(starts, append=n)
    first = np.zeros(n, dtype=bool)
    first[starts] = True
    inner = ~first[1:]  # cell i + 1 follows cell i in the same group
    a = cells[:, 0]
    if np.any(inner & (a[1:] < a[:-1])):
        order = np.lexsort((a, np.repeat(np.arange(starts.size), lengths)))
        cells = cells[order]
        a = cells[:, 0]
        if tables is not None:
            tables = tuple(t[:, order] for t in tables)
    b = cells[:, 1]
    if np.any(inner & (a[1:] - b[:-1] < -_OVERLAP_TOL)):
        raise InvariantError("cells must not overlap")
    left_to_right = tables is not None
    if tables is None:
        tables = _cell_tables(cells, alphas)
    L, R, diag = tables
    al = alphas[:, None]
    decay = np.exp(-al * np.maximum(a[1:] - a[:-1], 0.0))
    feed = L[:, :-1] * np.exp(-al * np.maximum(a[1:] - b[:-1], 0.0))
    # step j feeds cell j of every group into its cell j + 1; a group
    # that has ended steps on with decay 1 and nothing fed or collected
    steps = np.arange(int(lengths.max()) - 1)[:, None]
    running = steps < lengths - 1
    prev = np.where(running, starts + steps, 0)
    decay_at = np.where(running, decay[:, prev], 1.0)
    feed_at = np.where(running, feed[:, prev], 0.0)
    right_at = np.where(running, R[:, prev + 1], 0.0)
    if left_to_right:
        total = diag[:, starts]
        diag_at = np.where(running, diag[:, prev + 1], 0.0)
    else:
        total = _group_sums(diag, starts)
    carry = np.zeros((alphas.size, starts.size))
    cross = np.zeros_like(carry)
    for j in range(steps.size):
        carry = carry * decay_at[:, j] + feed_at[:, j]
        cross += carry * right_at[:, j]
        if left_to_right:
            total += diag_at[:, j]
    return -(total + 2.0 * cross).T


def _check_alpha(alpha: float) -> None:
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise InvariantError("alpha must be positive and finite")


def screened_energy(w, alpha: float) -> float:
    """E_alpha(w) = -int int w w' exp(-alpha |y-y'|) over w's support."""
    _check_alpha(alpha)
    if isinstance(w, Segment):
        cells = w.cells()
    elif isinstance(w, PiecewiseLinear):
        cells = w.cells
    else:
        cells = np.asarray(w, dtype=float)
    return float(_screened_groups(cells, [0], np.array([float(alpha)]))[0, 0])


def _periodic_cross_groups(cells: np.ndarray, starts, periods, alphas: np.ndarray) -> np.ndarray:
    """int_period dy int_R dy' phi(y) phi(y') exp(-alpha|y-y'|), shape (G, A).

    Group g (rows starts[g] up to starts[g + 1]) describes one period on
    [0, periods[g]]; phi is its periodic extension.  The pair of image
    periods at block distance d >= 1 sits gap (d-1)*period apart, so the
    cross terms resum geometrically to 2 * Wl * Wr / (1 - rho) with
    rho = exp(-alpha*period).
    """
    starts = np.asarray(starts, dtype=np.intp)
    periods = np.asarray(periods, dtype=float)
    period_of_cell = np.repeat(periods, np.diff(starts, append=cells.shape[0]))
    a, b = cells[:, 0], cells[:, 1]
    if np.any(a < -_OVERLAP_TOL) or np.any(b > period_of_cell + _OVERLAP_TOL):
        raise InvariantError("cells must lie inside one period")
    tables = _cell_tables(cells, alphas)
    c0 = -_screened_groups(cells, starts, alphas, tables)
    L, R, _ = tables
    al = alphas[:, None]
    wl = _group_sums(L * np.exp(-al * np.maximum(period_of_cell - b, 0.0)), starts)
    wr = _group_sums(R * np.exp(-al * np.maximum(a, 0.0)), starts)
    one_minus = -np.expm1(-al * periods)
    return c0 + (2.0 * wl * wr / one_minus).T


def _reflection_period(seg: Segment) -> tuple:
    """Cells and length of seg glued to its reflection: one period of e_infinity."""
    period = juxtapose((seg, seg.reflect()))
    return period.cells, period.length


def e_infinity(seg: Segment, alpha: float) -> float:
    """Energy per unit length of the infinitely periodized segment.

    The segment glued to its reflection is one period of length P.  The
    screened energy of N alternating periods is -N times the periodic
    cross energy of one period up to a term bounded in N, so the density
    is minus that cross energy over P, in closed form for every alpha.
    """
    _check_alpha(alpha)
    cells, P = _reflection_period(seg)
    return float(-_periodic_cross_groups(cells, [0], [P], np.array([float(alpha)]))[0, 0] / P)


@dataclass(frozen=True)
class RPReport:
    alpha: float
    lhs: float
    rhs: float
    slack: float
    ok: bool


@dataclass(frozen=True)
class ChessboardReport:
    alpha: float
    energy: float
    bound: float
    slack: float
    rel_slack: float
    ok: bool


@dataclass(frozen=True)
class MasterReport:
    alphas: tuple
    lhs: tuple
    rhs: tuple
    slack: tuple
    min_slack: float
    integrated_lhs: float
    integrated_rhs: float
    c0_quadratic: float
    ok: bool


def _as_items(side) -> tuple:
    if side is None:
        return ()
    if isinstance(side, SegmentSequence):
        return side.items
    if isinstance(side, Segment):
        return (side,)
    return tuple(side)


def _rp_groups(minus_items: tuple, plus_items: tuple) -> list:
    """Cells of (F-, F+) on its line, then of the symmetrized sequences
    (reflected F+, F+) and (F-, reflected F-) for each nonempty side."""
    len_minus = math.fsum(s.length for s in minus_items)
    len_plus = math.fsum(s.length for s in plus_items)
    groups = [juxtapose(minus_items + plus_items, z_start=-len_minus).cells]
    if plus_items:
        sym_plus = tuple(s.reflect() for s in reversed(plus_items)) + plus_items
        groups.append(juxtapose(sym_plus, z_start=-len_plus).cells)
    if minus_items:
        sym_minus = minus_items + tuple(s.reflect() for s in reversed(minus_items))
        groups.append(juxtapose(sym_minus, z_start=-len_minus).cells)
    return groups


def _rp_values(cases, alphas: np.ndarray) -> tuple:
    """lhs and rhs of reflection positivity per (minus, plus) case, each (C, A).

    The groups of every case go through one _screened_groups call; rhs
    is the mean of the symmetrized energies, 0 for an empty side.
    """
    per_case = [_rp_groups(minus, plus) for minus, plus in cases]
    groups = [g for case in per_case for g in case]
    energies = _screened_groups(np.vstack(groups), _group_starts(groups), alphas)
    counts = np.array([len(case) for case in per_case])
    first = np.cumsum(counts) - counts
    half = 0.5 * energies
    rhs = half[first + 1]
    both = counts == 3
    rhs[both] += half[first[both] + 2]
    return energies[first], rhs


def check_rp_inequality(minus, plus, alpha: float) -> RPReport:
    """Reflection positivity across the origin.

    The energy of (F-, F+) dominates the mean of the energies of the
    two symmetrized sequences (reflected F+, F+) and (F-, reflected F-).
    Either side may be empty, in which case its symmetrized term is 0.
    """
    _check_alpha(alpha)
    minus_items = _as_items(minus)
    plus_items = _as_items(plus)
    if not minus_items and not plus_items:
        raise InvariantError("at least one side must be nonempty")
    lhs, rhs = _rp_values([(minus_items, plus_items)], np.array([float(alpha)]))
    lhs, rhs = float(lhs[0, 0]), float(rhs[0, 0])
    slack = lhs - rhs
    return RPReport(alpha=float(alpha), lhs=lhs, rhs=rhs, slack=slack, ok=slack >= -1e-9)


def _chessboard_values(seqs, alphas: np.ndarray) -> tuple:
    """Energy of each juxtaposed sequence and its periodized bound, each (C, A).

    The bound is the math.fsum of |S_i| e_infinity(S_i) over the
    sequence.  Every sequence goes through one _screened_groups call and
    every segment's reflection period through one _periodic_cross_groups
    call.
    """
    lines = [juxtapose(items).cells for items in seqs]
    lhs = _screened_groups(np.vstack(lines), _group_starts(lines), alphas)
    segs = [seg for items in seqs for seg in items]
    periods = [_reflection_period(seg) for seg in segs]
    cells = [c for c, _ in periods]
    P = np.array([length for _, length in periods])
    cross = _periodic_cross_groups(np.vstack(cells), _group_starts(cells), P, alphas)
    terms = np.array([seg.length for seg in segs])[:, None] * (-cross / P[:, None])
    ends = np.cumsum([len(items) for items in seqs])[:-1]
    rhs = np.array(
        [[math.fsum(col) for col in block.T] for block in np.split(terms, ends)]
    )
    return lhs, rhs


def check_chessboard_bound(seq, alpha: float) -> ChessboardReport:
    """Energy of a juxtaposed sequence vs. its periodized lower bound."""
    items = _as_items(seq)
    if not items:
        raise InvariantError("sequence must be nonempty")
    _check_alpha(alpha)
    lhs, rhs = _chessboard_values([items], np.array([float(alpha)]))
    lhs, rhs = float(lhs[0, 0]), float(rhs[0, 0])
    slack = lhs - rhs
    scale = max(abs(lhs), 1e-12)
    return ChessboardReport(
        alpha=float(alpha),
        energy=lhs,
        bound=rhs,
        slack=slack,
        rel_slack=slack / scale,
        ok=slack >= -1e-6 * scale,
    )


def _profile_cells(profile: SawtoothProfile) -> np.ndarray:
    ys, vs = profile.nodes()
    return np.column_stack([ys[:-1], ys[1:], vs[:-1], vs[1:]])


def _anchor_at_corner(profile: SawtoothProfile) -> SawtoothProfile:
    if profile.corners[0] == 0.0:
        return profile
    return profile.translated(-profile.corners[0])


def _cells_l2(cells: np.ndarray) -> float:
    a, b, va, vb = cells.T
    return float(np.sum((b - a) * (va * va + va * vb + vb * vb) / 3.0))


def _check_alphas(alphas) -> np.ndarray:
    al = np.atleast_1d(np.asarray(alphas, dtype=float))
    if not np.all((al > 0.0) & np.isfinite(al)):
        raise InvariantError("alpha must be positive and finite")
    return al


def _profile_mismatch(profiles, alphas: np.ndarray) -> np.ndarray:
    """screened_mismatch of each corner-anchored profile, shape (C, A)."""
    cells = [_profile_cells(prof) for prof in profiles]
    u2 = np.array([_cells_l2(c) for c in cells])
    periods = [prof.period for prof in profiles]
    cross = _periodic_cross_groups(np.vstack(cells), _group_starts(cells), periods, alphas)
    return 4.0 * u2[:, None] / alphas - 2.0 * cross


def _span_mismatch(va, vb, width, alphas: np.ndarray) -> np.ndarray:
    """Mismatch of each linear span against its reflection extension, (S, A).

    Span s is a 2-cell group of period 2 * width[s]: the span, then its
    mirror image.
    """
    zero = np.zeros_like(width)
    cells = np.stack(
        [np.column_stack([zero, width, va, vb]), np.column_stack([width, 2.0 * width, vb, va])],
        axis=1,
    ).reshape(-1, 4)
    u2 = width * (va * va + va * vb + vb * vb) / 3.0
    cross = _periodic_cross_groups(cells, np.arange(0, cells.shape[0], 2), 2.0 * width, alphas)
    return 4.0 * u2[:, None] / alphas - cross


def _spans(profile: SawtoothProfile) -> tuple:
    """Start values, end values and widths of the spans of an anchored profile."""
    corners = np.asarray(profile.corners)
    gaps = np.diff(np.concatenate([corners, [profile.period + corners[0]]]))
    cv = np.asarray(profile.corner_values())
    return cv, np.roll(cv, -1), gaps


def screened_mismatch(profile: SawtoothProfile, alphas) -> np.ndarray:
    """Mismatch integral of a profile against its periodic extension.

    Equals int_0^h dy int_R dy' |u(y) - u_per(y')|^2 exp(-alpha|y-y'|),
    evaluated as 4/alpha * ||u||^2 - 2 * (periodic cross energy).
    """
    al = _check_alphas(alphas)
    return _profile_mismatch([_anchor_at_corner(profile)], al)[0]


def _master_values(profiles, alphas: np.ndarray) -> tuple:
    """Whole-profile mismatch and its span sum per anchored profile, each (C, A).

    The spans of every profile go through one _periodic_cross_groups
    call; each profile's span mismatches are then added left to right.
    """
    lhs = _profile_mismatch(profiles, alphas)
    spans = [_spans(prof) for prof in profiles]
    va, vb, gaps = (np.concatenate(parts) for parts in zip(*spans))
    bumps = _span_mismatch(va, vb, gaps, alphas)
    counts = np.array([s[2].size for s in spans])
    first = np.cumsum(counts) - counts
    rhs = np.zeros_like(lhs)
    for j in range(int(counts.max())):
        live = counts > j
        rhs[live] += bumps[first[live] + j]
    return lhs, rhs


def _log_simpson(values: np.ndarray, tgrid: np.ndarray) -> float:
    n = tgrid.size
    if n < 3 or n % 2 == 0:
        raise InvariantError("need an odd number of nodes")
    h = (tgrid[-1] - tgrid[0]) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return float(h / 3.0 * np.dot(w, values))


def bump_alpha_energy(va: float, vb: float, width: float, nodes: int = 1025) -> float:
    """alpha-integrated mismatch of a single linear span.

    For slope +-1 this reproduces c0 * width^2: integrating the
    screened mismatch against alpha d(alpha) recovers the 1/d^2 kernel.
    Uses log-grid Simpson plus analytic corrections: the integrand
    tends to a constant a0 at small alpha and decays like
    4*width*slope^2/alpha^2 at large alpha.
    """
    amin, amax = 1e-4 / width, 1e4 / width
    t = np.linspace(math.log(amin), math.log(amax), nodes)
    al = np.exp(t)
    span = (np.array([va], dtype=float), np.array([vb], dtype=float), np.array([width], dtype=float))
    vals = al * al * _span_mismatch(*span, al)[0]
    mean = 0.5 * (va + vb)
    u2 = width * (va * va + va * vb + vb * vb) / 3.0
    a0 = 4.0 * u2 - 4.0 * width * mean * mean
    slope = (vb - va) / width
    return _log_simpson(vals, t) + a0 * amin + 4.0 * width * slope * slope / amax


def profile_alpha_energy(profile: SawtoothProfile, nodes: int = 1025) -> float:
    """alpha-integrated mismatch of a whole profile.

    Recovers the fractional half-norm of the profile by the kernel
    identity, entirely through real-space closed forms.
    """
    h = profile.period
    amin, amax = 1e-4 / h, 1e4 / h
    t = np.linspace(math.log(amin), math.log(amax), nodes)
    al = np.exp(t)
    vals = al * al * screened_mismatch(profile, al)
    prof = _anchor_at_corner(profile)
    cells = _profile_cells(prof)
    u2 = _cells_l2(cells)
    mean = prof.mean()
    a0 = 4.0 * u2 - 4.0 * h * mean * mean
    return _log_simpson(vals, t) + a0 * amin + 4.0 * h / amax


def check_master_inequality(
    profile: SawtoothProfile,
    alphas=(0.1, 1.0, 10.0),
    integrate: bool = True,
    nodes: int = 1025,
) -> MasterReport:
    """Mismatch of the whole profile vs. the sum over its spans.

    For each alpha the whole-profile mismatch must dominate the sum of
    the per-span mismatches taken with reflection extensions; the two
    agree exactly for equispaced profiles, whose reflections reproduce
    the profile.  With integrate=True the alpha-integrated version is
    evaluated too, whose span sum approaches c0 * sum(span^2).
    """
    al = _check_alphas(alphas)
    prof = _anchor_at_corner(profile)
    lhs, rhs = _master_values([prof], al)
    lhs, rhs = lhs[0], rhs[0]
    va, vb, gaps = _spans(prof)
    int_rhs = 0.0
    if integrate:
        for i in range(gaps.size):
            int_rhs += bump_alpha_energy(va[i], vb[i], float(gaps[i]), nodes)
    slack = lhs - rhs
    scale = max(1.0, float(np.max(np.abs(lhs))))
    int_lhs = profile_alpha_energy(prof, nodes) if integrate else float("nan")
    c0_quad = C0 * float(np.sum(gaps * gaps))
    ok = bool(np.min(slack) >= -1e-9 * scale)
    if integrate:
        ok = ok and (int_lhs >= int_rhs - 1e-6 * max(1.0, abs(int_lhs)))
    return MasterReport(
        alphas=tuple(float(x) for x in al),
        lhs=tuple(float(x) for x in lhs),
        rhs=tuple(float(x) for x in rhs),
        slack=tuple(float(x) for x in slack),
        min_slack=float(np.min(slack)),
        integrated_lhs=float(int_lhs),
        integrated_rhs=float(int_rhs) if integrate else float("nan"),
        c0_quadratic=c0_quad,
        ok=ok,
    )


def kernel_identity_check(ds=(0.1, 1.0, 3.0), nodes: int = 2001):
    """Quadrature check of int_0^inf alpha exp(-alpha d) d(alpha) = 1/d^2."""
    out = []
    for d in ds:
        d = float(d)
        amin, amax = 1e-6 / d, 100.0 / d
        t = np.linspace(math.log(amin), math.log(amax), nodes)
        al = np.exp(t)
        est = _log_simpson(al * al * np.exp(-al * d), t)
        est += 0.5 * amin * amin
        xmax = amax * d
        est += math.exp(-xmax) * (1.0 + xmax) / (d * d)
        exact = 1.0 / (d * d)
        out.append(
            {"d": d, "estimate": est, "exact": exact, "rel_error": abs(est - exact) * d * d}
        )
    return out


def random_segment(rng: np.random.Generator, max_pieces: int = 3) -> Segment:
    """Random piecewise-linear segment with O(1) length and values."""
    pieces = int(rng.integers(1, max_pieces + 1))
    length = float(rng.uniform(0.2, 1.5))
    raw = rng.uniform(0.1, 1.0, size=pieces)
    widths = raw / raw.sum() * length
    values = rng.uniform(-1.0, 1.0, size=pieces + 1)
    return Segment(tuple(widths), tuple(values))


def _family_stats(slacks) -> dict:
    arr = np.asarray(slacks, dtype=float)
    return {
        "count": int(arr.size),
        "min_slack": float(arr.min()),
        "mean_slack": float(arr.mean()),
    }


def _blocks(draw, trials: int, size, n_alphas: int):
    """Draw `trials` cases in order and yield them in consecutive blocks.

    A block takes cases while its cells times n_alphas stay within
    _BLOCK_ENTRIES; a single larger case makes a block of its own.  That
    sizes each (cells x alphas) array of the block, not the working set:
    pricing a block holds about 20 such arrays (_cell_tables) at once.
    """
    block, entries = [], 0
    for _ in range(trials):
        case = draw()
        n = size(case) * n_alphas
        if block and entries + n > _BLOCK_ENTRIES:
            yield block
            block, entries = [], 0
        block.append(case)
        entries += n
    yield block


def _pieces(segments) -> int:
    return sum(len(seg.widths) for seg in segments)


def verify_suite(trials: int = 100, seed: int = 0, alphas=(0.1, 1.0, 10.0)) -> dict:
    """Randomized verification of the three inequality families.

    Runs `trials` independent cases per family (reflection positivity,
    chessboard bound, master inequality on sawtooth profiles) at each
    alpha, and reports min/mean slacks suitable for JSON serialization.

    The cases are those of a loop calling check_rp_inequality,
    check_chessboard_bound and check_master_inequality case by case:
    the same draws in the same order, the slacks in (trial, alpha)
    order.  A family's cases are drawn and then priced together, a
    block at a time: all cell groups of a block, at every alpha, go
    through one grouped kernel call (two for the chessboard and master
    families), and a block's cells times alphas stay within
    _BLOCK_ENTRIES.  The budget bounds each array of a block, not the
    working set, which is about 20 arrays of that size: peak RSS is
    bounded in `trials` and plateaus near 85 MB from about 4,000 trials.
    """
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise InvariantError(f"trials: must be a positive integer, got {trials!r}")
    alphas = tuple(float(a) for a in alphas)
    if not alphas or not all(a > 0.0 and math.isfinite(a) for a in alphas):
        raise InvariantError(f"alphas: must be positive and finite, got {alphas!r}")
    rng = np.random.default_rng(seed)
    al = np.array(alphas)

    def segments(lo: int, hi: int) -> tuple:
        return tuple(random_segment(rng) for _ in range(int(rng.integers(lo, hi))))

    # (name, draw one case, its cell count, price a block of cases)
    families = (
        ("rp", lambda: (segments(1, 4), segments(1, 4)),
         lambda case: 3 * _pieces(case[0] + case[1]), _rp_values),
        ("chessboard", lambda: segments(2, 7), lambda seq: 3 * _pieces(seq), _chessboard_values),
        ("master", lambda: _anchor_at_corner(random_profile(rng, 1.0)),
         lambda prof: 3 * len(prof.corners), _master_values),
    )
    report = {"trials": int(trials), "seed": int(seed), "alphas": list(alphas)}
    for name, draw, size, values in families:
        slacks = []
        for block in _blocks(draw, int(trials), size, al.size):
            lhs, rhs = values(block, al)
            slacks.append((lhs - rhs).ravel())
        report[name] = _family_stats(np.concatenate(slacks))
    return report
