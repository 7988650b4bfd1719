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
per-span bound c0 * span^2 that underlies the striped theory: the
alpha-integrated mismatch of a profile is its half-norm h_half_sq, and
that of a linear span from va to vb is c0 (vb - va)^2.

Everything here is piecewise linear, so a screened energy is a finite
sum of closed forms over its cells and cell pairs.  Segments are held as
arrays (_table); cells of segments laid end to end come from cumulative
sums (_lines).
A family's layout gives its groups of cells and a finish that turns
their priced rows into (lhs, rhs).  _evaluate prices the groups of any
number of layouts in one call per kernel, the screened energy and the
periodic cross energy, at every alpha: one case for a public check, a
block of cases of all three families for verify_suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import _BLOCK_ENTRIES, _horner, h_half_sq
from .model_core import InvariantError, SawtoothProfile, random_profile
from .one_dim import C0

__all__ = [
    "Segment",
    "screened_energy",
    "e_infinity",
    "check_rp_inequality",
    "check_chessboard_bound",
    "check_master_inequality",
    "screened_mismatch",
    "random_segment",
    "verify_suite",
    "RPReport",
    "ChessboardReport",
    "MasterReport",
]

_OVERLAP_TOL = 1e-9
# Screening rates the kernels accept: x**3 (x = alpha T), alpha**-4 and
# x**4 stay finite and normal for cell widths 1e-16 <= T <= 1e42.  They
# overflow to NaN past alpha T ~ 5e102 and below alpha ~ 1e-77.
ALPHA_RANGE = (1e-60, 1e60)
_MAX_PIECES = 3  # most pieces of a random segment

# Power series for the two entire functions behind the cell integrals:
#   f2(x) = x - 1 + exp(-x)          = sum_{n>=2} (-x)^n / n! * (-1)^n ...
#   f4(x) = 1 - exp(-x)(1+x) - x^2/2 + x^3/3
# both suffer catastrophic cancellation for small x, so below x = 1/2
# they are evaluated from their Taylor coefficients instead.
_TERMS = 19
_P2_DESC = np.array([(-1.0) ** m / math.factorial(m + 2) for m in range(_TERMS)][::-1])
_P4_DESC = np.array([(-1.0) ** m * (m + 3) / math.factorial(m + 4) for m in range(_TERMS)][::-1])


@dataclass(frozen=True)
class Segment:
    """Piecewise-linear function on [0, T].

    Stored as piece widths plus node values so that reflection is an
    exact involution (it just reverses both tuples).
    """

    widths: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(float(w) for w in self.widths))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        widths, values = np.asarray(self.widths), np.asarray(self.values)
        if not widths.size:
            raise InvariantError("segment needs at least one piece")
        if values.size != widths.size + 1:
            raise InvariantError("need one value per breakpoint")
        if not np.all(np.isfinite(widths)) or np.any(widths <= 0.0):
            raise InvariantError("piece widths must be positive and finite")
        if not np.all(np.isfinite(values)):
            raise InvariantError("values must be finite")

    @property
    def length(self) -> float:
        return math.fsum(self.widths)

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

    def cells(self) -> np.ndarray:
        """(n, 4) array of (a, b, va, vb) pieces on [0, T]."""
        return _juxtapose((self,), 0.0)


def _pairs(segments) -> list:
    """(widths, values) of each Segment: None, one Segment or several."""
    if segments is None:
        return []
    items = (segments,) if isinstance(segments, Segment) else tuple(segments)
    if not all(isinstance(seg, Segment) for seg in items):
        raise InvariantError("sequence items must be Segments")
    return [(seg.widths, seg.values) for seg in items]


def _table(pairs) -> tuple:
    """S (widths, values) pairs as zero-padded widths (2S, K) and values
    (2S, K + 1), piece counts and math.fsum lengths; row S + i holds the
    reflection of segment i, which reverses both."""
    S, size = len(pairs), max(len(w) for w, _ in pairs)
    widths, values = np.zeros((2 * S, size)), np.zeros((2 * S, size + 1))
    for i, (w, v) in enumerate(pairs):
        widths[i, : len(w)], widths[S + i, : len(w)] = w, w[::-1]
        values[i, : len(v)], values[S + i, : len(v)] = v, v[::-1]
    counts, lengths = [len(w) for w, _ in pairs], [math.fsum(w) for w, _ in pairs]
    return widths, values, np.tile(counts, 2), np.tile(lengths, 2)


def _lines(table, rows, per_line, z_starts) -> tuple:
    """Cells of lines of segments laid end to end, and the row each line starts at.

    Line g lays out the next per_line[g] table rows from z_starts[g].  A
    segment starts at z_start plus the running sum of the fsum lengths
    before it, and its breakpoints add the cumulative sum of its widths.
    """
    widths, values, counts, lengths = table
    rows, per_line = np.asarray(rows, dtype=np.intp), np.asarray(per_line, dtype=np.intp)
    line = np.repeat(np.arange(per_line.size), per_line)
    pos = np.arange(rows.size) - np.repeat(np.cumsum(per_line) - per_line, per_line)
    z = np.zeros((per_line.size, int(per_line.max()) + 1))
    z[:, 0] = z_starts
    z[line, pos + 1] = lengths[rows]
    z = np.cumsum(z, axis=1)[line, pos]
    bp = np.concatenate((np.zeros((rows.size, 1)), np.cumsum(widths[rows], axis=1)), axis=1)
    bp += z[:, None]
    v = values[rows]
    live = np.arange(widths.shape[1]) < counts[rows][:, None]
    cells = np.stack((bp[:, :-1], bp[:, 1:], v[:, :-1], v[:, 1:]), axis=-1)[live]
    sizes = np.bincount(line, weights=counts[rows]).astype(np.intp)
    return cells, np.cumsum(sizes) - sizes


def _juxtapose(segments, z_start: float) -> np.ndarray:
    """Cells of Segments laid end to end from z_start; no continuity across joins."""
    pairs = _pairs(segments)
    return _lines(_table(pairs), np.arange(len(pairs)), [len(pairs)], [z_start])[0]


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
    f2 = x - E1
    ttail = E1 - x * ex
    f4 = ttail - 0.5 * x * x + x**3 / 3.0
    small = x < 0.5
    xs = x[small]
    f2[small] = xs * xs * _horner(_P2_DESC, xs)
    f4[small] = xs**4 * _horner(_P4_DESC, xs)
    ttail[small] = 0.5 * xs * xs - xs**3 / 3.0 + f4[small]
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
    heads = starts + np.arange(starts.size)  # the zero columns, as np.insert places them
    keep = np.ones(values.shape[1] + starts.size, dtype=bool)
    keep[heads] = False
    padded = np.zeros((values.shape[0], keep.size))
    padded[:, keep] = values
    return np.add.reduceat(padded, heads, axis=1)


def _screened_groups(cells: np.ndarray, starts, alphas: np.ndarray, tables=None) -> np.ndarray:
    """Screened energies of many cell collections at once, shape (G, A).

    Group g holds the rows starts[g] up to starts[g + 1] of cells, in any
    order.  tables, if given, are _cell_tables(cells, alphas).  A group's
    energy is -(sum of its I + 2 * sum over its cell pairs of the left
    cell's L times the right cell's R times exp(-alpha * gap)), each sum
    one _group_sums call, so the largest array is (alphas x pairs).
    """
    starts = np.asarray(starts, dtype=np.intp)
    n = cells.shape[0]
    sizes = np.diff(starts, append=n)
    after = np.repeat(starts + sizes, sizes) - np.arange(n) - 1  # rows after each row in its group
    # each pair of a group once: first runs over the rows, second over the rows after it
    first = np.repeat(np.arange(n), after)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(after) - after, after)
    a, b = cells[:, 0], cells[:, 1]
    swap = a[second] < a[first]
    left, right = np.where(swap, second, first), np.where(swap, first, second)
    gap = a[right] - b[left]
    if not np.all(gap >= -_OVERLAP_TOL):
        raise InvariantError("cells must not overlap")
    L, R, diag = _cell_tables(cells, alphas) if tables is None else tables
    cross = L[:, left] * R[:, right] * np.exp(-alphas[:, None] * np.maximum(gap, 0.0))
    pairs = sizes * (sizes - 1) // 2
    return -(_group_sums(diag, starts) + 2.0 * _group_sums(cross, np.cumsum(pairs) - pairs)).T


def _check_alphas(alphas) -> np.ndarray:
    """alphas as a nonempty float array, each inside ALPHA_RANGE."""
    al = np.atleast_1d(np.asarray(alphas, dtype=float))
    lo, hi = ALPHA_RANGE
    if not al.size or not np.all((al >= lo) & (al <= hi)):
        raise InvariantError(f"alphas: must lie in [{lo!r}, {hi!r}], got {al.tolist()!r}")
    return al


def screened_energy(w, alpha: float) -> float:
    """E_alpha(w) = -int int w w' exp(-alpha |y-y'|) over w's support.

    w is a Segment or an (n, 4) array of non-overlapping (a, b, va, vb)
    cells in any order.
    """
    al = _check_alphas(alpha)
    cells = w.cells() if isinstance(w, Segment) else np.asarray(w, dtype=float)
    bad = cells.ndim != 2 or cells.shape[1] != 4 or not len(cells)
    if bad or not np.all(np.isfinite(cells)) or np.any(cells[:, 1] <= cells[:, 0]):
        raise InvariantError("cells must be a nonempty (n, 4) finite array of positive width")
    return float(_screened_groups(cells, [0], al)[0, 0])


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


def _evaluate(layouts, alphas: np.ndarray) -> list:
    """finish(priced, alphas) of each (parts, finish) layout, one call per grouped kernel.

    A part is (cells, starts) for screened or (cells, starts, periods) for
    periodic cross energies, priced as (groups, A) rows.  Both kernels
    price each group on its own, so stacking parts changes no bit."""
    parts, priced = [part for layout, _ in layouts for part in layout], {}
    for size, kernel in ((2, _screened_groups), (3, _periodic_cross_groups)):
        picked = [i for i, part in enumerate(parts) if len(part) == size]
        if picked:
            cells, starts, *periods = zip(*(parts[i] for i in picked))
            starts = [s + at for s, at in zip(starts, _group_starts(cells))]
            out = kernel(np.vstack(cells), np.hstack(starts), *map(np.hstack, periods), alphas)
            priced.update(zip(picked, np.split(out, np.cumsum([len(s) for s in starts])[:-1])))
    rows = (priced[i] for i in range(len(parts)))
    return [finish([next(rows) for _ in layout], alphas) for layout, finish in layouts]


def _period_cross(table) -> tuple:
    """Periodic part of each segment glued to its reflection, one period of e_infinity."""
    S = table[2].size // 2
    rows = np.column_stack([np.arange(S), np.arange(S, 2 * S)]).ravel()
    cells, starts = _lines(table, rows, np.full(S, 2), np.zeros(S))
    return cells, starts, _group_sums((cells[:, 1] - cells[:, 0])[None, :], starts)[0]


def e_infinity(seg: Segment, alpha: float) -> float:
    """Energy per unit length of the infinitely periodized segment.

    The segment glued to its reflection is one period of length P.  The
    screened energy of N alternating periods is -N times the periodic
    cross energy of one period up to a term bounded in N, so the density
    is minus that cross energy over P, in closed form for every alpha.
    """
    if not isinstance(seg, Segment):
        raise InvariantError("e_infinity takes one Segment")
    part = _period_cross(_table(_pairs(seg)))
    (cross,) = _evaluate([([part], lambda priced, al: priced[0])], _check_alphas(alpha))
    return float(-cross[0, 0] / part[2][0])


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


def _rp_layout(cases) -> tuple:
    """Parts and finish of reflection positivity per (minus, plus) case.

    Sides are lists of (widths, values).  A case's lines are (F-, F+) from
    -|F-|, then (reflected F+, F+) from -|F+| and (F-, reflected F-) from
    -|F-| for each nonempty side.  finish gives lhs and rhs, each (C, A),
    rhs the mean of the symmetrized energies, 0 for an empty side."""
    table = _table([seg for minus, plus in cases for seg in minus + plus])
    S, lengths = table[2].size // 2, table[3]
    lines, counts, i = [], [], 0
    for minus, plus in cases:
        j = i + len(minus)
        m, p, i = list(range(i, j)), list(range(j, j + len(plus))), j + len(plus)
        len_minus, len_plus = math.fsum(lengths[m]), math.fsum(lengths[p])
        case = [(m + p, -len_minus)]
        if p:
            case.append(([S + r for r in reversed(p)] + p, -len_plus))
        if m:
            case.append((m + [S + r for r in reversed(m)], -len_minus))
        lines += case
        counts.append(len(case))
    rows = [r for segs, _ in lines for r in segs]
    cells, starts = _lines(table, rows, [len(segs) for segs, _ in lines], [z for _, z in lines])
    counts = np.array(counts)
    first, both = np.cumsum(counts) - counts, counts == 3

    def finish(priced, alphas):
        half = 0.5 * priced[0]
        rhs = half[first + 1]
        rhs[both] += half[first[both] + 2]
        return priced[0][first], rhs
    return [(cells, starts)], finish


def check_rp_inequality(minus, plus, alpha: float) -> RPReport:
    """Reflection positivity across the origin.

    The energy of (F-, F+) dominates the mean of the energies of the
    two symmetrized sequences (reflected F+, F+) and (F-, reflected F-).
    Each side is None, a Segment or a sequence of Segments; either may
    be empty, in which case its symmetrized term is 0.
    """
    al = _check_alphas(alpha)
    minus, plus = _pairs(minus), _pairs(plus)
    if not minus and not plus:
        raise InvariantError("at least one side must be nonempty")
    lhs, rhs = (float(x[0, 0]) for x in _evaluate([_rp_layout([(minus, plus)])], al)[0])
    slack = lhs - rhs
    return RPReport(alpha=float(alpha), lhs=lhs, rhs=rhs, slack=slack, ok=slack >= -1e-9)


def _chessboard_layout(seqs) -> tuple:
    """Parts and finish of the chessboard bound per sequence of (widths, values).

    finish gives its energy laid out from 0 and its periodized bound, the
    math.fsum of |S_i| e_infinity(S_i), each (C, A).
    """
    table = _table([seg for seq in seqs for seg in seq])
    per_seq = [len(seq) for seq in seqs]
    cells, starts = _lines(table, np.arange(sum(per_seq)), per_seq, np.zeros(len(seqs)))
    periods = _period_cross(table)

    def finish(priced, alphas):
        terms = table[3][: sum(per_seq), None] * (-priced[1] / periods[2][:, None])
        split = np.split(terms, np.cumsum(per_seq)[:-1])
        return priced[0], np.array([[math.fsum(col) for col in block.T] for block in split])
    return [(cells, starts), periods], finish


def check_chessboard_bound(seq, alpha: float) -> ChessboardReport:
    """Energy of a sequence of Segments laid end to end vs. its periodized lower bound."""
    pairs = _pairs(seq)
    if not pairs:
        raise InvariantError("sequence must be nonempty")
    al = _check_alphas(alpha)
    lhs, rhs = (float(x[0, 0]) for x in _evaluate([_chessboard_layout([pairs])], al)[0])
    slack = lhs - rhs
    scale = max(abs(lhs), 1e-12)
    return ChessboardReport(
        alpha=float(alpha), energy=lhs, bound=rhs, slack=slack, rel_slack=slack / scale,
        ok=slack >= -1e-6 * scale,
    )


def _profile_mismatch(profiles) -> tuple:
    """Parts and finish of screened_mismatch per profile, (C, A)."""
    nodes = (prof.nodes() for prof in profiles)
    blocks = [np.column_stack([y[:-1], y[1:], v[:-1], v[1:]]) for y, v in nodes]
    cells, starts = np.vstack(blocks), _group_starts(blocks)
    a, b, va, vb = cells.T
    u2 = _group_sums(((b - a) * (va * va + va * vb + vb * vb) / 3.0)[None, :], starts)[0]
    part = (cells, starts, [prof.period for prof in profiles])
    return [part], lambda priced, alphas: 4.0 * u2[:, None] / alphas - 2.0 * priced[0]


def _span_mismatch(va, vb, width) -> tuple:
    """Parts and finish of the mismatch of each linear span against its reflection extension."""
    both = np.concatenate([width, width])
    values = np.column_stack([np.concatenate([va, vb]), np.concatenate([vb, va])])
    part = _period_cross((both[:, None], values, np.ones(both.size, np.intp), both))
    u2 = width * (va * va + va * vb + vb * vb) / 3.0
    return [part], lambda priced, alphas: 4.0 * u2[:, None] / alphas - priced[0]


def _spans(profile: SawtoothProfile) -> tuple:
    """Start values, end values and widths of a profile's spans, cyclic from its first corner."""
    cv = profile.corner_values()
    return cv, np.roll(cv, -1), profile._gaps()


def screened_mismatch(profile: SawtoothProfile, alphas) -> np.ndarray:
    """Mismatch integral of a profile against its periodic extension.

    Equals int_0^h dy int_R dy' |u(y) - u_per(y')|^2 exp(-alpha|y-y'|),
    evaluated as 4/alpha * ||u||^2 - 2 * (periodic cross energy).
    """
    return _evaluate([_profile_mismatch([profile])], _check_alphas(alphas))[0][0]


def _master_layout(profiles) -> tuple:
    """Parts and finish of the master inequality per profile: the
    whole-profile mismatch and its span mismatches added left to right, each (C, A)."""
    whole, whole_finish = _profile_mismatch(profiles)
    spans = [_spans(prof) for prof in profiles]
    bump_parts, bump_finish = _span_mismatch(*(np.concatenate(parts) for parts in zip(*spans)))
    counts = np.array([s[2].size for s in spans])
    first = np.cumsum(counts) - counts

    def finish(priced, alphas):
        lhs, bumps = whole_finish(priced[:1], alphas), bump_finish(priced[1:], alphas)
        rhs = np.zeros_like(lhs)
        for j in range(int(counts.max())):
            live = counts > j
            rhs[live] += bumps[first[live] + j]
        return lhs, rhs
    return whole + bump_parts, finish


def check_master_inequality(profile: SawtoothProfile, alphas=(0.1, 1.0, 10.0)) -> MasterReport:
    """Mismatch of the whole profile vs. the sum over its spans.

    For each alpha the whole-profile mismatch must dominate the sum of
    the per-span mismatches taken with reflection extensions; the two
    agree exactly for equispaced profiles, whose reflections reproduce
    the profile.  The alpha-integrated version is reported too.  By the
    kernel identity it is in closed form: the whole-profile side is
    h_half_sq(profile) and a span from va to vb gives c0 (vb - va)^2, so
    it reads h_half_sq >= c0 sum (vb - va)^2, the striped lower bound of
    one_dim.lower_bound_decomposition.
    """
    al = _check_alphas(alphas)
    lhs, rhs = (x[0] for x in _evaluate([_master_layout([profile])], al)[0])
    va, vb, gaps = _spans(profile)
    slack = lhs - rhs
    scale = max(1.0, float(np.max(np.abs(lhs))))
    int_lhs, int_rhs = h_half_sq(profile), C0 * float(np.sum((vb - va) ** 2))
    ok = bool(np.min(slack) >= -1e-9 * scale) and int_lhs >= int_rhs - 1e-9 * max(1.0, abs(int_lhs))
    return MasterReport(
        alphas=tuple(map(float, al)), lhs=tuple(map(float, lhs)), rhs=tuple(map(float, rhs)),
        slack=tuple(map(float, slack)), min_slack=float(np.min(slack)), integrated_lhs=int_lhs,
        integrated_rhs=int_rhs, c0_quadratic=C0 * float(np.sum(gaps * gaps)), ok=ok,
    )


def _draw_segment(rng: np.random.Generator) -> tuple:
    """Widths and values of a random segment with O(1) length and values."""
    pieces = int(rng.integers(1, _MAX_PIECES + 1))
    length = float(rng.uniform(0.2, 1.5))
    raw = rng.uniform(0.1, 1.0, size=pieces)
    return raw / raw.sum() * length, rng.uniform(-1.0, 1.0, size=pieces + 1)


def random_segment(rng: np.random.Generator) -> Segment:
    """Random piecewise-linear segment with O(1) length and values."""
    return Segment(*_draw_segment(rng))


def verify_suite(trials: int = 100, seed: int = 0, alphas=(0.1, 1.0, 10.0)) -> dict:
    """Randomized verification of the three inequality families.

    Runs `trials` independent cases per family (reflection positivity,
    chessboard bound, master inequality on sawtooth profiles) at each
    alpha, and reports min/mean slacks suitable for JSON serialization.

    The cases and slacks are those of check_rp_inequality,
    check_chessboard_bound and check_master_inequality called case by
    case and alpha by alpha.  The cases, drawn family by family, are
    priced in blocks that span families, one call per grouped kernel per
    block (_evaluate).  A case of at most n cells has fewer than n**2 / 2
    cell pairs, so each (alphas x pairs) array of a block stays within
    _BLOCK_ENTRIES unless one case exceeds it, and peak RSS is bounded in
    `trials`: about 42 MB at 1,000 trials, 42 MB at 4,000, 43 MB at 40,000.
    """
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise InvariantError(f"trials: must be a positive integer, got {trials!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvariantError(f"seed: must be a nonnegative integer, got {seed!r}")
    al = _check_alphas(alphas)
    rng = np.random.default_rng(seed)

    def segments(lo: int, hi: int) -> list:
        return [_draw_segment(rng) for _ in range(int(rng.integers(lo, hi)))]

    def pieces(segs: list) -> int:
        return 3 * sum(len(w) for w, _ in segs)

    # (name, draw one case, a bound on its cells, lay out a block of cases)
    families = (
        ("rp", lambda: (segments(1, 4), segments(1, 4)),
         lambda case: pieces(case[0] + case[1]), _rp_layout),
        ("chessboard", lambda: segments(2, 7), pieces, _chessboard_layout),
        ("master", lambda: random_profile(rng, 1.0),
         lambda prof: 3 * len(prof.corners), _master_layout),
    )
    slacks, block, entries = [[] for _ in families], [[] for _ in families], 0

    def price(block):
        found = [f for f, cases in enumerate(block) if cases]
        for f, (lhs, rhs) in zip(found, _evaluate([families[f][3](block[f]) for f in found], al)):
            slacks[f].append((lhs - rhs).ravel())

    for f, (_, draw, size, _) in enumerate(families):
        for _ in range(trials):
            case = draw()
            n = size(case) ** 2 // 2 * al.size
            if entries and entries + n > _BLOCK_ENTRIES:
                price(block)
                block, entries = [[] for _ in families], 0
            block[f].append(case)
            entries += n
    price(block)
    report = {"trials": int(trials), "seed": int(seed), "alphas": al.tolist()}
    for (name, *_), parts in zip(families, slacks):
        arr = np.concatenate(parts)
        report[name] = {
            "count": int(arr.size), "min_slack": float(arr.min()), "mean_slack": float(arr.mean())
        }
    return report
