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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model_core import InvariantError, SawtoothProfile
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


def _screened_many(cells: np.ndarray, alphas: np.ndarray, tables=None) -> np.ndarray:
    """Screened energies (one per alpha) of a cell collection; tables, if
    given, are _cell_tables(cells, alphas) with the cells in given order."""
    order = np.argsort(cells[:, 0], kind="stable")
    cells = cells[order]
    a, b = cells[:, 0], cells[:, 1]
    if np.any(a[1:] - b[:-1] < -_OVERLAP_TOL):
        raise InvariantError("cells must not overlap")
    if tables is None:
        L, R, diag = _cell_tables(cells, alphas)
    else:
        L, R, diag = (t[:, order] for t in tables)
    total = diag.sum(axis=1)
    cross = np.zeros_like(alphas)
    carry = np.zeros_like(alphas)
    for j in range(1, cells.shape[0]):
        step_a = max(a[j] - a[j - 1], 0.0)
        step_b = max(a[j] - b[j - 1], 0.0)
        carry = carry * np.exp(-alphas * step_a) + L[:, j - 1] * np.exp(-alphas * step_b)
        cross += carry * R[:, j]
    return -(total + 2.0 * cross)


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
    return float(_screened_many(cells, np.array([float(alpha)]))[0])


def _periodic_cross_many(cells: np.ndarray, period: float, alphas: np.ndarray) -> np.ndarray:
    """int_period dy int_R dy' phi(y) phi(y') exp(-alpha|y-y'|).

    cells describe one period on [0, period]; phi is its periodic
    extension.  The pair of image periods at block distance d >= 1 sits
    gap (d-1)*period apart, so the cross terms resum geometrically to
    2 * Wl * Wr / (1 - rho) with rho = exp(-alpha*period).
    """
    a, b = cells[:, 0], cells[:, 1]
    if a.min() < -_OVERLAP_TOL or b.max() > period + _OVERLAP_TOL:
        raise InvariantError("cells must lie inside one period")
    tables = _cell_tables(cells, alphas)
    c0 = -_screened_many(cells, alphas, tables)
    L, R, _ = tables
    wl = np.sum(L * np.exp(-np.outer(alphas, np.maximum(period - b, 0.0))), axis=1)
    wr = np.sum(R * np.exp(-np.outer(alphas, np.maximum(a, 0.0))), axis=1)
    one_minus = -np.expm1(-alphas * period)
    return c0 + 2.0 * wl * wr / one_minus


def e_infinity(seg: Segment, alpha: float) -> float:
    """Energy per unit length of the infinitely periodized segment.

    The segment glued to its reflection is one period of length P.  The
    screened energy of N alternating periods is -N times the periodic
    cross energy of one period up to a term bounded in N, so the density
    is minus that cross energy over P, in closed form for every alpha.
    """
    _check_alpha(alpha)
    period = juxtapose((seg, seg.reflect()))
    P = period.length
    return float(-_periodic_cross_many(period.cells, P, np.array([float(alpha)]))[0] / P)


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
    len_minus = math.fsum(s.length for s in minus_items)
    len_plus = math.fsum(s.length for s in plus_items)
    lhs = screened_energy(juxtapose(minus_items + plus_items, z_start=-len_minus), alpha)
    rhs = 0.0
    if plus_items:
        sym_plus = tuple(s.reflect() for s in reversed(plus_items)) + plus_items
        rhs += 0.5 * screened_energy(juxtapose(sym_plus, z_start=-len_plus), alpha)
    if minus_items:
        sym_minus = minus_items + tuple(s.reflect() for s in reversed(minus_items))
        rhs += 0.5 * screened_energy(juxtapose(sym_minus, z_start=-len_minus), alpha)
    slack = lhs - rhs
    return RPReport(alpha=float(alpha), lhs=lhs, rhs=rhs, slack=slack, ok=slack >= -1e-9)


def check_chessboard_bound(seq, alpha: float) -> ChessboardReport:
    """Energy of a juxtaposed sequence vs. its periodized lower bound."""
    items = _as_items(seq)
    if not items:
        raise InvariantError("sequence must be nonempty")
    lhs = screened_energy(juxtapose(items), alpha)
    rhs = math.fsum(seg.length * e_infinity(seg, alpha) for seg in items)
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


def screened_mismatch(profile: SawtoothProfile, alphas) -> np.ndarray:
    """Mismatch integral of a profile against its periodic extension.

    Equals int_0^h dy int_R dy' |u(y) - u_per(y')|^2 exp(-alpha|y-y'|),
    evaluated as 4/alpha * ||u||^2 - 2 * (periodic cross energy).
    """
    al = np.atleast_1d(np.asarray(alphas, dtype=float))
    if not np.all((al > 0.0) & np.isfinite(al)):
        raise InvariantError("alpha must be positive and finite")
    prof = _anchor_at_corner(profile)
    cells = _profile_cells(prof)
    u2 = _cells_l2(cells)
    cross = _periodic_cross_many(cells, prof.period, al)
    return 4.0 * u2 / al - 2.0 * cross


def _bump_mismatch(va: float, vb: float, width: float, alphas: np.ndarray) -> np.ndarray:
    """Same mismatch for one linear span against its reflection extension."""
    cells = np.array([[0.0, width, va, vb], [width, 2.0 * width, vb, va]])
    u2 = width * (va * va + va * vb + vb * vb) / 3.0
    cross = _periodic_cross_many(cells, 2.0 * width, alphas)
    return 4.0 * u2 / alphas - cross


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
    vals = al * al * _bump_mismatch(va, vb, width, al)
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
    al = np.atleast_1d(np.asarray(alphas, dtype=float))
    prof = _anchor_at_corner(profile)
    lhs = screened_mismatch(prof, al)
    corners = np.asarray(prof.corners)
    gaps = np.diff(np.concatenate([corners, [prof.period + corners[0]]]))
    cv = prof.corner_values()
    rhs = np.zeros_like(al)
    int_rhs = 0.0
    m = corners.size
    for i in range(m):
        va = cv[i]
        vb = cv[(i + 1) % m]
        rhs += _bump_mismatch(va, vb, float(gaps[i]), al)
        if integrate:
            int_rhs += bump_alpha_energy(va, vb, float(gaps[i]), nodes)
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


def verify_suite(trials: int = 100, seed: int = 0, alphas=(0.1, 1.0, 10.0)) -> dict:
    """Randomized verification of the three inequality families.

    Runs `trials` independent cases per family (reflection positivity,
    chessboard bound, master inequality on sawtooth profiles) at each
    alpha, and reports min/mean slacks suitable for JSON serialization.
    """
    from .model_core import random_profile

    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise InvariantError(f"trials: must be a positive integer, got {trials!r}")
    alphas = tuple(float(a) for a in alphas)
    if not alphas or not all(a > 0.0 and math.isfinite(a) for a in alphas):
        raise InvariantError(f"alphas: must be positive and finite, got {alphas!r}")
    rng = np.random.default_rng(seed)
    rp_slacks, cb_slacks, master_slacks = [], [], []
    for _ in range(trials):
        minus = tuple(random_segment(rng) for _ in range(int(rng.integers(1, 4))))
        plus = tuple(random_segment(rng) for _ in range(int(rng.integers(1, 4))))
        for alpha in alphas:
            rp_slacks.append(check_rp_inequality(minus, plus, alpha).slack)
    for _ in range(trials):
        seq = tuple(random_segment(rng) for _ in range(int(rng.integers(2, 7))))
        for alpha in alphas:
            cb_slacks.append(check_chessboard_bound(seq, alpha).slack)
    for _ in range(trials):
        prof = random_profile(rng, 1.0)
        rep = check_master_inequality(prof, alphas=alphas, integrate=False)
        master_slacks.extend(rep.slack)
    return {
        "trials": int(trials),
        "seed": int(seed),
        "alphas": [float(a) for a in alphas],
        "rp": _family_stats(rp_slacks),
        "chessboard": _family_stats(cb_slacks),
        "master": _family_stats(master_slacks),
    }
