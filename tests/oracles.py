"""Independent oracles used to pin expected values in the test suite.

Everything here deliberately avoids the package's own fast paths:
plain dense quadrature, high-precision special functions, and brute
force enumeration.  Tests compare the library against these.
"""

import json
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from twinstripe import chessboard as cb
from twinstripe import energy
from twinstripe import localization as loc
from twinstripe.chessboard import (
    check_chessboard_bound,
    check_master_inequality,
    check_rp_inequality,
    random_segment,
)
from twinstripe.energy import DEFAULT_CUTOFF
from twinstripe.model_core import (
    Configuration,
    EnergyBreakdown,
    InvariantError,
    ModelParams,
    NonConvergenceError,
    SawtoothProfile,
    fourier_coefficients,
    random_profile,
)
from twinstripe.one_dim import C0, CS, optimal_even_m


def fourier_coefficient(profile, k: int) -> complex:
    """Coefficient (1/h) * integral of u(y) exp(-2 pi i k y / h) dy.

    The mean for k = 0, else the corner-mass closed form of
    model_core.fourier_coefficients at the one mode k.
    """
    if k == 0:
        return complex(profile.mean())
    return complex(fourier_coefficients(profile, np.asarray([k]))[0])


def quad_fourier_coefficient(profile, k: int, nodes: int = 10**6) -> complex:
    """Midpoint-rule coefficient (1/h) int u(y) e^{-2 pi i k y/h} dy."""
    h = profile.period
    y = (np.arange(nodes) + 0.5) * (h / nodes)
    u = np.asarray(profile.evaluate(y))
    return complex(np.mean(u * np.exp(-2j * np.pi * k * y / h)))


def quad_l2_distance(p, q, nodes: int = 10**6, window=None) -> float:
    """Midpoint-rule L2 distance between two profiles."""
    h = p.period
    if window is None:
        window = (0.0, h)
    a, b = window
    y = a + (np.arange(nodes) + 0.5) * ((b - a) / nodes)
    d = np.asarray(p.evaluate(y)) - np.asarray(q.evaluate(y))
    return float(np.sqrt(np.sum(d * d) * (b - a) / nodes))


def quad_mean_square(p, nodes: int = 10**6) -> float:
    h = p.period
    y = (np.arange(nodes) + 0.5) * (h / nodes)
    u = np.asarray(p.evaluate(y))
    return float(np.mean(u * u))


def h_half_inner_closed_form(f, g, dps: int = 30) -> float:
    """Half-norm inner product 4 pi^2 sum_k |k| Re(conj(fhat) ghat) in closed form.

    For a unit-slope sawtooth the curvature is a sum of point masses
    2 s_j delta(y - c_j), which turns the mode sum into a finite
    combination of trilogarithm values on the unit circle:

        (f, g) = (h^2 / (2 pi^2)) sum_{j,l} (2 s_j)(2 s'_l)
                  Re Li_3(exp(2 pi i (c_j - c'_l)/h))

    evaluated with mpmath at high precision.  Shares nothing with the
    package's float kernels.
    """
    with mp.workdps(dps):
        h = mp.mpf(f.period)

        def masses(p):
            return [
                (mp.mpf(c), mp.mpf(2 * int(s)))
                for c, s in zip(p.corners, p.slope_after_corners())
            ]

        total = mp.mpf(0)
        for cj, dj in masses(f):
            for cl, dl in masses(g):
                z = mp.exp(2j * mp.pi * (cj - cl) / h)
                total += dj * dl * mp.re(mp.polylog(3, z))
        return float(h**2 / (2 * mp.pi**2) * total)


def h_half_sq_closed_form(profile, dps: int = 30) -> float:
    """Half-norm squared: the closed-form inner product of a profile with itself."""
    return h_half_inner_closed_form(profile, profile, dps)


def zeta3() -> float:
    with mp.workdps(30):
        return float(mp.zeta(3))


C0_EXACT = float(14 * mp.zeta(3) / mp.pi**2)  # cell constant 14 zeta(3)/pi^2


def brute_force_even_m(beta, epsilon, L, h, c0, m_max=1000):
    """Exhaustive minimizer of beta c0 h^2 / M + epsilon L M over even M."""
    ms = np.arange(2, m_max + 1, 2)
    vals = beta * c0 * h * h / ms + epsilon * L * ms
    best = vals.min()
    winners = ms[vals <= best * (1 + 1e-12)]
    return list(int(m) for m in winners), float(best)


def quad_screened_energy(cells, alpha: float, nodes_per_cell: int = 400) -> float:
    """Dense Gauss-Legendre evaluation of -int int w w' e^{-alpha|y-y'|}.

    cells: list of (a, b, va, vb) linear pieces.  Slow and simple.
    """
    xs, ws, vals = [], [], []
    gx, gw = np.polynomial.legendre.leggauss(nodes_per_cell)
    for (a, b, va, vb) in cells:
        half = (b - a) / 2.0
        mid = (a + b) / 2.0
        x = mid + half * gx
        t = (x - a) / (b - a)
        xs.append(x)
        ws.append(half * gw)
        vals.append(va + (vb - va) * t)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    v = np.concatenate(vals)
    ker = np.exp(-alpha * np.abs(x[:, None] - x[None, :]))
    vw = v * w
    return float(-(vw @ ker @ vw))


# -- alpha quadrature of the screened kernel ----------------------------------------
# The kernel identity 1/d^2 = int_0^inf alpha exp(-alpha d) d(alpha) makes the
# alpha-integrated screened mismatch a half-norm.  These integrate it by
# Simpson's rule in log alpha, apart from the closed forms the package uses.


def _log_simpson(values: np.ndarray, tgrid: np.ndarray) -> float:
    n = tgrid.size
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of nodes")
    h = (tgrid[-1] - tgrid[0]) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return float(h / 3.0 * np.dot(w, values))


def alpha_integral(mismatch, width: float, a0: float, tail: float, nodes: int = 1025) -> float:
    """int_0^inf alpha * mismatch(alpha) d(alpha) for a pattern of the given width.

    Simpson's rule in log alpha over [1e-4, 1e4] / width, plus both tails
    in closed form: the integrand tends to a0 at small alpha and decays
    like tail / alpha^2 at large alpha.
    """
    amin, amax = 1e-4 / width, 1e4 / width
    t = np.linspace(math.log(amin), math.log(amax), nodes)
    al = np.exp(t)
    return _log_simpson(al * al * mismatch(al), t) + a0 * amin + tail / amax


def bump_alpha_energy(va: float, vb: float, width: float, nodes: int = 1025) -> float:
    """alpha-integrated mismatch of one linear span; c0 (vb - va)^2 in closed form."""
    span = [np.array([x], dtype=float) for x in (va, vb, width)]
    u2 = width * (va * va + va * vb + vb * vb) / 3.0
    mean = 0.5 * (va + vb)
    slope = (vb - va) / width
    return alpha_integral(
        lambda al: cb._evaluate([cb._span_mismatch(*span)], al)[0][0],
        width,
        4.0 * u2 - 4.0 * width * mean * mean,
        4.0 * width * slope * slope,
        nodes,
    )


def profile_alpha_energy(profile, nodes: int = 1025) -> float:
    """alpha-integrated mismatch of a whole profile; h_half_sq in closed form."""
    h = profile.period
    ys, vs = profile.nodes()
    u2 = float(np.sum(np.diff(ys) * (vs[:-1] ** 2 + vs[:-1] * vs[1:] + vs[1:] ** 2) / 3.0))
    mean = profile.mean()
    return alpha_integral(
        lambda al: cb.screened_mismatch(profile, al),
        h,
        4.0 * u2 - 4.0 * h * mean * mean,
        4.0 * h,
        nodes,
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


# -- profile kernel as it was before the geometry cache ---------------------------
# Each call re-derives slopes, corner values and nodes from the stored
# fields; the cached kernel must reproduce these bit for bit.


def _segment_slopes(p):
    first = p.initial_slope if p.corners[0] == 0.0 else -p.initial_slope
    return first * (-1.0) ** np.arange(len(p.corners))


def _corner_values(p):
    c = np.asarray(p.corners)
    s = _segment_slopes(p)
    v0 = p.offset + p.initial_slope * c[0]
    vals = np.empty(len(c))
    vals[0] = v0
    vals[1:] = v0 + np.cumsum(s[:-1] * np.diff(c))
    return vals


def merge_degenerate_reference(corners, initial_slope: int, period: float):
    """The corner merge as one rescan per dropped pair: the first pair
    (wrap pair last) closer than MERGE_TOL * period goes, until none is."""
    from twinstripe.model_core import MERGE_TOL

    corners = list(corners)
    tol = MERGE_TOL * period
    changed = True
    while changed and len(corners) >= 2:
        changed = False
        m = len(corners)
        for j in range(m):
            nxt = (j + 1) % m
            gap = corners[nxt] - corners[j] if nxt > j else corners[nxt] + period - corners[j]
            if gap < tol:
                if nxt > j:
                    del corners[nxt]
                    del corners[j]
                else:
                    del corners[m - 1]
                    del corners[0]
                    initial_slope = -initial_slope
                changed = True
                break
    return corners, initial_slope


def evaluate_reference(p, y):
    """u(y) by boolean-mask scatters, the form SawtoothProfile.evaluate had
    before it took np.where: the same elementwise expressions."""
    yy = np.asarray(y, dtype=float)
    scalar = yy.ndim == 0
    yr = np.mod(yy, p.period)
    c = np.asarray(p.corners)
    vals = _corner_values(p)
    s = _segment_slopes(p)
    idx = np.searchsorted(c, yr, side="right") - 1
    out = np.empty_like(yr)
    before = idx < 0
    out[before] = p.offset + p.initial_slope * yr[before]
    inside = ~before
    j = idx[inside]
    out[inside] = vals[j] + s[j] * (yr[inside] - c[j])
    return float(out) if scalar else out


def nodes_reference(p):
    c = np.asarray(p.corners)
    ys = c if c[0] == 0.0 else np.concatenate(([0.0], c))
    ys = np.concatenate((ys, [p.period]))
    vs = np.asarray(evaluate_reference(p, np.minimum(ys, np.nextafter(p.period, 0.0))), dtype=float)
    vs[-1] = evaluate_reference(p, 0.0)
    return ys, vs


def _window_pieces(period: float, window: tuple[float, float] | None) -> list[tuple[float, float]]:
    """Reduce an integration window to subintervals of [0, period].

    The window may wrap: (a, b) with a < b <= a + period, arbitrary reals.
    """
    if window is None:
        return [(0.0, period)]
    a, b = float(window[0]), float(window[1])
    if not (b > a):
        raise InvariantError("window must have positive width")
    if b - a > period * (1 + 1e-12):
        raise InvariantError("window may not exceed one period")
    a0 = math.fmod(a, period)
    if a0 < 0:
        a0 += period
    width = b - a
    if a0 + width <= period:
        return [(a0, a0 + width)]
    return [(a0, period), (0.0, a0 + width - period)]


def window_integral_reference(p, lo: float, hi: float) -> float:
    """Exact integral of the profile over [lo, hi] (any real endpoints),
    by the trapezoid rule between its nodes in each window piece."""
    total = 0.0
    for a, b in _window_pieces(p.period, (lo, hi)):
        cuts = np.unique(np.concatenate((nodes_reference(p)[0], [a, b])))
        cuts = cuts[(cuts >= a) & (cuts <= b)]
        v = evaluate_reference(p, cuts)
        total += float(np.sum(np.diff(cuts) * (v[:-1] + v[1:]) / 2.0))
    return total


def l2_distance_reference(p, q, window=None):
    yp, _ = nodes_reference(p)
    yq, _ = nodes_reference(q)
    total = 0.0
    for lo, hi in _window_pieces(p.period, window):
        cuts = np.unique(np.concatenate((yp, yq, [lo, hi])))
        cuts = cuts[(cuts >= lo) & (cuts <= hi)]
        if cuts[0] > lo:
            cuts = np.concatenate(([lo], cuts))
        if cuts[-1] < hi:
            cuts = np.concatenate((cuts, [hi]))
        left, right = cuts[:-1], cuts[1:]
        va = evaluate_reference(p, left) - evaluate_reference(q, left)
        vb = evaluate_reference(p, right) - evaluate_reference(q, right)
        total += float(np.sum((right - left) * (va * va + va * vb + vb * vb) / 3.0))
    return math.sqrt(max(total, 0.0))


def interval_l2_sq_reference(p, q, part) -> np.ndarray:
    """Integral of (p - q)^2 over each partition interval, one windowed
    reference distance per interval."""
    return np.asarray(
        [l2_distance_reference(p, q, window=part.interval(k)) ** 2 for k in range(part.count)]
    )


def star_excess_reference(config, part, epsilon: float) -> np.ndarray:
    """(eps/2) * integral over x of (star-window corner count - 4), counted
    piece by piece in Python, with the charged station picked as in the
    surface energy (larger count, ties to the later station)."""

    def count(corners, lo, hi):
        if hi - lo >= part.period * (1 - 1e-12):
            return len(corners)
        return int(np.count_nonzero(np.mod(corners - lo, part.period) < (hi - lo)))

    def window_counts(profile):
        c = np.asarray(profile.corners)
        return np.asarray(
            [sum(count(c, lo, hi) for lo, hi in part.star_pieces(k)) for k in range(part.count)],
            dtype=float,
        )

    if len(config.profiles) == 1:
        return 0.5 * epsilon * config.params.length_L * (window_counts(config.profiles[0]) - 4.0)
    out = np.zeros(part.count)
    for j in range(len(config.stations) - 1):
        dx = config.stations[j + 1] - config.stations[j]
        a, b = config.profiles[j], config.profiles[j + 1]
        pick = a if a.interface_count() > b.interface_count() else b
        out += 0.5 * epsilon * dx * (window_counts(pick) - 4.0)
    return out


def interval_pairing_mp(w, u0, lo: float, hi: float, dps: int = 20) -> float:
    """Integral of (H w')(y) (u0(y) - w(y)) dy over [lo, hi] by mpmath quadrature.

    H w' = 2 sum_j (2 s_j) log|2 sin(pi (y - z_j) / h)| has a log
    singularity at every image of a corner z_j of w, and u0 - w is
    linear between the corners of both profiles.  The window is cut at
    all of them, and each panel is integrated by tanh-sinh quadrature,
    which takes endpoint log singularities in its stride.
    """
    h = w.period
    cuts = {float(lo), float(hi)}
    for prof in (w, u0):
        for c in prof.corners:
            n = math.ceil((lo - c) / h)
            while c + n * h < hi:
                if c + n * h > lo:
                    cuts.add(float(c + n * h))
                n += 1
    cuts = sorted(cuts)
    diff = np.asarray(u0.evaluate(cuts)) - np.asarray(w.evaluate(cuts))
    with mp.workdps(dps):
        hh = mp.mpf(h)
        terms = [(mp.mpf(c), 4 * int(s)) for c, s in zip(w.corners, w.slope_after_corners())]

        def log_term(y, z):
            # a node rounded onto a corner: a single point, worth nothing
            s = abs(2 * mp.sin(mp.pi * (y - z) / hh))
            return mp.log(s) if s else mp.mpf(0)

        def hilbert_slope(y):
            return mp.fsum(j * log_term(y, z) for z, j in terms)

        total = mp.mpf(0)
        for a, b, da, db in zip(cuts[:-1], cuts[1:], diff[:-1], diff[1:]):
            a, b, da, db = mp.mpf(a), mp.mpf(b), mp.mpf(da), mp.mpf(db)
            slope = (db - da) / (b - a)
            total += mp.quad(lambda y: hilbert_slope(y) * (da + slope * (y - a)), [a, b])
        return float(total)


def verify_suite_reference(trials: int, seed: int = 0, alphas=(0.1, 1.0, 10.0)) -> dict:
    """chessboard.verify_suite as a loop of public single-case checks.

    Draws the same cases in the same order and calls check_rp_inequality,
    check_chessboard_bound and check_master_inequality once per case and
    alpha, collecting the slacks in (trial, alpha) order.
    """
    rng = np.random.default_rng(seed)
    rp, cb, master = [], [], []
    for _ in range(trials):
        minus = tuple(random_segment(rng) for _ in range(int(rng.integers(1, 4))))
        plus = tuple(random_segment(rng) for _ in range(int(rng.integers(1, 4))))
        for alpha in alphas:
            rp.append(check_rp_inequality(minus, plus, alpha).slack)
    for _ in range(trials):
        seq = tuple(random_segment(rng) for _ in range(int(rng.integers(2, 7))))
        for alpha in alphas:
            cb.append(check_chessboard_bound(seq, alpha).slack)
    for _ in range(trials):
        prof = random_profile(rng, 1.0)
        for alpha in alphas:
            rep = check_master_inequality(prof, alphas=(alpha,))
            master.append(rep.slack[0])

    def stats(slacks):
        return {"count": len(slacks), "min_slack": min(slacks), "mean_slack": float(np.mean(slacks))}

    return {
        "trials": trials,
        "seed": seed,
        "alphas": [float(a) for a in alphas],
        "rp": stats(rp),
        "chessboard": stats(cb),
        "master": stats(master),
    }


# -- cross-checks and conveniences that no command reaches -------------------------
# Kept here, with their tests, since the package itself never calls them.


def load_configuration(text: str) -> Configuration:
    """Configuration from a JSON string."""
    return Configuration.from_json(json.loads(text))


def l2_norm_sq(profile: SawtoothProfile) -> float:
    """Exact squared L2 norm of the profile over one period."""
    ys, v = profile.nodes()
    va, vb = v[:-1], v[1:]
    return float(np.sum(np.diff(ys) * (va * va + va * vb + vb * vb) / 3.0))


def striped_breakdown(params: ModelParams) -> EnergyBreakdown:
    """Closed-form energy of the striped candidate: no strain, equal gaps."""
    m = optimal_even_m(params).m_star[0]
    h, L = params.height_h, params.length_L
    return EnergyBreakdown.from_parts(
        params.beta * C0 * h * h / m, 0.0, params.epsilon * L * m
    )


_REGIME_FACTOR = 10.0  # see cs_asymptotic_check


@dataclass(frozen=True)
class CsReport:
    """Ratio of the optimal striped energy to its asymptotic law."""

    ratio: float
    lower: float
    upper: float
    in_regime: bool
    passes: bool
    m_star: tuple[int, ...]


def cs_asymptotic_check(params: ModelParams) -> CsReport:
    """Compare the optimal striped energy with its square-root law.

    ratio = E1D(M*) / (h L c_s sqrt(beta eps / L)) should sit within
    1 +- f L eps / (h^2 beta) whenever beta is at least f eps L / h^2,
    f = _REGIME_FACTOR; outside that regime the check is reported but
    not binding.
    """
    b, eps, L, h = params.beta, params.epsilon, params.length_L, params.height_h
    res = optimal_even_m(params)
    denom = h * L * CS * math.sqrt(b * eps / L)
    ratio = res.energy / denom
    margin = _REGIME_FACTOR * L * eps / (h * h * b)
    in_regime = b >= _REGIME_FACTOR * eps * L / (h * h)
    passes = (not in_regime) or (1.0 - margin <= ratio <= 1.0 + margin)
    return CsReport(
        ratio=ratio,
        lower=1.0 - margin,
        upper=1.0 + margin,
        in_regime=in_regime,
        passes=passes,
        m_star=res.m_star,
    )


def classification_sensitivity(
    u: Configuration,
    part,
    eta: float = loc.DEFAULT_ETA,
    kappa: float = loc.DEFAULT_KAPPA,
) -> dict:
    """Type counts at (eta, kappa) and at 2x / 0.5x of each threshold.

    The thresholds are conventions, not derived constants, so reports
    carry how strongly the classification depends on them.  All five
    classifications share one comparison profile.
    """
    thresholds = (
        ("base", eta, kappa),
        ("eta_half", eta / 2.0, kappa),
        ("eta_double", eta * 2.0, kappa),
        ("kappa_half", eta, kappa / 2.0),
        ("kappa_double", eta, kappa * 2.0),
    )
    for _, e_val, k_val in thresholds:
        loc._check_classify_inputs(u, e_val, k_val)
    cmp = loc.build_comparison(u.profiles[0], part)
    out = {}
    for label, e_val, k_val in thresholds:
        types = [t.itype for t in loc._classify(u, part, cmp, e_val, k_val)]
        counts = np.bincount(types, minlength=5)[1:].tolist()
        out[label] = {"eta": e_val, "kappa": k_val, "counts": counts}
    return out


def bmo_seminorm_loop(samples, min_width_frac: float = loc.BMO_MIN_FRAC):
    """localization.bmo_seminorm as a loop over the widths, one gather per width.

    Each width m slides across at most BMO_OFFSETS evenly spaced starts;
    a width's oscillation replaces the best so far only when strictly
    larger, so a NaN width never wins.
    """
    g = np.asarray(samples, dtype=float)
    n = g.shape[-1]
    g = g - g.mean(axis=-1, keepdims=True)
    zero = np.zeros(g.shape[:-1] + (1,))
    s1 = np.concatenate((zero, np.cumsum(g, axis=-1)), axis=-1)
    s2 = np.concatenate((zero, np.cumsum(g * g, axis=-1)), axis=-1)
    best = np.zeros(g.shape[:-1])
    width = n
    while True:
        m = max(2, int(round(width)))
        starts = np.unique(np.linspace(0, n - m, min(loc.BMO_OFFSETS, n - m + 1)).astype(int))
        mean = (s1[..., starts + m] - s1[..., starts]) / m
        msq = (s2[..., starts + m] - s2[..., starts]) / m
        osc = np.max(msq - mean * mean, axis=-1)
        best = np.where(osc > best, osc, best)
        if width <= n * min_width_frac * (1 + 1e-9) or m == 2:
            break
        width /= 2.0
    out = np.sqrt(best)
    return float(out) if g.ndim == 1 else out


# -- spectral and real-space cross-checks of the boundary term ---------------------
# Truncated mode sums, the image-summed real-space kernel and the harmonic
# extension, each an independent route to what the package computes in
# closed form.  Mode sums take points a block at a time, with the block
# size read from twinstripe.energy at each call.

KERNEL_IMAGES = 64
KERNEL_RTOL = 1e-6


def periodized_kernel(
    t: np.ndarray,
    period: float,
    images: int = KERNEL_IMAGES,
    rtol: float = KERNEL_RTOL,
) -> np.ndarray:
    """sum_n 1/(t + n h)^2 for t in (0, h), via image sum plus analytic tail.

    The tail over |n| > images is replaced by the midpoint integral
    int_{images+1/2}^inf dn, whose Euler-Maclaurin remainder is bounded
    explicitly; if that bound exceeds rtol relative to the kernel the
    routine refuses rather than return an unconverged value.
    """
    t = np.asarray(t, dtype=float)
    if np.any((t <= 0) | (t >= period)):
        raise InvariantError("kernel argument must lie strictly inside (0, period)")
    h = period
    ns = np.arange(-images, images + 1)
    body = np.sum(1.0 / (t[..., None] + ns * h) ** 2, axis=-1)
    edge = (images + 0.5) * h
    tail = (1.0 / (edge + t) + 1.0 / (edge - t)) / h
    # |d/dn (nh +- t)^-2| / 24 at the integral's lower end, both branches
    tail_bound = (h / 12.0) * (1.0 / (edge + t) ** 3 + 1.0 / (edge - t) ** 3)
    value = body + tail
    if np.any(tail_bound > rtol * value):
        raise NonConvergenceError(
            "periodized kernel tail bound exceeds tolerance; raise the image count"
        )
    return value


def h_half_sq_realspace(
    profile: SawtoothProfile,
    quad_nodes: int = 4096,
    images: int = KERNEL_IMAGES,
) -> float:
    """Half-norm squared from the folded double integral.

    Midpoint sampling on an N x N periodic grid reduces, through the
    circular autocorrelation of the samples, to a single sum over grid
    offsets d of K(d h / N) * sum_i (u_i - u_{i-d})^2.  On the diagonal
    the integrand tends to the squared slope, which is 1 a.e.
    """
    if quad_nodes < 64:
        raise InvariantError("quad_nodes must be at least 64")
    h = profile.period
    n = int(quad_nodes)
    y = (np.arange(n) + 0.5) * (h / n)
    u = np.asarray(profile.evaluate(y))
    fu = np.fft.rfft(u)
    autocorr = np.fft.irfft(fu * np.conj(fu), n)  # C(d) = sum_i u_i u_{i-d}
    sum_sq = float(np.dot(u, u))
    d = np.arange(1, n)
    kvals = periodized_kernel(d * (h / n), h, images=images)
    off_diag = float(np.dot(kvals, 2.0 * sum_sq - 2.0 * autocorr[1:]))
    diag = float(n)  # integrand -> slope^2 = 1 on the diagonal
    return (h / n) ** 2 * (off_diag + diag)


def _mode_sum(
    coeffs: np.ndarray, period: float, y: np.ndarray, x: np.ndarray | None = None
) -> np.ndarray:
    """2 Re sum_k coeffs[k-1] exp(2 pi k (i y + x) / h), a block of points at a time."""
    ks = np.arange(1, len(coeffs) + 1)
    out = np.empty(y.shape)
    step = max(1, energy._BLOCK_ENTRIES // len(ks))
    for lo in range(0, len(y), step):
        block = slice(lo, lo + step)
        waves = np.exp(2j * np.pi * ks * y[block, None] / period)
        if x is not None:
            waves *= np.exp(2 * np.pi * ks * x[block, None] / period)
        out[block] = 2.0 * np.real(waves @ coeffs)
    return out


@dataclass(frozen=True)
class AusteniteField:
    """Harmonic extension of a boundary trace into the half-plane x <= 0.

    psi(x, y) = sum_k uhat(k) exp(2 pi i k y / h) exp(2 pi |k| x / h),
    the decay rate matching each oscillation so psi is harmonic and
    tends to the trace mean as x -> -inf.
    """

    boundary: SawtoothProfile
    mode_cutoff: int = DEFAULT_CUTOFF

    def __post_init__(self) -> None:
        if self.mode_cutoff < 1:
            raise InvariantError("mode_cutoff must be at least 1")

    def evaluate(self, x, y) -> np.ndarray | float:
        """psi at (x, y) for x <= 0 (vectorized over broadcastable inputs)."""
        xx = np.asarray(x, dtype=float)
        yy = np.asarray(y, dtype=float)
        if np.any(xx > 0):
            raise InvariantError("the extension lives in x <= 0")
        h = self.boundary.period
        ks = np.arange(1, self.mode_cutoff + 1)
        coeffs = fourier_coefficients(self.boundary, ks)
        xb, yb = np.broadcast_arrays(xx, yy)
        waves = _mode_sum(coeffs, h, yb.reshape(-1), xb.reshape(-1))
        out = (self.boundary.mean() + waves).reshape(xb.shape)
        return float(out) if out.ndim == 0 else out


def austenite_energy(field: AusteniteField, beta: float = 1.0) -> float:
    """2 pi beta times the Dirichlet energy of the extension.

    Assembled mode by mode from the gradient of psi:
    each mode contributes (w_y^2 + w_x^2) |c_k|^2 h / (4 pi k / h)
    with w_y = w_x = 2 pi k / h, summed over +-k.
    """
    h = field.boundary.period
    ks = np.arange(1, field.mode_cutoff + 1)
    coeffs = fourier_coefficients(field.boundary, ks)
    w = 2.0 * np.pi * ks / h
    mode_dirichlet = (w**2 + w**2) * np.abs(coeffs) ** 2 * h / (4.0 * np.pi * ks / h)
    return float(2.0 * np.pi * beta * 2.0 * np.sum(mode_dirichlet))


@dataclass(frozen=True)
class HilbertSignal:
    """Real periodic function stored by one-sided spectrum.

    coeffs[j] is the coefficient of exp(2 pi i (j+1) y / period); the
    function is f(y) = 2 Re sum_j coeffs[j] exp(2 pi i (j+1) y / period),
    mean zero by construction.
    """

    period: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if not (self.period > 0 and math.isfinite(self.period)):
            raise InvariantError("HilbertSignal.period must be positive")
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))

    def evaluate(self, y) -> np.ndarray | float:
        yy = np.asarray(y, dtype=float)
        out = _mode_sum(self.coeffs, self.period, yy.reshape(-1))
        return float(out[0]) if yy.ndim == 0 else out.reshape(yy.shape)

    def sample(self, n: int) -> np.ndarray:
        """Values at y_j = j * period / n via the inverse FFT."""
        if n < 2 * (len(self.coeffs) + 1):
            raise InvariantError("sample count too small for the stored spectrum")
        spectrum = np.zeros(n // 2 + 1, dtype=complex)
        spectrum[1 : len(self.coeffs) + 1] = self.coeffs
        return np.fft.irfft(spectrum, n) * n


def hilbert_transform(
    f,
    cutoff: int = DEFAULT_CUTOFF,
    derivative: bool = False,
    period: float | None = None,
) -> HilbertSignal:
    """Periodic Hilbert transform, one mode at a time.

    The multiplier is 2 pi (-i k / |k|); the k = 0 mode is dropped, so
    constants map to zero.  Accepts a sawtooth profile (optionally
    transforming its slope w' instead, via ``derivative=True``) or a
    one-sided coefficient array c[j] for modes k = j+1, in which case
    ``period`` must be given.
    """
    if isinstance(f, SawtoothProfile):
        h = f.period
        ks = np.arange(1, cutoff + 1)
        coeffs = fourier_coefficients(f, ks)
        if derivative:
            coeffs = coeffs * (2j * np.pi * ks / h)
    else:
        if period is None:
            raise InvariantError("period is required for coefficient-array input")
        h = float(period)
        coeffs = np.asarray(f, dtype=complex)
        if derivative:
            ks = np.arange(1, len(coeffs) + 1)
            coeffs = coeffs * (2j * np.pi * ks / h)
    # multiplier at k >= 1; negative modes follow by conjugate symmetry
    return HilbertSignal(h, -2j * np.pi * coeffs)
