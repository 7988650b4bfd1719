"""Independent oracles used to pin expected values in the test suite.

Everything here deliberately avoids the package's own fast paths:
plain dense quadrature, high-precision special functions, and brute
force enumeration.  Tests compare the library against these.
"""

import math

import mpmath as mp
import numpy as np

from twinstripe.model_core import _window_pieces


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


def evaluate_reference(p, y):
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
