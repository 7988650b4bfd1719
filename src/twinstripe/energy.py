"""Energy contributions for striped twin configurations.

Conventions.  For an h-periodic trace u with coefficients
uhat(k) = (1/h) int_0^h u(y) exp(-2 pi i k y / h) dy, the half-norm
squared is

    ||u||^2 = 4 pi^2 sum_k |k| |uhat(k)|^2,

which equals the double integral of |u(y) - u~(y')|^2 / |y - y'|^2
with y over one period, y' over the whole line, and u~ the periodic
extension.  The same quantity is 2 pi times the Dirichlet energy of
the harmonic extension of u into the half-plane x < 0.  Energies use
the exact corner-pair sum h_half_inner; the mode sum h_half_sq_fourier
is a cross-check, and the real-space integral and the extension are
test oracles (tests/oracles.py).  The interface term of a
configuration is beta times this half-norm of the x = 0 trace; the
shear term is the exact strain of the piecewise-linear-in-x
interpolation; the surface term charges epsilon per unit x-length per
interface, with the count on each x-cell taken as the larger of the
two adjacent station counts.
"""

from __future__ import annotations

import numpy as np

from .model_core import (
    Configuration,
    EnergyBreakdown,
    InvariantError,
    SawtoothProfile,
    fourier_coefficients,
    l2_distance,
)
from .one_dim import _zeta

__all__ = [
    "DEFAULT_CUTOFF",
    "h_half_inner",
    "pair_sum",
    "h_half_sq",
    "h_half_sq_fourier",
    "strain_energy",
    "surface_energy",
    "total_energy",
]

DEFAULT_CUTOFF = 4096


def h_half_sq_fourier(profile: SawtoothProfile, cutoff: int = DEFAULT_CUTOFF) -> float:
    """Half-norm squared by the spectral sum over 1 <= |k| <= cutoff (checks h_half_sq)."""
    if cutoff < 1:
        raise InvariantError("cutoff must be at least 1")
    ks = np.arange(1, cutoff + 1)
    coeffs = fourier_coefficients(profile, ks)
    # conjugate symmetry doubles the positive modes
    return float(8.0 * np.pi**2 * np.sum(ks * np.abs(coeffs) ** 2))


# Most entries in one array of a blocked evaluation: (points x modes) of a
# mode sum, 4 MB complex, or (corners x corners) of a pair sum, 2 MB real.
# It bounds each array, not the working set: an evaluation may hold
# several such arrays at once (a verify_suite block holds a few (alphas x
# cell pairs) arrays, so a large suite plateaus near 43 MB peak RSS).
_BLOCK_ENTRIES = 2**18

# zeta(2n) / (n (2n+1) (2n+2)) for n = 30..1, then 0: the power series
# of Cl_3 in (theta / 2 pi)^2 (DLMF 25.12), highest power first
_CL3_SERIES = np.array(
    [_zeta(2 * n) / (n * (2 * n + 1) * (2 * n + 2)) for n in range(30, 0, -1)] + [0.0]
)


def _horner(coeffs: np.ndarray, x) -> np.ndarray:
    """np.polyval(coeffs, x) in place: its multiply-adds in its order, so bit for bit."""
    y = np.zeros_like(x)
    for c in coeffs:
        y *= x
        y += c
    return y


def _clausen3_less_zeta3(theta: np.ndarray) -> np.ndarray:
    """Cl_3(theta) - zeta(3) for theta in [0, pi], Cl_3(theta) = sum_k cos(k theta) / k^3.

    (theta^2 / 2) ln theta - 3 theta^2 / 4 minus theta^2 times the
    series above, whose terms fall by at least 4x each up to theta = pi.
    """
    t2 = theta * theta
    log_part = 0.5 * t2 * np.log(np.where(theta > 0.0, theta, 1.0))
    series = t2 * _horner(_CL3_SERIES, t2 / (4.0 * np.pi**2))
    return log_part - 0.75 * t2 - series


# zeta(2n) / (n (2n+1)) for n = 30..1, then 0: the power series of Cl_2
# in (theta / 2 pi)^2 (DLMF 25.12), highest power first
_CL2_SERIES = np.array([_zeta(2 * n) / (n * (2 * n + 1)) for n in range(30, 0, -1)] + [0.0])
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi minus its nearest double


def _clausen2(theta: np.ndarray) -> np.ndarray:
    """Cl_2(theta) = sum_k sin(k theta) / k^2 for any real theta.

    Cl_2 is odd and 2 pi periodic: |theta| loses its whole turns, with
    2 pi carried to twice double precision so a theta near a turn keeps
    its distance to it, and is folded onto [0, pi].  There Cl_2 = theta
    - theta ln theta plus theta times the series above.
    """
    theta = np.asarray(theta, dtype=float)
    a = np.abs(theta)
    r = np.fmod(a, 2.0 * np.pi)  # exact
    lo = np.rint((a - r) / (2.0 * np.pi)) * _TWO_PI_LO
    far = r > np.pi  # past pi, fold through the next turn
    t = np.where(far, (2.0 * np.pi - r) + (lo + _TWO_PI_LO), r - lo)
    sign = np.where((theta < 0.0) != (far | (t < 0.0)), -1.0, 1.0)
    t = np.abs(t)
    log_part = t * np.log(np.where(t > 0.0, t, 1.0))
    series = t * _horner(_CL2_SERIES, t * t / (4.0 * np.pi**2))
    return sign * (t - log_part + series)


def h_half_inner(f: SawtoothProfile, g: SawtoothProfile) -> float:
    """Bilinear form 4 pi^2 sum_k |k| Re(conj(fhat) ghat), summed exactly.

    The curvature of a sawtooth is the point masses d_j = 2 s_j at its
    corners c_j, which turns the mode sum into a finite pair sum:

        (f, g) = h^2 / (2 pi^2) sum_{j,l} d_j d'_l Cl_3(2 pi (c_j - c'_l) / h).

    The constant zeta(3) of each Cl_3 drops out because the masses of a
    profile sum to zero; the rounding left grows like m^2 eps.
    """
    if abs(f.period - g.period) > 1e-12 * f.period:
        raise InvariantError("h_half_inner requires equal periods")
    return pair_sum(
        np.asarray(f.corners), f.slope_after_corners(),
        np.asarray(g.corners), g.slope_after_corners(), f.period,
    )


def pair_sum(
    cf: np.ndarray, sf: np.ndarray, cg: np.ndarray, sg: np.ndarray, h: float
) -> float | np.ndarray:
    """2 h^2 / pi^2 sum_{j,l} sf_j sg_l (Cl_3 - zeta(3))(2 pi (cf_j - cg_l) / h).

    The pair sum of h_half_inner on bare corner and slope arrays.  It
    equals the bilinear form whenever the weights of either side sum to
    zero, so a difference of rows can be summed without a profile.  The
    rows of f are taken a block at a time, so memory stays bounded.

    Rows cf of shape (P, R) give the P sums of P probe row sets: Cl_3 runs
    once over their P stacked blocks, and each sum is bit for bit its own call.
    """
    probes = np.atleast_2d(cf)
    pairs = np.zeros(len(probes))
    step = max(1, _BLOCK_ENTRIES // max(1, len(cg)))
    for lo in range(0, probes.shape[1], step):
        block = slice(lo, lo + step)
        frac = np.mod(np.subtract.outer(probes[:, block], cg) / h, 1.0)
        theta = 2.0 * np.pi * np.minimum(frac, 1.0 - frac)
        pairs += [sf[block] @ cl3 @ sg for cl3 in _clausen3_less_zeta3(theta)]
    sums = 2.0 * h * h / np.pi**2 * pairs
    return float(sums[0]) if np.ndim(cf) == 1 else sums


def h_half_sq(profile: SawtoothProfile) -> float:
    """Half-norm squared of the trace, exact up to rounding (see h_half_inner).

    Summed once per profile object and kept on it (profiles are frozen);
    a copy such as ``with_offset_shift`` is a new object and sums its own.
    """
    memo = profile.__dict__
    if "_h_half_sq" not in memo:
        memo["_h_half_sq"] = h_half_inner(profile, profile)
    return memo["_h_half_sq"]


def strain_energy(config: Configuration) -> float:
    """Exact shear energy of the linear-in-x interpolation.

    For u linear in x on [x_j, x_{j+1}], int int u_x^2 equals
    ||p_{j+1} - p_j||_{L2}^2 / (x_{j+1} - x_j), summed over cells.  A
    cell between two stations holding one profile object adds exactly
    +0.0 and is skipped.
    """
    total = 0.0
    ps = config.profiles
    for j in range(len(config.stations) - 1):
        if ps[j + 1] is not ps[j]:
            dx = config.stations[j + 1] - config.stations[j]
            dist = l2_distance(ps[j + 1], ps[j])
            total += dist * dist / dx
    return total


def surface_energy(config: Configuration) -> float:
    """epsilon times the x-integral of the interface count.

    Interfaces can appear and disappear inside a cell, so the cell is
    charged at the larger of its two endpoint counts; a single-station
    configuration is treated as constant in x.
    """
    eps = config.params.epsilon
    L = config.params.length_L
    counts = [p.interface_count() for p in config.profiles]
    if len(counts) == 1:
        return eps * L * counts[0]
    total = 0.0
    for j in range(len(counts) - 1):
        dx = config.stations[j + 1] - config.stations[j]
        total += dx * max(counts[j], counts[j + 1])
    return eps * total


def total_energy(config: Configuration) -> EnergyBreakdown:
    """Austenite + strain + surface breakdown for a configuration.

    Every part is exact up to rounding: the austenite term is beta times
    the corner-pair sum h_half_sq of the x = 0 trace.
    """
    austenite = config.params.beta * h_half_sq(config.boundary_profile)
    return EnergyBreakdown(austenite, strain_energy(config), surface_energy(config))
