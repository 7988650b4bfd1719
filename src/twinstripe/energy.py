"""Energy contributions for striped twin configurations.

Conventions.  For an h-periodic trace u with coefficients
uhat(k) = (1/h) int_0^h u(y) exp(-2 pi i k y / h) dy, the half-norm
squared is

    ||u||^2 = 4 pi^2 sum_k |k| |uhat(k)|^2,

which equals the double integral of |u(y) - u~(y')|^2 / |y - y'|^2
with y over one period, y' over the whole line, and u~ the periodic
extension.  The same quantity is 2 pi times the Dirichlet energy of
the harmonic extension of u into the half-plane x < 0.  Energies use
the exact corner-pair sum h_half_inner; the mode sum, the real-space
integral and the extension are cross-checks.  The interface term of a
configuration is beta times this half-norm of the x = 0 trace; the
shear term is the exact strain of the piecewise-linear-in-x
interpolation; the surface term charges epsilon per unit x-length per
interface, with the count on each x-cell taken as the larger of the
two adjacent station counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model_core import (
    Configuration,
    EnergyBreakdown,
    InvariantError,
    NonConvergenceError,
    SawtoothProfile,
    _window_cuts,
    fourier_coefficients,
    l2_distance,
)
from .one_dim import _zeta

__all__ = [
    "DEFAULT_CUTOFF",
    "AusteniteField",
    "h_half_inner",
    "pair_sum",
    "h_half_sq",
    "h_half_sq_fourier",
    "h_half_sq_realspace",
    "periodized_kernel",
    "strain_energy",
    "surface_energy",
    "austenite_energy",
    "total_energy",
    "l2_norm_sq",
]

DEFAULT_CUTOFF = 4096
KERNEL_IMAGES = 64
KERNEL_RTOL = 1e-6


def h_half_sq_fourier(profile: SawtoothProfile, cutoff: int = DEFAULT_CUTOFF) -> float:
    """Half-norm squared by the spectral sum over 1 <= |k| <= cutoff (checks h_half_sq)."""
    if cutoff < 1:
        raise InvariantError("cutoff must be at least 1")
    ks = np.arange(1, cutoff + 1)
    coeffs = fourier_coefficients(profile, ks)
    # conjugate symmetry doubles the positive modes
    return float(8.0 * np.pi**2 * np.sum(ks * np.abs(coeffs) ** 2))


# Most entries a blocked evaluation holds at once: (points x modes) of a
# mode sum, 4 MB complex, or (corners x corners) of a pair sum, 2 MB real.
_BLOCK_ENTRIES = 2**18

# zeta(2n) / (n (2n+1) (2n+2)) for n = 30..1, then 0: the power series
# of Cl_3 in (theta / 2 pi)^2 (DLMF 25.12), highest power first
_CL3_SERIES = np.array(
    [_zeta(2 * n) / (n * (2 * n + 1) * (2 * n + 2)) for n in range(30, 0, -1)] + [0.0]
)


def _clausen3_less_zeta3(theta: np.ndarray) -> np.ndarray:
    """Cl_3(theta) - zeta(3) for theta in [0, pi], Cl_3(theta) = sum_k cos(k theta) / k^3.

    (theta^2 / 2) ln theta - 3 theta^2 / 4 minus theta^2 times the
    series above, whose terms fall by at least 4x each up to theta = pi.
    """
    t2 = theta * theta
    log_part = 0.5 * t2 * np.log(np.where(theta > 0.0, theta, 1.0))
    series = t2 * np.polyval(_CL3_SERIES, t2 / (4.0 * np.pi**2))
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
    series = t * np.polyval(_CL2_SERIES, t * t / (4.0 * np.pi**2))
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


def pair_sum(cf: np.ndarray, sf: np.ndarray, cg: np.ndarray, sg: np.ndarray, h: float) -> float:
    """2 h^2 / pi^2 sum_{j,l} sf_j sg_l (Cl_3 - zeta(3))(2 pi (cf_j - cg_l) / h).

    The pair sum of h_half_inner on bare corner and slope arrays.  It
    equals the bilinear form whenever the weights of either side sum to
    zero, so a difference of rows can be summed without a profile.  The
    rows of f are taken a block at a time, so memory stays bounded.
    """
    if len(cf) == 0 or len(cg) == 0:
        return 0.0
    step = max(1, _BLOCK_ENTRIES // len(cg))
    pairs = 0.0
    for lo in range(0, len(cf), step):
        block = slice(lo, lo + step)
        frac = np.mod(np.subtract.outer(cf[block], cg) / h, 1.0)
        theta = 2.0 * np.pi * np.minimum(frac, 1.0 - frac)
        pairs += sf[block] @ _clausen3_less_zeta3(theta) @ sg
    return float(2.0 * h * h / np.pi**2 * pairs)


def h_half_sq(profile: SawtoothProfile) -> float:
    """Half-norm squared of the trace, exact up to rounding (see h_half_inner)."""
    return h_half_inner(profile, profile)


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


def l2_norm_sq(profile: SawtoothProfile, window: tuple[float, float] | None = None) -> float:
    """Exact squared L2 norm of the profile over the window."""
    total = 0.0
    for cuts in _window_cuts(profile.nodes()[0], profile.period, window):
        v = profile.evaluate(cuts)
        va, vb = v[:-1], v[1:]
        total += float(np.sum(np.diff(cuts) * (va * va + va * vb + vb * vb) / 3.0))
    return total


def _mode_sum(
    coeffs: np.ndarray, period: float, y: np.ndarray, x: np.ndarray | None = None
) -> np.ndarray:
    """2 Re sum_k coeffs[k-1] exp(2 pi k (i y + x) / h), a block of points at a time."""
    ks = np.arange(1, len(coeffs) + 1)
    out = np.empty(y.shape)
    step = max(1, _BLOCK_ENTRIES // len(ks))
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


def strain_energy(config: Configuration) -> float:
    """Exact shear energy of the linear-in-x interpolation.

    For u linear in x on [x_j, x_{j+1}], int int u_x^2 equals
    ||p_{j+1} - p_j||_{L2}^2 / (x_{j+1} - x_j), summed over cells.
    """
    total = 0.0
    for j in range(len(config.stations) - 1):
        dx = config.stations[j + 1] - config.stations[j]
        dist = l2_distance(config.profiles[j + 1], config.profiles[j])
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
    return EnergyBreakdown.from_parts(
        austenite, strain_energy(config), surface_energy(config)
    )
