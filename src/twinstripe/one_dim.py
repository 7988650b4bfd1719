"""Exact theory for x-independent (striped) configurations.

A striped configuration with M equispaced interfaces has energy

    E1D(M) = beta * c0 * h^2 / M + epsilon * L * M,

where c0 = 14 zeta(3) / pi^2 is the half-norm of a unit cell: each
corner-to-corner span of width l contributes c0 * l^2, and equal
spacing minimizes the sum of squares under a fixed total.  The even
integer minimizer sits within 2 of sqrt(beta c0 h^2 / (epsilon L)),
and at the minimizer the energy approaches h L c_s sqrt(beta eps / L)
with c_s = 2 sqrt(c0) once beta dominates eps L / h^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model_core import InvariantError, ModelParams, SawtoothProfile

__all__ = [
    "ZETA3",
    "C0",
    "CS",
    "OneDimResult",
    "e1d",
    "optimal_even_m",
    "make_w_m",
    "lower_bound_decomposition",
]


def _zeta(s: int, terms: int = 256) -> float:
    """zeta(s) for an integer s >= 2 by direct summation with an analytic tail.

    The tail past N follows from the midpoint integral with its first
    Euler-Maclaurin corrections, leaving a remainder of order N^-(s+5),
    far below double precision at N = 256.
    """
    n = np.arange(1, terms + 1, dtype=float)
    head = float(np.sum(1.0 / n**s))
    edge = float(terms + 1)
    tail = 1.0 / ((s - 1) * edge ** (s - 1)) + 0.5 / edge**s + (s / 12.0) / edge ** (s + 1)
    tail -= (s * (s + 1) * (s + 2) / 720.0) / edge ** (s + 3)
    return head + tail


ZETA3 = _zeta(3)
C0 = 14.0 * ZETA3 / math.pi**2
CS = 2.0 * math.sqrt(C0)


@dataclass(frozen=True)
class OneDimResult:
    """Optimal even interface count with its energy.

    m_star lists every minimizer (two entries on an exact tie).
    m_continuous is the unconstrained real minimizer sqrt(beta c0 h^2
    / (eps L)) that the integer answer tracks.
    """

    m_star: tuple[int, ...]
    energy: float
    m_continuous: float


def e1d(m: int, params: ModelParams) -> float:
    """Striped energy at an even interface count m."""
    if not isinstance(m, (int, np.integer)) or m < 2 or m % 2 != 0:
        raise InvariantError(f"interface count must be an even integer >= 2, got {m!r}")
    b, eps, L, h = params.beta, params.epsilon, params.length_L, params.height_h
    return b * C0 * h * h / m + eps * L * m


def _striped_scales(params: ModelParams) -> tuple[float, float]:
    """The coefficients beta c0 h^2 and epsilon L of e1d, refused out of float range.

    The first may underflow to 0 (then M* = 2); the second must stay
    positive, and their ratio M*^2 finite.  O(1): it runs at every sweep point.
    """
    b, eps, L, h = params.beta, params.epsilon, params.length_L, params.height_h
    num, den = b * C0 * h * h, eps * L
    if not num < math.inf:
        raise InvariantError(f"beta, height_h: beta c0 h^2 overflows at beta={b!r}, h={h!r}")
    if not 0.0 < den < math.inf:
        raise InvariantError(f"epsilon, length_L: epsilon L is {den!r} at eps={eps!r}, L={L!r}")
    if not num / den < math.inf:
        raise InvariantError(
            "beta, epsilon, length_L, height_h: the interface count "
            f"sqrt(beta c0 h^2 / (epsilon L)) overflows at {params}"
        )
    return num, den


def optimal_even_m(params: ModelParams) -> OneDimResult:
    """Minimize e1d over even m, reporting every exact minimizer."""
    num, den = _striped_scales(params)
    m_cont = math.sqrt(num / den)
    base = max(2, 2 * int(m_cont // 2))
    candidates = sorted({max(2, base + d) for d in (-4, -2, 0, 2, 4)})
    values = [e1d(m, params) for m in candidates]
    best = min(values)
    if not best < math.inf:
        raise InvariantError(f"beta, epsilon, length_L, height_h: e1d overflows at {params}")
    winners = tuple(m for m, v in zip(candidates, values) if v <= best * (1 + 1e-12))
    return OneDimResult(m_star=winners, energy=best, m_continuous=m_cont)


def make_w_m(
    m: int,
    params: ModelParams,
    y0: float = 0.0,
    a0: float = 0.0,
) -> SawtoothProfile:
    """Equispaced sawtooth with m interfaces, rising from (y0, a0).

    The profile has corners at y0 + j h / m, takes the value a0 at y0,
    and rises with slope +1 immediately after y0.
    """
    if not isinstance(m, (int, np.integer)) or m < 2 or m % 2 != 0:
        raise InvariantError(f"interface count must be an even integer >= 2, got {m!r}")
    h = params.height_h
    # slope after the j-th generated corner alternates starting at +1
    prof = SawtoothProfile.from_positions(h, 0.0, y0 + h * np.arange(m) / m, (-1) ** np.arange(m))
    return prof.with_offset_shift(a0 - float(prof.evaluate(y0)))


def lower_bound_decomposition(
    profile: SawtoothProfile, params: ModelParams
) -> tuple[float, float]:
    """Split the striped lower bound into its base and spread parts.

    Returns (E1D(M0), beta c0 sum_i (h_i - h/M0)^2) for the profile's
    M0 corner gaps h_i.  Their sum bounds beta ||v||^2 + eps L M0 from
    below for every admissible profile v, with equality exactly at
    equal spacing.
    """
    if abs(profile.period - params.height_h) > 1e-12 * params.height_h:
        raise InvariantError("profile period must equal height_h")
    m0 = profile.interface_count()
    gaps = profile._gaps()
    h = params.height_h
    spread = params.beta * C0 * float(np.sum((gaps - h / m0) ** 2))
    return e1d(m0, params), spread
