"""Core types for striped twin microstructures.

A cross-section profile u(y) is a continuous, h-periodic sawtooth with
slope +1 or -1 everywhere (unit shear strains).  It is stored as the
ordered list of slope-change ordinates ("corners") in [0, h), the slope
of the segment that starts at y = 0, and the value u(0).  Periodicity
forces an even corner count and equal total length of rising and
falling segments; both are validated on construction.

A Configuration is a finite list of such profiles at increasing x
stations spanning [0, L].  It discretizes a field u(x, y) that is
linear in x between stations, which is the minimizing interpolation
for the shear energy, so the discrete strain term is exact for this
class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = [
    "InvariantError",
    "NonConvergenceError",
    "ModelParams",
    "SawtoothProfile",
    "Configuration",
    "EnergyBreakdown",
    "fourier_coefficients",
    "l2_distance",
    "random_profile",
]

# Corners closer than this fraction of the period collapse on construction.
MERGE_TOL = 1e-12
# Allowed closure defect |total rising - total falling| as a fraction of h.
BALANCE_TOL = 1e-10


class InvariantError(ValueError):
    """A model invariant was violated (malformed profile, params, config)."""


class NonConvergenceError(RuntimeError):
    """A numerical routine could not meet its own accuracy target."""


# -- JSON boundary: type and finiteness checks that name the field -------------


def _json_field(data, key: str, where: str):
    if not isinstance(data, dict):
        raise InvariantError(f"{where} JSON must be an object, got {type(data).__name__}")
    if key not in data:
        raise InvariantError(f"{where} JSON missing field {key!r}")
    return data[key]


def _json_number(value, name: str) -> float:
    """A finite JSON number; booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvariantError(f"{name} must be a number, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise InvariantError(f"{name} must be finite, got {value!r}")
    return v


def _json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise InvariantError(f"{name} must be a list, got {type(value).__name__}")
    return value


def _json_numbers(value, name: str) -> tuple[float, ...]:
    items = _json_list(value, name)
    if all(type(v) is float for v in items) and math.isfinite(sum(items)):  # all finite floats
        return tuple(items)
    return tuple(_json_number(v, f"{name}[{i}]") for i, v in enumerate(items))


def _json_dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, without the standard library's
    pure-Python indenting encoder: a list of finite floats is one join of
    float.__repr__.  A dict key that is not a string goes to json.dumps."""
    try:
        return _json_layout(obj, "\n")
    except TypeError:  # a key to convert, or a value json.dumps refuses with its own message
        return json.dumps(obj, indent=2)


def _json_layout(obj, indent: str) -> str:
    """_json_dumps of obj at the given newline-and-indentation."""
    if type(obj) is int or type(obj) is float and math.isfinite(obj):
        return repr(obj)
    if obj is None:
        return "null"
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return json.dumps(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("a key json.dumps converts")
        parts = [encode_basestring_ascii(k) + ": " + _json_layout(v, inner) for k, v in obj.items()]
    elif all(type(v) is float for v in obj) and math.isfinite(sum(obj)):
        parts = map(float.__repr__, obj)
    else:
        parts = [_json_layout(v, inner) for v in obj]
    ends = "{}" if isinstance(obj, dict) else "[]"
    return ends[0] + inner + ("," + inner).join(parts) + indent + ends[1]


@dataclass(frozen=True)
class ModelParams:
    """Problem constants: interface weight beta, surface weight epsilon,
    domain length L (x direction) and period h (y direction)."""

    beta: float
    epsilon: float
    length_L: float
    height_h: float
    _NAMES = ("beta", "epsilon", "length_L", "height_h")  # the fields, as JSON keys

    def __post_init__(self) -> None:
        for name in self._NAMES:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise InvariantError(f"ModelParams.{name} must be positive and finite, got {v!r}")

    def sigma(self) -> float:
        """Dimensionless regime parameter beta * epsilon**(-1/3) * L**(1/3)."""
        return self.beta * self.epsilon ** (-1.0 / 3.0) * self.length_L ** (1.0 / 3.0)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self._NAMES}

    @classmethod
    def from_json(cls, data: dict) -> "ModelParams":
        return cls(*(_json_number(_json_field(data, n, "params"), f"params.{n}") for n in cls._NAMES))


def _merge_degenerate(corners: list[float], initial_slope: int, period: float) -> tuple[list[float], int]:
    """Drop zero-length segments pairwise so slope alternation survives.

    A pair of corners closer than MERGE_TOL*period bounds a segment of
    negligible length; removing both keeps the corner count even and the
    remaining slopes consistent.  Removing the wrap-around pair flips the
    slope at y = 0.
    """
    tol = MERGE_TOL * period
    while len(corners) >= 2:
        # the first short segment in order, the wrap segment last
        j = next((j for j in range(len(corners) - 1) if corners[j + 1] - corners[j] < tol), None)
        if j is not None:
            del corners[j : j + 2]
        elif corners[0] + period - corners[-1] < tol:
            # wrap pair (last, first): the segment through y=0 vanishes
            del corners[-1], corners[0]
            initial_slope = -initial_slope
        else:
            break
    return corners, initial_slope


@dataclass(frozen=True)
class SawtoothProfile:
    """Continuous h-periodic function with slope +-1 between corners.

    period: h > 0
    offset: value u(0)
    initial_slope: slope (+1 or -1) of the segment that starts at y = 0
    corners: strictly increasing ordinates in [0, period), even count

    The corner array and segment lengths and slopes are computed on
    construction, corner values and nodes on first use; all are kept as
    read-only arrays and returned without copying.
    """

    period: float
    offset: float
    initial_slope: int
    corners: tuple[float, ...]

    def __post_init__(self) -> None:
        h = self.period
        if not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0):
            raise InvariantError(f"period must be positive, got {h!r}")
        if not math.isfinite(self.offset):
            raise InvariantError("offset must be finite")
        if self.initial_slope not in (1, -1):
            raise InvariantError(f"initial_slope must be +1 or -1, got {self.initial_slope!r}")
        cs = [float(c) for c in self.corners]
        if any(not math.isfinite(c) or c < 0.0 or c >= h for c in cs):
            raise InvariantError("corners must lie in [0, period)")
        if any(b <= a for a, b in zip(cs, cs[1:])):
            raise InvariantError("corners must be strictly increasing")
        slope = int(self.initial_slope)
        cs, slope = _merge_degenerate(cs, slope, h)
        if len(cs) < 2:
            raise InvariantError("a periodic unit-slope profile needs at least 2 corners")
        if len(cs) % 2 != 0:
            raise InvariantError("corner count must be even")
        object.__setattr__(self, "corners", tuple(cs))
        object.__setattr__(self, "initial_slope", slope)
        object.__setattr__(self, "period", float(h))
        object.__setattr__(self, "offset", float(self.offset))
        # segment j runs from corner j to corner j+1, cyclically
        c = np.asarray(cs)
        gaps = np.empty(len(cs))
        np.subtract(c[1:], c[:-1], out=gaps[:-1])
        gaps[-1] = (c[0] + h) - c[-1]
        slopes = (slope if cs[0] == 0.0 else -slope) * (-1.0) ** np.arange(len(cs))
        # rising and falling segments must each cover half the period
        defect = float(np.dot(slopes, gaps))
        if abs(defect) > BALANCE_TOL * h:
            raise InvariantError(
                f"profile does not close periodically: signed slope integral {defect:.3e}"
            )
        for name, arr in (("_c", c), ("_gap", gaps), ("_s", slopes)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def _vals(self) -> np.ndarray:
        vals = np.empty(len(self._c))
        vals[0] = self.offset + self.initial_slope * self._c[0]
        vals[1:] = vals[0] + np.cumsum(self._s[:-1] * self._gap[:-1])
        vals.flags.writeable = False
        return vals

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, np.ndarray]:
        lead = int(self._c[0] > 0.0)  # a node at 0 ahead of the first corner
        ys = np.concatenate(([0.0] * lead, self._c, [self.period]))
        vs = np.concatenate(([self.offset] * lead, self._vals, [self.offset]))
        ys.flags.writeable = vs.flags.writeable = False
        return ys, vs

    @classmethod
    def from_positions(cls, period: float, offset: float, positions, slopes) -> "SawtoothProfile":
        """Profile with corners at the given positions, in any order, taken mod period.

        slopes[k] is the slope right after positions[k]; y = 0 lies on the
        segment after the last corner unless a corner sits at 0.
        """
        pos = np.mod(np.asarray(positions, dtype=float), period)
        order = np.argsort(pos, kind="stable")
        pos, after = pos[order], np.asarray(slopes)[order]
        init = int(after[-1] if pos[0] > 0.0 else after[0])
        return cls(period, offset, init, tuple(pos))

    def _gaps(self) -> np.ndarray:
        """Segment lengths between consecutive corners, cyclic."""
        return self._gap

    def slope_after_corners(self) -> np.ndarray:
        """Slope immediately after each corner (read-only)."""
        return self._s

    def corner_values(self) -> np.ndarray:
        """u at each corner (read-only)."""
        return self._vals

    # -- public operations --------------------------------------------------

    def evaluate(self, y) -> np.ndarray | float:
        """u(y), periodic in y.  Accepts scalars or arrays."""
        yr = np.mod(np.asarray(y, dtype=float), self.period)
        c, vals, s = self._c, self._vals, self._s
        j = np.searchsorted(c, yr, side="right") - 1
        # j < 0: y in [0, corners[0]), on the segment wrapping through 0
        out = np.where(j < 0, self.offset + self.initial_slope * yr, vals[j] + s[j] * (yr - c[j]))
        return float(out) if out.ndim == 0 else out

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoints 0 = y_0 < ... < y_n = period and values there.

        The values are [offset,] corner values..., offset (the leading
        offset only when no corner sits at 0).  Between consecutive
        nodes the profile is linear.  Both arrays are built once, on
        first use, and are read-only.
        """
        return self._nodes

    def interface_count(self) -> int:
        return len(self.corners)

    def mean(self) -> float:
        """Average of u over one period (exact)."""
        ys, vs = self.nodes()
        return float(np.sum((vs[:-1] + vs[1:]) * 0.5 * np.diff(ys)) / self.period)

    def translated(self, dy: float) -> "SawtoothProfile":
        """Profile of u(y - dy) (graph shifted right by dy)."""
        return self.from_positions(self.period, float(self.evaluate(-dy)), self._c + dy, self._s)

    def with_offset_shift(self, delta: float) -> "SawtoothProfile":
        return replace(self, offset=self.offset + delta)

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "offset": self.offset,
            "initial_slope": self.initial_slope,
            "corners": list(self.corners),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SawtoothProfile":
        return cls(*cls._json_fields(data))

    @staticmethod
    def _json_fields(data: dict) -> tuple[float, float, int, tuple[float, ...]]:
        """The four checked fields of a profile's JSON object, in constructor order."""
        period, offset, slope = (
            _json_number(_json_field(data, n, "profile"), n)
            for n in ("period", "offset", "initial_slope")
        )
        if slope not in (1.0, -1.0):
            raise InvariantError(f"initial_slope must be +1 or -1, got {data['initial_slope']!r}")
        corners = _json_numbers(_json_field(data, "corners", "profile"), "corners")
        return period, offset, int(slope), corners


@dataclass(frozen=True)
class Configuration:
    """Profiles at increasing x stations spanning [0, L]."""

    params: ModelParams
    stations: tuple[float, ...]
    profiles: tuple[SawtoothProfile, ...]

    def __post_init__(self) -> None:
        L = self.params.length_L
        xs = tuple(float(x) for x in self.stations)
        if not all(math.isfinite(x) for x in xs):
            raise InvariantError("stations must be finite")
        if len(xs) == 0:
            raise InvariantError("configuration needs at least one station")
        if len(xs) != len(self.profiles):
            raise InvariantError("stations and profiles must have equal length")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise InvariantError("stations must be strictly increasing")
        if abs(xs[0] - 0.0) > 1e-12 * L or abs(xs[-1] - L) > 1e-12 * L:
            if len(xs) == 1 and abs(xs[0]) <= 1e-12 * L:
                pass  # single-station configuration sits at x = 0
            else:
                raise InvariantError("stations must start at 0 and end at length_L")
        h = self.params.height_h
        for p in self.profiles:
            if abs(p.period - h) > 1e-12 * h:
                raise InvariantError("all profile periods must equal height_h")
        object.__setattr__(self, "stations", xs)
        object.__setattr__(self, "profiles", tuple(self.profiles))

    @property
    def boundary_profile(self) -> SawtoothProfile:
        """Trace at x = 0, the side that meets the unstrained half-plane."""
        return self.profiles[0]

    def replace_profile(self, j: int, profile: SawtoothProfile) -> "Configuration":
        ps = list(self.profiles)
        ps[j] = profile
        return Configuration(self.params, self.stations, tuple(ps))

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "stations": list(self.stations),
            "profiles": [p.to_json() for p in self.profiles],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Configuration":
        """Configuration from its JSON object.

        Consecutive profile entries whose fields are equal bit for bit
        (so -0.0 and 0.0 differ) load as one shared profile object.
        """
        params = ModelParams.from_json(_json_field(data, "params", "configuration"))
        stations = _json_numbers(_json_field(data, "stations", "configuration"), "stations")
        entries = _json_list(_json_field(data, "profiles", "configuration"), "profiles")
        profiles, last = [], None
        for i, p in enumerate(entries):
            try:
                fields = SawtoothProfile._json_fields(p)
                bits = np.array([*fields[:3], *fields[3]]).tobytes()
                if bits != last:
                    profile, last = SawtoothProfile(*fields), bits
            except InvariantError as exc:
                raise InvariantError(f"profiles[{i}]: {exc}") from exc
            profiles.append(profile)
        return cls(params, stations, tuple(profiles))

    def dumps(self) -> str:
        return _json_dumps(self.to_json())


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split into its three contributions; the total is their sum."""

    austenite: float
    strain: float
    surface: float
    _NAMES = ("austenite", "strain", "surface", "total")  # the parts and their sum, as JSON keys

    def __post_init__(self) -> None:
        for name in self._NAMES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvariantError(f"EnergyBreakdown.{name} must be finite, got {v!r}")

    @property
    def total(self) -> float:
        return self.austenite + self.strain + self.surface

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self._NAMES}


# -- free-function operations ------------------------------------------------


def fourier_coefficients(profile: SawtoothProfile, ks: np.ndarray) -> np.ndarray:
    """uhat(k) = -(1 / (h w^2)) sum_j 2 s_j exp(-i w c_j), w = 2 pi k / h, at nonzero integer ks."""
    ks = np.asarray(ks)
    if np.any(ks == 0):
        raise InvariantError("fourier_coefficients expects nonzero modes")
    h = profile.period
    c = np.asarray(profile.corners)
    ds = 2.0 * profile.slope_after_corners()
    w = 2.0 * np.pi * ks / h
    phase = np.exp(-1j * np.outer(w, c))
    return -(phase @ ds) / (h * w**2)


def _merged_nodes(p: SawtoothProfile, q: SawtoothProfile) -> np.ndarray:
    """Node ordinates of p and q, sorted, each once: np.union1d of the two, bit for bit."""
    ys = np.concatenate((p.nodes()[0], q.nodes()[0]))
    ys.sort(kind="stable")
    return ys[np.concatenate(([True], ys[1:] != ys[:-1]))]


def l2_distance(p: SawtoothProfile, q: SawtoothProfile) -> float:
    """L2 norm of p - q over one period, exact.

    p - q is piecewise linear with breakpoints at the union of the two
    cached node sets, so each cell integrates in closed form; each
    profile is evaluated once, at all cuts together.
    """
    if abs(p.period - q.period) > 1e-12 * p.period:
        raise InvariantError("l2_distance requires equal periods")
    cuts = _merged_nodes(p, q)
    dv = p.evaluate(cuts) - q.evaluate(cuts)
    va, vb = dv[:-1], dv[1:]
    # exact integral of a linear function squared on each cell
    total = float(np.sum(np.diff(cuts) * (va * va + va * vb + vb * vb) / 3.0))
    return math.sqrt(max(total, 0.0))


def random_profile(
    rng: np.random.Generator,
    period: float = 1.0,
    n_teeth: int | None = None,
    max_teeth: int = 8,
    min_gap_frac: float = 0.02,
) -> SawtoothProfile:
    """Random admissible profile: rising and falling lengths each period/2.

    Draws the rising gaps and falling gaps as independent normalized
    uniform partitions so the closure invariant holds exactly.  Gaps
    are resampled until none is shorter than min_gap_frac * period / M.
    """
    m = int(n_teeth) if n_teeth is not None else int(rng.integers(1, max_teeth + 1))
    if m < 1:
        raise InvariantError("need at least one tooth")
    half = period / 2.0
    for _ in range(1000):
        up = rng.random(m)
        dn = rng.random(m)
        up = up / up.sum() * half
        dn = dn / dn.sum() * half
        gaps = np.empty(2 * m)
        gaps[0::2] = up
        gaps[1::2] = dn
        if gaps.min() >= min_gap_frac * period / (2 * m):
            break
    else:  # pragma: no cover - vanishing probability
        raise NonConvergenceError("could not draw well-separated gaps")
    start = rng.random() * period
    offset = float(rng.normal() * 0.1 * period)
    # slope after the j-th drawn corner is +1 for even j (rising gap follows)
    pos = start + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    return SawtoothProfile.from_positions(period, offset, pos, (-1) ** np.arange(2 * m))
