"""Numerics for striped twin microstructures against an unstrained half-plane.

Subpackages cover the profile model, the three energy contributions,
the exact one-dimensional (striped) theory, screened-kernel chessboard
and reflection-positivity estimates, the interval-localization
certificate, and candidate constructions with relaxation and phase
sweeps.  The command line lives in twinstripe.cli.
"""

from .model_core import (
    Configuration,
    EnergyBreakdown,
    InvariantError,
    ModelParams,
    NonConvergenceError,
    SawtoothProfile,
    l2_distance,
)
from .energy import (
    h_half_sq,
    h_half_sq_fourier,
    strain_energy,
    surface_energy,
    total_energy,
)
from .one_dim import C0, CS, e1d, make_w_m, optimal_even_m
from .chessboard import (
    check_chessboard_bound,
    check_master_inequality,
    check_rp_inequality,
    verify_suite,
)
from .localization import (
    bmo_seminorm,
    build_comparison,
    build_partition,
    certificate_check,
    classify_intervals,
)
from .optimize import (
    RelaxOptions,
    SweepGrid,
    branched_candidate,
    phase_sweep,
    relax,
    striped_candidate,
)

__version__ = "0.1.0"
