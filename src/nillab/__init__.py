"""nillab: an exact-arithmetic laboratory for Heisenberg skew products,
prime-pair joinings, and Mobius correlation experiments."""

from .fixedpoint import FixedPointInexact, FixedReal, parse_real, sqrt_q64
from .heisenberg import (
    HEISENBERG,
    GroupElement,
    GroupLaw,
    LatticeElement,
    LawMismatch,
    NilPoint,
    canonical_rep,
    identity,
    inv,
    is_prime,
    lattice_floor,
    mul,
    nil_point,
    project_pi,
)
from .dynamics import (
    BaseFunctionSpec,
    JoiningSystem,
    SkewSystem,
    TrigTerm,
    build_joining,
    cocycle_sum,
    iterate_T,
    rho,
    step_T,
)
from .engine import OrbitSegmentPlan, orbit_stream, orbit_stream_naive
from .observables import (
    BumpProfile,
    Observable,
    eval_observable,
    fiber_average,
)
from .moebius import (
    CorrelationReport,
    MobiusTable,
    bilinear_sum,
    bilinear_sum_reduced,
    correlation_sum,
    davenport_baseline,
    sieve_mobius,
)
from .diagnostics import (
    CoboundaryReport,
    ProofConstants,
    WeylReport,
    boundary_increment_Fn,
    coboundary_search,
    lipschitz_estimate,
    proof_constants,
    weyl_sums,
    winding_in_x,
)

__version__ = "0.1.0"
