"""Exact loop invariants on symplectic one-point blow-ups.

Exact arithmetic lives in rational functions of a formal variable t
standing for the blow-up weight pi rho^2; numerical modules verify the
local model (radial profile, chart map, pushforward integrals) at
concrete parameter values.
"""

from .exact_field import (
    TAU,
    TauPoly,
    TauRat,
    eval_at,
    eval_exact,
    format_rational,
    membership_in_lattice,
    parse_rational,
    parse_taurat,
    poly_gcd,
)
from .local_model import (
    FD_STEP,
    CheckResult,
    DivisorDirection,
    LocalHamiltonian,
    LocalModelParams,
    UnitaryLoop,
    beta_profile,
    divisor_continuity_check,
    f_rho,
    lifted_hamiltonian,
    s1_invariance_check,
    symplectic_pullback_check,
    vector_field_relation_check,
)
from .period import PeriodLattice, QuotientClass, blowup_lattice, class_order
from .quadrature import (
    MC_SEED,
    AnnulusComparison,
    IntegralResult,
    integrate_ball,
    verify_annulus_pushforward,
    verify_normalized_lemma,
)
from .rank import RankCertificate, certify_rank, relation_kernel
from .weinstein import (
    CircleLoopSpec,
    ManifoldSpec,
    WeinsteinValue,
    ball_integral_closed_form,
    calabi_lift,
    circle_loop_order,
    lift_value_circle,
    lift_value_general,
)

__all__ = [
    "TAU",
    "TauPoly",
    "TauRat",
    "eval_at",
    "eval_exact",
    "format_rational",
    "membership_in_lattice",
    "parse_rational",
    "parse_taurat",
    "poly_gcd",
    "PeriodLattice",
    "QuotientClass",
    "blowup_lattice",
    "class_order",
    "CircleLoopSpec",
    "ManifoldSpec",
    "WeinsteinValue",
    "ball_integral_closed_form",
    "calabi_lift",
    "circle_loop_order",
    "lift_value_circle",
    "lift_value_general",
    "RankCertificate",
    "certify_rank",
    "relation_kernel",
    "FD_STEP",
    "CheckResult",
    "DivisorDirection",
    "LocalHamiltonian",
    "LocalModelParams",
    "UnitaryLoop",
    "beta_profile",
    "divisor_continuity_check",
    "f_rho",
    "lifted_hamiltonian",
    "s1_invariance_check",
    "symplectic_pullback_check",
    "vector_field_relation_check",
    "MC_SEED",
    "AnnulusComparison",
    "IntegralResult",
    "integrate_ball",
    "verify_annulus_pushforward",
    "verify_normalized_lemma",
]
