"""Numerical toolkit for weighted entire-function spaces on C^n.

Norms with polynomial weight order m, separated lattices, averaged
measure transforms, (p, q) embedding classification, and boundedness,
compactness and essential-norm analysis of weighted composition
operators, at desk scale for one and two complex variables.
"""

from .carleson import (
    CarlesonVerdict,
    carleson_lower_bound,
    classify_carleson,
    embedding_ratio,
)
from .compop import (
    AffineMap,
    CompOpVerdict,
    PolynomialMap,
    SymbolPair,
    affine_symbol,
    classify_compop,
    direct_operator_norm,
    essential_norm_estimate,
    identity_symbol,
    linear_symbol_check,
    log_berezin_compop,
    one,
    pullback_measure,
    transform_profile,
    weight_profile,
)
from .funcspace import (
    EvaluationOverflow,
    KernelCombo,
    KernelTerm,
    Params,
    Polynomial,
    fock_sobolev_norm,
    kernel,
    log_abs,
    log_weight,
    norm_constant,
    norm_integrand_field,
    norm_with_error,
    polynomial,
    probe_family,
)
from .geometry import Lattice, LatticeReport, covering_multiplicity, make_lattice, verify_lattice
from .measures import (
    AtomicMeasure,
    DensityMeasure,
    atoms_on_lattice,
    averaging_sequence,
    ball_mass_many,
    discretize,
    effective_radius,
    gaussian,
    lebesgue,
    polygrowth,
    ring,
    total_weighted_mass,
)
from .quadrature import (
    DivergentIntegral,
    Integral,
    QuadratureError,
    ScalarField,
    integrate_gaussian,
    scalar_field,
    sup_field_norm,
    truncation_radius,
)
from .scenarios import (
    CompOpScenario,
    MeasureScenario,
    composition_suite,
    expected_measure_verdict,
    measure_suite,
)

__version__ = "0.1.0"
