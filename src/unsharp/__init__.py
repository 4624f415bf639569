"""Entropy-based unsharpness of quantum measurements and entropic bounds.

The package quantifies how much of the entropy of measurement outcomes is
caused by the measuring device itself (its unsharpness) versus the measured
state, and implements the family of entropic uncertainty-relation lower
bounds built from that split: single-measurement resolution and minimized
device-uncertainty bounds, the pair bound -log2 C, the basis-pair bounds of
``basis_pair_bounds`` (the largest-overlap bound, its white-noise extension
B1, the direct-sum majorization bounds H(W), Q(W) and B2), and the minimized
pair device uncertainty with its amplitude-damping closed form. All entropies are in bits.
"""

from .bounds import (
    BoundReport,
    MajorizationVector,
    ad_coles_closed_form,
    basis_pair_bounds,
    coles_bound,
    device_uncertainty_white_noise,
    krishna_bound,
    majorization_vector,
    min_device_uncertainty,
    min_pair_device_bound,
    pair_bound_report,
)
from .errors import (
    CompletenessViolated,
    DegenerateDraw,
    DimensionMismatch,
    EigenvalueAboveOne,
    NotFinite,
    NotHermitian,
    NotOrthonormal,
    NotPositive,
    ParseError,
    TraceNotOne,
    ValidationError,
)
from .linalg import (
    pure_state_density,
    validate_density,
)
from .povm import (
    Povm,
    QubitPovmParams,
    amplitude_damping_povm,
    convex_combination,
    make_povm,
    mub_fourier_basis,
    projective_from_basis,
    qubit_povm,
    white_noise_povm,
)
from .sampling import (
    random_basis,
    random_mixed_state,
    random_povm,
    random_pure_state,
    random_state_vector,
)
from .uncertainty import (
    binary_entropy,
    device_uncertainty,
    device_uncertainty_operator,
    f_white_noise,
    outcome_probs,
    quantum_uncertainty,
    shannon_entropy,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CompletenessViolated",
    "DegenerateDraw",
    "DimensionMismatch",
    "EigenvalueAboveOne",
    "MajorizationVector",
    "NotFinite",
    "NotHermitian",
    "NotOrthonormal",
    "NotPositive",
    "ParseError",
    "Povm",
    "QubitPovmParams",
    "TraceNotOne",
    "ValidationError",
    "ad_coles_closed_form",
    "amplitude_damping_povm",
    "basis_pair_bounds",
    "binary_entropy",
    "coles_bound",
    "convex_combination",
    "device_uncertainty",
    "device_uncertainty_operator",
    "device_uncertainty_white_noise",
    "f_white_noise",
    "krishna_bound",
    "majorization_vector",
    "make_povm",
    "min_device_uncertainty",
    "min_pair_device_bound",
    "mub_fourier_basis",
    "outcome_probs",
    "pair_bound_report",
    "projective_from_basis",
    "pure_state_density",
    "quantum_uncertainty",
    "qubit_povm",
    "random_basis",
    "random_mixed_state",
    "random_povm",
    "random_pure_state",
    "random_state_vector",
    "shannon_entropy",
    "validate_density",
    "von_neumann_entropy",
    "white_noise_povm",
]
