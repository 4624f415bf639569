"""The package's public names: the paper's quantities and what the CLI needs."""

import unsharp

PUBLIC = [
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


def test_all_is_pinned():
    assert unsharp.__all__ == PUBLIC
    assert all(hasattr(unsharp, name) for name in PUBLIC)


def test_test_oracles_stay_in_their_modules():
    # The two test oracles live in tests/oracles.py; the benchmark calls sampled_min.
    for name in ("device_uncertainty_qubit", "berta_reduced_bound", "sampled_min"):
        assert not hasattr(unsharp, name)
    assert not hasattr(unsharp.uncertainty, "device_uncertainty_qubit")
    assert not hasattr(unsharp.bounds, "berta_reduced_bound")
    assert callable(unsharp.sampling.sampled_min)
