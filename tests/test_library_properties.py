"""Property tests of the library input layers.

Hypothesis feeds JSON documents to ``povm_from_json`` and ``state_from_json``
and effect arrays to ``Povm``: well-formed ones with finite entries up to
+-1.7e308, and mis-shaped or mis-typed ones. Only ``ParseError`` or a
``ValidationError`` may escape, and no NumPy warning may be raised.

At the edges of tolerance, valid inputs are perturbed to just inside one
tolerance (the input ones, ``basis_tol`` and the ``TOL_PROJECTIVE``
classifier), or by 10^-3 to 10^3 times it, and whatever one check
accepts must pass every later step: an accepted basis builds every POVM
family, an accepted vector a state that ``validate_density`` and the JSON
loader accept, and an accepted POVM and state give ``analyze`` and
``bounds`` output that parses as strict JSON.
"""

import contextlib
import io
import json
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unsharp.cli import main
from unsharp.errors import NotOrthonormal, ParseError, TraceNotOne, ValidationError
from unsharp.linalg import (
    TOL_HERMITIAN,
    TOL_PROJECTIVE,
    TOL_PSD,
    TOL_RECONSTRUCT,
    TOL_TRACE,
    basis_tol,
    pure_state_density,
    require_orthonormal,
    validate_density,
)
from unsharp.povm import Povm, amplitude_damping_povm, projective_from_basis, white_noise_povm
from unsharp.sampling import random_basis, random_mixed_state, random_povm, random_state_vector
from unsharp.serialize import povm_from_json, povm_to_json, state_from_json, state_to_json

FUZZ = settings(
    max_examples=50, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Finite doubles of any size, small integers, and values near the float
# maximum or at the bottom of the subnormals.
NUMBERS = st.one_of(
    st.floats(min_value=-1.7e308, max_value=1.7e308),
    st.sampled_from([0.0, 1.0, 0.5, -1.0, 1e308, -1e308, 1e200, 5e-324]),
    st.integers(-3, 3),
)
JUNK = st.sampled_from([None, "0.5", True, 10**400, float("nan"), float("inf"), [], {}, [1.0]])
KEYS = st.sampled_from(["dim", "effects", "matrix", "vector"])
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=12,
)


def _pair(z) -> list:
    return [float(z.real), float(z.imag)]


def _lists(node):
    """Every list in a nested-list document, outermost first."""
    if isinstance(node, list):
        yield node
        for item in node:
            yield from _lists(item)


@st.composite
def _documents(draw, fields):
    """A document with one of fields: valid or random entries, then at most one fault.

    Faults: one [re, im] pair replaced by large numbers or by junk, a bad
    dim, one list shortened or lengthened, or any JSON value at all.
    """
    d = draw(st.integers(1, 3))
    field = draw(st.sampled_from(fields))
    if draw(st.booleans()):
        effects, rho, psi = np.eye(d)[:, None, :] * np.eye(d)[:, :, None], np.eye(d) / d, np.eye(d)[0]
    else:
        entries = np.array(draw(st.lists(NUMBERS, min_size=2 * d * d, max_size=2 * d * d)), dtype=float)
        entries = entries.reshape(2, d, d)
        # A Hermitian matrix of these entries; each sum has one nonzero term, so none overflows.
        upper = np.triu(entries, 1)
        rho = np.empty((d, d), dtype=complex)
        rho.real, rho.imag = upper[0] + upper[0].T + np.diag(np.diag(entries[0])), upper[1] - upper[1].T
        effects, psi = np.stack([rho, np.eye(d)]), entries[0, 0] + 1j * entries[1, 0]
    body = {"effects": effects, "matrix": rho, "vector": psi}[field]
    body = np.vectorize(_pair, otypes=[object])(body).tolist()
    doc = {"dim": d, field: body}
    fault = draw(st.sampled_from(["none", "number", "number", "junk", "dim", "shape", "any"]))
    if fault in ("number", "junk"):
        rows = [n for n in _lists(body) if isinstance(n[0], list) and not isinstance(n[0][0], list)]
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = [draw(NUMBERS), draw(NUMBERS)] if fault == "number" else draw(JUNK)
    elif fault == "dim":
        doc["dim"] = draw(JUNK)
    elif fault == "shape":
        node = draw(st.sampled_from(list(_lists(body))))
        node.append(node[0]) if draw(st.booleans()) else node.pop()
    elif fault == "any":
        doc = draw(JSON)
    return doc


@st.composite
def _effect_arrays(draw):
    """(n, d, d) complex arrays: Hermitian, completed to sum to I, or neither; or ragged nesting."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    how = draw(st.sampled_from(["complete", "hermitian", "raw", "nested"]))
    if how == "nested":
        return draw(st.lists(st.lists(st.one_of(NUMBERS, JUNK, st.lists(NUMBERS, max_size=3)), max_size=3), max_size=3))
    parts = np.array(draw(st.lists(NUMBERS, min_size=2 * n * d * d, max_size=2 * n * d * d)), dtype=float)
    effects = parts[: n * d * d].reshape(n, d, d) + 1j * parts[n * d * d :].reshape(n, d, d)
    if how != "raw":
        upper = np.triu(effects, 1)
        effects = upper + upper.conj().swapaxes(-1, -2) + np.real(effects * np.eye(d))
    if how == "complete":
        with np.errstate(over="ignore", invalid="ignore"):
            effects[-1] = np.eye(d) - effects[:-1].sum(axis=0)
    return effects


def _only_typed_errors(build, arg):
    """build(arg) raises ParseError or ValidationError, or returns finite arrays."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            built = build(arg)
        except (ParseError, ValidationError):
            return
    arrays = (built.eigenvalues, built.eigenvectors) if isinstance(built, Povm) else (built,)
    assert all(np.isfinite(a).all() for a in arrays)


@FUZZ
@given(_documents(["effects"]))
def test_povm_documents(doc):
    _only_typed_errors(povm_from_json, doc)


@FUZZ
@given(_documents(["matrix", "vector"]))
def test_state_documents(doc):
    _only_typed_errors(state_from_json, doc)


@FUZZ
@given(_effect_arrays())
def test_effect_arrays(effects):
    _only_typed_errors(Povm, effects)


EDGE = settings(max_examples=40, derandomize=True, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
# A multiple of a tolerance: just inside it, or anywhere from 1e-3 to 1e3
# times it, which finds a later check tighter than the one before it.
FACTORS = st.one_of(st.floats(0.5, 0.99), st.floats(-3.0, 3.0).map(lambda x: 10.0**x))


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@EDGE
@given(st.integers(2, 8), SEEDS, FACTORS)
def test_accepted_bases_build_every_povm(d, seed, factor):
    rng = np.random.default_rng(seed)
    basis, noise = random_basis(d, rng), _complex_normal(rng, (d, d))
    # basis + s * noise has Gram defect s * max |B* N^T + N* B^T| to first order.
    linear = abs(basis.conj() @ noise.T + noise.conj() @ basis.T).max()
    basis = basis + factor * basis_tol(d) / linear * noise
    try:
        basis = require_orthonormal(basis)
    except NotOrthonormal:
        return
    projective_from_basis(basis)
    white_noise_povm(basis, np.linspace(0.0, 1.0, 11))
    if d == 3:
        amplitude_damping_povm(basis, np.linspace(0.0, 1.0, 11))


@EDGE
@given(st.integers(2, 6), SEEDS, FACTORS, st.sampled_from([-1.0, 1.0]))
def test_accepted_vectors_give_valid_states(d, seed, factor, sign):
    psi = random_state_vector(d, seed) * np.sqrt(1.0 + sign * factor * TOL_TRACE)
    try:
        rho = pure_state_density(psi)
    except TraceNotOne:
        return
    validate_density(rho)
    np.testing.assert_array_equal(state_from_json({"dim": d, "vector": [_pair(z) for z in psi]}), rho)


def _anti_hermitian(rng, shape, defect):
    """Anti-Hermitian matrices X with max |X - X^dagger| = defect."""
    x = _complex_normal(rng, shape)
    x = x - x.conj().swapaxes(-1, -2)
    return x * (defect / abs(2.0 * x).max())


def _edge_effects(rng, d, sharp, kind, factor):
    """Effects of a valid POVM, projective or random, moved toward one tolerance."""
    if kind == "completeness" and sharp:
        # Projectors onto the normalized rows of a perturbed basis: spectra
        # exactly {0, 1}, effect sum off I linearly in the perturbation.
        basis, noise = random_basis(d, rng), _complex_normal(rng, (d, d))
        probe = basis + 1e-6 * noise
        probe /= np.linalg.norm(probe, axis=-1, keepdims=True)
        residual = abs(np.einsum("ni,nj->ij", probe, probe.conj()) - np.eye(d)).max()
        rows = basis + 1e-6 * factor * TOL_RECONSTRUCT / residual * noise
        rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
        return np.einsum("ni,nj->nij", rows, rows.conj())
    povm = projective_from_basis(random_basis(d, rng)) if sharp else random_povm(d, 3, rng)
    effects = np.array(povm.effects)
    if kind == "hermitian":
        effects += _anti_hermitian(rng, effects.shape, factor * TOL_HERMITIAN)
    elif kind == "positivity":
        # Shifts by -t I and +t I: spectra reach -t and 1 + t, the sum stays I.
        effects[0] -= factor * TOL_PSD * np.eye(d)
        effects[1] += factor * TOL_PSD * np.eye(d)
    elif kind == "projectivity":
        # White noise t: a sharp POVM stays within TOL_PROJECTIVE of projective
        # while t (1 - 1/d) <= TOL_PROJECTIVE, so bounds takes its eigenvectors.
        t = factor * TOL_PROJECTIVE
        effects = (1.0 - t) * effects + t * np.eye(d) / d
    else:
        h = _complex_normal(rng, (d, d))
        h = h + h.conj().T
        effects[0] += factor * TOL_RECONSTRUCT / abs(h).max() * h
    return effects


def _edge_state(rng, d, kind, factor):
    """A valid pure or mixed state moved toward one tolerance."""
    psi, other = random_basis(d, rng)[:2]
    pure, orthogonal = np.outer(psi, psi.conj()), np.outer(other, other.conj())
    if kind == "positivity":
        # Spectrum 1 + t, -t and zeros: trace 1, lowest eigenvalue -t.
        return pure + factor * TOL_PSD * (pure - orthogonal)
    rho = np.array(random_mixed_state(d, rng)) if rng.random() < 0.5 else pure
    if kind == "hermitian":
        return rho + _anti_hermitian(rng, (d, d), factor * TOL_HERMITIAN)
    return rho * (1.0 + rng.choice([-1.0, 1.0]) * factor * TOL_TRACE)


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def _report(args) -> None:
    """cli.main(args) exits 0 and prints strict JSON with finite values."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0
    doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert all(np.isfinite(v) for v in doc.get("values", doc).values())


@EDGE
@given(
    st.integers(2, 5),
    SEEDS,
    st.booleans(),
    st.sampled_from(["hermitian", "positivity", "completeness", "projectivity"]),
    st.sampled_from(["hermitian", "positivity", "trace"]),
    FACTORS,
)
def test_accepted_inputs_give_strict_json_reports(tmp_path_factory, d, seed, sharp, povm_kind, state_kind, factor):
    rng = np.random.default_rng(seed)
    try:
        povms = [Povm(_edge_effects(rng, d, sharp, povm_kind, factor)) for _ in range(2)]
        rho = validate_density(_edge_state(rng, d, state_kind, factor))
    except ValidationError:
        return
    folder = tmp_path_factory.mktemp("edge")
    docs = {"a.json": povm_to_json(povms[0]), "b.json": povm_to_json(povms[1]), "state.json": state_to_json(rho)}
    for name, doc in docs.items():
        (folder / name).write_text(json.dumps(doc))
    a, b, state = (str(folder / name) for name in docs)
    _report(["analyze", a, "--state", state])
    _report(["bounds", a, b, "--state", state])
