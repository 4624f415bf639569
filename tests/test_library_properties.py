"""Property tests of the two library input layers, with warnings as errors.

Hypothesis feeds JSON documents to ``povm_from_json`` and ``state_from_json``
and effect arrays to ``Povm``: well-formed ones with finite entries up to
+-1.7e308, and mis-shaped or mis-typed ones. Only ``ParseError`` or a
``ValidationError`` may escape, and no NumPy warning may be raised.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unsharp.errors import ParseError, ValidationError
from unsharp.povm import Povm
from unsharp.serialize import povm_from_json, state_from_json

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
    arrays = (built.eigenvalues, built.eigenvectors) if isinstance(built, Povm) else (built.matrix,)
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
