"""JSON schemas for POVMs and states.

Complex numbers are 2-element arrays [re, im]. A matrix is a row-major list
of rows of such pairs.

POVM:  {"dim": d, "effects": [matrix, ...]}
State: {"dim": d, "matrix": matrix}  or  {"dim": d, "vector": [[re, im], ...]}
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .linalg import pure_state_density, validate_density
from .povm import Povm


def json_int(value, what: str) -> int:
    """An integer JSON value: 3 and 3.0 pass; 2.7, "3", true and null raise ParseError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _decode_complex(obj, shape: tuple[int, ...], context: str) -> np.ndarray:
    """Complex array of the given shape from nested [re, im] pairs of JSON numbers.

    null, strings, booleans and integers too large for a float raise ParseError.
    """
    arr = np.array(obj, dtype=object)
    if arr.shape != (*shape, 2):
        raise ParseError(f"{context}: expected shape {(*shape, 2)}, got {arr.shape}")
    if not all(issubclass(kind, (int, float)) and kind is not bool for kind in set(map(type, arr.flat))):
        raise ParseError(f"{context}: entries must be [re, im] pairs of numbers")
    try:
        arr = arr.astype(float)
    except OverflowError:
        raise ParseError(f"{context}: an entry is too large for a float") from None
    # Parts assigned, not arr[..., 1] * 1j: that product warns on an infinite entry.
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = arr[..., 0], arr[..., 1]
    return out


def _encode_complex_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def povm_from_json(obj) -> Povm:
    """Build and validate a POVM from its JSON object form."""
    if not isinstance(obj, dict):
        raise ParseError("POVM document must be a JSON object")
    d = json_int(obj.get("dim"), "POVM document 'dim'")
    raw_effects = obj.get("effects")
    if not isinstance(raw_effects, list) or not raw_effects:
        raise ParseError("'effects' must be a non-empty list of matrices")
    return Povm([_decode_complex(raw, (d, d), f"effect {i}") for i, raw in enumerate(raw_effects)])


def povm_to_json(povm: Povm) -> dict:
    return {"dim": povm.dim, "effects": [_encode_complex_matrix(e) for e in povm.effects]}


def state_from_json(obj) -> np.ndarray:
    """Build and validate a state, a read-only (d, d) array, from its JSON object form."""
    if not isinstance(obj, dict):
        raise ParseError("state document must be a JSON object")
    d = json_int(obj.get("dim"), "state document 'dim'")
    if "matrix" in obj:
        return validate_density(_decode_complex(obj["matrix"], (d, d), "state matrix"))
    if "vector" in obj:
        return pure_state_density(_decode_complex(obj["vector"], (d,), "state vector"))
    raise ParseError("state document needs a 'matrix' or 'vector' field")


def state_to_json(rho) -> dict:
    return {"dim": np.shape(rho)[-1], "matrix": _encode_complex_matrix(rho)}


def load_povm(path) -> Povm:
    with open(path, encoding="utf-8") as handle:
        return povm_from_json(json.load(handle))


def load_state(path) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        return state_from_json(json.load(handle))
