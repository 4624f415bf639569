import json
import warnings

import numpy as np
import pytest

from unsharp.errors import CompletenessViolated, NotFinite, NotHermitian, ParseError, TraceNotOne
from unsharp.linalg import DensityMatrix
from unsharp.povm import mub_fourier_basis, projective_from_basis, white_noise_povm
from unsharp.serialize import (
    load_povm,
    load_state,
    povm_from_json,
    povm_to_json,
    state_from_json,
    state_to_json,
)


class TestPovmSchema:
    def test_round_trip(self):
        basis_x, basis_z = mub_fourier_basis(3)
        povm = white_noise_povm(basis_z, 0.35)
        again = povm_from_json(povm_to_json(povm))
        np.testing.assert_allclose(again.effects, povm.effects, atol=1e-15)

    def test_complex_entries_encoded_as_pairs(self):
        _, basis_z = mub_fourier_basis(2)
        doc = povm_to_json(projective_from_basis(basis_z))
        entry = doc["effects"][0][0][0]
        assert isinstance(entry, list) and len(entry) == 2

    def test_validation_errors_propagate(self):
        doc = {"dim": 2, "effects": [povm_to_json(projective_from_basis(np.eye(2)))["effects"][0]] * 2}
        with pytest.raises(CompletenessViolated):
            povm_from_json(doc)

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            povm_from_json({"dim": 2})

    @pytest.mark.parametrize("dim", [2.7, "2", True, None, float("nan")])
    def test_non_integer_dim(self, dim):
        doc = povm_to_json(projective_from_basis(np.eye(2)))
        with pytest.raises(ParseError, match="'dim' must be an integer"):
            povm_from_json({**doc, "dim": dim})

    def test_bad_shape(self):
        with pytest.raises(ParseError):
            povm_from_json({"dim": 2, "effects": [[[1.0, 0.0], [0.0, 1.0]]]})

    @pytest.mark.parametrize("entry", [None, "0", True, 10**400], ids=["null", "string", "bool", "huge"])
    def test_entry_that_is_not_a_number(self, entry):
        doc = povm_to_json(projective_from_basis(np.eye(2)))
        doc["effects"][1][0][0][0] = entry
        with pytest.raises(ParseError, match="^effect 1: "):
            povm_from_json(doc)

    def test_file_round_trip(self, tmp_path):
        povm = projective_from_basis(np.eye(2))
        path = tmp_path / "povm.json"
        path.write_text(json.dumps(povm_to_json(povm)))
        np.testing.assert_allclose(load_povm(path).effects, povm.effects)


class TestStateSchema:
    def test_matrix_round_trip(self):
        rho = DensityMatrix(np.eye(3) / 3)
        again = state_from_json(state_to_json(rho))
        np.testing.assert_allclose(again.matrix, rho.matrix)

    def test_vector_form(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        doc = {"dim": 2, "vector": [[float(z.real), float(z.imag)] for z in psi]}
        rho = state_from_json(doc)
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-15)

    def test_unnormalized_vector_rejected(self):
        doc = {"dim": 2, "vector": [[1.0, 0.0], [1.0, 0.0]]}
        with pytest.raises(TraceNotOne):
            state_from_json(doc)

    @pytest.mark.parametrize("dim", [2.7, "2", False])
    def test_non_integer_dim(self, dim):
        with pytest.raises(ParseError, match="'dim' must be an integer"):
            state_from_json({"dim": dim, "vector": [[1.0, 0.0], [0.0, 0.0]]})

    def test_missing_payload(self):
        with pytest.raises(ParseError):
            state_from_json({"dim": 2})

    def test_file_round_trip(self, tmp_path):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(rho)))
        np.testing.assert_allclose(load_state(path).matrix, rho.matrix)


class TestInfiniteEntries:
    """An infinite real or imaginary part is a NotFinite error, without a warning."""

    @pytest.mark.parametrize("part", [0, 1], ids=["real", "imag"])
    @pytest.mark.parametrize("site", ["effect", "matrix", "vector"])
    def test_not_finite_without_warning(self, site, part):
        entry = [0.0, 0.0]
        entry[part] = float("inf")
        pair, zero = [entry, [0, 0]], [[0, 0], [0, 0]]
        text = json.dumps(
            {
                "effect": {"dim": 2, "effects": [[pair, zero], [zero, [[0, 0], [1, 0]]]]},
                "matrix": {"dim": 2, "matrix": [pair, zero]},
                "vector": {"dim": 2, "vector": pair},
            }[site]
        )
        assert "Infinity" in text
        loader = povm_from_json if site == "effect" else state_from_json
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFinite, match="has a NaN or infinite entry"):
                loader(json.loads(text))


class TestEntriesNearFloatMax:
    """Finite entries whose products or sums overflow fail their check, without a warning."""

    @staticmethod
    def load(loader, doc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loader(json.loads(json.dumps(doc)))

    def test_vector_whose_square_overflows(self):
        doc = {"dim": 2, "vector": [[1e200, 0], [0, 0]]}
        with pytest.raises(TraceNotOne, match="trace is inf") as info:
            self.load(state_from_json, doc)
        assert not isinstance(info.value, NotFinite)

    def test_vector_with_both_parts_near_max(self):
        doc = {"dim": 2, "vector": [[1.7e308, -1.7e308], [0, 0]]}
        with pytest.raises(TraceNotOne, match="trace is inf"):
            self.load(state_from_json, doc)

    @pytest.mark.parametrize("site", ["effect", "matrix"])
    def test_non_hermitian_near_max(self, site):
        big = [[[0, 0], [1e308, 0]], [[-1e308, 0], [0, 0]]]
        doc = {
            "effect": {"dim": 2, "effects": [big, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]},
            "matrix": {"dim": 2, "matrix": big},
        }[site]
        with pytest.raises(NotHermitian, match="is inf >"):
            self.load(povm_from_json if site == "effect" else state_from_json, doc)

    def test_trace_that_overflows(self):
        doc = {"dim": 2, "matrix": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]}
        with pytest.raises(TraceNotOne, match="trace is inf"):
            self.load(state_from_json, doc)
