"""Independent reference values that the tests compare the package with.

None of these call ``basis_pair_bounds``: each recomputes its quantity from
the defining formula, so a test against them does not compare the kernel
with itself. ``crossing_roots`` is the exception that takes the column
function as given: it checks the root finding of the sweeps, not the columns.
"""

from itertools import combinations

import numpy as np

from unsharp.errors import DimensionMismatch
from unsharp.linalg import pure_state_density
from unsharp.povm import QubitPovmParams
from unsharp.uncertainty import binary_entropy, von_neumann_entropy


def mu_oracle(basis_a, basis_b) -> float:
    """Largest-overlap bound -log2 max_{i,j} |<a_i|b_j>|^2 of two bases (rows)."""
    overlaps = np.asarray(basis_a).conj() @ np.asarray(basis_b).T
    return float(-np.log2(np.max(np.abs(overlaps) ** 2)))


def majorization_w_svd(basis_a, basis_b) -> np.ndarray:
    """w of ``majorization_vector`` by one batched SVD per subset-size pair.

    w_k = 1 + max sigma_max(U[R, S]) over |R| + |S| = k + 1, with U the
    overlap matrix of two (stacks of) bases: every block of both shapes is
    decomposed, a single row or column by its Euclidean norm, and w_d = 2.
    """
    u = np.asarray(basis_a).conj() @ np.asarray(basis_b).swapaxes(-1, -2)
    d = u.shape[-1]
    subsets = [np.array(list(combinations(range(d), size)), dtype=np.intp) for size in range(d)]
    top = np.zeros(u.shape[:-1])
    for r_size in range(1, d):
        rows = u[..., subsets[r_size], :]
        for s_size in range(1, d + 1 - r_size):
            # (..., R, |R|, S, |S|) -> (..., R, S, |R|, |S|): every U[R, S] of these sizes.
            block = rows[..., subsets[s_size]].swapaxes(-3, -2)
            if min(r_size, s_size) == 1:
                sigma = np.sqrt(np.sum(np.abs(block) ** 2, axis=(-2, -1)))
            else:
                sigma = np.linalg.svd(block, compute_uv=False)[..., 0]
            k = r_size + s_size - 1
            top[..., k - 1] = np.maximum(top[..., k - 1], sigma.max(axis=(-2, -1)))
    top[..., d - 1] = 1.0
    return 1.0 + top


def coles_oracle(a, b):
    """-log2 C of two POVMs (or broadcasting stacks) by the three-operand sandwich.

    C = min(max_i || sum_j B_j A_i B_j ||, max_j || sum_i A_i B_j A_i ||), each
    sandwich summed directly by one einsum over the effects of both POVMs.
    """

    def sandwiched_max(core, wrap):
        s = np.einsum("...nij,...mjk,...nkl->...mil", wrap, core, wrap)
        s = (s + s.conj().swapaxes(-1, -2)) / 2.0
        return abs(np.linalg.eigvalsh(s)).max(axis=(-2, -1))

    c = np.minimum(sandwiched_max(a.effects, b.effects), sandwiched_max(b.effects, a.effects))
    return -np.log2(np.minimum(c, 1.0))


def berta_reduced_bound(basis_a, basis_b, rho) -> float:
    """Largest-overlap bound plus the von Neumann entropy of the state.

    Single-system reduction of the memory-assisted entropic bound; used as a
    numeric cross-check for the white-noise bound chain.
    """
    return mu_oracle(basis_a, basis_b) + von_neumann_entropy(rho)


def device_uncertainty_qubit(psi, params: QubitPovmParams) -> float:
    """Binary-entropy form of the device uncertainty for the Bloch model.

    Averages H_bin of the conditional outcome probabilities over the
    populations of psi in the two a_vec . sigma eigenstates. Agrees with
    ``device_uncertainty`` on |psi><psi| and ``qubit_povm(params)``.
    """
    pure_state_density(psi)  # raises unless psi is finite with |psi|^2 = 1 within TOL_TRACE
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise DimensionMismatch(f"expected a qubit state vector, got shape {psi.shape}")
    r = params.bloch_norm
    if r < 1e-15:
        # Both conditionals equal a0 / 2 and the populations sum to 1.
        return binary_entropy(params.a0 / 2.0)
    direction = (
        params.a_vec[0] * np.array([[0, 1], [1, 0]])
        + params.a_vec[1] * np.array([[0, -1j], [1j, 0]])
        + params.a_vec[2] * np.array([[1, 0], [0, -1]])
    ) / r
    _, vecs = np.linalg.eigh(direction)
    minus, plus = vecs[:, 0], vecs[:, 1]
    total = 0.0
    for vec, sign in ((plus, +1), (minus, -1)):
        population = float(np.abs(np.vdot(vec, psi)) ** 2)
        total += population * binary_entropy(params.conditional_prob_up(sign))
    return total


def crossing_roots(xs, table, differences, columns_of, tol=1e-13) -> dict[str, tuple[float, ...]]:
    """Unrounded roots of the brackets that ``sweeps.find_crossings`` refines.

    A bracket is a pair of adjacent grid points where a difference changes
    sign strictly; every bracket is bisected until narrower than ``tol``,
    all of them together, one ``columns_of`` call on their midpoints per
    halving. A midpoint where the difference is exactly zero is its bracket's
    root. Each label gets one root per bracket, in grid order.
    """
    pairs = list(differences.values())

    def difference_rows(columns):
        return np.array([columns[minuend] - columns[subtrahend] for minuend, subtrahend in pairs], dtype=float)

    xs, values = np.asarray(xs, dtype=float), difference_rows(table)
    owner, i = np.nonzero(values[:, :-1] * values[:, 1:] < 0.0)
    lo, hi, lo_negative = xs[i], xs[i + 1], values[owner, i] < 0.0
    active = hi - lo > tol
    while active.any():
        j = np.flatnonzero(active)
        mid = (lo[j] + hi[j]) / 2.0
        f_mid = difference_rows(columns_of(mid))[owner[j], np.arange(j.size)]
        zero = f_mid == 0.0
        move_lo = (f_mid < 0.0) == lo_negative[j]
        lo[j] = np.where(zero | move_lo, mid, lo[j])
        hi[j] = np.where(zero | ~move_lo, mid, hi[j])
        active[j] = ~zero & (hi[j] - lo[j] > tol)
    roots = (lo + hi) / 2.0
    return {label: tuple(roots[owner == k].tolist()) for k, label in enumerate(differences)}
