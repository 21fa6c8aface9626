"""Process tomography of three-qubit channels carried by the qutrit register.

The channel expansion E(rho) = sum_mn chi_mn B_m rho B_n^dag uses a basis of
64 real three-fold products built from {1, sigma_x, -i sigma_y, sigma_z};
replacing sigma_y by its real counterpart keeps every basis matrix real
while preserving orthogonality, Tr[B_m^dag B_n] = 8 delta_mn.  Site A is the
slowest label, and per site the factor order is I, X, Y, Z, so the string
"XZI" sits at index 16*1 + 4*3 + 0.

Preparation uses all 64 products of the per-site pulses {none, x90, y90,
x180} applied to |000>; readout measures the 64 standard Pauli products on
the two lowest levels of each site.  Populations that leak out of those
levels reduce the reconstructed trace, and the deficit is reported rather
than renormalized away.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import pi

import numpy as np

from .gates import QUBIT3, QUTRIT3, ideal_toffoli_unitary, rotation_matrix_qutrit
from .register import (
    ATOL,
    PAULI,
    ChoiMatrix,
    DensityOperator,
    StateVector,
    computational_indices,
)

PREP_LABELS = ("id", "x90", "y90", "x180")
PAULI_AXES = "IXYZ"

_REAL_Y = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)  # -i sigma_y


@functools.lru_cache(maxsize=1)
def chi_basis() -> np.ndarray:
    """Stack of the 64 basis matrices, shape (64, 8, 8), index A-major."""
    singles = {
        "I": PAULI["I"],
        "X": PAULI["X"],
        "Y": _REAL_Y,
        "Z": PAULI["Z"],
    }
    mats = []
    for a, b, c in itertools.product(PAULI_AXES, repeat=3):
        mats.append(np.kron(np.kron(singles[a], singles[b]), singles[c]))
    stack = np.stack(mats)
    stack.setflags(write=False)
    return stack


@functools.lru_cache(maxsize=1)
def pauli_labels() -> tuple[str, ...]:
    return tuple("".join(p) for p in itertools.product(PAULI_AXES, repeat=3))


@functools.lru_cache(maxsize=1)
def standard_pauli_stack() -> np.ndarray:
    """The 64 ordinary Pauli products used for readout, shape (64, 8, 8)."""
    mats = []
    for a, b, c in itertools.product(PAULI_AXES, repeat=3):
        mats.append(np.kron(np.kron(PAULI[a], PAULI[b]), PAULI[c]))
    stack = np.stack(mats)
    stack.setflags(write=False)
    return stack


@functools.lru_cache(maxsize=1)
def input_prep_labels() -> tuple[str, ...]:
    return tuple(
        ".".join(combo) for combo in itertools.product(PREP_LABELS, repeat=3)
    )


def _prep_matrix(label: str) -> np.ndarray:
    if label == "id":
        return np.eye(3, dtype=complex)
    if label == "x90":
        return rotation_matrix_qutrit("x", pi / 2)
    if label == "y90":
        return rotation_matrix_qutrit("y", pi / 2)
    if label == "x180":
        return rotation_matrix_qutrit("x", pi)
    raise ValueError(f"unknown preparation {label!r}")


@functools.lru_cache(maxsize=1)
def input_states() -> tuple[StateVector, ...]:
    """The 64 preparation states on the qutrit register, A-major order."""
    states = []
    for combo in itertools.product(PREP_LABELS, repeat=3):
        full = np.kron(
            np.kron(_prep_matrix(combo[0]), _prep_matrix(combo[1])),
            _prep_matrix(combo[2]),
        )
        states.append(StateVector(QUTRIT3, full[:, 0]))
    return tuple(states)


@functools.lru_cache(maxsize=1)
def _input_qubit_matrices() -> np.ndarray:
    """Ideal 8x8 input density matrices (preparations never leave levels 0-1)."""
    idx = computational_indices(QUTRIT3)
    mats = []
    for state in input_states():
        amps = state.amplitudes[idx]
        mats.append(np.outer(amps, amps.conj()))
    stack = np.stack(mats)
    stack.setflags(write=False)
    return stack


def task_rng(master_seed: int, task_index: int) -> np.random.Generator:
    """Independent generator for one task, seeded by (master seed, task index)."""
    return np.random.default_rng([int(master_seed), int(task_index)])


def _binomial_readout(
    rng: np.random.Generator, shots: int, expectations: np.ndarray
) -> np.ndarray:
    """Pauli expectations re-estimated from ``shots`` single-shot outcomes each."""
    prob = np.clip((1.0 + expectations) / 2.0, 0.0, 1.0)
    return 2.0 * rng.binomial(shots, prob) / shots - 1.0


@dataclass(frozen=True, eq=False)
class Records:
    """All 64 x 64 tomography data points of one run.

    ``values[i, p]`` is the estimated expectation of observable
    ``pauli_labels()[p]`` on the output for preparation
    ``input_prep_labels()[i]``; ``shots`` is the per-setting shot count,
    0 for exact expectations.
    """

    values: np.ndarray
    shots: int = 0

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (64, 64):
            raise ValueError("records must be a 64x64 array indexed (input, observable)")
        if not (np.abs(values) <= 1.0 + 1e-12).all():
            raise ValueError("expectations must be finite and lie in [-1, 1]")
        if self.shots < 0:
            raise ValueError("shot count must be non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _unit_readout(choi: ChoiMatrix) -> np.ndarray:
    """``table[n, i, j] = Tr[P_n E(|i><j|)]`` for the channel E of ``choi``.

    With C the Choi matrix reshaped to (8, 8, 8, 8),
    E(M) = 8 sum_ij M_ij C[i, :, j, :].
    """
    tensor = choi.matrix.reshape(8, 8, 8, 8)
    return 8.0 * np.einsum("iajb,nba->nij", tensor, standard_pauli_stack())


def measure_output_records(choi: ChoiMatrix, shots: int = 0, seed: int = 0) -> Records:
    """Measure all 64 x 64 Pauli expectations behind the channel of ``choi``.

    ``shots=0`` stores exact expectations; otherwise each value is a
    binomial estimate from ``shots`` single-shot outcomes, and row ``i``
    draws from ``task_rng(seed, i)``.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    preparations = _input_qubit_matrices().reshape(64, 64)
    values = (preparations @ _unit_readout(choi).reshape(64, 64).T).real
    if shots:
        values = np.stack(
            [_binomial_readout(task_rng(seed, i), shots, row) for i, row in enumerate(values)]
        )
    return Records(values, shots)


def _outputs_of(values: np.ndarray) -> np.ndarray:
    return np.einsum("ip,pab->iab", values, standard_pauli_stack()) / 8.0


def reconstruct_outputs(records: Records) -> np.ndarray:
    """Per-input output estimates rho_i = (1/8) sum_p <P_p> P_p, shape (64, 8, 8)."""
    return _outputs_of(records.values)


def state_tomography(
    state: DensityOperator, shots: int = 0, seed: int = 0
) -> DensityOperator:
    """Reconstruct the qubit block of ``state`` from Pauli measurements.

    Exact mode reproduces the block itself; with shots the estimate carries
    statistical noise and is not guaranteed positive, so validation is off.
    """
    if state.layout == QUTRIT3:
        idx = computational_indices(QUTRIT3)
        block = state.matrix[np.ix_(idx, idx)]
    elif state.layout == QUBIT3:
        block = state.matrix
    else:
        raise ValueError("expected a three-site qubit or qutrit state")
    exact = np.einsum("ab,pba->p", block, standard_pauli_stack()).real
    if shots:
        exact = _binomial_readout(task_rng(seed, 0), shots, exact)
    mat = np.einsum("p,pab->ab", exact, standard_pauli_stack()) / 8.0
    return DensityOperator(
        QUBIT3, mat, subnormalized=True, validate=(shots == 0)
    )


class ChiMatrix:
    """Process matrix in the real product basis.

    ``trace_deficit`` records how much weight the raw reconstruction lost to
    leakage outside the measured levels; the matrix itself is stored without
    renormalization.  Raw statistical estimates may have small negative
    eigenvalues; feed them through :func:`ml_projection` to obtain the
    nearest physical process.
    """

    __slots__ = ("matrix", "trace_deficit")

    def __init__(self, matrix, *, trace_deficit: float = 0.0, atol: float = ATOL):
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (64, 64):
            raise ValueError("chi matrix must be 64x64")
        if np.max(np.abs(mat - mat.conj().T)) >= atol:
            raise ValueError("chi matrix must be Hermitian")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "trace_deficit", float(trace_deficit))

    def __setattr__(self, name, value):
        raise AttributeError("ChiMatrix is immutable")

    def __repr__(self) -> str:
        return (
            f"ChiMatrix(trace={self.trace():.6f}, min_eig={self.min_eigenvalue():.2e})"
        )

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def tp_residual(self) -> float:
        """Frobenius distance of sum_mn chi_mn B_n^dag B_m from the identity."""
        m, vec_id, _ = _tp_projector_data()
        return float(np.linalg.norm(m @ self.matrix.reshape(-1) - vec_id))


def apply_chi(chi: ChiMatrix | np.ndarray, rho8: np.ndarray) -> np.ndarray:
    """Evaluate the channel described by ``chi`` on an 8x8 matrix."""
    mat = chi.matrix if isinstance(chi, ChiMatrix) else np.asarray(chi)
    basis = chi_basis()
    return np.einsum("mn,mab,bc,ndc->ad", mat, basis, rho8, basis.conj())


def chi_of_unitary(unitary8: np.ndarray) -> ChiMatrix:
    """Rank-one process matrix of an 8x8 unitary."""
    if unitary8.shape != (8, 8):
        raise ValueError("expected an 8x8 unitary")
    coeffs = np.einsum("mab,ab->m", chi_basis().conj(), unitary8) / 8.0
    return ChiMatrix(np.outer(coeffs, coeffs.conj()))


@functools.lru_cache(maxsize=1)
def _inversion_data() -> tuple[np.ndarray, np.ndarray]:
    """Inverse input Gram (vec basis) and the vec'd chi basis."""
    inputs = _input_qubit_matrices()
    p_stack = inputs.reshape(64, 64).T  # column i = vec(rho_i)
    p_inv = np.linalg.inv(p_stack)
    v_basis = chi_basis().reshape(64, 64).T  # column m = vec(B_m)
    return p_inv, v_basis


def chi_from_outputs(outputs: np.ndarray) -> np.ndarray:
    """Linear-inversion chi from the 64 output matrices (input order fixed)."""
    if outputs.shape != (64, 8, 8):
        raise ValueError("expected 64 output matrices of shape 8x8")
    p_inv, v_basis = _inversion_data()
    e_stack = outputs.reshape(64, 64).T
    # Row-major vec turns E(rho) = S vec(rho) into S = E P^{-1}; regrouping
    # S[(i,k),(j,l)] as R[(i,j),(k,l)] expresses the same data as
    # R = sum_mn chi_mn vec(B_m) vec(B_n)^dag, inverted via the Gram factor 8.
    s_mat = e_stack @ p_inv
    r_mat = s_mat.reshape(8, 8, 8, 8).transpose(0, 2, 1, 3).reshape(64, 64)
    chi = v_basis.conj().T @ r_mat @ v_basis / 64.0
    return (chi + chi.conj().T) / 2.0


def chi_from_records(records: Records) -> ChiMatrix:
    """Linear inversion from measurement records; no positivity enforced."""
    chi = chi_from_outputs(reconstruct_outputs(records))
    return ChiMatrix(chi, trace_deficit=1.0 - float(chi.trace().real))


def process_tomography(choi: ChoiMatrix, shots: int = 0, seed: int = 0) -> ChiMatrix:
    """Full tomography of the channel of ``choi``, returning the raw chi."""
    return chi_from_records(measure_output_records(choi, shots=shots, seed=seed))


def process_fidelity(chi_a: ChiMatrix | np.ndarray, chi_b: ChiMatrix | np.ndarray) -> float:
    """Overlap Tr[chi_a chi_b]; equals |Tr[U^dag V]/8|^2 for unitary pairs."""
    a = chi_a.matrix if isinstance(chi_a, ChiMatrix) else np.asarray(chi_a)
    b = chi_b.matrix if isinstance(chi_b, ChiMatrix) else np.asarray(chi_b)
    value = complex(np.trace(a @ b))
    return float(value.real)


@functools.lru_cache(maxsize=1)
def _tp_projector_data() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace-map matrix M, vec of the identity, and the pseudoinverse factor."""
    basis = chi_basis()
    gram = np.einsum("nca,mcb->mnab", basis.conj(), basis)
    m = gram.transpose(2, 3, 0, 1).reshape(64, 64 * 64)
    vec_id = np.eye(8, dtype=complex).reshape(-1)
    mp = m.conj().T @ np.linalg.inv(m @ m.conj().T)
    return m, vec_id, mp


def _project_tp(chi: np.ndarray) -> np.ndarray:
    m, vec_id, mp = _tp_projector_data()
    vec = chi.reshape(-1)
    shifted = vec - mp @ (m @ vec - vec_id)
    out = shifted.reshape(64, 64)
    return (out + out.conj().T) / 2.0


def _project_psd(chi: np.ndarray) -> np.ndarray:
    herm = (chi + chi.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.conj().T


class ProjectionError(RuntimeError):
    """Alternating projection failed to converge within the iteration budget."""


def ml_projection(
    chi: ChiMatrix | np.ndarray,
    *,
    tol: float = 1e-9,
    max_iter: int = 20000,
) -> ChiMatrix:
    """Nearest (Frobenius) completely positive trace-preserving chi.

    Dykstra's alternating projections between the positive cone and the
    trace-preservation affine space converge to the metric projection onto
    their intersection; the returned iterate comes from the positive side,
    so its eigenvalues are exactly non-negative while the trace constraint
    holds to within ``tol``.
    """
    start = chi.matrix if isinstance(chi, ChiMatrix) else np.asarray(chi, dtype=complex)
    if start.shape != (64, 64):
        raise ValueError("chi matrix must be 64x64")
    x = (start + start.conj().T) / 2.0
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    m, vec_id, _ = _tp_projector_data()
    y = x
    for _ in range(max_iter):
        y = _project_psd(x + p)
        p = x + p - y
        z = _project_tp(y + q)
        q = y + q - z
        step = float(np.linalg.norm(z - x))
        residual = float(np.linalg.norm(m @ y.reshape(-1) - vec_id))
        x = z
        if step < tol and residual < tol:
            return ChiMatrix(y, trace_deficit=1.0 - float(y.trace().real))
    raise ProjectionError(
        f"no convergence after {max_iter} iterations (step {step:.2e},"
        f" residual {residual:.2e})"
    )


def bootstrap_ci(
    records: Records,
    *,
    resamples: int = 200,
    confidence: float = 0.90,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile confidence interval under parametric binomial resampling.

    Resample ``b`` redraws every setting's outcome count around its observed
    frequency from ``task_rng(seed, b)`` and re-evaluates the raw
    linear-inversion process fidelity against the ideal gate.  Exact-mode
    records carry no sampling distribution and are rejected.
    """
    if records.shots == 0:
        raise ValueError("bootstrap requires shot-based records")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if resamples < 2:
        raise ValueError("need at least two resamples")
    ideal = chi_of_unitary(ideal_toffoli_unitary())
    stats = []
    for b in range(resamples):
        values = _binomial_readout(task_rng(seed, b), records.shots, records.values)
        stats.append(process_fidelity(chi_from_outputs(_outputs_of(values)), ideal))
    alpha = 1.0 - confidence
    lo, hi = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)
