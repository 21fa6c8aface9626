"""Process tomography of three-qubit channels carried by the qutrit register.

Preparation uses all 64 products of the per-site pulses {none, x90, y90,
x180} applied to |000>; readout measures the 64 standard Pauli products on
the two lowest levels of each site.  Populations that leak out of those
levels reduce the reconstructed trace, and the deficit is reported rather
than renormalized away.

The estimators (linear inversion, the physicality projection, the
bootstrap) are array algebra on the normalized Choi matrix J of
``register.ChoiMatrix``.  Results are reported as the process matrix chi of
E(rho) = sum_mn chi_mn B_m rho B_n^dag, in a basis of 64 real three-fold
products of {1, sigma_x, -i sigma_y, sigma_z}; replacing sigma_y by its real
counterpart keeps every basis matrix real while preserving orthogonality,
Tr[B_m^dag B_n] = 8 delta_mn.  Site A is the slowest label, and per site the
factor order is I, X, Y, Z, so the string "XZI" sits at index 16*1 + 4*3 + 0.
The two are related by one unitary, chi = W^dag J W.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import pi

import numpy as np

from .gates import ideal_toffoli_unitary, rotation_matrix_qutrit
from .register import ATOL, PAULI, ChoiMatrix, _readonly_complex, choi_of_unitary

PREP_LABELS = ("id", "x90", "y90", "x180")
PAULI_AXES = "IXYZ"

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
def chi_basis() -> np.ndarray:
    """The 64 real basis matrices: readout products with each sigma_y as -i sigma_y."""
    phases = np.array([(-1j) ** labels.count("Y") for labels in pauli_labels()])
    stack = standard_pauli_stack() * phases[:, None, None]
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
def _input_qubit_matrices() -> np.ndarray:
    """Ideal 8x8 input density matrices, A-major order.

    Every preparation pulse maps |0> into levels 0-1, so each input is the
    product of the pulses' first columns truncated to two levels.
    """
    mats = []
    for combo in itertools.product(PREP_LABELS, repeat=3):
        amps = functools.reduce(np.kron, [_prep_matrix(label)[:2, 0] for label in combo])
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
        mat = _readonly_complex(matrix, "chi matrix")
        if mat.shape != (64, 64):
            raise ValueError("chi matrix must be 64x64")
        if np.max(np.abs(mat - mat.conj().T)) >= atol:
            raise ValueError("chi matrix must be Hermitian")
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
        return _tp_residual(_choi_basis() @ self.matrix @ _choi_basis().conj().T)


@functools.lru_cache(maxsize=1)
def _choi_basis() -> np.ndarray:
    """Unitary W with J = W chi W^dag; column m is vec(B_m^T)/sqrt(8), input-major."""
    w = chi_basis().transpose(0, 2, 1).reshape(64, 64).T / np.sqrt(8.0)
    w.setflags(write=False)
    return w


def chi_of_choi(choi_matrix: np.ndarray) -> ChiMatrix:
    """Process matrix W^dag J W of a normalized Choi matrix J; no positivity enforced."""
    w = _choi_basis()
    chi = w.conj().T @ choi_matrix @ w
    chi = (chi + chi.conj().T) / 2.0
    return ChiMatrix(chi, trace_deficit=1.0 - float(chi.trace().real))


def chi_of_unitary(unitary8: np.ndarray) -> ChiMatrix:
    """Rank-one process matrix of an 8x8 unitary."""
    return chi_of_choi(choi_of_unitary(unitary8).matrix)


@functools.lru_cache(maxsize=1)
def _preparation_inverse() -> np.ndarray:
    inverse = np.linalg.inv(_input_qubit_matrices().reshape(64, 64))
    inverse.setflags(write=False)
    return inverse


def _choi_from_values(values: np.ndarray) -> np.ndarray:
    """Linear-inversion Choi matrix from a (64, 64) record array.

    Undoing the preparations gives ``table[(i, j), n] = Tr[P_n E(|i><j|)]``,
    and E(|i><j|) = (1/8) sum_n table[(i, j), n] P_n fills block (i, j).
    """
    table = (_preparation_inverse() @ values).reshape(8, 8, 64)
    tensor = np.einsum("ijn,nab->iajb", table, standard_pauli_stack())
    return tensor.reshape(64, 64) / 64.0


def chi_from_records(records: Records) -> ChiMatrix:
    """Linear inversion from measurement records; no positivity enforced."""
    return chi_of_choi(_choi_from_values(records.values))


def process_tomography(choi: ChoiMatrix, shots: int = 0, seed: int = 0) -> ChiMatrix:
    """Full tomography of the channel of ``choi``, returning the raw chi."""
    return chi_from_records(measure_output_records(choi, shots=shots, seed=seed))


def process_fidelity(chi_a: ChiMatrix | np.ndarray, chi_b: ChiMatrix | np.ndarray) -> float:
    """Overlap Tr[a b] of two Hermitian chi (or Choi) matrices; |Tr[U^dag V]/8|^2 if unitary."""
    a = chi_a.matrix if isinstance(chi_a, ChiMatrix) else np.asarray(chi_a)
    b = chi_b.matrix if isinstance(chi_b, ChiMatrix) else np.asarray(chi_b)
    return float(np.vdot(a, b).real)


def _trace_out(choi_matrix: np.ndarray) -> np.ndarray:
    """Partial trace over the output factor, ``Tr_out J``."""
    return choi_matrix.reshape(8, 8, 8, 8).trace(axis1=1, axis2=3)


def _tp_residual(choi_matrix: np.ndarray) -> float:
    """Frobenius distance of 8 Tr_out J from the identity."""
    return float(np.linalg.norm(8.0 * _trace_out(choi_matrix) - np.eye(8)))


def _project_tp(choi_matrix: np.ndarray) -> np.ndarray:
    """Nearest J with Tr_out J = I/8: subtract (Tr_out J - I/8) (x) I/8."""
    excess = _trace_out(choi_matrix) - np.eye(8) / 8.0
    return choi_matrix - np.kron(excess, np.eye(8) / 8.0)


def _project_psd(choi_matrix: np.ndarray) -> np.ndarray:
    herm = (choi_matrix + choi_matrix.conj().T) / 2.0
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
    holds to within ``tol``.  The iterates are Choi matrices J = W chi W^dag:
    W is unitary, so the Frobenius metric and the positive cone are the same
    in both bases, and trace preservation reads Tr_out J = I/8.  A
    non-finite input raises ValueError before the first iteration.
    """
    start = chi.matrix if isinstance(chi, ChiMatrix) else _readonly_complex(chi, "chi matrix")
    if start.shape != (64, 64):
        raise ValueError("chi matrix must be 64x64")
    w = _choi_basis()
    x = w @ ((start + start.conj().T) / 2.0) @ w.conj().T
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    y = x
    for _ in range(max_iter):
        y = _project_psd(x + p)
        p = x + p - y
        z = _project_tp(y + q)
        q = y + q - z
        step = float(np.linalg.norm(z - x))
        residual = _tp_residual(y)
        x = z
        if step < tol and residual < tol:
            return chi_of_choi(y)
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
    ideal = choi_of_unitary(ideal_toffoli_unitary()).matrix
    stats = []
    for b in range(resamples):
        values = _binomial_readout(task_rng(seed, b), records.shots, records.values)
        stats.append(process_fidelity(_choi_from_values(values), ideal))
    alpha = 1.0 - confidence
    lo, hi = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)
