"""Process tomography of three-qubit channels carried by the qutrit register.

Preparation uses all 64 products of the per-site pulses {none, x90, y90,
x180} applied to |000>; readout measures the 64 standard Pauli products on
the two lowest levels of each site.  Populations that leak out of those
levels reduce the reconstructed trace, and the deficit is reported rather
than renormalized away.

The estimators (linear inversion, the least-squares projection onto CPTP
maps by dual Newton, the bootstrap) take and return the normalized Choi
matrix J as a read-only complex 64x64 array, the form every channel has
(``register.checked_choi``).  ``process_tomo.json`` reports the process
matrix chi of E(rho) = sum_mn chi_mn B_m rho B_n^dag, in a basis of 64 real
three-fold products of {1, sigma_x, -i sigma_y, sigma_z}; replacing sigma_y
by its real counterpart keeps every basis matrix real while preserving
orthogonality, Tr[B_m^dag B_n] = 8 delta_mn.  Site A is the
slowest label, and per site the factor order is I, X, Y, Z, so the string
"XZI" sits at index 16*1 + 4*3 + 0.  The two are related by one unitary,
chi = W^dag J W, and chi is formed only there, by ``chi_of_choi``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import pi

import numpy as np

from .gates import ideal_toffoli_choi, rotation_matrix_qutrit
from .register import ATOL, PAULI, _readonly_complex, choi_of_unitary

PREP_LABELS = ("id", "x90", "y90", "x180")
PAULI_AXES = "IXYZ"

# Exact expectations below this size are float-noise zeros, which are at most
# about 1e-15 on the shipped channels while the smallest true nonzero
# expectation is 2.8e-5.  Sampling them as exact zeros keeps each binomial
# draw from depending on the rounding of the channel's arithmetic.
READOUT_ZERO_TOL = 1e-12

# Coverage of the percentile interval of ``bootstrap_ci``.
BOOTSTRAP_CONFIDENCE = 0.90


@functools.lru_cache(maxsize=1)
def pauli_labels() -> tuple[str, ...]:
    return tuple("".join(p) for p in itertools.product(PAULI_AXES, repeat=3))


@functools.lru_cache(maxsize=1)
def standard_pauli_stack() -> np.ndarray:
    """The 64 ordinary Pauli products used for readout, shape (64, 8, 8)."""
    stack = np.stack(
        [functools.reduce(np.kron, [PAULI[p] for p in labels]) for labels in pauli_labels()]
    )
    stack.setflags(write=False)
    return stack


@functools.lru_cache(maxsize=1)
def chi_basis() -> np.ndarray:
    """The 64 real basis matrices: readout products with each sigma_y as -i sigma_y."""
    phases = np.array([(-1j) ** labels.count("Y") for labels in pauli_labels()])
    stack = standard_pauli_stack() * phases[:, None, None]
    stack.setflags(write=False)
    return stack


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


def _check_count(value, name: str, minimum: int) -> int:
    """A count such as shots, samples, resamples or Newton steps as an int.

    A count that is not a whole number, is below ``minimum`` or does not fit
    numpy's int64 raises ValueError: a binomial of a fractional shot count,
    for one, would draw from the rounded-down count and divide by the
    unrounded one, and numpy's samplers overflow above 2**63 - 1.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a whole number, got {value!r}") from None
    if count < minimum:
        raise ValueError(
            f"{name} must be non-negative" if minimum == 0 else f"{name} must be at least {minimum}"
        )
    if count > np.iinfo(np.int64).max:
        raise ValueError(f"{name} must be at most 2**63 - 1")
    return count


def _readout_probabilities(expectations: np.ndarray) -> np.ndarray:
    """Probability of outcome +1 for each expectation; below ``READOUT_ZERO_TOL`` read as 0."""
    expectations = np.where(np.abs(expectations) < READOUT_ZERO_TOL, 0.0, expectations)
    return np.clip((1.0 + expectations) / 2.0, 0.0, 1.0)


def _binomial_readout(
    rng: np.random.Generator, shots: int, probabilities: np.ndarray
) -> np.ndarray:
    """Pauli expectations estimated from ``shots`` outcomes at each +1 probability."""
    return 2.0 * rng.binomial(shots, probabilities) / shots - 1.0


@dataclass(frozen=True, eq=False)
class Records:
    """All 64 x 64 tomography data points of one run.

    ``values[i, p]`` is the estimated expectation of observable
    ``pauli_labels()[p]`` on the output for input i, prepared from |000> by
    the pulses ``PREP_LABELS[i // 16]``, ``PREP_LABELS[i // 4 % 4]`` and
    ``PREP_LABELS[i % 4]`` on sites A, B and C (site A the slowest index);
    ``shots`` is the per-setting shot count, 0 for exact expectations.
    """

    values: np.ndarray
    shots: int = 0

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (64, 64):
            raise ValueError("records must be a 64x64 array indexed (input, observable)")
        if not (np.abs(values) <= 1.0 + 1e-12).all():
            raise ValueError("expectations must be finite and lie in [-1, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shots", _check_count(self.shots, "shots", 0))


def _unit_readout(choi: np.ndarray) -> np.ndarray:
    """``table[n, i, j] = Tr[P_n E(|i><j|)]`` for the channel E of ``choi``.

    With C the Choi matrix reshaped to (8, 8, 8, 8),
    E(M) = 8 sum_ij M_ij C[i, :, j, :].  Every reader of a channel comes
    through here, so anything but a finite 64x64 array raises ValueError;
    positivity and trace are checked once, by the producer's ``checked_choi``.
    """
    choi = np.asarray(choi)
    if choi.shape != (64, 64) or not np.all(np.isfinite(choi)):
        raise ValueError("Choi matrix must be a finite 64x64 array")
    tensor = choi.reshape(8, 8, 8, 8)
    return 8.0 * np.einsum("iajb,nba->nij", tensor, standard_pauli_stack())


def measure_output_records(choi: np.ndarray, shots: int = 0, seed: int = 0) -> Records:
    """Measure all 64 x 64 Pauli expectations behind the channel of ``choi``.

    ``shots=0`` stores exact expectations; otherwise each value is a
    binomial estimate from ``shots`` single-shot outcomes, and all 4096 are
    drawn in row-major order from the one generator ``default_rng(seed)``.
    """
    shots = _check_count(shots, "shots", 0)
    preparations = _input_qubit_matrices().reshape(64, 64)
    values = (preparations @ _unit_readout(choi).reshape(64, 64).T).real
    if shots:
        rng = np.random.default_rng(seed)
        values = _binomial_readout(rng, shots, _readout_probabilities(values))
    return Records(values, shots)


# Kept for the benchmark's _check_tomo, its only reader outside the artifact edge.
class ChiMatrix:
    """Process matrix in the real product basis, the form ``process_tomo.json`` reports.

    :func:`chi_of_choi` and :func:`chi_of_unitary` make it; the estimators
    work on the Choi matrix.  A raw estimate may have small negative
    eigenvalues, so only Hermiticity is checked.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = _readonly_complex(matrix, "chi matrix")
        if mat.shape != (64, 64):
            raise ValueError("chi matrix must be 64x64")
        if np.max(np.abs(mat - mat.conj().T)) >= ATOL:
            raise ValueError("chi matrix must be Hermitian")
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("ChiMatrix is immutable")


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
    return ChiMatrix(chi)


# Kept for the benchmark's _check_tomo, its only reader outside the tests.
def chi_of_unitary(unitary8: np.ndarray) -> ChiMatrix:
    """Rank-one process matrix of an 8x8 unitary."""
    return chi_of_choi(choi_of_unitary(unitary8))


@functools.lru_cache(maxsize=1)
def _preparation_inverse() -> np.ndarray:
    inverse = np.linalg.inv(_input_qubit_matrices().reshape(64, 64))
    inverse.setflags(write=False)
    return inverse


@functools.lru_cache(maxsize=1)
def _fidelity_weights() -> np.ndarray:
    """Real w with ``process_fidelity(choi_from_records(v), ideal Toffoli J) = <w, v>``.

    Both Choi matrices expand in the Pauli tables ``Tr[P_n E(|i><j|)]`` of
    ``choi_from_records``, so their overlap is Re <table(v), table_ideal> / 512.
    Every weight is a whole multiple of 1/512 up to float noise (at most
    2e-15/512), so the weights are rounded to those multiples: 1120 of them
    are +-1, 2 or 4 over 512 and the other 2976 are exact zeros.
    """
    table = _unit_readout(ideal_toffoli_choi()).reshape(64, 64).T
    weights = np.rint((_preparation_inverse().T @ table.conj()).real) / 512.0
    weights.setflags(write=False)
    return weights


def choi_from_records(records: Records) -> np.ndarray:
    """Read-only linear-inversion Choi matrix of ``records``; no positivity enforced.

    Undoing the preparations gives ``table[(i, j), n] = Tr[P_n E(|i><j|)]``,
    and E(|i><j|) = (1/8) sum_n table[(i, j), n] P_n fills block (i, j).
    """
    table = (_preparation_inverse() @ records.values).reshape(8, 8, 64)
    tensor = np.einsum("ijn,nab->iajb", table, standard_pauli_stack())
    choi = tensor.reshape(64, 64) / 64.0
    choi.setflags(write=False)
    return choi


def process_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Overlap Tr[a b] of two Hermitian chi or Choi matrices; |Tr[U^dag V]/8|^2 if unitary."""
    return float(np.vdot(a, b).real)


def _trace_out(choi_matrix: np.ndarray) -> np.ndarray:
    """Partial trace over the output factor, ``Tr_out J``."""
    return choi_matrix.reshape(8, 8, 8, 8).trace(axis1=1, axis2=3)


def _tp_residual(choi_matrix: np.ndarray) -> float:
    """Frobenius distance of 8 Tr_out J from the identity."""
    return float(np.linalg.norm(8.0 * _trace_out(choi_matrix) - np.eye(8)))


def _project_psd(choi_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and positive part of a Hermitian matrix."""
    vals, vecs = np.linalg.eigh(choi_matrix)
    return vals, vecs, (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T


def _newton_direction(vals: np.ndarray, vecs: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """CG solve of (V + 1e-10) d = -grad; V[H] = Tr_out(Q (omega o Q^dag (H (x) I) Q) Q^dag).

    V is the dual's generalized Hessian, Q = vecs, omega = divided differences of max(vals, 0).
    """
    plus = np.clip(vals, 0.0, None)
    gap = np.subtract.outer(vals, vals)
    tie = gap == 0.0
    omega = np.where(tie, vals[:, None] > 0.0, np.subtract.outer(plus, plus) / (gap + tie))
    rows = vecs.reshape(8, 512)
    direction = np.zeros_like(grad)
    residual = search = -grad
    norm2 = np.vdot(residual, residual).real
    stop = min(0.01, norm2) * norm2  # |residual| <= min(0.1, |grad|) |grad|
    for _ in range(64):  # exact CG ends within 64 steps, one per real unknown
        if norm2 <= stop:
            break
        inner = vecs.conj().T @ (search @ rows).reshape(64, 64)
        curved = (vecs @ (omega * inner)).reshape(8, 512) @ rows.conj().T + 1e-10 * search
        alpha = norm2 / np.vdot(search, curved).real
        direction, residual = direction + alpha * search, residual - alpha * curved
        norm2, previous = np.vdot(residual, residual).real, norm2
        search = residual + (norm2 / previous) * search
    return direction


class ProjectionError(RuntimeError):
    """The CPTP projection did not converge within its Newton-step budget."""


def ml_projection(
    choi_matrix: np.ndarray, *, tol: float = 1e-9, max_iter: int = 50
) -> np.ndarray:
    """Frobenius-nearest completely positive trace-preserving Choi matrix.

    A least-squares projection, not a likelihood maximum.  Trace preservation
    reads Tr_out J = I/8, and semismooth Newton on the dual (Malick, SIAM J.
    Matrix Anal. Appl. 26, 272 (2004); Qi & Sun, ibid. 28, 360 (2006))
    minimizes F(L) = |X(L)|^2/2 - Tr L/8 over Hermitian 8x8 L, with
    X(L) = P+(J0 + L (x) I), J0 the Hermitian part of ``choi_matrix`` and
    grad F = Tr_out X - I/8.  X is returned as a read-only array, exactly
    positive semidefinite, once |8 Tr_out X - I| < tol; its trace is then 1
    only to about tol.  ProjectionError after ``max_iter`` Newton steps.
    Non-finite input, a tol that is not finite and positive, or a max_iter
    that is not a whole number of at least 1 raise ValueError.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    max_iter = _check_count(max_iter, "max_iter", 1)
    start = _readonly_complex(choi_matrix, "Choi matrix")
    if start.shape != (64, 64):
        raise ValueError("Choi matrix must be 64x64")
    base = (start + start.conj().T) / 2.0
    vals, vecs, proj = _project_psd(base)
    objective = np.sum(np.clip(vals, 0.0, None) ** 2) / 2.0
    multiplier, steps = np.zeros((8, 8), dtype=complex), 0
    while not (residual := _tp_residual(proj)) < tol:
        if steps >= max_iter:
            raise ProjectionError(f"{max_iter} Newton steps left residual {residual:.2e}")
        grad = _trace_out(proj) - np.eye(8) / 8.0
        direction = _newton_direction(vals, vecs, grad)
        slope = np.vdot(grad, direction).real
        for size in 0.5 ** np.arange(60):
            trial = multiplier + size * direction
            vals, vecs, proj = _project_psd(base + np.kron(trial, np.eye(8)))
            plus = np.clip(vals, 0.0, None)
            value = plus @ plus / 2.0 - trial.trace().real / 8.0
            if value <= objective + 1e-4 * size * slope or _tp_residual(proj) <= residual / 2:
                break
        else:
            raise ProjectionError(f"line search failed at residual {residual:.2e}")
        multiplier, objective, steps = trial, value, steps + 1
    proj.setflags(write=False)
    return proj


def bootstrap_ci(
    records: Records,
    *,
    resamples: int = 200,
    seed: int = 0,
) -> tuple[float, float]:
    """``BOOTSTRAP_CONFIDENCE`` percentile interval under parametric binomial resampling.

    Each resample scores the raw linear-inversion process fidelity against
    the ideal gate, the fixed linear functional ``_fidelity_weights()`` of
    the records.  Only the 1120 settings that functional weighs are redrawn,
    each around its observed frequency and in row-major order; the other
    records carry zero weight and cannot move the score.  The resamples draw
    in turn from one generator, ``default_rng([seed, 1])``, a stream disjoint
    from the records' ``default_rng(seed)``.  Exact-mode records carry no
    sampling distribution and are rejected.
    """
    if records.shots == 0:
        raise ValueError("bootstrap requires shot-based records")
    resamples = _check_count(resamples, "resamples", 2)
    weights = _fidelity_weights().ravel()
    support = np.flatnonzero(weights)
    weights = weights[support]
    probabilities = _readout_probabilities(records.values.ravel()[support])
    rng = np.random.default_rng([seed, 1])
    stats = [
        np.dot(weights, _binomial_readout(rng, records.shots, probabilities))
        for _ in range(resamples)
    ]
    alpha = 1.0 - BOOTSTRAP_CONFIDENCE
    lo, hi = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)
