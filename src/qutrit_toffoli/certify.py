"""Direct fidelity certification from sparse Pauli correlations.

For a target unitary U the quantity Tr[rho_T rho_E] between the normalized
input (x) output state representations of the target and of the channel under
test equals the process fidelity.  Expanding both in products of Pauli
operators on the input and output factors turns it into

    F = (1/64) sum_n P_n Q_n,

where P_n = (1/8) Tr[U A_n U^dag B_n] is the target correlation of the pair
(A_n, B_n) and Q_n the measured one.  Only pairs with P_n != 0 contribute;
for the Toffoli exactly 232 of the 4096 pairs survive, and the smallest
surviving |P_n| is 1/2, so membership is numerically unambiguous.

Q_n is measurable on hardware without tomography: expand the input Pauli in
its eigenbasis, prepare the eight product eigenstates, and measure B_n on
the channel output.  Sampling pairs with probability P_n^2 / 64 and
averaging X = Q_n / P_n gives an unbiased fidelity estimate whose error
shrinks with the sample count alone.

Q_n is linear in the channel's Choi state, so the estimators take the
``ChoiMatrix`` of the channel under test (``noise.circuit_choi`` for the
simulated gate, ``choi_of_channel`` for any other callable) and read every
eigenstate output off it.  A set of pairs is three aligned arrays: the
input and output Pauli indices into ``pauli_labels()`` and the target
correlations.

Each estimate draws from one generator, ``default_rng(seed)``: the Monte
Carlo pair choice first, then the drawn pairs' shot readouts in pair order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gates import ideal_toffoli_unitary
from .register import ChoiMatrix, choi_of_unitary
from .tomography import (
    PAULI_AXES,
    _check_count,
    _readout_probabilities,
    _unit_readout,
    pauli_labels,
    standard_pauli_stack,
)

RELEVANCE_CUTOFF = 1e-9

# Eigenvectors (columns) and eigenvalues of each single-site Pauli.
_EIGEN = {
    "I": (np.eye(2, dtype=complex), np.array([1.0, 1.0])),
    "X": (
        np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
        np.array([1.0, -1.0]),
    ),
    "Y": (
        np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
        np.array([1.0, -1.0]),
    ),
    "Z": (np.eye(2, dtype=complex), np.array([1.0, -1.0])),
}

_PAULI_INDEX = {labels: n for n, labels in enumerate(pauli_labels())}


def _check_labels(labels: str) -> str:
    if labels not in _PAULI_INDEX:
        raise ValueError(f"expected three letters from {PAULI_AXES}, got {labels!r}")
    return labels


def choi_of_channel(channel8) -> ChoiMatrix:
    """Evaluate the channel on all matrix units; block (i, j) is E(|i><j|) / 8."""
    units = np.eye(64, dtype=complex).reshape(64, 8, 8)  # units[8i + j] = |i><j|
    blocks = np.stack([channel8(unit.copy()) for unit in units]).reshape(8, 8, 8, 8)
    return ChoiMatrix(blocks.transpose(0, 2, 1, 3).reshape(64, 64) / 8.0)


def ideal_toffoli_choi() -> ChoiMatrix:
    """Pure target state built from the ideal gate."""
    return choi_of_unitary(ideal_toffoli_unitary())


def choi_expectation_direct(choi: ChoiMatrix, in_labels: str, out_labels: str) -> float:
    """Single pair correlation by direct contraction."""
    stack = standard_pauli_stack()
    a = stack[_PAULI_INDEX[_check_labels(in_labels)]]
    b = stack[_PAULI_INDEX[_check_labels(out_labels)]]
    tensor = choi.matrix.reshape(8, 8, 8, 8)
    val = complex(np.einsum("abcd,ac,db->", tensor, a, b))
    return float(val.real)


def enumerate_relevant_paulis(choi: ChoiMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(inputs, outputs, ideal)`` of the pairs above ``RELEVANCE_CUTOFF``.

    The correlation Tr[rho (A_m^T x B_n)] is Tr[B_n E(A_m)] / 8, one matmul
    on the matrix-unit readout; pairs come in row-major (input, output) order.
    """
    readout = _unit_readout(choi).reshape(64, 64)
    table = (standard_pauli_stack().reshape(64, 64) @ readout.T).real / 8.0
    inputs, outputs = np.nonzero(np.abs(table) > RELEVANCE_CUTOFF)
    ideal = table[inputs, outputs]
    for arr in (inputs, outputs, ideal):
        arr.setflags(write=False)
    return inputs, outputs, ideal


@functools.lru_cache(maxsize=1)
def _relevant_toffoli_paulis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return enumerate_relevant_paulis(ideal_toffoli_choi())


@functools.lru_cache(maxsize=1)
def _eigenstates() -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(64, 8, 8)`` product eigenvectors v_mk (row k) and their eigenvalues."""
    vectors = []
    values = []
    for labels in pauli_labels():
        (vec_a, val_a), (vec_b, val_b), (vec_c, val_c) = (_EIGEN[c] for c in labels)
        # column (i, j, k) of the Kronecker product is v_a[i] (x) v_b[j] (x) v_c[k]
        vectors.append(np.kron(np.kron(vec_a, vec_b), vec_c).T)
        values.append(np.kron(np.kron(val_a, val_b), val_c))
    vectors, values = np.stack(vectors), np.stack(values)
    vectors.setflags(write=False)
    values.setflags(write=False)
    return vectors, values


def _eigenstate_readout(choi: ChoiMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Exact readout of every input Pauli's product eigenstates.

    Returns ``exact[m, k, n] = Tr[P_n E(|v_mk><v_mk|)]``, where v_mk is the
    k-th product eigenvector of input Pauli m and P_n the output Pauli, and
    the ``(64, 8)`` eigenvalues of the v_mk, contracted from the
    matrix-unit readout of ``choi``.
    """
    vectors, values = _eigenstates()
    # Rebuilt per call: holding the 512 KB projector stack raised peak RSS.
    states = np.einsum("mki,mkj->mkij", vectors, vectors.conj()).reshape(512, 64)
    exact = (states @ _unit_readout(choi).reshape(64, 64).T).real.reshape(64, 8, 64)
    return exact, values


def _measured_correlations(choi: ChoiMatrix, draws: np.ndarray, shots: int, rng) -> np.ndarray:
    """Measured correlations Q of every draw: ``draws[i]`` values for pair i, in pair order.

    With ``shots=0`` each is the pair's exact correlation.  Otherwise each
    eigenstate readout is a binomial estimate from ``shots`` outcomes, and
    each drawn pair takes its ``(draws[i], 8)`` counts in turn from ``rng``.
    """
    inputs, outputs, _ = _relevant_toffoli_paulis()
    exact, eigenvalues = _eigenstate_readout(choi)
    drawn = np.flatnonzero(draws)
    if shots == 0:
        # np.dot on the strided row: a contiguous or batched product rounds differently
        exact_q = [np.dot(eigenvalues[inputs[i]], exact[inputs[i], :, outputs[i]]) for i in drawn]
        return np.repeat(exact_q, draws[drawn]) / 8.0
    lams = eigenvalues[inputs]
    probs = _readout_probabilities(exact[inputs, :, outputs])
    measured = []
    for i in drawn:
        sampled = 2.0 * rng.binomial(shots, probs[i], size=(draws[i], 8)) / shots - 1.0
        # lam is +-1, so each product is exact; cumsum adds left to right like np.dot
        measured.append(np.cumsum(sampled * lams[i], axis=1)[:, -1] / 8.0)
    return np.concatenate(measured)


@dataclass(frozen=True, eq=False)
class FidelityEstimate:
    """Monte Carlo certification result.

    ``draws`` and ``mean_values`` are aligned with the relevant Toffoli
    pairs: the draw count of each pair and its mean measured correlation,
    NaN where a pair was not drawn.
    """

    estimate: float
    stderr: float
    draws: np.ndarray
    mean_values: np.ndarray


def monte_carlo_fidelity(
    choi: ChoiMatrix,
    samples: int = 10000,
    seed: int = 0,
    shots: int = 0,
) -> FidelityEstimate:
    """Importance-sampled fidelity between the channel of ``choi`` and the Toffoli.

    Pairs are drawn with probability proportional to the squared target
    correlation; each draw contributes X = Q/P.  The estimate is the sample
    mean, the standard error the sample deviation over sqrt(samples).
    """
    samples = _check_count(samples, "samples", 1)
    shots = _check_count(shots, "shots", 0)
    _, _, ideal = _relevant_toffoli_paulis()
    probs = ideal**2 / 64.0
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = np.bincount(rng.choice(len(ideal), size=samples, p=probs), minlength=len(ideal))
    drawn = np.flatnonzero(draws)
    measured = _measured_correlations(choi, draws, shots, rng)
    per_pair = np.split(measured, np.cumsum(draws[drawn])[:-1])
    mean_values = np.full(len(ideal), np.nan)
    # an exact pair repeats one value, which its mean could round away from
    mean_values[drawn] = [q[0] if shots == 0 else q.mean() for q in per_pair]
    x = measured / np.repeat(ideal[drawn], draws[drawn])
    estimate = float(x.mean())
    stderr = float(x.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    draws.setflags(write=False)
    mean_values.setflags(write=False)
    return FidelityEstimate(estimate, stderr, draws, mean_values)


def exhaustive_fidelity(choi: ChoiMatrix, shots: int = 0, seed: int = 0) -> float:
    """Deterministic variant measuring every relevant pair exactly once."""
    shots = _check_count(shots, "shots", 0)
    _, _, ideal = _relevant_toffoli_paulis()
    rng = np.random.default_rng(seed)
    measured = _measured_correlations(choi, np.ones(len(ideal), int), shots, rng)
    # cumsum adds left to right, as the per-pair sum this reproduces
    return float(np.cumsum(ideal * measured)[-1] / 64.0)
