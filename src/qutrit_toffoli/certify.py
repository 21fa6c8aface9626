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
shrinks with the sample count alone (direct fidelity estimation, Flammia &
Liu, PRL 106, 230501 (2011)).

Q_n is linear in the channel's Choi state, so the estimators take the
64x64 Choi matrix of the channel under test (``noise.circuit_choi`` for the
simulated gate, ``choi_of_channel`` for any other callable) and read every
eigenstate output off it.  A set of pairs is three aligned arrays: the
input and output Pauli indices into ``pauli_labels()`` and the target
correlations.

Each estimate draws from one generator, ``default_rng(seed)``: the Monte
Carlo pair choice first, then one binomial call for the shot readouts of
every draw, in pair order.  Each shot-mode Q and each pair's mean Q come
from exact integer sums of the counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gates import ideal_toffoli_choi
from .register import checked_choi
from .tomography import (
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

def choi_of_channel(channel8) -> np.ndarray:
    """Checked Choi matrix of the callable ``channel8``: block (i, j) is E(|i><j|) / 8."""
    units = np.eye(64, dtype=complex).reshape(64, 8, 8)  # units[8i + j] = |i><j|
    blocks = np.stack([channel8(unit.copy()) for unit in units]).reshape(8, 8, 8, 8)
    return checked_choi(blocks.transpose(0, 2, 1, 3).reshape(64, 64) / 8.0)


def enumerate_relevant_paulis(choi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _eigenstate_readout(choi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _measured_correlations(
    choi: np.ndarray, draws: np.ndarray, shots: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Measured correlation Q of every draw, in pair order, and each pair's mean Q.

    Pair i is drawn ``draws[i]`` times; an undrawn pair's mean is NaN.  With
    ``shots=0`` every draw of a pair is its exact Q = sum_k lam_k r_k / 8,
    one product over all pairs, with r_k the output Pauli's readout on input
    eigenstate k and lam_k = +-1 its eigenvalue.  Otherwise each readout is a
    count c_k of +1 outcomes in ``shots``, all drawn by one ``rng.binomial``
    in pair order, and Q = (2 S / shots - sum_k lam_k) / 8 with the integer
    S = sum_k lam_k c_k.  A pair's mean takes the sum of its S the same way,
    so neither shot-mode result depends on a summation order.
    """
    inputs, outputs, _ = _relevant_toffoli_paulis()
    exact, eigenvalues = _eigenstate_readout(choi)
    lams, rows = eigenvalues[inputs], exact[inputs, :, outputs]
    pair = np.repeat(np.arange(len(draws)), draws)
    drawn = draws > 0
    if shots == 0:
        exact_q = (lams * rows).sum(1) / 8.0
        return exact_q[pair], np.where(drawn, exact_q, np.nan)
    counts = rng.binomial(shots, _readout_probabilities(rows)[pair])
    counts *= lams.astype(np.int8)[pair]
    signed = counts.sum(1)
    lam_sums = lams.sum(1)
    measured = (2.0 * signed / shots - lam_sums[pair]) / 8.0
    # integer sums below 2**53 are exact in float64
    totals = np.bincount(pair, weights=signed, minlength=len(draws))[drawn]
    means = np.full(len(draws), np.nan)
    means[drawn] = (2.0 * totals / (shots * draws[drawn]) - lam_sums[drawn]) / 8.0
    return measured, means


@dataclass(frozen=True, eq=False)
class FidelityEstimate:
    """Monte Carlo certification result.

    ``draws`` and ``mean_values`` are aligned with the relevant Toffoli
    pairs: the draw count of each pair and its mean measured correlation,
    NaN where a pair was not drawn.  In exact mode the mean is the pair's
    exact correlation; with shots it comes from the pair's summed counts.
    """

    estimate: float
    stderr: float
    draws: np.ndarray
    mean_values: np.ndarray


def monte_carlo_fidelity(
    choi: np.ndarray,
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
    measured, mean_values = _measured_correlations(choi, draws, shots, rng)
    x = measured / np.repeat(ideal, draws)
    estimate = float(x.mean())
    stderr = float(x.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    draws.setflags(write=False)
    mean_values.setflags(write=False)
    return FidelityEstimate(estimate, stderr, draws, mean_values)


def exhaustive_fidelity(choi: np.ndarray, shots: int = 0, seed: int = 0) -> float:
    """Deterministic variant measuring every relevant pair exactly once."""
    shots = _check_count(shots, "shots", 0)
    _, _, ideal = _relevant_toffoli_paulis()
    rng = np.random.default_rng(seed)
    measured, _ = _measured_correlations(choi, np.ones(len(ideal), int), shots, rng)
    return float(ideal @ measured / 64.0)
