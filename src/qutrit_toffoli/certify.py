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
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .gates import ideal_toffoli_unitary
from .register import ATOL
from .tomography import _binomial_readout, pauli_labels, standard_pauli_stack, task_rng

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

_LABEL_INDEX = {"I": 0, "X": 1, "Y": 2, "Z": 3}


def _pauli_index(labels: str) -> int:
    return 16 * _LABEL_INDEX[labels[0]] + 4 * _LABEL_INDEX[labels[1]] + _LABEL_INDEX[labels[2]]


def _check_labels(labels: str) -> str:
    if len(labels) != 3 or any(c not in _LABEL_INDEX for c in labels):
        raise ValueError(f"expected three letters from IXYZ, got {labels!r}")
    return labels


@dataclass(frozen=True)
class PauliString:
    """An input/output observable pair with its target correlation."""

    in_labels: str
    out_labels: str
    ideal: float

    def __post_init__(self) -> None:
        _check_labels(self.in_labels)
        _check_labels(self.out_labels)


class ChoiMatrix:
    """Normalized input (x) output state of a three-qubit channel."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, atol: float = ATOL):
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (64, 64):
            raise ValueError("expected a 64x64 matrix")
        if np.max(np.abs(mat - mat.conj().T)) >= atol:
            raise ValueError("matrix must be Hermitian")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo <= -atol:
            raise ValueError(f"matrix must be positive semidefinite, min eig {lo}")
        tr = float(mat.trace().real)
        if tr >= 1.0 + atol:
            raise ValueError(f"trace {tr} exceeds 1")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("ChoiMatrix is immutable")

    def __repr__(self) -> str:
        return f"ChoiMatrix(trace={self.trace():.6f}, purity={self.purity():.6f})"

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def purity(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)


def choi_of_channel(channel8) -> ChoiMatrix:
    """Evaluate the channel on all matrix units; input factor first."""
    # kron(|i><j|, E(|i><j|)) places the output block at rows 8i.., cols 8j..
    mat = np.zeros((64, 64), dtype=complex)
    for i in range(8):
        for j in range(8):
            unit = np.zeros((8, 8), dtype=complex)
            unit[i, j] = 1.0
            mat[i * 8 : (i + 1) * 8, j * 8 : (j + 1) * 8] = channel8(unit)
    return ChoiMatrix(mat / 8.0)


def ideal_toffoli_choi() -> ChoiMatrix:
    """Pure target state built from the ideal gate."""
    unitary = ideal_toffoli_unitary()
    phi = np.zeros(64, dtype=complex)
    for i in range(8):
        phi[i * 8 : (i + 1) * 8] = unitary[:, i]
    phi /= np.sqrt(8.0)
    return ChoiMatrix(np.outer(phi, phi.conj()))


def _correlations(choi: ChoiMatrix) -> np.ndarray:
    """All 4096 pair correlations Tr[rho (A^T x B)], indexed (in, out)."""
    tensor = choi.matrix.reshape(8, 8, 8, 8)
    stack = standard_pauli_stack()
    vals = np.einsum("abcd,mac,ndb->mn", tensor, stack, stack)
    if np.max(np.abs(vals.imag)) >= 1e-9:
        raise ValueError("correlations of a Hermitian state must be real")
    return vals.real


def choi_expectation_direct(choi: ChoiMatrix, in_labels: str, out_labels: str) -> float:
    """Single pair correlation by direct contraction."""
    stack = standard_pauli_stack()
    a = stack[_pauli_index(_check_labels(in_labels))]
    b = stack[_pauli_index(_check_labels(out_labels))]
    tensor = choi.matrix.reshape(8, 8, 8, 8)
    val = complex(np.einsum("abcd,ac,db->", tensor, a, b))
    return float(val.real)


def enumerate_relevant_paulis(
    choi: ChoiMatrix, cutoff: float = RELEVANCE_CUTOFF
) -> tuple[PauliString, ...]:
    """All pairs whose target correlation magnitude exceeds ``cutoff``."""
    vals = _correlations(choi)
    labels = pauli_labels()
    out = []
    for m, n in itertools.product(range(64), repeat=2):
        if abs(vals[m, n]) > cutoff:
            out.append(PauliString(labels[m], labels[n], float(vals[m, n])))
    return tuple(out)


@functools.lru_cache(maxsize=8)
def _product_eigensystem(in_labels: str) -> tuple[np.ndarray, np.ndarray]:
    """Eight product eigenvectors (rows) and eigenvalues of an input Pauli."""
    vec_a, val_a = _EIGEN[in_labels[0]]
    vec_b, val_b = _EIGEN[in_labels[1]]
    vec_c, val_c = _EIGEN[in_labels[2]]
    vectors = []
    values = []
    for i, j, k in itertools.product(range(2), repeat=3):
        vectors.append(np.kron(np.kron(vec_a[:, i], vec_b[:, j]), vec_c[:, k]))
        values.append(val_a[i] * val_b[j] * val_c[k])
    return np.stack(vectors), np.array(values)


class EigenstateProtocol:
    """Measures pair correlations of a channel via eigenstate preparation.

    Channel outputs are cached per input label: the eight preparations for
    one input Pauli serve every output observable paired with it.
    """

    def __init__(self, channel8):
        self._channel = channel8
        self._outputs: dict[str, np.ndarray] = {}

    def _outputs_for(self, in_labels: str) -> tuple[np.ndarray, np.ndarray]:
        _check_labels(in_labels)
        vectors, values = _product_eigensystem(in_labels)
        if in_labels not in self._outputs:
            self._outputs[in_labels] = np.stack(
                [self._channel(np.outer(v, v.conj())) for v in vectors]
            )
        return self._outputs[in_labels], values

    def correlation(
        self,
        in_labels: str,
        out_labels: str,
        shots: int = 0,
        rng: np.random.Generator | None = None,
    ) -> float:
        """(1/8) sum_k lambda_k <B>_k, exactly or from binomial sampling."""
        outputs, eigenvalues = self._outputs_for(in_labels)
        b = standard_pauli_stack()[_pauli_index(_check_labels(out_labels))]
        exact = np.einsum("kab,ba->k", outputs, b).real
        if shots:
            if rng is None:
                raise ValueError("sampling requires a generator")
            exact = _binomial_readout(rng, shots, exact)
        return float(np.dot(eigenvalues, exact) / 8.0)


@dataclass(frozen=True)
class StringContribution:
    """Sampling summary for one relevant pair."""

    pauli: PauliString
    draws: int
    mean_value: float


@dataclass(frozen=True)
class FidelityEstimate:
    """Monte Carlo certification result."""

    estimate: float
    stderr: float
    samples: int
    shots: int
    seed: int
    contributions: tuple[StringContribution, ...]


def monte_carlo_fidelity(
    channel8,
    samples: int = 10000,
    seed: int = 0,
    shots: int = 0,
    target: ChoiMatrix | None = None,
) -> FidelityEstimate:
    """Importance-sampled fidelity between ``channel8`` and the target.

    Pairs are drawn with probability proportional to the squared target
    correlation; each draw contributes X = Q/P.  The estimate is the sample
    mean, the standard error the sample deviation over sqrt(samples).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if shots < 0:
        raise ValueError("shots must be non-negative")
    target = target or ideal_toffoli_choi()
    relevant = enumerate_relevant_paulis(target)
    ideals = np.array([ps.ideal for ps in relevant])
    probs = ideals**2 / 64.0
    probs = probs / probs.sum()
    chooser = task_rng(seed, 0)
    draw_counts = np.bincount(
        chooser.choice(len(relevant), size=samples, p=probs), minlength=len(relevant)
    )
    protocol = EigenstateProtocol(channel8)
    x_values = []
    contributions = []
    for index, ps in enumerate(relevant):
        n_draws = int(draw_counts[index])
        if n_draws == 0:
            continue
        if shots == 0:
            measured = protocol.correlation(ps.in_labels, ps.out_labels)
            values = [measured / ps.ideal] * n_draws
            mean_value = measured
        else:
            rng = task_rng(seed, index + 1)
            measured_list = [
                protocol.correlation(ps.in_labels, ps.out_labels, shots=shots, rng=rng)
                for _ in range(n_draws)
            ]
            values = [m / ps.ideal for m in measured_list]
            mean_value = float(np.mean(measured_list))
        x_values.extend(values)
        contributions.append(StringContribution(ps, n_draws, mean_value))
    x = np.array(x_values)
    estimate = float(x.mean())
    stderr = float(x.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return FidelityEstimate(
        estimate=estimate,
        stderr=stderr,
        samples=samples,
        shots=shots,
        seed=seed,
        contributions=tuple(contributions),
    )


def exhaustive_fidelity(
    channel8,
    shots: int = 0,
    seed: int = 0,
    target: ChoiMatrix | None = None,
) -> float:
    """Deterministic variant measuring every relevant pair exactly once."""
    target = target or ideal_toffoli_choi()
    relevant = enumerate_relevant_paulis(target)
    protocol = EigenstateProtocol(channel8)
    total = 0.0
    for index, ps in enumerate(relevant):
        rng = task_rng(seed, index + 1) if shots else None
        measured = protocol.correlation(ps.in_labels, ps.out_labels, shots=shots, rng=rng)
        total += ps.ideal * measured
    return total / 64.0
