"""Dense linear algebra on the three-qutrit register of the device.

The register is fixed: three transmons A, B, C, each a three-level site.  A
basis ket is written with site A as the leftmost symbol, and site A is the
slowest-varying index of the flattened state array (row-major composition),
so the ket |abc> sits at flat index 9a + 3b + c.  The qubit view is the
eight kets with every site in level 0 or 1, listed in ``QUBIT_KETS`` in the
order of the three-qubit basis |000>, |001>, ..., |111>.

The module holds what the rest of the package builds on: site and basis
indexing, the Pauli matrices, ``kron_stack`` for the constant tables of
three-site products (``tomography``'s readout Pauli products, preparation
table and its inverse), ``_check_count`` for every count argument, the
``ProjectionError`` a failed CPTP projection raises, and ``checked_choi``,
which makes the one representation of a three-qubit channel that
tomography and certification read.  A Choi matrix is a read-only complex
64x64 numpy array; its producers pass it through ``checked_choi``, which
validates its defining invariants, finiteness included, as
``_check_states`` does for the output states of a truth table.

Every pipeline imports this module; ``cli`` reads ``_check_count`` and
``ProjectionError`` from here, so neither makes it load ``tomography``.
"""

from __future__ import annotations

import operator

import numpy as np

SITE_NAMES = "ABC"
DIMS = (3, 3, 3)
DIM = 27

# Flat indices of |000>, |001>, ..., |111>: the qubit block of the register.
QUBIT_KETS = np.array([0, 1, 3, 4, 9, 10, 12, 13])
QUBIT_KETS.setflags(write=False)

# Default tolerance: algebraic identities are trusted to ten digits.
ATOL = 1e-10

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _p in PAULI.values():
    _p.setflags(write=False)


def _readonly_complex(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _is_unitary(matrix: np.ndarray) -> bool:
    """Whether ``max|U^dag U - I| < ATOL``: the unitarity test of gates and target matrices."""
    return bool(np.max(np.abs(matrix.conj().T @ matrix - np.eye(len(matrix)))) < ATOL)


def _check_states(states: np.ndarray, name: str) -> None:
    """Raise ValueError unless each matrix of ``states`` is finite, Hermitian, PSD, trace <= 1."""
    if not np.all(np.isfinite(states)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.max(np.abs(states - np.swapaxes(states, -1, -2).conj())) >= ATOL:
        raise ValueError(f"{name} must be Hermitian")
    lo = float(np.linalg.eigvalsh(states).min())
    if lo <= -ATOL:
        raise ValueError(f"{name} must be positive semidefinite, min eig {lo}")
    tr = float(np.trace(states, axis1=-2, axis2=-1).real.max())
    if tr >= 1.0 + ATOL:
        raise ValueError(f"{name} trace {tr} exceeds 1")


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


class ProjectionError(RuntimeError):
    """The CPTP projection did not converge within its Newton-step budget."""


def kron_stack(a, b, c) -> np.ndarray:
    """Every Kronecker product ``a[p] (x) b[q] (x) c[r]``, stacked with p slowest.

    The factors are equal-shaped stacks of vectors or matrices.  One
    broadcast product forms each entry as ``(a * b) * c``, the association
    of ``np.kron(np.kron(a[p], b[q]), c[r])``, so the bits are the same.
    The result is a new C-contiguous array of shape ``(n**3, *(d**3 for d
    in shape))``.
    """

    def spread(factor, slot):
        # stack axis to position ``slot`` of three; each factor axis likewise
        return factor.reshape(
            [len(factor) if t == slot else 1 for t in range(3)]
            + [d if t == slot else 1 for d in factor.shape[1:] for t in range(3)]
        )

    a, b, c = (np.asarray(f) for f in (a, b, c))
    product = (spread(a, 0) * spread(b, 1)) * spread(c, 2)
    return product.reshape(-1, *(d**3 for d in a.shape[1:]))


def site_index(site: int | str) -> int:
    """Resolve a site given as its integer position 0-2 or its letter A-C (either case)."""
    if isinstance(site, str):
        if len(site) != 1 or site.upper() not in SITE_NAMES:
            raise ValueError(f"unknown site name {site!r}")
        return SITE_NAMES.index(site.upper())
    idx = operator.index(site)
    if not 0 <= idx < len(SITE_NAMES):
        raise ValueError(f"site index {site} out of range")
    return idx


def basis_label(index: int) -> str:
    """Symbols of basis ket ``index``, site A first: 5 gives '012'."""
    if not 0 <= index < DIM:
        raise ValueError(f"basis index {index} out of range")
    return f"{index // 9}{index // 3 % 3}{index % 3}"


def checked_choi(matrix) -> np.ndarray:
    """Read-only copy of the normalized input (x) output state of a three-qubit channel.

    Entry ``[8i + a, 8j + b]`` is ``E(|i><j|)[a, b] / 8``; weight the
    channel loses out of the qubit block shows up as a trace below one.
    ValueError unless ``matrix`` is 64x64, finite, Hermitian, positive
    semidefinite and of trace at most one.
    """
    mat = np.array(matrix, dtype=complex)
    if mat.shape != (64, 64):
        raise ValueError("expected a 64x64 matrix")
    _check_states(mat, "Choi matrix")
    mat.setflags(write=False)
    return mat


def choi_of_unitary(unitary8) -> np.ndarray:
    """Pure Choi matrix of an 8x8 unitary: entry ``8i + a`` of its vector is U[a, i]/sqrt(8).

    ValueError unless it is unitary to ``ATOL``, as a ``GateOp`` matrix must be.
    """
    unitary = np.asarray(unitary8, dtype=complex)
    if unitary.shape != (8, 8):
        raise ValueError("expected an 8x8 unitary")
    if not _is_unitary(unitary):
        raise ValueError("matrix is not unitary")
    phi = unitary.T.reshape(-1) / np.sqrt(8.0)
    return checked_choi(np.outer(phi, phi.conj()))

