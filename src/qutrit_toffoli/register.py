"""Dense linear algebra for small registers of two- and three-level sites.

Sites are named A, B, C, ... from left to right.  A basis ket is written with
site A as the leftmost symbol, and site A is the slowest-varying index of the
flattened state array (row-major composition).  For a three-qutrit register
the ket |abc> therefore sits at flat index 9a + 3b + c, and for three qubits
at 4a + 2b + c.

The module holds what the rest of the package builds on: register layouts,
local operators and their embedding into the full register, normalized pure
states (used to trace the noiseless pulse sequence), and ``ChoiMatrix``, the
one representation of a three-qubit channel that truth tables, tomography
and certification all read.  Operators, states and Choi matrices are plain
complex numpy arrays wrapped in small container types that validate their
defining invariants, finiteness included, on construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

SITE_NAMES = "ABCDEF"
MAX_SITES = len(SITE_NAMES)

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


def site_index(site: int | str) -> int:
    """Resolve a site given either its integer position or its letter name."""
    if isinstance(site, str):
        name = site.upper()
        if name not in SITE_NAMES:
            raise ValueError(f"unknown site name {site!r}")
        return SITE_NAMES.index(name)
    idx = int(site)
    if not 0 <= idx < MAX_SITES:
        raise ValueError(f"site index {site} out of range")
    return idx


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered site dimensions of a register, e.g. (3, 3, 3) or (2, 2, 2)."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not 1 <= len(dims) <= MAX_SITES:
            raise ValueError(f"register must have 1..{MAX_SITES} sites")
        if any(d not in (2, 3) for d in dims):
            raise ValueError("site dimensions must be 2 or 3")
        object.__setattr__(self, "dims", dims)

    @classmethod
    def qubits(cls, n_sites: int) -> "RegisterLayout":
        return cls((2,) * n_sites)

    @classmethod
    def qutrits(cls, n_sites: int) -> "RegisterLayout":
        return cls((3,) * n_sites)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(SITE_NAMES[: self.n_sites])

    def site(self, site: int | str) -> int:
        idx = site_index(site)
        if idx >= self.n_sites:
            raise ValueError(f"site {site!r} not in a {self.n_sites}-site register")
        return idx

    def basis_index(self, digits) -> int:
        """Flat index of the basis ket whose symbols are ``digits`` (site A first)."""
        digits = tuple(int(d) for d in digits)
        if len(digits) != self.n_sites:
            raise ValueError("digit count does not match register size")
        idx = 0
        for d, dim in zip(digits, self.dims):
            if not 0 <= d < dim:
                raise ValueError(f"digit {d} out of range for dimension {dim}")
            idx = idx * dim + d
        return idx

    def basis_digits(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`basis_index`."""
        if not 0 <= index < self.dim:
            raise ValueError(f"basis index {index} out of range")
        digits = []
        for dim in reversed(self.dims):
            digits.append(index % dim)
            index //= dim
        return tuple(reversed(digits))

    def basis_label(self, index: int) -> str:
        return "".join(str(d) for d in self.basis_digits(index))

    def all_basis_labels(self) -> tuple[str, ...]:
        return tuple(self.basis_label(i) for i in range(self.dim))


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """A matrix acting on an ordered subset of register sites.

    The first tensor factor of ``matrix`` belongs to ``targets[0]``, the
    second to ``targets[1]``, and so on; targets need not be sorted.
    """

    targets: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        targets = tuple(site_index(t) for t in self.targets)
        if len(set(targets)) != len(targets):
            raise ValueError("target sites must be distinct")
        if not targets:
            raise ValueError("operator needs at least one target site")
        mat = _readonly_complex(self.matrix, "operator matrix")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def embed(op: LocalOperator, layout: RegisterLayout) -> np.ndarray:
    """Matrix of ``op`` on the full register, identity on untouched sites."""
    n = layout.n_sites
    targets = tuple(layout.site(t) for t in op.targets)
    target_dim = prod(layout.dims[t] for t in targets)
    if op.dim != target_dim:
        raise ValueError(
            f"operator dimension {op.dim} does not match target dims {target_dim}"
        )
    rest = [s for s in range(n) if s not in targets]
    rest_dim = prod(layout.dims[s] for s in rest) if rest else 1
    full = np.kron(op.matrix, np.eye(rest_dim, dtype=complex))
    # Axis k of the kron product belongs to site order[k]; permute into
    # register order on both the ket and bra sides.
    order = list(targets) + rest
    ax_dims = [layout.dims[s] for s in order]
    tensor = full.reshape(ax_dims + ax_dims)
    perm = [order.index(s) for s in range(n)]
    tensor = tensor.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(tensor.reshape(layout.dim, layout.dim))


class StateVector:
    """Normalized pure state on a register."""

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout: RegisterLayout, amplitudes, *, atol: float = ATOL):
        amps = _readonly_complex(amplitudes, "amplitudes")
        if amps.shape != (layout.dim,):
            raise ValueError(f"expected {layout.dim} amplitudes, got {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) >= atol:
            raise ValueError(f"state norm {norm} deviates from 1 by >= {atol}")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self) -> str:
        return f"StateVector(dims={self.layout.dims})"

    @classmethod
    def computational(cls, layout: RegisterLayout, digits) -> "StateVector":
        """Basis ket |digits>, e.g. digits (0, 1, 1) for |011>."""
        amps = np.zeros(layout.dim, dtype=complex)
        amps[layout.basis_index(digits)] = 1.0
        return cls(layout, amps)

    def apply(self, op: LocalOperator) -> "StateVector":
        """Apply a unitary; the constructor re-checks the norm invariant."""
        new = embed(op, self.layout) @ self.amplitudes
        return StateVector(self.layout, new)


class ChoiMatrix:
    """Normalized input (x) output state of a three-qubit channel.

    Entry ``[8i + a, 8j + b]`` is ``E(|i><j|)[a, b] / 8``; weight the
    channel loses out of the qubit block shows up as a trace below one.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, atol: float = ATOL):
        mat = _readonly_complex(matrix, "Choi matrix")
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
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("ChoiMatrix is immutable")

    def __repr__(self) -> str:
        return f"ChoiMatrix(trace={self.trace():.6f}, purity={self.purity():.6f})"

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def purity(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)


def choi_of_unitary(unitary8) -> ChoiMatrix:
    """Pure Choi matrix of an 8x8 unitary: entry ``8i + a`` of its vector is U[a, i]/sqrt(8)."""
    unitary = np.asarray(unitary8, dtype=complex)
    if unitary.shape != (8, 8):
        raise ValueError("expected an 8x8 unitary")
    phi = unitary.T.reshape(-1) / np.sqrt(8.0)
    return ChoiMatrix(np.outer(phi, phi.conj()))


def computational_indices(layout: RegisterLayout) -> np.ndarray:
    """Flat indices of basis kets with every site in level 0 or 1.

    The indices are ordered so that position k corresponds to the k-th basis
    ket of the all-qubit register with the same number of sites.
    """
    combos = itertools.product(*[range(2) for _ in layout.dims])
    return np.array([layout.basis_index(c) for c in combos], dtype=int)
