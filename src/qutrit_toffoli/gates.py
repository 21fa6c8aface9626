"""Gate set and circuits for the qutrit-assisted Toffoli sequence.

The register holds three transmons A, B, C operated as three-level sites.
Two primitives generate everything here:

* single-site rotations exp(-i angle sigma_axis / 2) acting on levels
  {0, 1} and leaving level 2 untouched (8 ns for x/y pulses, 0 ns for
  virtual z rotations);

* an exchange rotation on the ordered two-level subspace {|11>, |20>} of an
  adjacent pair, R(theta) = cos(theta/2) 1 + i sin(theta/2) X, so a theta=pi
  pulse maps |11> -> +i|20>.  A full period costs 14 ns on pair (A, B) and
  23 ns on pair (B, C).

The doubly-controlled phase circuit is the three-pulse sequence
theta=pi on (A, B), theta=2*pi on (B, C), theta=3*pi on (A, B); conjugating
the last site with y-rotations of -+ pi/2 turns it into a Toffoli that acts
as an exact X on C when A and B are in |0> and |1> respectively.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import isfinite, pi

import numpy as np

from .register import (
    ATOL,
    DIM,
    DIMS,
    PAULI,
    SITE_NAMES,
    _readonly_complex,
    choi_of_unitary,
    site_index,
)

XY_PULSE_NS = 8.0
# Duration of a theta = pi exchange pulse per adjacent pair.
EXCHANGE_PI_NS = {(0, 1): 7.0, (1, 2): 11.5}


def rotation_matrix_qubit(axis: str, angle: float) -> np.ndarray:
    """2x2 rotation exp(-i angle sigma_axis / 2)."""
    axis = axis.lower()
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    sigma = PAULI[axis.upper()]
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * sigma


def rotation_matrix_qutrit(axis: str, angle: float) -> np.ndarray:
    """3x3 embedding of the qubit rotation: identity on level 2."""
    mat = np.eye(3, dtype=complex)
    mat[:2, :2] = rotation_matrix_qubit(axis, angle)
    return mat


def exchange_matrix(theta: float) -> np.ndarray:
    """9x9 rotation of the {|11>, |20>} subspace of an adjacent qutrit pair."""
    # The pair ket |xy> sits at 3x + y.
    i11, i20 = 4, 6
    mat = np.eye(9, dtype=complex)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    mat[i11, i11] = c
    mat[i20, i20] = c
    mat[i11, i20] = 1j * s
    mat[i20, i11] = 1j * s
    return mat


@dataclass(frozen=True, eq=False)
class GateOp:
    """One pulse: a unitary on an ordered subset of register sites plus its wall-clock cost.

    The first tensor factor of ``matrix`` belongs to ``targets[0]``, the
    second to ``targets[1]``, and so on; targets need not be sorted.
    """

    label: str
    targets: tuple[int, ...]
    matrix: np.ndarray
    duration_ns: float
    angle: float | None = None

    def __post_init__(self) -> None:
        targets = tuple(site_index(t) for t in self.targets)
        if len(set(targets)) != len(targets):
            raise ValueError("target sites must be distinct")
        if not targets:
            raise ValueError("gate needs at least one target site")
        mat = _readonly_complex(self.matrix, "gate matrix")
        dim = 3 ** len(targets)
        if mat.shape != (dim, dim):
            raise ValueError(f"gate on {targets} must be {dim}x{dim}, not {mat.shape}")
        if np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) >= ATOL:
            raise ValueError(f"gate {self.label!r} is not unitary")
        if not isfinite(self.duration_ns) or self.duration_ns < 0:
            raise ValueError("duration must be finite and non-negative")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "matrix", mat)

    def on_kets(self, tensor: np.ndarray) -> np.ndarray:
        """``matrix`` on the target axes of a ``(3, 3, 3, ...)`` array; later axes ride along."""
        front = range(len(self.targets))
        moved = np.moveaxis(tensor, self.targets, front)
        out = self.matrix @ moved.reshape(self.matrix.shape[0], -1)
        return np.moveaxis(out.reshape(moved.shape), front, self.targets)


def rotation_single(site: int | str, axis: str, angle: float) -> GateOp:
    """Single-site rotation pulse; z rotations are virtual and take no time."""
    axis = axis.lower()
    duration = 0.0 if axis == "z" else XY_PULSE_NS
    return GateOp(f"r{axis}", (site,), rotation_matrix_qutrit(axis, angle), duration, float(angle))


def subspace_rotation(pair, theta: float) -> GateOp:
    """Exchange pulse R(theta) on the {|11>, |20>} subspace of ``pair``.

    ``pair`` may be given as site indices or letters; only the adjacent
    pairs (A, B) and (B, C) are driven on this device.
    """
    sites = tuple(site_index(s) for s in pair)
    if sites not in EXCHANGE_PI_NS:
        raise ValueError(f"exchange pulses exist only for adjacent pairs, got {pair!r}")
    if theta < 0:
        raise ValueError("rotation angle must be non-negative")
    duration = EXCHANGE_PI_NS[sites] * theta / pi
    name = "AB" if sites == (0, 1) else "BC"
    return GateOp(f"xx{name}", sites, exchange_matrix(theta), duration, float(theta))


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered pulse sequence on the three-qutrit register."""

    ops: tuple[GateOp, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))

    @property
    def duration_ns(self) -> float:
        return float(sum(op.duration_ns for op in self.ops))

    def unitary(self) -> np.ndarray:
        return self.trajectory()[-1]

    def trajectory(self) -> np.ndarray:
        """``(len(ops) + 1, 27, 27)`` stack: the identity, then the unitary after each pulse.

        Column ``k`` of entry ``s`` is basis ket ``k`` after the first ``s`` pulses.
        """
        total = np.eye(DIM, dtype=complex).reshape(DIMS + (DIM,))
        steps = [total]
        for op in self.ops:
            total = op.on_kets(total)
            steps.append(total)
        return np.stack(steps).reshape(-1, DIM, DIM)

    def to_json_dict(self) -> dict:
        return {
            "dims": list(DIMS),
            "total_duration_ns": self.duration_ns,
            "ops": [
                {
                    "label": op.label,
                    "targets": [SITE_NAMES[t] for t in op.targets],
                    "angle": op.angle,
                    "duration_ns": op.duration_ns,
                }
                for op in self.ops
            ],
        }


# A Circuit and its GateOps are frozen and hold read-only matrices, so one
# instance serves every caller and the unitarity checks run once.
@functools.lru_cache(maxsize=1)
def ccphase_circuit() -> Circuit:
    """Three exchange pulses realizing diag(1,1,1,-1,1,1,1,1) on the qubit block."""
    return Circuit(
        (
            subspace_rotation((0, 1), pi),
            subspace_rotation((1, 2), 2 * pi),
            subspace_rotation((0, 1), 3 * pi),
        )
    )


@functools.lru_cache(maxsize=1)
def toffoli_circuit() -> Circuit:
    """Doubly-controlled X on site C, active when A=0 and B=1."""
    phase = ccphase_circuit()
    ops = (
        rotation_single(2, "y", -pi / 2),
        *phase.ops,
        rotation_single(2, "y", pi / 2),
    )
    return Circuit(ops)


def ideal_toffoli_unitary() -> np.ndarray:
    """Exact 8x8 target: X on qubit C conditioned on A=0, B=1."""
    mat = np.eye(8, dtype=complex)
    mat[np.ix_([0b010, 0b011], [0b010, 0b011])] = np.array([[0, 1], [1, 0]])
    return mat


@functools.lru_cache(maxsize=1)
def ideal_toffoli_choi() -> np.ndarray:
    """Read-only pure Choi matrix of the target, built and checked once per process."""
    return choi_of_unitary(ideal_toffoli_unitary())


def ideal_truth_table() -> np.ndarray:
    """Permutation matrix of the target gate on populations."""
    return np.abs(ideal_toffoli_unitary()) ** 2


def truth_table_fidelity(populations: np.ndarray) -> float:
    """Mean correct-output population of an 8x8 truth table ``populations[output, input]``.

    ValueError unless ``populations`` is a finite 8x8 array; its producer,
    ``noise.circuit_truth_table``, checks the physics.
    """
    populations = np.asarray(populations)
    if populations.shape != (8, 8) or not np.all(np.isfinite(populations)):
        raise ValueError("truth table must be a finite 8x8 array")
    return float(np.trace(populations @ ideal_truth_table()) / 8.0)
