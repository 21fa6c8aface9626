import functools
import itertools

import numpy as np
import pytest

import qutrit_toffoli
from qutrit_toffoli.gates import Circuit, GateOp, rotation_matrix_qubit, rotation_single
from qutrit_toffoli.register import (
    DIM,
    DIMS,
    QUBIT_KETS,
    SITE_NAMES,
    ProjectionError,
    basis_label,
    kron_stack,
    site_index,
)

from _oracle import basis_index, embed

RNG = np.random.default_rng(20240817)


def random_unitary(dim: int, rng=RNG) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def register_matrix(targets, matrix) -> np.ndarray:
    """27x27 matrix of ``matrix`` on ``targets`` through ``GateOp.on_kets``."""
    return Circuit((GateOp("op", targets, matrix, 0.0),)).trajectory()[-1]


def test_register_constants_and_site_names():
    assert SITE_NAMES == "ABC"
    assert DIMS == (3, 3, 3)
    assert DIM == 27
    assert site_index("b") == 1
    assert site_index("C") == 2
    assert site_index(2) == 2


def test_site_index_accepts_one_letter_or_index():
    for bad in ("", "AB", "bc", "D", "DEF", 3, -1):
        with pytest.raises(ValueError):
            site_index(bad)
    with pytest.raises(TypeError):
        site_index(1.0)
    with pytest.raises(ValueError):
        rotation_single("AB", "x", 1.0)


def test_gate_op_rejects_wrongly_sized_matrices():
    # Every site has three levels, so a gate on k sites is 3**k square;
    # a wrongly sized one fails when built, before any circuit holds it.
    wrong = [
        ((0,), rotation_matrix_qubit("x", 0.3)),
        ((0,), random_unitary(9)),
        ((0, 1), random_unitary(3)),
    ]
    for targets, matrix in wrong:
        with pytest.raises(ValueError, match="must be"):
            GateOp("bad", targets, matrix, 1.0)


def test_basis_index_site_a_slowest():
    # |abc> lives at 9a + 3b + c
    assert basis_index((0, 1, 2)) == 5
    assert basis_index((2, 0, 1)) == 19
    assert basis_index("111") == 13


def test_basis_index_round_trip():
    for i in range(DIM):
        assert basis_index(basis_label(i)) == i
    assert basis_label(5) == "012"
    assert basis_label(26) == "222"


def test_basis_index_range_checks():
    for digits in ((0, 3, 0), (0, -1, 0), (0, 0), (0, 0, 0, 0)):
        with pytest.raises(ValueError):
            basis_index(digits)
    for index in (-1, DIM):
        with pytest.raises(ValueError):
            basis_label(index)


def digit_oracle(targets, matrix) -> np.ndarray:
    """Slow reference: place matrix elements digit by digit."""
    kets = list(itertools.product(range(3), repeat=3))  # site A slowest
    rest = [s for s in range(3) if s not in targets]
    full = np.zeros((DIM, DIM), dtype=complex)
    for bi, di in enumerate(kets):
        for bj, dj in enumerate(kets):
            if any(di[s] != dj[s] for s in rest):
                continue
            row = int("".join(str(di[t]) for t in targets), 3)
            col = int("".join(str(dj[t]) for t in targets), 3)
            full[bi, bj] = matrix[row, col]
    return full


@pytest.mark.parametrize(
    "dims,targets",
    [
        (DIMS, (0,)),
        (DIMS, (1,)),
        (DIMS + (DIM,), (0, 1)),
        (DIMS + (4,), (1, 2)),
        (DIMS + (2, 5), (0, 2)),
        (DIMS, (2,)),
        (DIMS + (DIM,), (2, 0)),
        (DIMS + (3,), (2, 0, 1)),
    ],
)
def test_embed_matches_digit_oracle(dims, targets):
    # the oracle's dense embed, the circuit unitary, each step of a circuit
    # trajectory and on_kets on an array of shape ``dims`` (batch axes after
    # the three sites) all agree with the element-by-element placement
    op = GateOp("op", targets, random_unitary(3 ** len(targets)), 0.0)
    expected = digit_oracle(targets, op.matrix)
    steps = Circuit((op,) * 2).trajectory()
    assert np.allclose(embed(targets, op.matrix), expected, atol=1e-12)
    assert np.allclose(register_matrix(targets, op.matrix), expected, atol=1e-12)
    assert steps.shape == (3, DIM, DIM)
    assert np.array_equal(steps[0], np.eye(DIM))
    assert np.allclose(steps[1], expected, atol=1e-12)
    assert np.allclose(steps[2], expected @ expected, atol=1e-12)
    batch = RNG.normal(size=dims) + 1j * RNG.normal(size=dims)
    out = op.on_kets(batch)
    assert out.shape == dims
    assert np.allclose(out.reshape(DIM, -1), expected @ batch.reshape(DIM, -1), atol=1e-12)


def test_single_site_gate_kron_structure():
    u = random_unitary(3)
    eye3 = np.eye(3)
    assert np.allclose(register_matrix((0,), u), np.kron(u, np.eye(9)))
    assert np.allclose(register_matrix((1,), u), np.kron(np.kron(eye3, u), eye3))
    assert np.allclose(register_matrix(("C",), u), np.kron(np.eye(9), u))


def test_gate_respects_target_order():
    pair = random_unitary(9)
    forward = register_matrix((0, 1), pair)
    # the same matrix with its factors on (B, A): conjugate by the A <-> B swap
    reversed_ = register_matrix((1, 0), pair)
    swap9 = np.eye(9)[[3 * y + x for x in range(3) for y in range(3)]]
    swap = register_matrix((0, 1), swap9)
    assert np.allclose(reversed_, swap @ forward @ swap)


def test_gate_op_rejects_bad_targets_and_shapes():
    with pytest.raises(ValueError):
        GateOp("bad", (3,), np.eye(3), 1.0)  # site not in register
    with pytest.raises(ValueError):
        GateOp("bad", (0, 0), np.eye(9), 1.0)  # duplicate targets
    with pytest.raises(ValueError):
        GateOp("bad", (0,), np.ones((2, 3)), 1.0)  # not square
    with pytest.raises(ValueError):
        GateOp("bad", (), np.eye(1), 1.0)  # no target


def test_qubit_kets_order():
    assert QUBIT_KETS.tolist() == [0, 1, 3, 4, 9, 10, 12, 13]
    assert QUBIT_KETS.tolist() == [basis_index(f"{k:03b}") for k in range(8)]
    assert not QUBIT_KETS.flags.writeable


def test_gate_op_rejects_non_unitary():
    # the guard that keeps every trajectory step unitary
    for matrix in (2 * np.eye(3), np.diag([1, 1, 0.9])):
        with pytest.raises(ValueError, match="not unitary"):
            GateOp("bad", (0,), matrix, 1.0)
    GateOp("ok", (0,), random_unitary(3), 1.0)


def test_trajectory_follows_basis_kets():
    # a level 0 <-> 1 swap on site C moves |110> to |111>, then back
    swap01 = GateOp("swap", (2,), np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), 0.0)
    circuit = Circuit((swap01,) * 2)
    steps = circuit.trajectory()
    start = basis_index((1, 1, 0))
    columns = steps[:, :, start]
    assert columns[0][start] == 1.0 and np.count_nonzero(columns[0]) == 1
    assert abs(columns[1][basis_index((1, 1, 1))] - 1.0) < 1e-15
    assert np.linalg.norm(columns[1]) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(columns[2], columns[0])
    assert np.array_equal(Circuit(()).trajectory(), np.eye(DIM)[None])


def test_public_exports_resolve():
    namespace = {}
    exec("from qutrit_toffoli import *", namespace)
    for name in qutrit_toffoli.__all__:
        assert namespace[name] is getattr(qutrit_toffoli, name)
    assert set(qutrit_toffoli.__all__) <= set(dir(qutrit_toffoli))
    tomography = qutrit_toffoli.tomography  # a submodule resolves as an attribute
    assert tomography.__name__ == "qutrit_toffoli.tomography"
    assert qutrit_toffoli.ProjectionError is tomography.ProjectionError is ProjectionError
    with pytest.raises(AttributeError, match="no_such_name"):
        qutrit_toffoli.no_such_name


@pytest.mark.parametrize("shape", [(4, 2), (4, 2, 2), (3, 3, 2), (2, 1, 3)])
def test_kron_stack_is_the_kron_chain_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    a, b, c = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(3))
    triples = np.ndindex(len(a), len(b), len(c))
    expected = np.stack([functools.reduce(np.kron, [a[p], b[q], c[r]]) for p, q, r in triples])
    built = kron_stack(a, b, c)
    assert built.shape == expected.shape and built.flags.c_contiguous
    assert built.tobytes() == expected.tobytes()
