import numpy as np
import pytest

from qutrit_toffoli.register import (
    PAULI,
    LocalOperator,
    RegisterLayout,
    StateVector,
    computational_indices,
    embed,
)

RNG = np.random.default_rng(20240817)


def random_unitary(dim: int, rng=RNG) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_layout_basics():
    layout = RegisterLayout.qutrits(3)
    assert layout.dim == 27
    assert layout.labels == ("A", "B", "C")
    assert RegisterLayout.qubits(3).dim == 8
    assert layout.site("b") == 1
    assert layout.site(2) == 2


def test_layout_rejects_bad_dims():
    with pytest.raises(ValueError):
        RegisterLayout((4, 2))
    with pytest.raises(ValueError):
        RegisterLayout((2,) * 7)
    with pytest.raises(ValueError):
        RegisterLayout(())


def test_basis_index_site_a_slowest():
    qutrits = RegisterLayout.qutrits(3)
    # |abc> lives at 9a + 3b + c
    assert qutrits.basis_index((0, 1, 2)) == 5
    assert qutrits.basis_index((2, 0, 1)) == 19
    qubits = RegisterLayout.qubits(3)
    assert qubits.basis_index((1, 0, 1)) == 5
    mixed = RegisterLayout((2, 3, 2))
    assert mixed.basis_index((1, 2, 0)) == 10  # (1*3 + 2)*2 + 0


def test_basis_index_round_trip():
    for dims in [(3, 3, 3), (2, 2, 2), (2, 3, 2), (3, 2)]:
        layout = RegisterLayout(dims)
        for i in range(layout.dim):
            assert layout.basis_index(layout.basis_digits(i)) == i
    assert RegisterLayout.qutrits(3).basis_label(5) == "012"


def test_basis_index_range_checks():
    layout = RegisterLayout.qubits(2)
    with pytest.raises(ValueError):
        layout.basis_index((0, 2))
    with pytest.raises(ValueError):
        layout.basis_index((0, 0, 0))
    with pytest.raises(ValueError):
        layout.basis_digits(4)


def embed_oracle(op: LocalOperator, layout: RegisterLayout) -> np.ndarray:
    """Slow reference: place matrix elements digit by digit."""
    n = layout.n_sites
    full = np.zeros((layout.dim, layout.dim), dtype=complex)
    tdims = tuple(layout.dims[t] for t in op.targets)
    sub = RegisterLayout(tdims) if all(d in (2, 3) for d in tdims) else None
    for bi in range(layout.dim):
        di = layout.basis_digits(bi)
        for bj in range(layout.dim):
            dj = layout.basis_digits(bj)
            rest_i = [d for s, d in enumerate(di) if s not in op.targets]
            rest_j = [d for s, d in enumerate(dj) if s not in op.targets]
            if rest_i != rest_j:
                continue
            row = sub.basis_index(tuple(di[t] for t in op.targets))
            col = sub.basis_index(tuple(dj[t] for t in op.targets))
            full[bi, bj] = op.matrix[row, col]
    return full


@pytest.mark.parametrize(
    "dims,targets",
    [
        ((3, 3, 3), (0,)),
        ((3, 3, 3), (1,)),
        ((3, 3, 3), (0, 1)),
        ((3, 3, 3), (1, 2)),
        ((3, 3, 3), (0, 2)),
        ((2, 3, 2), (0, 2)),
        ((2, 2, 2), (2, 0)),
        ((3, 2, 3, 2), (3, 1)),
    ],
)
def test_embed_matches_digit_oracle(dims, targets):
    layout = RegisterLayout(dims)
    d = int(np.prod([dims[t] for t in targets]))
    op = LocalOperator(targets, random_unitary(d))
    assert np.allclose(embed(op, layout), embed_oracle(op, layout), atol=1e-12)


def test_embed_single_site_kron_structure():
    layout = RegisterLayout.qubits(2)
    x = LocalOperator((1,), PAULI["X"])
    assert np.allclose(embed(x, layout), np.kron(np.eye(2), PAULI["X"]))
    x0 = LocalOperator((0,), PAULI["X"])
    assert np.allclose(embed(x0, layout), np.kron(PAULI["X"], np.eye(2)))


def test_embed_respects_target_order():
    layout = RegisterLayout.qubits(2)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    forward = embed(LocalOperator((0, 1), cnot), layout)
    # control on site 1 instead: same matrix with swapped tensor factors
    reversed_ = embed(LocalOperator((1, 0), cnot), layout)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.allclose(reversed_, swap @ forward @ swap)


def test_embed_validation():
    layout = RegisterLayout.qutrits(3)
    with pytest.raises(ValueError):
        embed(LocalOperator((0,), np.eye(2)), layout)  # dim mismatch on a qutrit
    with pytest.raises(ValueError):
        embed(LocalOperator((3,), np.eye(3)), layout)  # site not in register
    with pytest.raises(ValueError):
        LocalOperator((0, 0), np.eye(9))  # duplicate targets
    with pytest.raises(ValueError):
        LocalOperator((0,), np.ones((2, 3)))  # not square


def test_computational_indices_order():
    idx = computational_indices(RegisterLayout.qutrits(3))
    assert idx.tolist() == [0, 1, 3, 4, 9, 10, 12, 13]


def test_state_vector_normalization_guard():
    layout = RegisterLayout.qubits(1)
    with pytest.raises(ValueError):
        StateVector(layout, [1.0, 1.0])
    state = StateVector(layout, [1.0, 0.0])
    with pytest.raises(ValueError):
        state.apply(LocalOperator((0,), np.array([[2, 0], [0, 2]])))


def test_state_vector_apply_and_density():
    layout = RegisterLayout.qutrits(3)
    state = StateVector.computational(layout, (1, 1, 0))
    target = layout.basis_index((1, 1, 0))
    assert state.amplitudes[target] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    # a level 0 <-> 1 swap on site C moves the amplitude to |111>
    swap01 = LocalOperator((2,), np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    flipped = state.apply(swap01).amplitudes
    assert abs(flipped[layout.basis_index((1, 1, 1))] - 1.0) < 1e-15
    assert np.linalg.norm(flipped) == pytest.approx(1.0, abs=1e-12)
