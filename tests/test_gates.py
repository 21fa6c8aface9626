import json
from math import pi

import numpy as np
import pytest

from qutrit_toffoli import certify
from qutrit_toffoli.gates import (
    ccphase_circuit,
    exchange_matrix,
    ideal_toffoli_choi,
    ideal_toffoli_unitary,
    ideal_truth_table,
    rotation_matrix_qubit,
    rotation_single,
    subspace_rotation,
    toffoli_circuit,
    truth_table_fidelity,
)
from qutrit_toffoli.noise import NoiseModel, circuit_truth_table
from qutrit_toffoli.register import PAULI

from _oracle import (
    align_global_phase,
    basis_index,
    choi_of_channel,
    choi_truth_table,
    computational_block,
)


def expm_oracle(hermitian: np.ndarray) -> np.ndarray:
    """exp(-i H) through the spectral decomposition."""
    vals, vecs = np.linalg.eigh(hermitian)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("angle", [0.0, pi / 2, -pi / 2, pi, 0.7321])
def test_rotation_matches_exponential(axis, angle):
    expected = expm_oracle(angle * PAULI[axis.upper()] / 2)
    assert np.allclose(rotation_matrix_qubit(axis, angle), expected, atol=1e-12)


def test_rotation_qutrit_leaves_level_two_alone():
    gate = rotation_single("C", "x", 1.234)
    mat = gate.matrix
    assert mat[2, 2] == 1.0
    assert np.allclose(mat[2, :2], 0.0) and np.allclose(mat[:2, 2], 0.0)


def test_rotation_durations():
    assert rotation_single(0, "x", pi).duration_ns == 8.0
    assert rotation_single(0, "y", -pi / 2).duration_ns == 8.0
    assert rotation_single(0, "z", pi).duration_ns == 0.0


def test_rotation_rejects_bad_axis():
    with pytest.raises(ValueError):
        rotation_single(0, "q", pi)


def test_y_conjugation_turns_z_into_x():
    # R_y(pi/2) Z R_y(-pi/2) = X exactly: the basis change behind the
    # controlled-phase to controlled-X conversion.
    plus = rotation_matrix_qubit("y", pi / 2)
    minus = rotation_matrix_qubit("y", -pi / 2)
    assert np.allclose(plus @ PAULI["Z"] @ minus, PAULI["X"], atol=1e-15)


def test_exchange_matrix_pi_pulse():
    mat = exchange_matrix(pi)
    pair = np.zeros(9, dtype=complex)
    pair[4] = 1.0  # |11>
    out = mat @ pair
    assert abs(out[6] - 1j) < 1e-12  # +i |20>
    assert np.linalg.norm(np.delete(out, 6)) < 1e-12
    back = mat @ (mat @ pair)
    assert abs(back[4] + 1.0) < 1e-12  # two pi pulses give -|11>


def test_exchange_matrix_full_period_phase():
    mat = exchange_matrix(2 * pi)
    expected = np.eye(9, dtype=complex)
    expected[4, 4] = expected[6, 6] = -1.0
    assert np.allclose(mat, expected, atol=1e-12)


def test_exchange_matrix_untouched_elsewhere():
    mat = exchange_matrix(0.987)
    touched = {4, 6}
    for i in range(9):
        for j in range(9):
            if i in touched and j in touched:
                continue
            assert abs(mat[i, j] - (1.0 if i == j else 0.0)) < 1e-15


def test_exchange_unitarity():
    for theta in (0.3, pi, 2 * pi, 3 * pi):
        mat = exchange_matrix(theta)
        assert np.allclose(mat.conj().T @ mat, np.eye(9), atol=1e-12)


def test_subspace_rotation_durations():
    assert subspace_rotation((0, 1), pi).duration_ns == pytest.approx(7.0)
    assert subspace_rotation((0, 1), 3 * pi).duration_ns == pytest.approx(21.0)
    assert subspace_rotation((1, 2), 2 * pi).duration_ns == pytest.approx(23.0)
    assert subspace_rotation((1, 2), pi).duration_ns == pytest.approx(11.5)
    assert subspace_rotation(("B", "C"), pi).duration_ns == pytest.approx(11.5)


def test_subspace_rotation_rejects_non_adjacent():
    with pytest.raises(ValueError):
        subspace_rotation((0, 2), pi)
    with pytest.raises(ValueError):
        subspace_rotation((1, 0), pi)
    with pytest.raises(ValueError):
        subspace_rotation((0, 1), -pi)


def test_ccphase_block_is_exact_diagonal():
    block = computational_block(ccphase_circuit().trajectory()[-1])
    expected = np.eye(8, dtype=complex)
    expected[3, 3] = -1.0  # |011>
    assert np.max(np.abs(block - expected)) < 1e-10
    # no weight leaves the computational subspace for qubit inputs
    assert np.max(np.abs(block.conj().T @ block - np.eye(8))) < 1e-10


def test_ccphase_duration():
    assert ccphase_circuit().duration_ns == pytest.approx(51.0)


def test_toffoli_block_equals_target_including_phase():
    block = computational_block(toffoli_circuit().trajectory()[-1])
    assert np.max(np.abs(block - ideal_toffoli_unitary())) < 1e-10


def test_toffoli_duration_and_structure():
    circuit = toffoli_circuit()
    assert circuit.duration_ns == pytest.approx(67.0)
    assert [op.label for op in circuit.ops] == ["ry", "xxAB", "xxBC", "xxAB", "ry"]
    full = circuit.trajectory()[-1]
    assert np.allclose(full.conj().T @ full, np.eye(27), atol=1e-10)


def test_ideal_toffoli_unitary_is_conditional_x():
    mat = ideal_toffoli_unitary()
    # active control pattern A=0, B=1
    assert mat[2, 3] == 1.0 and mat[3, 2] == 1.0
    assert mat[2, 2] == 0.0 and mat[3, 3] == 0.0
    untouched = [0, 1, 4, 5, 6, 7]
    for i in untouched:
        assert mat[i, i] == 1.0


EXPECTED_TRAJECTORIES = {
    (0, 1, 1): [
        {(0, 1, 1): 1.0},
        {(0, 1, 1): -1.0},
        {(0, 1, 1): -1.0},
    ],
    (1, 1, 0): [
        {(2, 0, 0): 1j},
        {(2, 0, 0): 1j},
        {(1, 1, 0): 1.0},
    ],
    (1, 1, 1): [
        {(2, 0, 1): 1j},
        {(2, 0, 1): 1j},
        {(1, 1, 1): 1.0},
    ],
}


def trajectory_deviation(digits, steps) -> float:
    """Largest amplitude error across the three pulses for one input ket."""
    expected_steps = EXPECTED_TRAJECTORIES.get(
        tuple(digits), [{tuple(digits): 1.0}] * 3
    )
    columns = ccphase_circuit().trajectory()[1:, :, basis_index(digits)]
    worst = 0.0
    for snap, expected in zip(columns, expected_steps):
        target = np.zeros(27, dtype=complex)
        for ket, amp in expected.items():
            target[basis_index(ket)] = amp
        worst = max(worst, float(np.max(np.abs(snap - target))))
    return worst


@pytest.mark.parametrize("digits", [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
def test_ccphase_per_pulse_trajectories(digits):
    # |011> picks up its sign at the second AB pulse and keeps it; |11x>
    # parks in |20x> during the BC pulse and returns; everything else rides
    # along unchanged.
    assert trajectory_deviation(digits, 3) < 1e-10


def test_truth_table_of_ideal_channel():
    block = computational_block(toffoli_circuit().trajectory()[-1])
    table = choi_truth_table(choi_of_channel(lambda rho: block @ rho @ block.conj().T))
    assert np.allclose(table, ideal_truth_table(), atol=1e-12)
    assert truth_table_fidelity(table) == pytest.approx(1.0, abs=1e-12)


def test_target_forms_are_read_only_and_built_once():
    choi = ideal_toffoli_choi()
    assert ideal_toffoli_choi() is choi
    assert certify.ideal_toffoli_choi is ideal_toffoli_choi
    with pytest.raises(ValueError, match="read-only"):
        choi[0, 0] = 0.0
    table = circuit_truth_table(toffoli_circuit(), NoiseModel.from_device())
    assert (table.dtype, table.shape) == (np.float64, (8, 8))
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    # readers check only the shape and finiteness; circuit_truth_table checks the physics
    for bad in (np.eye(4), np.full((8, 8), np.nan)):
        with pytest.raises(ValueError, match="finite 8x8"):
            truth_table_fidelity(bad)


def test_truth_table_columns_may_be_subnormalized():
    # identity populations: six fixed points at 0.9, the swapped pair at 0
    assert truth_table_fidelity(np.eye(8) * 0.9) == pytest.approx(6 * 0.9 / 8)
    assert truth_table_fidelity(ideal_truth_table() * 0.9) == pytest.approx(0.9)


def test_align_global_phase():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q, _ = np.linalg.qr(a)
    rotated = np.exp(1j * 0.4567) * q
    assert np.allclose(align_global_phase(rotated, q), q, atol=1e-12)
    with pytest.raises(ValueError):
        align_global_phase(np.kron(np.eye(4), PAULI["X"]), np.kron(np.eye(4), PAULI["Z"]))


def test_circuit_json_serialization():
    circuit = toffoli_circuit()
    payload = circuit.to_json_dict()
    assert payload["total_duration_ns"] == pytest.approx(67.0)
    assert payload["dims"] == [3, 3, 3]
    assert payload["ops"][0] == {
        "label": "ry",
        "targets": ["C"],
        "angle": -pi / 2,
        "duration_ns": 8.0,
    }
    parsed = json.loads(json.dumps(payload))
    assert len(parsed["ops"]) == 5


def test_computational_block_shape_guard():
    with pytest.raises(ValueError):
        computational_block(np.eye(8))
