import functools

import numpy as np
import pytest

from qutrit_toffoli.certify import choi_of_channel
from qutrit_toffoli.gates import ideal_toffoli_unitary, toffoli_circuit
from qutrit_toffoli.noise import NoiseModel, circuit_choi
from qutrit_toffoli.register import PAULI
import qutrit_toffoli.tomography as tomography
from qutrit_toffoli.tomography import (
    PREP_LABELS,
    ChiMatrix,
    ProjectionError,
    Records,
    bootstrap_ci,
    chi_basis,
    chi_from_records,
    chi_of_choi,
    chi_of_unitary,
    input_prep_labels,
    measure_output_records,
    ml_projection,
    pauli_labels,
    process_fidelity,
    process_tomography,
    standard_pauli_stack,
    _choi_basis,
    _choi_from_values,
    _input_qubit_matrices,
    _prep_matrix,
    _project_tp,
)

from _oracle import device_channel8


def random_unitary(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def random_cptp_kraus(dim, n_kraus, rng):
    """Random channel from a Haar-ish isometry, exactly trace preserving."""
    big = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, _ = np.linalg.qr(big)  # columns orthonormal: sum_k K_k^dag K_k = 1
    return [q[k * dim : (k + 1) * dim, :] for k in range(n_kraus)]


def random_cptp_choi(rng, n_kraus=3):
    kraus = random_cptp_kraus(8, n_kraus, rng)
    return choi_of_channel(lambda block: sum(k @ block @ k.conj().T for k in kraus))


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def trace_out(choi_matrix):
    return choi_matrix.reshape(8, 8, 8, 8).trace(axis1=1, axis2=3)


def unitary_choi(unitary8):
    return choi_of_channel(lambda block: unitary8 @ block @ unitary8.conj().T)


@functools.lru_cache(maxsize=1)
def device_toffoli_choi():
    return circuit_choi(toffoli_circuit(), NoiseModel.from_device())


def chi_apply(chi, rho8):
    """E(rho) = sum_mn chi_mn B_m rho B_n^dag over the ``chi_basis()`` matrices."""
    basis = chi_basis()
    return np.einsum("mn,mab,bc,ndc->ad", chi.matrix, basis, rho8, basis.conj())


def test_basis_orthogonality_and_reality():
    basis = chi_basis()
    gram = np.einsum("mab,nba->mn", basis.conj().transpose(0, 2, 1), basis)
    assert np.allclose(gram, 8 * np.eye(64), atol=1e-12)
    assert np.max(np.abs(basis.imag)) == 0.0


def test_basis_label_order():
    labels = pauli_labels()
    assert labels[0] == "III"
    assert labels[1] == "IIX"
    assert labels[28] == "XZI"
    assert labels.index("ZZZ") == 63
    basis = chi_basis()
    real_y = np.array([[0, -1], [1, 0]], dtype=complex)
    expected = np.kron(np.kron(PAULI["X"], PAULI["Z"]), np.eye(2))
    assert np.allclose(basis[28], expected)
    expected_y = np.kron(np.kron(np.eye(2), real_y), PAULI["Z"])
    assert np.allclose(basis[pauli_labels().index("IYZ")], expected_y)


def test_standard_stack_differs_only_in_y():
    std = standard_pauli_stack()
    assert np.allclose(std[pauli_labels().index("IIX")], np.kron(np.eye(4), PAULI["X"]))
    y_idx = pauli_labels().index("IIY")
    assert np.allclose(std[y_idx], np.kron(np.eye(4), PAULI["Y"]))
    # the chi basis swaps sigma_y for its real counterpart -i sigma_y
    assert np.allclose(chi_basis()[y_idx], -1j * std[y_idx])
    same = [i for i, lab in enumerate(pauli_labels()) if "Y" not in lab]
    assert np.allclose(chi_basis()[same], std[same])


def test_input_states_cover_all_preparations():
    stack = _input_qubit_matrices()
    labels = input_prep_labels()
    assert stack.shape == (64, 8, 8) and len(labels) == 64
    # x180 on site A only: |100><100|, the rotation's global phase cancels
    rho = stack[labels.index("x180.id.id")]
    target = np.zeros((8, 8))
    target[4, 4] = 1.0
    assert np.max(np.abs(rho - target)) < 1e-12
    # preparations never populate level 2
    for label in PREP_LABELS:
        assert _prep_matrix(label)[2, 0] == 0


def test_input_matrices_are_well_conditioned():
    stack = _input_qubit_matrices().reshape(64, 64).T
    assert np.linalg.cond(stack) < 100


def test_chi_of_identity_and_single_x():
    chi = chi_of_unitary(np.eye(8)).matrix
    expected = np.zeros((64, 64))
    expected[0, 0] = 1.0
    assert np.allclose(chi, expected, atol=1e-12)
    chi_x = chi_of_unitary(np.kron(np.eye(4), PAULI["X"])).matrix
    idx = pauli_labels().index("IIX")
    assert chi_x[idx, idx] == pytest.approx(1.0)
    assert abs(np.trace(chi_x) - 1.0) < 1e-12


def test_chi_of_toffoli_leading_element():
    chi = chi_of_unitary(ideal_toffoli_unitary())
    assert chi.matrix[0, 0].real == pytest.approx(0.5625, abs=1e-12)
    assert chi.trace() == pytest.approx(1.0, abs=1e-12)
    assert chi.min_eigenvalue() > -1e-12
    assert chi.tp_residual() < 1e-9


def test_apply_chi_reproduces_unitary_conjugation():
    rng = np.random.default_rng(21)
    for _ in range(5):
        unitary = random_unitary(8, rng)
        chi = chi_of_unitary(unitary)
        rho = random_density(8, rng)
        assert np.allclose(
            chi_apply(chi, rho), unitary @ rho @ unitary.conj().T, atol=1e-10
        )


def test_process_tomography_identity_channel():
    chi = process_tomography(choi_of_channel(lambda b: b))
    expected = np.zeros((64, 64))
    expected[0, 0] = 1.0
    assert np.max(np.abs(chi.matrix - expected)) < 1e-10
    assert chi.trace_deficit == pytest.approx(0.0, abs=1e-10)


def test_process_tomography_random_unitary_round_trip():
    rng = np.random.default_rng(22)
    unitary = random_unitary(8, rng)
    chi = process_tomography(unitary_choi(unitary))
    direct = chi_of_unitary(unitary)
    assert np.max(np.abs(chi.matrix - direct.matrix)) < 1e-8
    assert process_fidelity(chi, direct) == pytest.approx(1.0, abs=1e-8)


def test_process_tomography_recovers_generic_cptp_action():
    # the reconstructed chi must reproduce the channel on arbitrary inputs,
    # including a leaky channel that sends weight out of the qubit block
    rng = np.random.default_rng(23)
    kraus = random_cptp_kraus(8, 3, rng)

    def apply8(block):
        return sum(k @ block @ k.conj().T for k in kraus)

    chi = process_tomography(choi_of_channel(apply8))
    for _ in range(10):
        rho = random_density(8, rng)
        assert np.allclose(chi_apply(chi, rho), apply8(rho), atol=1e-9)

    chi_dev = process_tomography(device_toffoli_choi())
    for _ in range(5):
        rho = random_density(8, rng)
        assert np.allclose(chi_apply(chi_dev, rho), device_channel8(rho), atol=1e-9)


def test_choi_basis_is_unitary_and_matches_rank_one_chi():
    w = _choi_basis()
    assert np.max(np.abs(w.conj().T @ w - np.eye(64))) < 1e-12
    rng = np.random.default_rng(28)
    for unitary in (ideal_toffoli_unitary(), random_unitary(8, rng)):
        coeffs = np.einsum("mab,ab->m", chi_basis().conj(), unitary) / 8.0
        expected = np.outer(coeffs, coeffs.conj())
        assert np.max(np.abs(chi_of_unitary(unitary).matrix - expected)) < 1e-12


def test_linear_inversion_round_trip_in_both_bases():
    for choi in (device_toffoli_choi(), random_cptp_choi(np.random.default_rng(29))):
        records = measure_output_records(choi)
        assert np.max(np.abs(_choi_from_values(records.values) - choi.matrix)) < 1e-12
        chi = chi_from_records(records)
        assert np.max(np.abs(chi.matrix - chi_of_choi(choi.matrix).matrix)) < 1e-12
        assert chi.trace_deficit == pytest.approx(1.0 - choi.trace(), abs=1e-12)


def test_project_tp_is_the_orthogonal_projection_onto_tp_choi_matrices():
    rng = np.random.default_rng(30)
    choi = random_hermitian(64, rng) / 64.0
    out = _project_tp(choi)
    assert np.max(np.abs(_project_tp(out) - out)) < 1e-12
    assert np.max(np.abs(trace_out(out) - np.eye(8) / 8.0)) < 1e-12
    for _ in range(5):
        direction = random_hermitian(64, rng)
        direction -= np.kron(trace_out(direction), np.eye(8) / 8.0)
        assert np.max(np.abs(trace_out(direction))) < 1e-12
        assert abs(np.vdot(choi - out, direction)) < 1e-12


def test_tp_residual_is_the_chi_basis_trace_condition():
    rng = np.random.default_rng(31)
    basis = chi_basis()
    for chi in (random_hermitian(64, rng) / 64.0, chi_of_unitary(random_unitary(8, rng)).matrix):
        # sum_mn chi_mn B_n^dag B_m is the identity for a trace-preserving chi
        direct = np.einsum("mn,nba,mbc->ac", chi, basis.conj(), basis)
        expected = np.linalg.norm(direct - np.eye(8))
        assert ChiMatrix(chi).tp_residual() == pytest.approx(expected, rel=1e-12, abs=1e-13)


def test_process_fidelity_is_the_same_in_chi_and_choi_bases():
    rng = np.random.default_rng(32)
    a, b = random_cptp_choi(rng, 2), random_cptp_choi(rng, 2)
    in_choi = process_fidelity(a.matrix, b.matrix)
    assert in_choi == pytest.approx(np.trace(a.matrix @ b.matrix).real, abs=1e-15)
    assert process_fidelity(chi_of_choi(a.matrix), chi_of_choi(b.matrix)) == pytest.approx(
        in_choi, abs=1e-15
    )


def record_value(records, input_label, pauli_label):
    i = input_prep_labels().index(input_label)
    p = pauli_labels().index(pauli_label)
    return records.values[i, p]


def test_measurement_records_exact_values():
    records = measure_output_records(choi_of_channel(lambda b: b))
    assert record_value(records, "id.id.id", "ZZZ") == pytest.approx(1.0)
    assert record_value(records, "id.id.id", "ZII") == pytest.approx(1.0)
    assert record_value(records, "x180.id.id", "ZII") == pytest.approx(-1.0)
    assert record_value(records, "id.y90.id", "IXI") == pytest.approx(1.0)
    assert record_value(records, "id.x90.id", "IYI") == pytest.approx(-1.0)
    assert record_value(records, "id.id.id", "XII") == pytest.approx(0.0, abs=1e-12)
    assert records.shots == 0


def test_records_shot_mode_is_deterministic_and_consistent():
    choi = device_toffoli_choi()
    a = measure_output_records(choi, shots=400, seed=9)
    b = measure_output_records(choi, shots=400, seed=9)
    assert np.array_equal(a.values, b.values)
    assert a.shots == b.shots == 400
    c = measure_output_records(choi, shots=400, seed=10)
    assert not np.array_equal(a.values, c.values)
    exact = measure_output_records(choi)
    # 6 sigma with sigma <= 1/sqrt(400)
    worst = np.max(np.abs(a.values - exact.values))
    assert worst < 6.0 / np.sqrt(400)


def test_chi_hermiticity_guard():
    from qutrit_toffoli.tomography import ChiMatrix

    with pytest.raises(ValueError):
        ChiMatrix(np.triu(np.ones((64, 64))))
    with pytest.raises(ValueError):
        ChiMatrix(np.eye(8))


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, complex(0, np.nan)], ids=["nan", "inf", "imag-nan"]
)
def test_non_finite_chi_fails_at_once(monkeypatch, bad):
    matrix = np.zeros((64, 64), dtype=complex)
    matrix[3, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ChiMatrix(matrix)
    calls = []
    project_psd = tomography._project_psd
    monkeypatch.setattr(
        tomography, "_project_psd", lambda m: calls.append(None) or project_psd(m)
    )
    for start in (matrix, np.full((64, 64), bad)):
        with pytest.raises(ValueError, match="non-finite"):
            ml_projection(start)
    assert len(calls) == 0


def test_ml_projection_fixed_point_on_physical_chi():
    chi = chi_of_unitary(ideal_toffoli_unitary())
    projected = ml_projection(chi)
    assert np.max(np.abs(projected.matrix - chi.matrix)) < 1e-8


def test_ml_projection_restores_physicality():
    chi = process_tomography(device_toffoli_choi(), shots=1000, seed=12)
    assert chi.min_eigenvalue() < -1e-3  # raw estimate is genuinely unphysical
    projected = ml_projection(chi)
    assert projected.min_eigenvalue() > -1e-10
    assert projected.tp_residual() < 1e-8
    again = ml_projection(projected)
    assert np.max(np.abs(again.matrix - projected.matrix)) < 1e-9


def test_ml_projection_trace_change_on_tp_class_input():
    records = measure_output_records(device_toffoli_choi(), shots=700, seed=13)
    tp_input = chi_of_choi(_project_tp(_choi_from_values(records.values)))
    assert tp_input.tp_residual() < 1e-12
    before = tp_input.trace()
    projected = ml_projection(tp_input, tol=1e-10)
    assert abs(projected.trace() - before) < 1e-10


@pytest.mark.parametrize("shots, iterations", [(1000, 154), (100, 265)])
def test_ml_projection_iteration_counts(monkeypatch, shots, iterations):
    # W is unitary, so the loop takes as many steps as it would on chi
    calls = []
    project_psd = tomography._project_psd
    monkeypatch.setattr(
        tomography, "_project_psd", lambda m: calls.append(None) or project_psd(m)
    )
    ml_projection(process_tomography(device_toffoli_choi(), shots=shots, seed=5))
    assert len(calls) == iterations


def test_ml_projection_is_nearest_feasible_point():
    # variational inequality: <x0 - x*, y - x*> <= 0 for feasible y
    rng = np.random.default_rng(26)
    chi_raw = process_tomography(device_toffoli_choi(), shots=300, seed=14)
    x0 = np.array(chi_raw.matrix)
    x_star = np.array(ml_projection(chi_raw).matrix)
    gap = x0 - x_star
    dist = np.linalg.norm(gap)
    for _ in range(12):
        feasible = chi_of_unitary(random_unitary(8, rng)).matrix
        inner = np.real(np.vdot(gap, feasible - x_star))
        assert inner <= 1e-7
        assert np.linalg.norm(x0 - feasible) >= dist - 1e-9
    # mixtures of unitary channels are feasible too
    mix = 0.5 * chi_of_unitary(random_unitary(8, rng)).matrix + 0.5 * chi_of_unitary(
        random_unitary(8, rng)
    ).matrix
    assert np.real(np.vdot(gap, mix - x_star)) <= 1e-7


def test_ml_projection_nonconvergence_raises():
    chi = process_tomography(device_toffoli_choi(), shots=200, seed=15)
    with pytest.raises(ProjectionError):
        ml_projection(chi, max_iter=2)


def test_process_fidelity_unitary_overlap_formula():
    rng = np.random.default_rng(27)
    for _ in range(5):
        u = random_unitary(8, rng)
        v = random_unitary(8, rng)
        expected = abs(np.trace(u.conj().T @ v) / 8.0) ** 2
        got = process_fidelity(chi_of_unitary(u), chi_of_unitary(v))
        assert got == pytest.approx(expected, abs=1e-10)


def test_bootstrap_ci_brackets_the_estimate():
    records = measure_output_records(device_toffoli_choi(), shots=1000, seed=16)
    lo, hi = bootstrap_ci(records, resamples=120, seed=17)
    assert lo < hi
    point = process_fidelity(
        chi_from_records(records), chi_of_unitary(ideal_toffoli_unitary())
    )
    assert lo - 0.01 < point < hi + 0.01
    assert hi - lo < 0.1
    again = bootstrap_ci(records, resamples=120, seed=17)
    assert again == (lo, hi)


def test_bootstrap_rejects_exact_records():
    records = measure_output_records(device_toffoli_choi())
    with pytest.raises(ValueError):
        bootstrap_ci(records)


def test_bootstrap_rejects_bad_confidence_and_resamples():
    records = measure_output_records(device_toffoli_choi(), shots=200, seed=18)
    for confidence in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            bootstrap_ci(records, confidence=confidence)
    with pytest.raises(ValueError):
        bootstrap_ci(records, resamples=1)


def test_bootstrap_matches_reference_interval():
    # interval written by the record-object implementation for these inputs
    records = measure_output_records(device_toffoli_choi(), shots=1000, seed=5)
    lo, hi = bootstrap_ci(records, resamples=200, seed=5)
    assert lo == pytest.approx(0.7255533203125, abs=1e-12)
    assert hi == pytest.approx(0.7369654296875, abs=1e-12)


def test_record_validation():
    values = np.zeros((64, 64))
    assert Records(values, 10).shots == 10
    for bad in (1.5, -1.5, np.nan, np.inf):
        out_of_range = values.copy()
        out_of_range[0, 0] = bad
        with pytest.raises(ValueError):
            Records(out_of_range, 10)
    with pytest.raises(ValueError):
        Records(values, -1)
    with pytest.raises(ValueError):
        Records(values).values[0, 0] = 0.5


def test_chi_from_records_requires_complete_coverage():
    values = measure_output_records(device_toffoli_choi()).values
    with pytest.raises(ValueError):
        chi_from_records(Records(values[:-1]))
    with pytest.raises(ValueError):
        chi_from_records(Records(np.vstack([values, values[-1:]])))
    with pytest.raises(ValueError):
        chi_from_records(Records(values.reshape(-1)))
