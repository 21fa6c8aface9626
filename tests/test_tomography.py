import ast
import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qutrit_toffoli import cli
from qutrit_toffoli.certify import (
    _eigenstate_tables,
    exhaustive_fidelity,
    monte_carlo_fidelity,
)
from qutrit_toffoli.gates import ideal_toffoli_unitary, toffoli_circuit
from qutrit_toffoli.noise import NoiseModel, circuit_choi
from qutrit_toffoli.register import PAULI, choi_of_unitary
import qutrit_toffoli.tomography as tomography
from qutrit_toffoli.tomography import (
    PREP_LABELS,
    ChiMatrix,
    ProjectionError,
    Records,
    bootstrap_ci,
    chi_basis,
    chi_of_choi,
    chi_of_unitary,
    choi_from_records,
    measure_output_records,
    ml_projection,
    pauli_labels,
    process_fidelity,
    standard_pauli_stack,
    _choi_basis,
    _fidelity_weights,
    _lift,
    _preparations,
    _tp_residual,
)

from _oracle import (
    PREP_PULSES,
    choi_of_channel,
    device_channel8,
    dykstra_projection,
    eigenstates_reference,
    input_prep_labels,
    input_states_reference,
    pauli_stack_reference,
    preparation_rows_reference,
    preparation_table_reference,
    project_tp,
)


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


def count_eigendecompositions(monkeypatch):
    """Record every ``np.linalg.eigh`` call made while the test runs."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(tomography.np.linalg, "eigh", lambda m: calls.append(None) or eigh(m))
    return calls


def trace_out(choi_matrix):
    return choi_matrix.reshape(8, 8, 8, 8).trace(axis1=1, axis2=3)


def unitary_choi(unitary8):
    return choi_of_channel(lambda block: unitary8 @ block @ unitary8.conj().T)


@functools.lru_cache(maxsize=1)
def device_toffoli_choi():
    return circuit_choi(toffoli_circuit(), NoiseModel.from_device())


def raw_choi(choi, shots=0, seed=0):
    """Linear-inversion Choi matrix of the records measured behind ``choi``."""
    return choi_from_records(measure_output_records(choi, shots=shots, seed=seed))


def raw_chi(choi):
    """The chi matrix ``process-tomo`` reports as ``chi_raw`` for exact records."""
    return chi_of_choi(raw_choi(choi))


def choi_of_chi(chi):
    """W chi W^dag, the Choi matrix of a chi matrix."""
    return _choi_basis() @ chi @ _choi_basis().conj().T


def trace(matrix):
    return float(np.trace(matrix).real)


def min_eigenvalue(matrix):
    return float(np.linalg.eigvalsh(matrix)[0])


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
    stack = input_states_reference()
    labels = input_prep_labels()
    assert stack.shape == (64, 8, 8) and len(labels) == 64
    # x180 on site A only: |100><100|, the rotation's global phase cancels
    rho = stack[labels.index("x180.id.id")]
    target = np.zeros((8, 8))
    target[4, 4] = 1.0
    assert np.max(np.abs(rho - target)) < 1e-12
    # and the preparation table holds its Pauli expectations
    expected = np.einsum("ab,qba->q", target, standard_pauli_stack()).real
    assert np.max(np.abs(_preparations()[0][labels.index("x180.id.id")] - expected)) < 1e-12
    # preparations never populate level 2
    for label in PREP_LABELS:
        assert PREP_PULSES[label][2, 0] == 0


@pytest.mark.parametrize(
    "table, reference",
    [
        (standard_pauli_stack, pauli_stack_reference),
        (lambda: _preparations()[0], preparation_rows_reference),
        (
            lambda: _eigenstate_tables()[2],
            lambda: np.rint(eigenstates_reference()[1]).astype(np.int64),
        ),
    ],
    ids=["pauli-stack", "input-states", "eigenvalues"],
)
def test_constant_tables_are_their_kron_chains_bit_for_bit(table, reference):
    built, expected = table(), reference()
    assert built.dtype == expected.dtype and built.shape == expected.shape
    assert built.tobytes() == expected.tobytes()
    assert not built.flags.writeable and built.flags.c_contiguous


def test_preparation_tables_are_exact():
    # C[i, q] = Tr[P_q rho_i] is integer, its inverse is made of multiples of
    # 1/8, and their product is the identity bit for bit
    table, inverse = _preparations()
    assert np.array_equal(table, np.rint(table))
    assert np.array_equal(8.0 * inverse, np.rint(8.0 * inverse))
    assert np.array_equal(table @ inverse, np.eye(64))
    assert np.max(np.abs(table - preparation_table_reference())) < 1e-15
    assert not table.flags.writeable and not inverse.flags.writeable


def test_the_oracle_imports_no_private_code_of_the_modules_it_checks():
    # a reference built from the code it checks cannot disagree with it; the
    # oracle may reuse only the estimator inputs its docstring names
    tree = ast.parse(Path(__file__).with_name("_oracle.py").read_text())
    stated = ast.get_docstring(tree)
    reused = {"_relevant_readout", "_relevant_toffoli_paulis", "_readout_probabilities"}
    checked = {"qutrit_toffoli.tomography", "qutrit_toffoli.certify"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not {alias.name for alias in node.names} & checked
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert not {f"{node.module}.{name}" for name in names} & checked
            if node.module in checked:
                private = {name for name in names if name.startswith("_")}
                assert private <= reused, private - reused
                module = node.module.removeprefix("qutrit_toffoli.")
                assert all(f"``{module}.{name}``" in stated for name in private)


def test_input_matrices_are_well_conditioned():
    # the states are C @ p / 8 with p / sqrt(8) unitary, so both have one condition number
    condition = np.linalg.cond(_preparations()[0])
    assert condition < 100
    states = input_states_reference().reshape(64, 64)
    assert np.linalg.cond(states) == pytest.approx(condition, rel=1e-9)


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
    chi = chi_of_unitary(ideal_toffoli_unitary()).matrix
    assert chi[0, 0].real == pytest.approx(0.5625, abs=1e-12)
    assert trace(chi) == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue(chi) > -1e-12
    assert _tp_residual(choi_of_chi(chi)) < 1e-9


def test_chi_of_unitary_reproduces_unitary_conjugation():
    rng = np.random.default_rng(21)
    for _ in range(5):
        unitary = random_unitary(8, rng)
        chi = chi_of_unitary(unitary)
        rho = random_density(8, rng)
        assert np.allclose(
            chi_apply(chi, rho), unitary @ rho @ unitary.conj().T, atol=1e-10
        )


def test_process_tomography_identity_channel():
    chi = raw_chi(choi_of_channel(lambda b: b))
    expected = np.zeros((64, 64))
    expected[0, 0] = 1.0
    assert np.max(np.abs(chi.matrix - expected)) < 1e-10
    assert 1.0 - trace(chi.matrix) == pytest.approx(0.0, abs=1e-10)


def test_process_tomography_random_unitary_round_trip():
    rng = np.random.default_rng(22)
    unitary = random_unitary(8, rng)
    chi = raw_chi(unitary_choi(unitary)).matrix
    direct = chi_of_unitary(unitary).matrix
    assert np.max(np.abs(chi - direct)) < 1e-8
    assert process_fidelity(chi, direct) == pytest.approx(1.0, abs=1e-8)


def test_process_tomography_recovers_generic_cptp_action():
    # the reconstructed chi must reproduce the channel on arbitrary inputs,
    # including a leaky channel that sends weight out of the qubit block
    rng = np.random.default_rng(23)
    kraus = random_cptp_kraus(8, 3, rng)

    def apply8(block):
        return sum(k @ block @ k.conj().T for k in kraus)

    chi = raw_chi(choi_of_channel(apply8))
    for _ in range(10):
        rho = random_density(8, rng)
        assert np.allclose(chi_apply(chi, rho), apply8(rho), atol=1e-9)

    chi_dev = raw_chi(device_toffoli_choi())
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
        estimate = raw_choi(choi)
        assert not estimate.flags.writeable
        assert np.max(np.abs(estimate - choi)) < 1e-12
        chi = chi_of_choi(estimate).matrix
        assert np.max(np.abs(chi - chi_of_choi(choi).matrix)) < 1e-12
        assert 1.0 - trace(chi) == pytest.approx(1.0 - np.trace(choi).real, abs=1e-12)


def test_trace_deficit_is_derived_from_the_matrix(tmp_path):
    # a deficit stored beside the matrix could contradict it
    for choi in (device_toffoli_choi(), choi_of_channel(lambda block: 0.6 * block)):
        deficit = 1.0 - trace(chi_of_choi(choi).matrix)
        assert deficit == pytest.approx(1.0 - np.trace(choi).real, abs=1e-12)
    for argv in ([], ["--shots", "300", "--seed", "2"]):
        assert cli.main(["process-tomo", "--output", str(tmp_path), *argv]) == 0
        data = json.loads((tmp_path / "process_tomo.json").read_text())
        chi_raw = np.array(data["chi_raw"]["real"]) + 1j * np.array(data["chi_raw"]["imag"])
        assert data["trace_deficit"] == 1.0 - trace(chi_raw)


def test_project_tp_is_the_orthogonal_projection_onto_tp_choi_matrices():
    rng = np.random.default_rng(30)
    choi = random_hermitian(64, rng) / 64.0
    out = project_tp(choi)
    assert np.max(np.abs(project_tp(out) - out)) < 1e-12
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
        assert _tp_residual(choi_of_chi(chi)) == pytest.approx(expected, rel=1e-12, abs=1e-13)


def test_process_fidelity_is_the_same_in_chi_and_choi_bases():
    rng = np.random.default_rng(32)
    a, b = random_cptp_choi(rng, 2), random_cptp_choi(rng, 2)
    in_choi = process_fidelity(a, b)
    assert in_choi == pytest.approx(np.trace(a @ b).real, abs=1e-15)
    in_chi = process_fidelity(chi_of_choi(a).matrix, chi_of_choi(b).matrix)
    assert in_chi == pytest.approx(in_choi, abs=1e-15)


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


@pytest.mark.parametrize("shots", [2.5, 3.0, "3", -1])
def test_measure_output_records_rejects_bad_shot_counts(shots):
    # a binomial of 2.5 shots draws n = 2 and divides by 2.5, biasing every value
    with pytest.raises(ValueError, match="shots must be"):
        measure_output_records(device_toffoli_choi(), shots=shots)


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
    calls = count_eigendecompositions(monkeypatch)
    for start in (matrix, np.full((64, 64), bad)):
        with pytest.raises(ValueError, match="non-finite"):
            ml_projection(start)
    assert len(calls) == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": np.nan},
        {"tol": -1e-9},
        {"tol": 0.0},
        {"tol": np.inf},
        {"max_iter": 0},
        {"max_iter": 2.5},
    ],
    ids=["tol-nan", "tol-negative", "tol-zero", "tol-inf", "max-iter-0", "max-iter-2.5"],
)
def test_bad_solver_arguments_fail_at_once(monkeypatch, kwargs):
    choi = choi_of_unitary(ideal_toffoli_unitary())
    calls = count_eigendecompositions(monkeypatch)
    with pytest.raises(ValueError, match="tol|max_iter"):
        ml_projection(choi, **kwargs)
    assert len(calls) == 0


@pytest.mark.parametrize("scale", [0.0, -1.0, -100.0])
def test_ml_projection_of_a_matrix_without_positive_part(scale):
    # no positive eigenvalue: the generalized Hessian vanishes and only the
    # 1e-10 regularization sets the first step, which backtracking shortens
    # by up to 36 halvings; the nearest CPTP map is the completely
    # depolarizing one, and every iterate is c I, so |c - 1/64| is the
    # residual / (64 sqrt 8)
    projected = ml_projection(scale * np.eye(64))
    assert _tp_residual(projected) < 1e-9
    assert np.max(np.abs(projected - np.eye(64) / 64.0)) < 1e-9 / (64 * np.sqrt(8))


def test_ml_projection_fixed_point_on_physical_chi():
    choi = choi_of_unitary(ideal_toffoli_unitary())
    projected = ml_projection(choi)
    assert np.max(np.abs(projected - choi)) < 1e-8


def test_ml_projection_restores_physicality():
    choi = raw_choi(device_toffoli_choi(), shots=1000, seed=12)
    assert min_eigenvalue(choi) < -1e-3  # raw estimate is genuinely unphysical
    projected = ml_projection(choi)
    assert min_eigenvalue(projected) > -1e-10
    assert _tp_residual(projected) < 1e-8
    again = ml_projection(projected)
    assert np.max(np.abs(again - projected)) < 1e-9


def test_ml_projection_returns_a_read_only_array_that_may_exceed_unit_trace():
    # the projection stops at TP residual < 1e-9, so its trace is 1 only to
    # about 1e-9; at this seed it ends 1.2e-10 above 1, where ``checked_choi``,
    # which rejects a trace of 1 + 1e-10, would refuse it
    projected = ml_projection(raw_choi(device_toffoli_choi(), shots=1000, seed=8))
    assert type(projected) is np.ndarray and not projected.flags.writeable
    assert min_eigenvalue(projected) > -1e-10
    assert _tp_residual(projected) < 1e-9
    assert abs(trace(projected) - 1.0) < 1e-9


def test_ml_projection_trace_change_on_tp_class_input():
    tp_input = project_tp(raw_choi(device_toffoli_choi(), shots=700, seed=13))
    assert _tp_residual(tp_input) < 1e-12
    projected = ml_projection(tp_input, tol=1e-10)
    assert abs(trace(projected) - trace(tp_input)) < 1e-10


@pytest.mark.parametrize(
    "shots, eigendecompositions",
    [(1000, 7), (100, 7), (None, 6)],
    ids=["1000-shots", "100-shots", "far-from-cptp"],
)
def test_ml_projection_eigendecomposition_counts(monkeypatch, shots, eigendecompositions):
    if shots is None:  # far from the CPTP maps, where a step can pass Armijo on F alone
        choi = random_hermitian(64, np.random.default_rng(33))
        choi *= 0.1 / np.linalg.norm(choi)
    else:
        choi = raw_choi(device_toffoli_choi(), shots=shots, seed=5)
    calls = count_eigendecompositions(monkeypatch)
    ml_projection(choi)
    assert len(calls) == eigendecompositions


def perturbed_cptp_choi(seed, n_kraus, noise_norm):
    rng = np.random.default_rng(seed)
    choi = random_cptp_choi(rng, n_kraus)
    noise = random_hermitian(64, rng)
    return choi + noise * (noise_norm / np.linalg.norm(noise))


def test_ml_projection_matches_the_dykstra_oracle():
    device = [raw_choi(device_toffoli_choi(), shots=s, seed=5) for s in (1000, 100)]
    randoms = [perturbed_cptp_choi(40 + k, 1 + k, 0.05) for k in range(3)]
    # device records at the default tol; random maps at the oracle's own tol, because a
    # residual anywhere below 1e-9 leaves J up to about 1e-11 from the exact projection
    for choi, tol in [(c, 1e-9) for c in device] + [(c, 1e-13) for c in randoms]:
        expected = dykstra_projection(choi, tol=1e-13)
        projected = ml_projection(choi, tol=tol)
        assert min_eigenvalue(projected) > -1e-12
        assert _tp_residual(projected) < tol
        assert np.max(np.abs(projected - expected)) < 1e-12


def test_ml_projection_is_nearest_feasible_point():
    # variational inequality: <x0 - x*, y - x*> <= 0 for feasible y
    rng = np.random.default_rng(26)
    x0 = raw_choi(device_toffoli_choi(), shots=300, seed=14)
    x_star = ml_projection(x0)
    gap = x0 - x_star
    dist = np.linalg.norm(gap)
    for _ in range(12):
        feasible = choi_of_unitary(random_unitary(8, rng))
        inner = np.real(np.vdot(gap, feasible - x_star))
        assert inner <= 1e-7
        assert np.linalg.norm(x0 - feasible) >= dist - 1e-9
    # mixtures of unitary channels are feasible too
    mix = 0.5 * choi_of_unitary(random_unitary(8, rng)) + 0.5 * choi_of_unitary(
        random_unitary(8, rng)
    )
    assert np.real(np.vdot(gap, mix - x_star)) <= 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lift_is_kron_with_the_identity_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    multiplier = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    zeros = rng.random((2, 8, 8)) < 0.3  # signed zeros in both parts, the way a step can make them
    multiplier.real[zeros[0]] = np.copysign(0.0, rng.normal(size=zeros[0].sum()))
    multiplier.imag[zeros[1]] = np.copysign(0.0, rng.normal(size=zeros[1].sum()))
    lifted = _lift(multiplier)
    expected = np.kron(multiplier, np.eye(8))
    assert lifted.shape == expected.shape and lifted.dtype == expected.dtype
    assert lifted.tobytes() == expected.tobytes()


def test_ml_projection_nonconvergence_raises():
    choi = raw_choi(device_toffoli_choi(), shots=200, seed=15)
    with pytest.raises(ProjectionError):
        ml_projection(choi, max_iter=2)


def test_process_fidelity_unitary_overlap_formula():
    rng = np.random.default_rng(27)
    for _ in range(5):
        u = random_unitary(8, rng)
        v = random_unitary(8, rng)
        expected = abs(np.trace(u.conj().T @ v) / 8.0) ** 2
        for form in (lambda w: chi_of_unitary(w).matrix, choi_of_unitary):
            got = process_fidelity(form(u), form(v))
            assert got == pytest.approx(expected, abs=1e-10)


def test_bootstrap_ci_brackets_the_estimate():
    records = measure_output_records(device_toffoli_choi(), shots=1000, seed=16)
    lo, hi = bootstrap_ci(records, resamples=120, seed=17)
    assert lo < hi
    point = process_fidelity(
        choi_from_records(records), choi_of_unitary(ideal_toffoli_unitary())
    )
    assert lo - 0.01 < point < hi + 0.01
    assert hi - lo < 0.1
    again = bootstrap_ci(records, resamples=120, seed=17)
    assert again == (lo, hi)


def test_bootstrap_rejects_exact_records():
    records = measure_output_records(device_toffoli_choi())
    with pytest.raises(ValueError):
        bootstrap_ci(records)


def test_bootstrap_rejects_bad_resamples():
    records = measure_output_records(device_toffoli_choi(), shots=200, seed=18)
    with pytest.raises(ValueError):
        bootstrap_ci(records, resamples=1)
    for resamples in (2.5, 200.0):
        with pytest.raises(ValueError, match="resamples must be a whole number"):
            bootstrap_ci(records, resamples=resamples)


def test_counts_beyond_int64_raise_value_error():
    # numpy's binomial and choice overflow above 2**63 - 1; the bound is checked
    # before anything is drawn, so no large count is ever run here
    too_many = 2**63
    assert tomography._check_count(too_many - 1, "shots", 0) == too_many - 1
    choi = device_toffoli_choi()
    records = measure_output_records(choi, shots=10, seed=1)
    for call in (
        lambda: measure_output_records(choi, shots=too_many),
        lambda: Records(records.values, shots=too_many),
        lambda: bootstrap_ci(records, resamples=too_many),
        lambda: ml_projection(choi_from_records(records), max_iter=too_many),
        lambda: monte_carlo_fidelity(choi, samples=too_many),
        lambda: monte_carlo_fidelity(choi, samples=10, shots=too_many),
        lambda: exhaustive_fidelity(choi, shots=too_many),
    ):
        with pytest.raises(ValueError, match=r"must be at most 2\*\*63 - 1"):
            call()


def test_bootstrap_matches_reference_interval():
    # interval of the one-generator records and the pooled class-major
    # resample stream for these inputs
    records = measure_output_records(device_toffoli_choi(), shots=1000, seed=5)
    lo, hi = bootstrap_ci(records, resamples=200, seed=5)
    assert lo == pytest.approx(0.7222513671874999, abs=1e-12)
    assert hi == pytest.approx(0.7348695312500001, abs=1e-12)


def generators_built(monkeypatch):
    """Initial states of the generators ``np.random.default_rng`` builds from now on."""
    build, states = np.random.default_rng, []

    def recording(*args):
        rng = build(*args)
        states.append(repr(rng.bit_generator.state))
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording)
    return states


def test_records_and_bootstrap_build_one_generator_per_call(monkeypatch):
    # one stream per estimate, not one per record row or per resample
    choi = device_toffoli_choi()
    built = generators_built(monkeypatch)
    records = measure_output_records(choi, shots=1000, seed=5)
    assert len(built) == 1
    bootstrap_ci(records, resamples=200, seed=5)
    assert len(built) == 2


def test_records_and_bootstrap_share_no_generator_state(monkeypatch):
    # a resample drawn from the records' own stream would replay their noise
    choi = device_toffoli_choi()
    built = generators_built(monkeypatch)
    for seed in (0, 5):
        start = len(built)
        records = measure_output_records(choi, shots=300, seed=seed)
        middle = len(built)
        bootstrap_ci(records, resamples=70, seed=seed)
        assert start < middle < len(built)
        assert set(built[start:middle]).isdisjoint(built[middle:])


def test_fidelity_weights_are_the_raw_fidelity_functional():
    ideal = choi_of_unitary(ideal_toffoli_unitary())
    rng = np.random.default_rng(33)
    for records in (
        measure_output_records(device_toffoli_choi()),
        measure_output_records(device_toffoli_choi(), shots=1000, seed=5),
        Records(rng.uniform(-1.0, 1.0, size=(64, 64))),
    ):
        expected = process_fidelity(choi_from_records(records), ideal)
        assert abs(np.vdot(_fidelity_weights(), records.values) - expected) < 1e-13


def test_fidelity_weights_are_exact_multiples_of_one_512th():
    # the weights before rounding, as the adjoint of the linear inversion
    # of the oracle's input states and matrix-unit readout Tr[P_n E(|i><j|)]
    ideal = choi_of_unitary(ideal_toffoli_unitary()).reshape(8, 8, 8, 8)
    table = 8.0 * np.einsum("iajb,nba->nij", ideal, pauli_stack_reference())
    inverse = np.linalg.inv(input_states_reference().reshape(64, 64))
    unrounded = (inverse.T @ table.reshape(64, 64).T.conj()).real / 512.0
    assert np.max(np.abs(512.0 * unrounded - np.rint(512.0 * unrounded))) < 1e-12
    weights = _fidelity_weights()
    assert np.array_equal(weights, np.rint(512.0 * unrounded) / 512.0)
    support = weights[weights != 0.0]
    assert support.size == 1120
    assert set(np.abs(512.0 * support).tolist()) == {1.0, 2.0, 4.0}


def weighed(records):
    """Probabilities and int64 multiples m_i = 512 w_i of the 1120 weighed settings."""
    support = _fidelity_weights() != 0.0
    multiples = np.rint(512.0 * _fidelity_weights()[support]).astype(np.int64)
    return tomography._readout_probabilities(records.values[support]), multiples


def setting_major_counts(records, resamples, seed):
    """One ``(1120, resamples)`` draw: each weighed setting's resamples adjacent."""
    probabilities, _ = weighed(records)
    rng = np.random.default_rng([seed, 1])
    return rng.binomial(records.shots, np.repeat(probabilities, resamples)).reshape(-1, resamples)


def class_major_counts(records, resamples, seed):
    """First settings and sizes of the classes, and one pooled ``(classes, resamples)`` draw."""
    probabilities, multiples = weighed(records)
    firsts, sizes = tomography._bootstrap_classes(probabilities, multiples)
    rng = np.random.default_rng([seed, 1])
    counts = rng.binomial(
        np.repeat(records.shots * sizes, resamples), np.repeat(probabilities[firsts], resamples)
    )
    return firsts, sizes, counts.reshape(-1, resamples)


def distinct_probability_records(seed, shots=1000):
    """Shot records whose 1120 weighed settings all have different probabilities."""
    return Records(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(64, 64)), shots)


def counting_generators(monkeypatch):
    """``(n, p, size, counts)`` of each ``binomial`` call of the generators built from now on."""
    build, draws = np.random.default_rng, []

    class CountingGenerator:
        def __init__(self, *args):
            self.rng = build(*args)

        def binomial(self, n, p, size=None):
            counts = self.rng.binomial(n, p, size)
            draws.append((n, p, size, counts))
            return counts

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    return draws


def bootstrap_per_resample_inversion(records, resamples, seed, confidence=0.90):
    """The interval from a full linear inversion of every resample.

    Resample r sets the settings the fidelity weighs to column r of one
    setting-major draw and holds every other record at its observed value.
    """
    ideal = choi_of_unitary(ideal_toffoli_unitary())
    support = _fidelity_weights() != 0.0
    counts = setting_major_counts(records, resamples, seed)
    stats = []
    for column in counts.T:
        values = records.values.copy()
        values[support] = 2.0 * column / records.shots - 1.0
        stats.append(process_fidelity(choi_from_records(Records(values, records.shots)), ideal))
    alpha = 1.0 - confidence
    return tuple(np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0]))


@pytest.mark.parametrize("seed", [5, 17])
def test_bootstrap_matches_per_resample_inversion(monkeypatch, seed):
    # with every weighed setting a class of its own, the pooled draw is the
    # setting-major draw bit for bit, which a full inversion can replay
    records = distinct_probability_records(seed)
    firsts, sizes = tomography._bootstrap_classes(*weighed(records))
    assert np.array_equal(firsts, np.arange(1120)) and (sizes == 1).all()
    expected_counts = setting_major_counts(records, 200, seed)
    expected = bootstrap_per_resample_inversion(records, 200, seed)
    draws = counting_generators(monkeypatch)
    got = bootstrap_ci(records, resamples=200, seed=seed)
    assert np.array_equal(np.vstack([counts for *_, counts in draws]), expected_counts)
    assert np.max(np.abs(np.subtract(got, expected))) < 1e-14


def test_bootstrap_draws_once_per_resample_and_never_inverts(monkeypatch):
    # the classes partition the 1120 weighed settings by their exact (m_i, p_i),
    # each led by its first setting, in setting order; with every p_i equal,
    # only the multiples tell the six classes apart
    records = measure_output_records(device_toffoli_choi(), shots=300, seed=19)
    for sample, count in ((Records(np.zeros((64, 64)), 300), 6), (records, None)):
        probabilities, multiples = weighed(sample)
        firsts, sizes = tomography._bootstrap_classes(probabilities, multiples)
        classes = {}
        for setting, key in enumerate(zip(multiples.tolist(), probabilities.tolist())):
            classes.setdefault(key, []).append(setting)
        expected = sorted((members[0], len(members)) for members in classes.values())
        assert list(zip(firsts.tolist(), sizes.tolist())) == expected
        assert count is None or len(expected) == count
    draws, inversions, calls = counting_generators(monkeypatch), [], []
    invert, to_probabilities = tomography.choi_from_records, tomography._readout_probabilities
    monkeypatch.setattr(
        tomography, "choi_from_records", lambda r: inversions.append(None) or invert(r)
    )
    monkeypatch.setattr(
        tomography, "_readout_probabilities", lambda v: calls.append(None) or to_probabilities(v)
    )
    # one count per class and resample, in blocks of whole classes of at most
    # BOOTSTRAP_CHUNK values: the 366 classes in blocks of 364 classes of 45
    # resamples, or of 81 classes of 200
    assert len(firsts) == 366
    for resamples, blocks in ((45, [364, 2]), (200, [81] * 4 + [42])):
        draws.clear()
        bootstrap_ci(records, resamples=resamples, seed=2)
        assert [size for *_, size, _ in draws] == [(rows, resamples) for rows in blocks]
        assert all(np.prod(size) <= tomography.BOOTSTRAP_CHUNK for *_, size, _ in draws)
        # each n is shots x class size, each p its class's probability
        assert np.array_equal(np.concatenate([n[:, 0] for n, *_ in draws]), 300 * sizes)
        assert np.array_equal(np.concatenate([p[:, 0] for _, p, *_ in draws]), probabilities[firsts])
    assert len(inversions) == 0
    # the records do not change between resamples, nor do their probabilities
    assert len(calls) == 2


@pytest.mark.parametrize("resamples, settings", [(2, 1120), (7, 1120), (201, 1120), (70000, 3)])
def test_chunked_bootstrap_draw_equals_one_draw(monkeypatch, resamples, settings):
    # past its first `settings` weighed settings every record reads -1, so
    # those pool into at most six classes, one per multiple; at 70 000
    # resamples the full device classes would be a 280 MB oracle draw
    values = measure_output_records(device_toffoli_choi(), shots=1000, seed=5).values.copy()
    values.reshape(-1)[np.flatnonzero(_fidelity_weights())[settings:]] = -1.0
    records = Records(values, 1000)
    firsts, _, whole = class_major_counts(records, resamples, 9)
    draws = counting_generators(monkeypatch)
    tomography._resampled_fidelities(records, resamples, 9)
    # past BOOTSTRAP_CHUNK resamples every block is one class
    rows = max(1, tomography.BOOTSTRAP_CHUNK // resamples)
    assert [counts.shape[0] for *_, counts in draws] == [
        len(firsts[start : start + rows]) for start in range(0, len(firsts), rows)
    ]
    assert all(counts.size <= max(tomography.BOOTSTRAP_CHUNK, resamples) for *_, counts in draws)
    assert np.array_equal(np.vstack([counts for *_, counts in draws]), whole)


@pytest.mark.parametrize("shots", [7, 1000])
def test_bootstrap_integer_sum_equals_the_fidelity_functional(shots):
    records = measure_output_records(device_toffoli_choi(), shots=shots, seed=5)
    stats = tomography._resampled_fidelities(records, 50, 5)
    _, multiples = weighed(records)
    firsts, sizes, counts = class_major_counts(records, 50, 5)
    # a class's pooled count K scores its weight times 2 K / shots - size
    functional = (multiples[firsts] / 512.0) @ (2.0 * counts / shots - sizes[:, None])
    assert np.max(np.abs(stats - functional)) < 1e-15


@pytest.mark.parametrize("shots", [7, 1000])
def test_pooled_bootstrap_has_the_setting_wise_moments(shots):
    # pooling leaves the distribution of the score unchanged: over 4000
    # resamples its mean and variance are within 5 standard errors of
    # <w, 2p - 1> and 4 sum w^2 p (1 - p) / shots
    records = measure_output_records(device_toffoli_choi(), shots=shots, seed=5)
    probabilities, multiples = weighed(records)
    weights = multiples / 512.0
    mean = weights @ (2.0 * probabilities - 1.0)
    variance = 4.0 * np.sum(weights**2 * probabilities * (1.0 - probabilities)) / shots
    stats = tomography._resampled_fidelities(records, 4000, 11)
    centred = stats - stats.mean()
    fourth = np.mean(centred**4)
    assert abs(stats.mean() - mean) < 5.0 * np.sqrt(variance / stats.size)
    assert abs(np.var(stats, ddof=1) - variance) < 5.0 * np.sqrt(
        (fourth - np.mean(centred**2) ** 2) / stats.size
    )


def test_linear_percentiles_equal_np_quantile_bit_for_bit():
    # sizes 2-60 cover every position of the two virtual indices near the
    # ends; the tied samples repeat values, as resampled scores do
    rng = np.random.default_rng(41)
    alpha = 1.0 - tomography.BOOTSTRAP_CONFIDENCE
    for size in [*range(2, 61), 200, 201, 4000]:
        for values in (rng.normal(0.73, 0.004, size), 0.72 + rng.integers(0, 6, size) / 512.0):
            for quantiles in ([0.05, 0.95], [alpha / 2.0, 1.0 - alpha / 2.0], [0.0, 0.5, 1.0]):
                got = tomography._linear_percentiles(values, quantiles)
                assert got.tobytes() == np.quantile(values, quantiles).tobytes()
    # a midpoint that numpy interpolates from the upper neighbour, one ulp
    # away from the value interpolated from the lower one
    pair = np.array([225.66933313285816, -199.27937785418743])
    median = tomography._linear_percentiles(pair, [0.5])
    assert median.tobytes() == np.quantile(pair, [0.5]).tobytes()
    assert median[0] != pair[1] + (pair[0] - pair[1]) * 0.5


def test_bootstrap_shot_bound_keeps_the_integer_sums_in_int64(monkeypatch):
    # the 1120 weighed multiples m_i = 512 w_i have sum |m_i| = 1952, so a
    # score's sum of m_i k_i stays below 2**63 while every k_i <= shots <=
    # bound; so does each pooled n = shots x size, as a class holds at most
    # 1120 settings
    bound = (2**63 - 1) // 1952
    assert np.abs(tomography._bootstrap_terms()[1]).sum() == 1952
    assert 1120 * bound < 2**63
    records = measure_output_records(device_toffoli_choi(), shots=bound, seed=5)
    built = generators_built(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(f"at most (2**63 - 1) // 1952 = {bound} ")):
        bootstrap_ci(Records(records.values, shots=bound + 1), resamples=2)
    assert built == []  # raised before any draw
    monkeypatch.undo()
    _, sizes = tomography._bootstrap_classes(*weighed(records))
    draws = counting_generators(monkeypatch)
    point = np.vdot(_fidelity_weights(), records.values)
    lo, hi = bootstrap_ci(records, resamples=2, seed=5)
    assert point - 1e-6 < lo <= hi < point + 1e-6
    # compared as Python integers, so a wrapped int64 product would differ
    assert np.concatenate([n[:, 0] for n, *_ in draws]).tolist() == [
        bound * size for size in sizes.tolist()
    ]
    assert all(((0 <= counts) & (counts <= n)).all() for n, _, _, counts in draws)


def test_binomial_readout_reads_float_noise_as_exact_zero():
    # the sizes of the float-noise zeros of the shipped channels, both signs;
    # above 1.1e-16, (1 + x) / 2 rounds off 0.5 and numpy draws n - B(n, 1 - p)
    noise = np.array([1e-16, -1e-16, 4e-16, -4e-16, 8e-16, -8e-16] * 8)
    rows = [
        tomography._binomial_readout(
            np.random.default_rng(21), 1000, tomography._readout_probabilities(x)
        )
        for x in (noise, np.zeros_like(noise))
    ]
    assert np.array_equal(rows[0], rows[1])
    # true expectations, the smallest of which is 2.8e-5, are sampled as given
    small = np.full(48, 2.8e-5)
    kept = tomography._binomial_readout(
        np.random.default_rng(21), 1000, tomography._readout_probabilities(small)
    )
    unsnapped = np.random.default_rng(21).binomial(1000, (1.0 + small) / 2.0)
    assert np.array_equal(kept, 2.0 * unsnapped / 1000 - 1.0)


def test_record_validation():
    values = np.zeros((64, 64))
    assert Records(values, 10).shots == 10
    for bad in (1.5, -1.5, np.nan, np.inf):
        out_of_range = values.copy()
        out_of_range[0, 0] = bad
        with pytest.raises(ValueError):
            Records(out_of_range, 10)
    for shots in (-1, 2.5, 10.0):
        with pytest.raises(ValueError, match="shots must be"):
            Records(values, shots)
    shots = Records(values, np.int64(10)).shots
    assert shots == 10 and type(shots) is int
    with pytest.raises(ValueError):
        Records(values).values[0, 0] = 0.5


def test_choi_from_records_requires_complete_coverage():
    values = measure_output_records(device_toffoli_choi()).values
    with pytest.raises(ValueError):
        choi_from_records(Records(values[:-1]))
    with pytest.raises(ValueError):
        choi_from_records(Records(np.vstack([values, values[-1:]])))
    with pytest.raises(ValueError):
        choi_from_records(Records(values.reshape(-1)))
