"""Acceptance gate: one test per shipped guarantee, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import contextlib
import functools
import math
import time

import numpy as np
import pytest

import qutrit_toffoli.cli as cli
import qutrit_toffoli.noise as noise
from qutrit_toffoli.certify import (
    _eigenstate_readout,
    enumerate_relevant_paulis,
    exhaustive_fidelity,
    ideal_toffoli_choi,
    monte_carlo_fidelity,
)
from qutrit_toffoli.gates import (
    ccphase_circuit,
    ideal_toffoli_unitary,
    ideal_truth_table,
    toffoli_circuit,
    truth_table_fidelity,
)
from qutrit_toffoli.noise import (
    DEVICE_T1_US,
    DEVICE_T2STAR_US,
    NoiseModel,
    circuit_choi,
    circuit_truth_table,
    tphi_from_t2star,
)
from qutrit_toffoli.register import PAULI, QUBIT_KETS
from qutrit_toffoli.tomography import (
    _tp_residual,
    chi_of_choi,
    chi_of_unitary,
    choi_from_records,
    measure_output_records,
    ml_projection,
    pauli_labels,
    process_fidelity,
)

from _oracle import (
    align_global_phase,
    basis_index,
    choi_expectation_direct,
    choi_of_channel,
    computational_block,
    product_eigenvectors,
)


@contextlib.contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[{number:2d}] {description}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[{number:2d}] {description}: PASS ({elapsed:.2f} s)")


@pytest.fixture(scope="module")
def device_choi():
    return circuit_choi(toffoli_circuit(), NoiseModel.from_device())


@pytest.fixture(scope="module")
def chi_ideal():
    return chi_of_unitary(ideal_toffoli_unitary()).matrix


def exact_chi(choi):
    """The chi matrix of exact-mode process tomography of ``choi``."""
    return chi_of_choi(choi_from_records(measure_output_records(choi))).matrix


def expected_trajectory(a, b, c):
    """Per-pulse amplitudes for one computational input of the phase core."""
    base = f"{a}{b}{c}"
    if (a, b) == (1, 1):
        hidden = f"20{c}"
        return [{base: 1.0}, {hidden: 1.0j}, {hidden: 1.0j}, {base: 1.0}]
    if (a, b, c) == (0, 1, 1):
        return [{base: 1.0}, {base: 1.0}, {base: -1.0}, {base: -1.0}]
    return [{base: 1.0}] * 4


def dense(amplitudes):
    vec = np.zeros(27, dtype=complex)
    for label, value in amplitudes.items():
        vec[basis_index([int(d) for d in label])] = value
    return vec


def test_criterion_1_pulse_by_pulse_trajectories():
    with criterion(1, "pulse-by-pulse trajectories exact to 1e-10, under 1 s"):
        start = time.perf_counter()
        steps = ccphase_circuit().trajectory()
        worst = 0.0
        for index, ket in enumerate(QUBIT_KETS):
            digits = [int(x) for x in f"{index:03b}"]
            for snap, expected in zip(steps[:, :, ket], expected_trajectory(*digits)):
                worst = max(worst, np.max(np.abs(snap - dense(expected))))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10
        assert elapsed < 1.0


def test_criterion_2_ideal_gate_exactness():
    with criterion(2, "noiseless gate equals the 01-controlled NOT"):
        block = align_global_phase(
            computational_block(toffoli_circuit().trajectory()[-1]), ideal_toffoli_unitary()
        )
        assert np.max(np.abs(block - ideal_toffoli_unitary())) < 1e-10
        fidelity = truth_table_fidelity(circuit_truth_table(toffoli_circuit(), None))
        assert abs(fidelity - 1.0) < 1e-12


def test_criterion_3_relevant_pauli_count():
    with criterion(3, "exactly 232 relevant Pauli pairs, under 10 s"):
        start = time.perf_counter()
        inputs, outputs, ideal = enumerate_relevant_paulis(ideal_toffoli_choi())
        elapsed = time.perf_counter() - start
        assert len(inputs) == len(outputs) == len(ideal) == 232
        assert elapsed < 10.0


def test_criterion_4_noiseless_pipeline_consistency(chi_ideal):
    with criterion(4, "noiseless tomography and certification both give 1"):
        choi = circuit_choi(toffoli_circuit(), None)
        chi = exact_chi(choi)
        assert abs(process_fidelity(chi, chi_ideal) - 1.0) < 1e-8
        assert abs(exhaustive_fidelity(choi) - 1.0) < 1e-9
        assert abs(chi_ideal[0, 0] - 0.5625) < 1e-10
        assert abs(chi[0, 0] - 0.5625) < 1e-10


def test_criterion_5_device_noise_headline_numbers(device_choi, chi_ideal):
    with criterion(5, "device-noise fidelities in band, worst inputs have A excited"):
        start = time.perf_counter()
        table = circuit_truth_table(toffoli_circuit(), NoiseModel.from_device())
        tt_fidelity = truth_table_fidelity(table)
        proc_fidelity = process_fidelity(exact_chi(device_choi), chi_ideal)
        elapsed = time.perf_counter() - start
        assert 0.70 <= tt_fidelity <= 0.92
        assert 0.58 <= proc_fidelity <= 0.88
        perm = np.argmax(ideal_truth_table(), axis=0)
        correct = np.array([table[perm[i], i] for i in range(8)])
        worst_two = np.argsort(correct)[:2]
        assert all(index >= 4 for index in worst_two)  # qubit A excited
        assert correct[4:].mean() < correct[:4].mean()
        assert elapsed < 120.0


def test_criterion_6_estimator_agreement(device_choi, chi_ideal):
    with criterion(6, "Monte Carlo matches tomography within 3 sigma, 9 of 10 seeds"):
        reference = process_fidelity(exact_chi(device_choi), chi_ideal)
        passes = 0
        for seed in range(10):
            result = monte_carlo_fidelity(device_choi, samples=10000, seed=seed)
            if abs(result.estimate - reference) <= 3.0 * result.stderr:
                passes += 1
        assert passes >= 9


def test_criterion_7_eigenstate_oracle_equivalence():
    with criterion(7, "eigenstate sampling protocol equals direct Choi contraction"):
        labels = pauli_labels()
        string_rng = np.random.default_rng(7)
        for trial in range(5):
            rng = np.random.default_rng(700 + trial)
            big = rng.normal(size=(24, 8)) + 1j * rng.normal(size=(24, 8))
            q, _ = np.linalg.qr(big)
            kraus = [q[8 * k : 8 * (k + 1)] for k in range(3)]

            def channel(rho, kraus=kraus):
                return sum(k @ rho @ k.conj().T for k in kraus)

            choi = choi_of_channel(channel)
            for _ in range(50):
                m, n = string_rng.integers(64), string_rng.integers(64)
                (eigenvalues,), (row,) = _eigenstate_readout(choi, [m], [n])
                a = functools.reduce(np.kron, [PAULI[c] for c in labels[m]])
                b = functools.reduce(np.kron, [PAULI[c] for c in labels[n]])
                for k, v in enumerate(product_eigenvectors(labels[m])):
                    assert np.max(np.abs(a @ v - eigenvalues[k] * v)) < 1e-12
                    oracle = np.trace(b @ channel(np.outer(v, v.conj()))).real
                    assert abs(row[k] - oracle) < 1e-9
                direct = choi_expectation_direct(choi, labels[m], labels[n])
                via_states = np.dot(eigenvalues, row) / 8.0
                assert abs(via_states - direct) < 1e-9


def test_criterion_8_physicality_projection(device_choi):
    with criterion(8, "ML projection restores PSD and TP, idempotent"):
        records = measure_output_records(device_choi, shots=1000, seed=0)
        projected = ml_projection(choi_from_records(records))
        assert np.linalg.eigvalsh(projected)[0] > -1e-10
        assert _tp_residual(projected) < 1e-8
        again = ml_projection(projected)
        assert np.max(np.abs(again - projected)) < 1e-9


def test_criterion_9_channel_properties():
    with criterion(9, "noise channels CPTP and semigroup-composable"):
        splits = [(8.0, 59.0), (11.5, 11.5), (0.0, 67.0)]
        t1 = DEVICE_T1_US
        tphi = tuple(map(tphi_from_t2star, DEVICE_T1_US, DEVICE_T2STAR_US))
        off = (math.inf,) * 3  # switches a process off
        trace = np.eye(3).reshape(9)
        for scale in (1.0, 2.0):
            # relaxation alone, dephasing alone, and both as on the device
            for times in ((t1, off), (off, tphi), (t1, tphi)):
                model = NoiseModel(*times, relax_scale2=scale, deph_scale2=scale)
                for site in range(3):
                    for t_first, t_second in splits:
                        first, second, total = (
                            noise._site_superoperator(model, site, t)
                            for t in (t_first, t_second, t_first + t_second)
                        )
                        assert np.max(np.abs(trace @ total - trace)) < 1e-10
                        choi = total.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1)
                        assert np.linalg.eigvalsh(choi.reshape(9, 9)).min() > -1e-10
                        assert np.max(np.abs(second @ first - total)) < 1e-9


def test_criterion_10_deterministic_artifacts(tmp_path):
    with criterion(10, "identical seeds give byte-identical artifacts"):
        jobs = {
            "process_tomo.json": ["process-tomo", "--shots", "300", "--seed", "11"],
            "certification.json": ["certify", "--samples", "3000", "--seed", "11"],
        }
        for artifact, argv in jobs.items():
            blobs = []
            for run in range(2):
                out = tmp_path / f"{artifact}.{run}"
                assert cli.main(argv + ["--output", str(out)]) == 0
                blobs.append((out / artifact).read_bytes())
            assert blobs[0] == blobs[1]
