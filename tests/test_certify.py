import functools
import itertools

import numpy as np
import pytest

from qutrit_toffoli.certify import (
    ChoiMatrix,
    PauliString,
    _eigenstate_readout,
    choi_expectation_direct,
    choi_of_channel,
    enumerate_relevant_paulis,
    exhaustive_fidelity,
    ideal_toffoli_choi,
    monte_carlo_fidelity,
)
from qutrit_toffoli.gates import ideal_toffoli_unitary, toffoli_circuit
from qutrit_toffoli.noise import NoiseModel, circuit_choi
from qutrit_toffoli.register import PAULI, choi_of_unitary
from qutrit_toffoli.tomography import (
    _binomial_readout,
    chi_of_unitary,
    pauli_labels,
    process_fidelity,
    process_tomography,
)

from _oracle import device_channel8


def random_unitary(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_cptp_channel(rng, n_kraus=3):
    big = rng.normal(size=(8 * n_kraus, 8)) + 1j * rng.normal(size=(8 * n_kraus, 8))
    q, _ = np.linalg.qr(big)
    kraus = [q[k * 8 : (k + 1) * 8, :] for k in range(n_kraus)]

    def channel8(rho):
        return sum(k @ rho @ k.conj().T for k in kraus)

    return channel8


def unitary_channel8(unitary):
    return lambda rho: unitary @ rho @ unitary.conj().T


def pauli_product(labels):
    mat = np.array([[1]], dtype=complex)
    for c in labels:
        mat = np.kron(mat, PAULI[c])
    return mat


# Eigenvectors of each single-site Pauli, the +1 eigenvector first.
SITE_EIGENVECTORS = {
    "I": ([1, 0], [0, 1]),
    "X": ([1, 1], [1, -1]),
    "Y": ([1, 1j], [1, -1j]),
    "Z": ([1, 0], [0, 1]),
}


def oracle_readout(channel, in_labels, out_labels):
    """Tr[B E(|v_k><v_k|)] and eigenvalue of each product eigenstate v_k of A."""
    a, b = pauli_product(in_labels), pauli_product(out_labels)
    readout, eigenvalues = [], []
    for combo in itertools.product(*(SITE_EIGENVECTORS[c] for c in in_labels)):
        v = functools.reduce(
            np.kron, [np.array(x, dtype=complex) / np.linalg.norm(x) for x in combo]
        )
        eigenvalue = np.vdot(v, a @ v).real
        assert np.max(np.abs(a @ v - eigenvalue * v)) < 1e-12
        eigenvalues.append(eigenvalue)
        readout.append(np.trace(b @ channel(np.outer(v, v.conj()))).real)
    return np.array(readout), np.array(eigenvalues)


@functools.lru_cache(maxsize=1)
def device_choi():
    return circuit_choi(toffoli_circuit(), NoiseModel.from_device())


def test_ideal_choi_is_pure_and_normalized():
    choi = ideal_toffoli_choi()
    assert choi.trace() == pytest.approx(1.0, abs=1e-12)
    assert choi.purity() == pytest.approx(1.0, abs=1e-12)


def test_choi_of_channel_matches_ideal_construction():
    channel = unitary_channel8(ideal_toffoli_unitary())
    choi = choi_of_channel(channel)
    assert np.max(np.abs(choi.matrix - ideal_toffoli_choi().matrix)) < 1e-12


def test_choi_of_unitary_matches_choi_of_channel():
    rng = np.random.default_rng(35)
    for _ in range(3):
        unitary = random_unitary(8, rng)
        expected = choi_of_channel(unitary_channel8(unitary)).matrix
        assert np.max(np.abs(choi_of_unitary(unitary).matrix - expected)) < 1e-12
    with pytest.raises(ValueError):
        choi_of_unitary(np.eye(4))


def test_choi_validation():
    with pytest.raises(ValueError):
        ChoiMatrix(np.triu(np.ones((64, 64))))  # not Hermitian
    with pytest.raises(ValueError):
        ChoiMatrix(-np.eye(64) / 64)  # negative
    with pytest.raises(ValueError):
        ChoiMatrix(np.eye(64))  # trace 64
    for bad in (np.nan, np.inf, complex(0, np.inf)):
        matrix = np.eye(64, dtype=complex) / 64
        matrix[5, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ChoiMatrix(matrix)
    choi = ideal_toffoli_choi()
    with pytest.raises(AttributeError):
        choi.matrix = np.eye(64) / 64
    with pytest.raises(ValueError):
        choi.matrix[0, 0] = 0.5  # read-only


def test_choi_trace_below_one_for_leaky_channel():
    def leaky(rho):  # loses a tenth of the weight
        return 0.9 * rho

    choi = choi_of_channel(leaky)
    assert choi.trace() == pytest.approx(0.9, abs=1e-12)


def test_correlation_against_slow_oracle():
    # P = (1/8) Tr[E(A) B], evaluated directly on the channel
    rng = np.random.default_rng(31)
    unitary = random_unitary(8, rng)
    channel = unitary_channel8(unitary)
    choi = choi_of_channel(channel)
    labels = pauli_labels()
    picks = rng.choice(64, size=10), rng.choice(64, size=10)
    for m, n in zip(*picks):
        a, b = pauli_product(labels[m]), pauli_product(labels[n])
        oracle = np.trace(channel(a) @ b).real / 8.0
        assert choi_expectation_direct(choi, labels[m], labels[n]) == pytest.approx(
            oracle, abs=1e-10
        )


def test_relevant_count_for_toffoli_is_232():
    relevant = enumerate_relevant_paulis(ideal_toffoli_choi())
    assert len(relevant) == 232
    magnitudes = np.array([abs(ps.ideal) for ps in relevant])
    assert magnitudes.min() == pytest.approx(0.5, abs=1e-12)
    # correlations of a Clifford-like permutation sit on a 1/4 grid
    assert np.allclose(4 * magnitudes, np.round(4 * magnitudes), atol=1e-9)


def test_relevant_count_for_identity_is_64():
    relevant = enumerate_relevant_paulis(choi_of_channel(lambda rho: rho))
    assert len(relevant) == 64
    assert all(ps.in_labels == ps.out_labels for ps in relevant)
    assert all(ps.ideal == pytest.approx(1.0) for ps in relevant)


def test_relevance_probabilities_sum_to_one():
    relevant = enumerate_relevant_paulis(ideal_toffoli_choi())
    total = sum(ps.ideal**2 for ps in relevant) / 64.0
    assert total == pytest.approx(1.0, abs=1e-12)


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString("IIQ", "III", 1.0)
    with pytest.raises(ValueError):
        PauliString("II", "III", 1.0)
    for bad in ("", "iii", "IIII", "XYW", "I Z"):
        with pytest.raises(ValueError):
            PauliString("III", bad, 1.0)
        with pytest.raises(ValueError):
            choi_expectation_direct(ideal_toffoli_choi(), bad, "III")


def test_eigenstate_protocol_matches_direct_contraction():
    rng = np.random.default_rng(32)
    labels = pauli_labels()
    for trial in range(5):
        channel = random_cptp_channel(np.random.default_rng(100 + trial))
        choi = choi_of_channel(channel)
        exact, eigenvalues = _eigenstate_readout(choi)
        for _ in range(50):
            m, n = rng.integers(64), rng.integers(64)
            oracle, oracle_eigenvalues = oracle_readout(channel, labels[m], labels[n])
            assert np.max(np.abs(exact[m, :, n] - oracle)) < 1e-9
            assert np.allclose(eigenvalues[m], oracle_eigenvalues, atol=1e-12)
            direct = choi_expectation_direct(choi, labels[m], labels[n])
            via_states = np.dot(eigenvalues[m], exact[m, :, n]) / 8.0
            assert abs(direct - via_states) < 1e-9


def test_eigenstate_protocol_identity_factors():
    channel = device_channel8
    choi = device_choi()
    exact, eigenvalues = _eigenstate_readout(choi)
    labels = pauli_labels()
    for in_labels, out_labels in [("III", "IZZ"), ("IZI", "IZI"), ("XII", "XII")]:
        m, n = labels.index(in_labels), labels.index(out_labels)
        oracle, oracle_eigenvalues = oracle_readout(channel, in_labels, out_labels)
        assert np.max(np.abs(exact[m, :, n] - oracle)) < 1e-10
        assert np.allclose(eigenvalues[m], oracle_eigenvalues, atol=1e-12)
        direct = choi_expectation_direct(choi, in_labels, out_labels)
        assert np.dot(eigenvalues[m], exact[m, :, n]) / 8.0 == pytest.approx(
            direct, abs=1e-10
        )


def test_eigenstate_protocol_shot_mode():
    exact, eigenvalues = _eigenstate_readout(device_choi())
    m = n = pauli_labels().index("IIZ")
    lam, row = eigenvalues[m], exact[m, :, n]
    # One batched readout of a repeated row draws what repeated readouts draw.
    batch = _binomial_readout(
        np.random.default_rng(33), 4000, np.broadcast_to(row, (5, 8))
    )
    rng = np.random.default_rng(33)
    assert np.array_equal(batch, [_binomial_readout(rng, 4000, row) for _ in range(5)])
    exact_value = np.dot(lam, row) / 8.0
    for sampled in batch:
        assert abs(np.dot(lam, sampled) / 8.0 - exact_value) < 0.1


def test_monte_carlo_ideal_channel_is_exact():
    result = monte_carlo_fidelity(
        choi_of_channel(unitary_channel8(ideal_toffoli_unitary())), samples=500, seed=1
    )
    assert result.estimate == pytest.approx(1.0, abs=1e-12)
    assert result.stderr < 1e-12
    assert sum(c.draws for c in result.contributions) == 500


def test_monte_carlo_device_channel_matches_exhaustive():
    choi = device_choi()
    exhaustive = exhaustive_fidelity(choi)
    result = monte_carlo_fidelity(choi, samples=4000, seed=2)
    assert abs(result.estimate - exhaustive) < 3.5 * result.stderr
    assert 0.0 < result.stderr < 0.01


def test_monte_carlo_determinism():
    choi = device_choi()
    a = monte_carlo_fidelity(choi, samples=300, seed=5)
    b = monte_carlo_fidelity(choi, samples=300, seed=5)
    assert a.estimate == b.estimate and a.stderr == b.stderr
    c = monte_carlo_fidelity(choi, samples=300, seed=6)
    assert a.estimate != c.estimate


def test_monte_carlo_shot_mode():
    choi = device_choi()
    a = monte_carlo_fidelity(choi, samples=200, seed=7, shots=400)
    b = monte_carlo_fidelity(choi, samples=200, seed=7, shots=400)
    assert a.estimate == b.estimate
    assert 0.5 < a.estimate < 0.95
    assert a.shots == 400


def test_monte_carlo_input_validation():
    choi = device_choi()
    with pytest.raises(ValueError):
        monte_carlo_fidelity(choi, samples=0)
    with pytest.raises(ValueError):
        monte_carlo_fidelity(choi, samples=10, shots=-1)


def test_certification_reference_values():
    # Device-channel reference numbers: shot mode draws only integer counts,
    # so it must match bit for bit; exact mode may differ in rounding.
    choi = device_choi()
    sampled = monte_carlo_fidelity(choi, samples=10000, seed=5, shots=1000)
    assert sampled.estimate == 0.7281890000000001
    assert sampled.stderr == 0.0010025669270399458
    assert exhaustive_fidelity(choi, shots=1000, seed=5) == 0.727982421875
    exact = monte_carlo_fidelity(choi, samples=10000, seed=0)
    assert exact.estimate == pytest.approx(0.7275412318962139, abs=1e-12)
    assert exhaustive_fidelity(choi) == pytest.approx(0.7272702017500594, abs=1e-12)


def test_exhaustive_fidelity_equals_tomographic_overlap():
    # certification and tomography measure the same number through
    # completely different pipelines
    choi = device_choi()
    chi_exp = process_tomography(choi)
    chi_ideal = chi_of_unitary(ideal_toffoli_unitary())
    tomographic = process_fidelity(chi_exp, chi_ideal)
    certified = exhaustive_fidelity(choi)
    assert certified == pytest.approx(tomographic, abs=1e-9)


def test_exhaustive_fidelity_ideal_is_one():
    choi = choi_of_channel(unitary_channel8(ideal_toffoli_unitary()))
    value = exhaustive_fidelity(choi)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_choi_purity_bridge_to_chi_overlap():
    # Tr[rho_a rho_b] between normalized representations equals Tr[chi_a chi_b]
    rng = np.random.default_rng(34)
    u = random_unitary(8, rng)
    v = random_unitary(8, rng)
    choi_overlap = np.trace(
        choi_of_channel(unitary_channel8(u)).matrix
        @ choi_of_channel(unitary_channel8(v)).matrix
    ).real
    chi_overlap = process_fidelity(chi_of_unitary(u), chi_of_unitary(v))
    assert choi_overlap == pytest.approx(chi_overlap, abs=1e-10)
