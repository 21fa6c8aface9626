import math

import numpy as np
import pytest

from qutrit_toffoli.gates import toffoli_circuit
from qutrit_toffoli.noise import (
    DEVICE_T1_US,
    DEVICE_T2STAR_US,
    DeviceParams,
    KrausChannel,
    NoiseModel,
    amplitude_damping_qutrit,
    circuit_choi,
    decohere,
    dephasing_qutrit,
    device_params_from_config,
    parse_config_file,
    tphi_from_t2star,
)
from qutrit_toffoli.gates import QUTRIT3, computational_block, truth_table, truth_table_fidelity

from _oracle import full_register_decohere, qubit_block_oracle

# Rate scales off their defaults, so the level-2 terms are exercised.
CUSTOM_MODEL = NoiseModel((0.4, 0.9, 1.3), (0.5, 0.8, 1.1), relax_scale2=1.3, deph_scale2=2.5)


def superoperator(channel: KrausChannel) -> np.ndarray:
    """Row-major superoperator sum_k K (x) K*; composition becomes matmul."""
    acc = np.zeros((9, 9), dtype=complex)
    for k in channel.operators:
        acc += np.kron(k, k.conj())
    return acc


def kraus_apply(channel: KrausChannel, rho3: np.ndarray) -> np.ndarray:
    return sum(k @ rho3 @ k.conj().T for k in channel.operators)


def kraus_choi(channel: KrausChannel) -> np.ndarray:
    """Normalized input (x) output Choi state; PSD iff the map is CP."""
    choi = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            unit = np.zeros((3, 3), dtype=complex)
            unit[i, j] = 1.0
            choi += np.kron(unit, kraus_apply(channel, unit))
    return choi / 3


def random_qutrit_density(rng) -> np.ndarray:
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / rho.trace()


def random_density8(rng) -> np.ndarray:
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    return rho / rho.trace()


def choi_apply(choi, rho8):
    """E(rho) = 8 sum_ij rho_ij C[i, :, j, :]."""
    return 8.0 * np.einsum("ij,iajb->ab", rho8, choi.matrix.reshape(8, 8, 8, 8))


def test_tphi_device_site_a_exact_fraction():
    # 1/(1/0.45 - 1/1.1) reduces to 99/130 microseconds
    assert tphi_from_t2star(0.55, 0.45) == pytest.approx(99 / 130, abs=1e-15)


def test_tphi_device_values():
    params = DeviceParams.default()
    assert params.tphi_us == pytest.approx((99 / 130, 1.05, 143 / 155), abs=1e-12)


def test_tphi_limit_and_boundary():
    assert tphi_from_t2star(math.inf, 0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tphi_from_t2star(0.5, 1.0)  # exactly 2*T1
    with pytest.raises(ValueError):
        tphi_from_t2star(0.5, 1.2)
    with pytest.raises(ValueError):
        tphi_from_t2star(-1.0, 0.5)


def test_device_params_defaults():
    params = DeviceParams.default()
    assert params.t1_us == DEVICE_T1_US
    assert params.t2star_us == DEVICE_T2STAR_US


def test_amplitude_damping_level_populations():
    t, t1 = 67.0, 550.0 / 1e3  # T1 in microseconds
    channel = amplitude_damping_qutrit(t, t1)
    one = np.zeros((3, 3), dtype=complex)
    one[1, 1] = 1.0
    out = kraus_apply(channel, one)
    assert out[1, 1].real == pytest.approx(np.exp(-67 / 550), abs=1e-12)
    assert out[0, 0].real == pytest.approx(1 - np.exp(-67 / 550), abs=1e-12)
    two = np.zeros((3, 3), dtype=complex)
    two[2, 2] = 1.0
    out2 = kraus_apply(channel, two)
    assert out2[2, 2].real == pytest.approx(np.exp(-2 * 67 / 550), abs=1e-12)
    assert abs(out2.trace() - 1.0) < 1e-12


def test_amplitude_damping_matches_rate_equation_oracle():
    # integrate dp2 = -g2 p2, dp1 = g2 p2 - g1 p1 with a fine Euler grid
    t_ns, t1_us, scale = 40.0, 0.7, 2.0
    g1 = 1 / (t1_us * 1e3)
    g2 = scale * g1
    p2, p1, p0 = 1.0, 0.0, 0.0
    steps = 200000
    dt = t_ns / steps
    for _ in range(steps):
        d2 = -g2 * p2
        d1 = g2 * p2 - g1 * p1
        p2 += d2 * dt
        p1 += d1 * dt
    p0 = 1 - p1 - p2
    channel = amplitude_damping_qutrit(t_ns, t1_us, scale)
    two = np.diag([0.0, 0.0, 1.0]).astype(complex)
    out = kraus_apply(channel, two)
    assert out[2, 2].real == pytest.approx(p2, abs=1e-6)
    assert out[1, 1].real == pytest.approx(p1, abs=1e-6)
    assert out[0, 0].real == pytest.approx(p0, abs=1e-6)


@pytest.mark.parametrize("scale", [1.0, 2.0, 2.7])
def test_amplitude_damping_cptp(scale):
    for t in (0.0, 8.0, 67.0, 5000.0):
        channel = amplitude_damping_qutrit(t, 0.55, scale)
        total = sum(k.conj().T @ k for k in channel.operators)
        assert np.max(np.abs(total - np.eye(3))) < 1e-12
        assert np.linalg.eigvalsh(kraus_choi(channel)).min() > -1e-12


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_amplitude_damping_semigroup(scale):
    # degenerate rates (scale 1) exercise the g2 == g1 branch
    for ta, tb in [(8.0, 23.0), (7.0, 7.0), (21.0, 8.0)]:
        a = superoperator(amplitude_damping_qutrit(ta, 0.55, scale))
        b = superoperator(amplitude_damping_qutrit(tb, 0.55, scale))
        ab = superoperator(amplitude_damping_qutrit(ta + tb, 0.55, scale))
        assert np.max(np.abs(a @ b - ab)) < 1e-9


def test_amplitude_damping_long_time_reaches_ground():
    rng = np.random.default_rng(3)
    channel = amplitude_damping_qutrit(1e7, 0.55)
    out = kraus_apply(channel, random_qutrit_density(rng))
    expected = np.diag([1.0, 0.0, 0.0])
    assert np.max(np.abs(out - expected)) < 1e-9


def test_amplitude_damping_zero_time_is_identity():
    rng = np.random.default_rng(4)
    rho = random_qutrit_density(rng)
    assert np.max(np.abs(kraus_apply(amplitude_damping_qutrit(0.0, 0.55), rho) - rho)) < 1e-14


def test_dephasing_coherence_factors():
    t_ns, tphi_us, scale = 23.0, 0.9, 1.3
    channel = dephasing_qutrit(t_ns, tphi_us, scale)
    t = t_ns / (tphi_us * 1e3)
    unit = np.zeros((3, 3), dtype=complex)
    unit[0, 1] = 1.0
    assert kraus_apply(channel, unit)[0, 1] == pytest.approx(np.exp(-t), abs=1e-12)
    unit12 = np.zeros((3, 3), dtype=complex)
    unit12[1, 2] = 1.0
    assert kraus_apply(channel, unit12)[1, 2] == pytest.approx(np.exp(-t * scale), abs=1e-12)
    unit02 = np.zeros((3, 3), dtype=complex)
    unit02[0, 2] = 1.0
    assert kraus_apply(channel, unit02)[0, 2] == pytest.approx(
        np.exp(-t) * np.exp(-t * scale), abs=1e-12
    )


def test_dephasing_preserves_populations():
    rng = np.random.default_rng(5)
    rho = random_qutrit_density(rng)
    out = kraus_apply(dephasing_qutrit(31.0, 0.76), rho)
    assert np.allclose(np.diag(out), np.diag(rho), atol=1e-12)


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_dephasing_cptp_and_semigroup(scale):
    for t in (0.0, 8.0, 67.0):
        channel = dephasing_qutrit(t, 0.76, scale)
        total = sum(k.conj().T @ k for k in channel.operators)
        assert np.max(np.abs(total - np.eye(3))) < 1e-12
        assert np.linalg.eigvalsh(kraus_choi(channel)).min() > -1e-12
    a = superoperator(dephasing_qutrit(8.0, 0.76, scale))
    b = superoperator(dephasing_qutrit(23.0, 0.76, scale))
    ab = superoperator(dephasing_qutrit(31.0, 0.76, scale))
    assert np.max(np.abs(a @ b - ab)) < 1e-9


def test_kraus_channel_requires_trace_preservation():
    bad = np.diag([0.9, 1.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        KrausChannel((bad,), duration_ns=1.0)


def test_negative_durations_rejected():
    with pytest.raises(ValueError):
        amplitude_damping_qutrit(-1.0, 0.55)
    with pytest.raises(ValueError):
        dephasing_qutrit(-1.0, 0.76)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel((0.5, 0.5), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        NoiseModel((0.5, -0.5, 0.5), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        NoiseModel((0.5, 0.5, 0.5), (1.0, 1.0, 1.0), relax_scale2=-1.0)
    model = NoiseModel.from_device()
    assert model.t1_us == DEVICE_T1_US
    assert model.tphi_us == pytest.approx((99 / 130, 1.05, 143 / 155))


def test_decohere_zero_duration_is_identity():
    rng = np.random.default_rng(6)
    mat = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    model = NoiseModel.from_device()
    assert decohere(mat, QUTRIT3, model, 0.0) is mat


@pytest.mark.parametrize("model", [NoiseModel.from_device(), CUSTOM_MODEL], ids=["device", "custom"])
def test_decohere_matches_full_register_kraus_sandwich(model):
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    stack = rng.normal(size=(5, 27, 27)) + 1j * rng.normal(size=(5, 27, 27))
    for duration in (8.0, 23.0):
        for matrix in (mat, stack):
            local = decohere(matrix, QUTRIT3, model, duration)
            oracle = full_register_decohere(matrix, model, duration)
            assert local.shape == matrix.shape
            assert np.max(np.abs(local - oracle)) < 1e-13


def test_circuit_choi_without_model_is_unitary_conjugation():
    rng = np.random.default_rng(8)
    circuit = toffoli_circuit()
    choi = circuit_choi(circuit, None)
    block = computational_block(circuit.unitary())
    rho = random_density8(rng)
    assert np.allclose(choi_apply(choi, rho), block @ rho @ block.conj().T, atol=1e-12)


@pytest.mark.parametrize("window", [0.0, 8.0])
@pytest.mark.parametrize(
    "model", [None, NoiseModel.from_device(), CUSTOM_MODEL], ids=["none", "device", "custom"]
)
def test_circuit_choi_matches_noisy_apply(model, window):
    # the compiled qubit block equals full-register evolution of each input
    circuit = toffoli_circuit()
    choi = circuit_choi(circuit, model, prep_window_ns=window, meas_window_ns=window)
    rng = np.random.default_rng(10)
    for _ in range(3):
        rho8 = random_density8(rng)
        oracle = qubit_block_oracle(rho8, circuit, model, window, window)
        assert np.max(np.abs(choi_apply(choi, rho8) - oracle)) < 1e-12


def test_circuit_choi_of_device_is_psd_and_trace_preserving():
    choi = circuit_choi(toffoli_circuit(), NoiseModel.from_device())
    assert np.linalg.eigvalsh(choi.matrix)[0] > -1e-12
    assert abs(choi.trace() - 1.0) < 1e-12


def test_circuit_choi_window_validation():
    for window in ({"prep_window_ns": -1.0}, {"meas_window_ns": -1.0}):
        with pytest.raises(ValueError):
            circuit_choi(toffoli_circuit(), NoiseModel.from_device(), **window)


def test_truth_table_fidelity_decreases_with_spam_exposure():
    circuit = toffoli_circuit()
    model = NoiseModel.from_device()
    fidelities = []
    for window in (0.0, 8.0, 40.0):
        choi = circuit_choi(circuit, model, prep_window_ns=window, meas_window_ns=window)
        fidelities.append(truth_table_fidelity(truth_table(choi)))
    assert fidelities[0] > fidelities[1] > fidelities[2]
    noiseless = truth_table_fidelity(truth_table(circuit_choi(circuit, None)))
    assert noiseless == pytest.approx(1.0, abs=1e-12)
    assert fidelities[0] < 1.0


def test_parse_config_file(tmp_path):
    path = tmp_path / "device.cfg"
    path.write_text(
        """
        # overrides for a colder fridge
        t1_a_us = 0.80
        T2STAR_A_US = 0.60   # keys are case-insensitive
        deph_scale2 = 1.5
        """
    )
    values = parse_config_file(path)
    assert values == {"t1_a_us": 0.80, "t2star_a_us": 0.60, "deph_scale2": 1.5}
    params, relax2, deph2 = device_params_from_config(values)
    assert params.t1_us[0] == pytest.approx(0.80)
    assert params.t1_us[1] == DEVICE_T1_US[1]
    assert relax2 == 2.0 and deph2 == 1.5


@pytest.mark.parametrize(
    "content",
    [
        "t1_q_us = 0.5",  # unknown key
        "t1_a_us 0.5",  # missing equals
        "t1_a_us = fast",  # not a number
        "t1_a_us = 0.5\nt1_a_us = 0.6",  # duplicate
    ],
)
def test_parse_config_file_rejects(tmp_path, content):
    path = tmp_path / "bad.cfg"
    path.write_text(content)
    with pytest.raises(ValueError):
        parse_config_file(path)


def test_config_t2star_limit_enforced(tmp_path):
    path = tmp_path / "limit.cfg"
    path.write_text("t2star_a_us = 1.2\n")  # 2*T1_A = 1.1
    with pytest.raises(ValueError):
        device_params_from_config(parse_config_file(path))
