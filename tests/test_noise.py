import itertools
import math

import numpy as np
import pytest

import qutrit_toffoli.noise as noise
from qutrit_toffoli.gates import (
    Circuit,
    GateOp,
    ccphase_circuit,
    rotation_single,
    subspace_rotation,
    toffoli_circuit,
    truth_table_fidelity,
)
from qutrit_toffoli.noise import (
    DEVICE_T1_US,
    DEVICE_T2STAR_US,
    NoiseModel,
    circuit_choi,
    circuit_truth_table,
    decohere,
    noise_model_from_config,
    parse_config_file,
    tphi_from_t2star,
)

from _oracle import (
    CUSTOM_MODEL,
    choi_truth_table,
    computational_block,
    full_register_decohere,
    qubit_block_oracle,
    site_kraus,
)

OFF = math.inf  # a decay time that switches its process off


def site_map(duration_ns, t1_us=OFF, tphi_us=OFF, relax_scale2=2.0, deph_scale2=1.0):
    """The closed-form 9x9 map of site A under the given decay times."""
    model = NoiseModel((t1_us, 1.0, 1.0), (tphi_us, 1.0, 1.0), relax_scale2, deph_scale2)
    return noise._site_superoperator(model, 0, float(duration_ns))


def map_apply(sup: np.ndarray, rho3: np.ndarray) -> np.ndarray:
    return (sup @ rho3.reshape(9)).reshape(3, 3)


def assert_cptp(sup: np.ndarray) -> None:
    """Trace preservation by the trace row; CP by the input (x) output Choi state."""
    trace = np.eye(3).reshape(9)
    assert np.max(np.abs(trace @ sup - trace)) < 1e-12
    choi = sup.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9) / 3
    assert np.linalg.eigvalsh(choi).min() > -1e-12


def kraus_superoperator(kraus) -> np.ndarray:
    """Row-major superoperator sum_k K (x) K*; composition becomes matmul."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def as_pairs(matrices: np.ndarray) -> np.ndarray:
    """(..., 27, 27) register matrices in the site-pair layout (a, a', b, b', c, c', ...)."""
    n = matrices.ndim - 2
    tensor = matrices.reshape(matrices.shape[:-2] + (3,) * 6)
    order = [n, n + 3, n + 1, n + 4, n + 2, n + 5, *range(n)]
    return np.ascontiguousarray(tensor.transpose(order))


def from_pairs(pairs: np.ndarray) -> np.ndarray:
    """Inverse of ``as_pairs``."""
    batch = pairs.shape[6:]
    order = [*range(6, pairs.ndim), 0, 2, 4, 1, 3, 5]
    return pairs.transpose(order).reshape(batch + (27, 27))


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
    return 8.0 * np.einsum("ij,iajb->ab", rho8, choi.reshape(8, 8, 8, 8))


def test_tphi_device_site_a_exact_fraction():
    # 1/(1/0.45 - 1/1.1) reduces to 99/130 microseconds
    assert tphi_from_t2star(0.55, 0.45) == pytest.approx(99 / 130, abs=1e-15)


def test_tphi_device_values():
    model = NoiseModel.from_device()
    assert model.tphi_us == pytest.approx((99 / 130, 1.05, 143 / 155), abs=1e-12)


def test_tphi_limit_and_boundary():
    assert tphi_from_t2star(math.inf, 0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tphi_from_t2star(0.5, 1.0)  # exactly 2*T1
    with pytest.raises(ValueError):
        tphi_from_t2star(0.5, 1.2)
    with pytest.raises(ValueError):
        tphi_from_t2star(-1.0, 0.5)


def test_noise_model_from_device_defaults_and_validation():
    model = NoiseModel.from_device()
    assert model.t1_us == DEVICE_T1_US
    assert model == NoiseModel.from_device(DEVICE_T1_US, DEVICE_T2STAR_US)
    for bad in (
        {"t1_us": (0.55, 0.70)},  # two sites against three
        {"t1_us": (0.55, 0.70), "t2star_us": (0.45, 0.60)},
        {"t2star_us": (0.45, 1.5, 0.65)},  # above 2*T1_B = 1.4
        {"deph_scale2": -0.5},
    ):
        with pytest.raises(ValueError):
            NoiseModel.from_device(**bad)


@pytest.mark.parametrize("model", [NoiseModel.from_device(), CUSTOM_MODEL], ids=["device", "custom"])
def test_site_superoperator_matches_the_kraus_oracle(model):
    # the closed form against the oracle's Kraus products D R, including the
    # g2 == g1 branch (relax_scale2 = 1), nearly equal rates and dephasing
    # without a 1-2 term
    variants = (
        model,
        NoiseModel(model.t1_us, model.tphi_us, relax_scale2=1.0, deph_scale2=model.deph_scale2),
        NoiseModel(model.t1_us, model.tphi_us, relax_scale2=1 + 1e-12, deph_scale2=model.deph_scale2),
        NoiseModel(model.t1_us, model.tphi_us, relax_scale2=model.relax_scale2, deph_scale2=0.0),
    )
    for variant in variants:
        for site in range(3):
            for duration in (0.5, 7.0, 8.0, 21.0, 23.0, 100.0, 1000.0):
                kraus = site_kraus(variant, site, duration)
                total = sum(k.conj().T @ k for k in kraus)
                assert np.max(np.abs(total - np.eye(3))) < 1e-12
                sup = noise._site_superoperator(variant, site, duration)
                assert sup.dtype == float and not sup.flags.writeable
                assert np.max(np.abs(sup - kraus_superoperator(kraus))) < 1e-14


def test_amplitude_damping_level_populations():
    t, t1 = 67.0, 550.0 / 1e3  # T1 in microseconds
    sup = site_map(t, t1_us=t1)
    one = np.zeros((3, 3), dtype=complex)
    one[1, 1] = 1.0
    out = map_apply(sup, one)
    assert out[1, 1].real == pytest.approx(np.exp(-67 / 550), abs=1e-12)
    assert out[0, 0].real == pytest.approx(1 - np.exp(-67 / 550), abs=1e-12)
    two = np.zeros((3, 3), dtype=complex)
    two[2, 2] = 1.0
    out2 = map_apply(sup, two)
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
    two = np.diag([0.0, 0.0, 1.0]).astype(complex)
    out = map_apply(site_map(t_ns, t1_us=t1_us, relax_scale2=scale), two)
    assert out[2, 2].real == pytest.approx(p2, abs=1e-6)
    assert out[1, 1].real == pytest.approx(p1, abs=1e-6)
    assert out[0, 0].real == pytest.approx(p0, abs=1e-6)


def test_amplitude_damping_nearly_equal_rates_do_not_cancel():
    # g2 (e1 - e2) / (g2 - g1) taken naively is off by about 1e-5 here
    for t in (8.0, 23.0, 1000.0):
        equal = site_map(t, t1_us=0.55, relax_scale2=1.0)
        near = site_map(t, t1_us=0.55, relax_scale2=1.0 + 1e-12)
        assert np.max(np.abs(near - equal)) < 1e-10
        assert_cptp(near)


@pytest.mark.parametrize("scale", [1.0, 2.0, 2.7])
def test_amplitude_damping_cptp(scale):
    for t in (0.0, 8.0, 67.0, 5000.0):
        assert_cptp(site_map(t, t1_us=0.55, relax_scale2=scale))


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_amplitude_damping_semigroup(scale):
    # degenerate rates (scale 1) exercise the g2 == g1 branch
    for ta, tb in [(8.0, 23.0), (7.0, 7.0), (21.0, 8.0)]:
        a = site_map(ta, t1_us=0.55, relax_scale2=scale)
        b = site_map(tb, t1_us=0.55, relax_scale2=scale)
        ab = site_map(ta + tb, t1_us=0.55, relax_scale2=scale)
        assert np.max(np.abs(a @ b - ab)) < 1e-9


def test_amplitude_damping_long_time_reaches_ground():
    rng = np.random.default_rng(3)
    out = map_apply(site_map(1e7, t1_us=0.55), random_qutrit_density(rng))
    expected = np.diag([1.0, 0.0, 0.0])
    assert np.max(np.abs(out - expected)) < 1e-9


def test_amplitude_damping_zero_time_is_identity():
    rng = np.random.default_rng(4)
    rho = random_qutrit_density(rng)
    sup = site_map(0.0, t1_us=0.55, tphi_us=0.76)
    assert np.max(np.abs(map_apply(sup, rho) - rho)) < 1e-14


def test_dephasing_coherence_factors():
    t_ns, tphi_us, scale = 23.0, 0.9, 1.3
    sup = site_map(t_ns, tphi_us=tphi_us, deph_scale2=scale)
    t = t_ns / (tphi_us * 1e3)
    unit = np.zeros((3, 3), dtype=complex)
    unit[0, 1] = 1.0
    assert map_apply(sup, unit)[0, 1] == pytest.approx(np.exp(-t), abs=1e-12)
    unit12 = np.zeros((3, 3), dtype=complex)
    unit12[1, 2] = 1.0
    assert map_apply(sup, unit12)[1, 2] == pytest.approx(np.exp(-t * scale), abs=1e-12)
    unit02 = np.zeros((3, 3), dtype=complex)
    unit02[0, 2] = 1.0
    assert map_apply(sup, unit02)[0, 2] == pytest.approx(
        np.exp(-t) * np.exp(-t * scale), abs=1e-12
    )


def test_dephasing_preserves_populations():
    rng = np.random.default_rng(5)
    rho = random_qutrit_density(rng)
    out = map_apply(site_map(31.0, tphi_us=0.76), rho)
    assert np.allclose(np.diag(out), np.diag(rho), atol=1e-12)


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_dephasing_cptp_and_semigroup(scale):
    for t in (0.0, 8.0, 67.0):
        assert_cptp(site_map(t, tphi_us=0.76, deph_scale2=scale))
    a = site_map(8.0, tphi_us=0.76, deph_scale2=scale)
    b = site_map(23.0, tphi_us=0.76, deph_scale2=scale)
    ab = site_map(31.0, tphi_us=0.76, deph_scale2=scale)
    assert np.max(np.abs(a @ b - ab)) < 1e-9


def test_negative_durations_rejected():
    # NaN passes a plain `< 0` test and used to fail deep in the compile; a
    # negative interval grows weight, which no CPTP map does
    pairs = np.ones((3,) * 6, dtype=complex)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration"):
            GateOp("idle", (0,), np.eye(3), bad)
        for compile_ in (circuit_choi, circuit_truth_table):
            with pytest.raises(ValueError, match="windows"):
                compile_(toffoli_circuit(), NoiseModel.from_device(), spam_window_ns=bad)
        with pytest.raises(ValueError, match="duration must be finite and non-negative"):
            decohere(pairs, NoiseModel.from_device(), bad)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel((0.5, 0.5), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        NoiseModel((0.5, -0.5, 0.5), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        NoiseModel((0.5, 0.5, 0.5), (1.0, 1.0, 1.0), relax_scale2=-1.0)
    # NaN passes `v <= 0`; an overflowing rate would turn the maps to NaN
    for times, scales in (
        ((math.nan, 0.5, 0.5), (2.0, 1.0)),
        ((0.5, 0.5, 0.5), (math.nan, 1.0)),
        ((0.5, 0.5, 0.5), (2.0, math.inf)),
        ((1e-320, 0.5, 0.5), (2.0, 1.0)),
        ((1e-300, 0.5, 0.5), (1e20, 1.0)),
    ):
        with pytest.raises(ValueError):
            NoiseModel(times, (1.0, 1.0, 1.0), *scales)
    model = NoiseModel.from_device()
    assert model.t1_us == DEVICE_T1_US
    assert model.tphi_us == pytest.approx((99 / 130, 1.05, 143 / 155))


def test_decohere_zero_duration_is_identity():
    rng = np.random.default_rng(6)
    mat = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    model = NoiseModel.from_device()
    assert decohere(mat, model, 0.0) is mat


@pytest.mark.parametrize("model", [NoiseModel.from_device(), CUSTOM_MODEL], ids=["device", "custom"])
def test_decohere_matches_full_register_kraus_sandwich(model):
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    stack = rng.normal(size=(5, 27, 27)) + 1j * rng.normal(size=(5, 27, 27))
    for duration in (8.0, 23.0):
        for matrix in (mat, stack):
            local = from_pairs(decohere(as_pairs(matrix), model, duration))
            oracle = full_register_decohere(matrix, model, duration)
            assert local.shape == matrix.shape
            assert np.max(np.abs(local - oracle)) < 1e-13


@pytest.mark.parametrize("model", [NoiseModel.from_device(), CUSTOM_MODEL], ids=["device", "custom"])
def test_decohere_on_two_level_sites_matches_the_padded_tensor(model):
    # a site axis of size 2 is the {0, 1} block of the same site padded with zeros
    rng = np.random.default_rng(12)
    for sizes in itertools.product((2, 3), repeat=3):
        for batch in (1, 5):
            shape = tuple(n for n in sizes for _ in range(2)) + (batch,)
            block = tuple(slice(n) for n in shape)
            trimmed = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            padded = np.zeros((3,) * 6 + (batch,), dtype=complex)
            padded[block] = trimmed
            outside = np.ones(padded.shape, dtype=bool)
            outside[block] = False
            for duration in (8.0, 23.0):
                small = decohere(trimmed, model, duration)
                full = decohere(padded, model, duration)
                assert small.shape == shape
                assert np.max(np.abs(full[block] - small)) < 1e-15
                assert np.all(full[outside] == 0)


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
    choi = circuit_choi(circuit, model, spam_window_ns=window)
    rng = np.random.default_rng(10)
    for _ in range(3):
        rho8 = random_density8(rng)
        oracle = qubit_block_oracle(rho8, circuit, model, window)
        assert np.max(np.abs(choi_apply(choi, rho8) - oracle)) < 1e-12
    # carrying only the 8 inputs |j><j| reads the same bits as the 64-unit compile
    table = circuit_truth_table(circuit, model, spam_window_ns=window)
    assert np.array_equal(table, choi_truth_table(choi))


@pytest.mark.parametrize("model", [None, CUSTOM_MODEL], ids=["none", "custom"])
def test_circuit_choi_of_a_complex_circuit_matches_the_oracle(model):
    # Toffoli blocks are real, so they cannot tell U from conj(U); these pulses
    # are complex, and the last one acts on unsorted targets (C, A)
    rng = np.random.default_rng(11)
    mixer, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    circuit = Circuit(
        (
            rotation_single("A", "x", 0.7),
            subspace_rotation("BC", 0.5 * math.pi),
            GateOp("mix", (2, 0), mixer, 5.0),
        )
    )
    # the mixer on (C, A) reaches level 2 of C, so every site keeps it
    assert noise._kept_levels(circuit) == (3, 3, 3)
    choi = circuit_choi(circuit, model)
    for _ in range(3):
        rho8 = random_density8(rng)
        oracle = qubit_block_oracle(rho8, circuit, model, 8.0)
        assert np.max(np.abs(choi_apply(choi, rho8) - oracle)) < 1e-12


def level_12_rotation(angle: float, phase: float) -> np.ndarray:
    """3x3 rotation by ``angle`` of a site's {1, 2} block about an axis at ``phase``."""
    mat = np.eye(3, dtype=complex)
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    mat[1:, 1:] = [[c, -1j * s * np.exp(-1j * phase)], [-1j * s * np.exp(1j * phase), c]]
    return mat


def test_toffoli_and_phase_core_carry_two_levels_of_c():
    # exchange pulses send |11> to |20>, so only A and B enter level 2
    model = NoiseModel.from_device()
    for circuit in (toffoli_circuit(), ccphase_circuit()):
        assert noise._kept_levels(circuit) == (3, 3, 2)
        units = np.divmod(np.arange(64), 8)
        assert noise._evolve(circuit, model, 8.0, units).shape == (3, 3, 3, 3, 2, 2, 64)
        inputs = (np.arange(8),) * 2
        assert noise._evolve(circuit, model, 8.0, inputs).shape == (3, 3, 3, 3, 2, 2, 8)


@pytest.mark.parametrize("model", [None, CUSTOM_MODEL], ids=["none", "custom"])
def test_circuit_choi_keeps_a_level_the_circuit_reaches(model):
    # C goes up into level 2 and partly back; a compile that carried C with
    # two levels would lose the returning weight and miss the oracle
    circuit = Circuit(
        (
            GateOp("up", (2,), level_12_rotation(1.1, 0.3), 8.0),
            subspace_rotation("AB", math.pi),
            GateOp("down", (2,), level_12_rotation(-0.6, 0.3), 5.0),
        )
    )
    assert noise._kept_levels(circuit) == (3, 2, 3)
    choi = circuit_choi(circuit, model)
    assert np.trace(choi).real < 1.0 - 1e-3
    assert np.array_equal(circuit_truth_table(circuit, model), choi_truth_table(choi))
    rng = np.random.default_rng(13)
    for _ in range(3):
        rho8 = random_density8(rng)
        oracle = qubit_block_oracle(rho8, circuit, model, 8.0)
        assert np.max(np.abs(choi_apply(choi, rho8) - oracle)) < 1e-12


def test_circuit_choi_of_device_is_psd_and_trace_preserving():
    choi = circuit_choi(toffoli_circuit(), NoiseModel.from_device())
    assert np.linalg.eigvalsh(choi)[0] > -1e-12
    assert abs(np.trace(choi).real - 1.0) < 1e-12


def test_circuit_choi_uses_local_pulses_and_one_superoperator_per_duration():
    # windows and pulses last 8, 7, 23 and 21 ns: four durations, three sites each
    circuit, model = toffoli_circuit(), NoiseModel.from_device()
    builds = noise._site_superoperator
    builds.cache_clear()
    circuit_choi(circuit, None)
    assert builds.cache_info().misses == 0 and builds.cache_info().hits == 0
    circuit_choi(circuit, model)
    assert builds.cache_info().misses == 12


def test_circuit_choi_window_validation():
    for compile_ in (circuit_choi, circuit_truth_table):
        with pytest.raises(ValueError):
            compile_(toffoli_circuit(), NoiseModel.from_device(), spam_window_ns=-1.0)


def negate(out):
    out[..., 3] *= -1


def double(out):
    out *= 2


def skew(out):
    out[0, 0, 0, 1, 0, 0, 5] += 1e-3


def poison(out):
    out[0, 0, 0, 0, 0, 0, 6] = math.nan


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (negate, "positive semidefinite"),
        (double, "trace"),
        (skew, "Hermitian"),
        (poison, "non-finite"),
    ],
)
def test_circuit_truth_table_rejects_an_unphysical_output_state(monkeypatch, corrupt, message):
    evolve = noise._evolve

    def corrupted(*args):
        out = evolve(*args)
        corrupt(out)
        return out

    monkeypatch.setattr(noise, "_evolve", corrupted)
    with pytest.raises(ValueError, match=message):
        circuit_truth_table(toffoli_circuit(), NoiseModel.from_device())


def test_truth_table_fidelity_decreases_with_spam_exposure():
    circuit = toffoli_circuit()
    model = NoiseModel.from_device()
    fidelities = []
    for window in (0.0, 8.0, 40.0):
        table = circuit_truth_table(circuit, model, spam_window_ns=window)
        fidelities.append(truth_table_fidelity(table))
    assert fidelities[0] > fidelities[1] > fidelities[2]
    noiseless = truth_table_fidelity(circuit_truth_table(circuit, None))
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
    model = noise_model_from_config(values)
    assert model == NoiseModel.from_device(
        (0.80,) + DEVICE_T1_US[1:], (0.60,) + DEVICE_T2STAR_US[1:], deph_scale2=1.5
    )
    assert model.relax_scale2 == 2.0
    assert noise_model_from_config({}) == NoiseModel.from_device()


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
        noise_model_from_config(parse_config_file(path))
