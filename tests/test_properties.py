"""Property tests; skipped when hypothesis is not installed."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from qutrit_toffoli.cli import _hermitian_json  # noqa: E402
from qutrit_toffoli.gates import Circuit, GateOp, toffoli_circuit  # noqa: E402
from qutrit_toffoli.noise import (  # noqa: E402
    _CONFIG_KEYS,
    NoiseModel,
    _kept_levels,
    circuit_choi,
    noise_model_from_config,
    parse_config_file,
)
from qutrit_toffoli.certify import _eigenstate_readout  # noqa: E402
from qutrit_toffoli.tomography import (  # noqa: E402
    _tp_residual,
    choi_from_records,
    measure_output_records,
    ml_projection,
)

from _oracle import (  # noqa: E402
    CUSTOM_MODEL,
    choi_of_channel,
    eigenstate_readout_reference,
    eigenstates_reference,
    qubit_block_oracle,
)


def random_cptp_choi(rng, n_kraus):
    """Choi matrix of a channel with ``n_kraus`` Kraus operators from a random isometry."""
    big = rng.normal(size=(8 * n_kraus, 8)) + 1j * rng.normal(size=(8 * n_kraus, 8))
    isometry, _ = np.linalg.qr(big)
    kraus = [isometry[8 * k : 8 * (k + 1)] for k in range(n_kraus)]
    return choi_of_channel(lambda block: sum(k @ block @ k.conj().T for k in kraus))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 8),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=128, max_size=128),
)
def test_hermitian_json_is_the_text_of_json_dumps(n, values):
    matrix = np.empty((n, n), dtype=complex)
    matrix.real, matrix.imag = np.reshape(values[: 2 * n * n], (2, n, n))
    hermitian = matrix.copy()  # mirrored bit for bit, as chi_of_choi leaves a chi matrix
    lower = np.tril_indices(n, -1)
    hermitian[lower] = hermitian.T[lower].conj()
    for m in (matrix, hermitian):
        expected = {"real": m.real.tolist(), "imag": m.imag.tolist()}
        assert _hermitian_json(m) == json.dumps(expected, sort_keys=True, separators=(",", ":"))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_kraus=st.integers(1, 4),
    noise_norm=st.floats(0.0, 0.05),
)
def test_ml_projection_of_perturbed_cptp_chi_is_physical(seed, n_kraus, noise_norm):
    rng = np.random.default_rng(seed)
    choi = random_cptp_choi(rng, n_kraus)
    noise = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    noise = noise + noise.conj().T
    noise *= noise_norm / np.linalg.norm(noise)
    projected = ml_projection(choi + noise)
    assert np.linalg.eigvalsh(projected)[0] > -1e-10
    assert _tp_residual(projected) < 1e-8


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_kraus=st.integers(1, 4))
def test_pauli_table_inverts_exactly_and_reads_every_eigenstate(seed, n_kraus):
    choi = random_cptp_choi(np.random.default_rng(seed), n_kraus)
    recovered = choi_from_records(measure_output_records(choi))
    assert np.max(np.abs(recovered - choi)) < 1e-13
    # every one of the 4096 pairs against the projector readout
    inputs, outputs = np.indices((64, 64)).reshape(2, -1)
    eigenvalues, rows = _eigenstate_readout(choi, inputs, outputs)
    assert np.max(np.abs(rows - eigenstate_readout_reference(choi)[inputs, :, outputs])) < 1e-12
    assert np.array_equal(eigenvalues, np.rint(eigenstates_reference()[1])[inputs])


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    t1_us=st.tuples(*[st.floats(0.1, 10.0)] * 3),
    tphi_us=st.tuples(*[st.floats(0.1, 10.0)] * 3),
    relax_scale2=st.floats(0.0, 4.0),
    deph_scale2=st.floats(0.0, 4.0),
    window=st.floats(0.0, 40.0),
    seed=st.integers(0, 2**32 - 1),
)
# nearly equal 2 -> 1 and 1 -> 0 rates, where a naive rate quotient cancels
@example(
    t1_us=(0.55, 0.7, 1.1), tphi_us=(0.6, 1.2, 0.9), relax_scale2=1 + 1e-12,
    deph_scale2=1.0, window=8.0, seed=0,
)
def test_compiled_channel_is_cptp_and_matches_the_oracle(
    t1_us, tphi_us, relax_scale2, deph_scale2, window, seed
):
    circuit = toffoli_circuit()
    model = NoiseModel(t1_us, tphi_us, relax_scale2, deph_scale2)
    choi = circuit_choi(circuit, model, spam_window_ns=window)
    tensor = choi.reshape(8, 8, 8, 8)  # [i, a, j, b] = E(|i><j|)[a, b] / 8
    assert np.linalg.eigvalsh(choi)[0] > -1e-12
    assert np.max(np.abs(np.einsum("iaja->ij", tensor) - np.eye(8) / 8)) < 1e-12
    rng = np.random.default_rng(seed)
    for _ in range(2):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho8 = a @ a.conj().T / np.trace(a @ a.conj().T)
        applied = 8.0 * np.einsum("ij,iajb->ab", rho8, tensor)
        oracle = qubit_block_oracle(rho8, circuit, model, window)
        assert np.max(np.abs(applied - oracle)) < 1e-12


def random_pulse(rng, mixes) -> np.ndarray:
    """Random unitary on ``len(mixes)`` sites that moves a site between level 2
    and levels {0, 1} only where ``mixes`` is true.

    Kets with the same held sites in level 2 form one block, and each block
    gets its own random unitary.
    """
    n = len(mixes)
    held = np.indices((3,) * n).reshape(n, -1)[~np.array(mixes)] == 2
    blocks = (held * (1 << np.arange(len(held)))[:, None]).sum(axis=0)
    mat = np.zeros((3**n, 3**n), dtype=complex)
    for block in np.unique(blocks):
        idx = np.flatnonzero(blocks == block)
        a = rng.normal(size=(len(idx),) * 2) + 1j * rng.normal(size=(len(idx),) * 2)
        mat[np.ix_(idx, idx)] = np.linalg.qr(a)[0]
    return mat


_TARGETS = [(0,), (1,), (2,), (0, 1), (1, 0), (1, 2), (2, 1)]
_OP = st.tuples(
    st.sampled_from(_TARGETS), st.tuples(st.booleans(), st.booleans()), st.floats(0.0, 30.0)
)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(ops=st.lists(_OP, min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_compiled_random_circuit_keeps_the_reached_levels_and_matches_the_oracle(ops, seed):
    rng = np.random.default_rng(seed)
    pulses, levels = [], [2, 2, 2]
    for targets, mixes, duration in ops:
        mixes = mixes[: len(targets)]
        pulses.append(GateOp("random", targets, random_pulse(rng, mixes), duration))
        for site, mix in zip(targets, mixes):
            levels[site] = 3 if mix else levels[site]
    circuit = Circuit(tuple(pulses))
    assert _kept_levels(circuit) == tuple(levels)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho8 = a @ a.conj().T / np.trace(a @ a.conj().T)
    for model in (None, CUSTOM_MODEL):
        tensor = circuit_choi(circuit, model).reshape(8, 8, 8, 8)
        applied = 8.0 * np.einsum("ij,iajb->ab", rho8, tensor)
        oracle = qubit_block_oracle(rho8, circuit, model, 8.0)
        assert np.max(np.abs(applied - oracle)) < 1e-12


_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
_PLAUSIBLE = st.floats(0.05, 1.0).map(repr)
_VALUE = st.one_of(
    _PLAUSIBLE,
    _PLAUSIBLE,
    st.floats(0.0, exclude_min=True, allow_infinity=False).map(repr),
    st.floats().map(repr),
    st.floats(allow_nan=False).map("{:.3e}".format),
)
# Known keys, each at most once, then arbitrary lines: unknown or upper-case
# keys, text values, comments and free text.
_ENTRIES = st.dictionaries(st.sampled_from(_CONFIG_KEYS), _VALUE, max_size=len(_CONFIG_KEYS))
_LINE = st.one_of(
    st.builds("{}={}  # {}".format, _TEXT, _VALUE, _TEXT),
    st.builds("{} = {}".format, st.sampled_from(_CONFIG_KEYS).map(str.upper), _TEXT),
    st.builds("# {}".format, _TEXT),
    _TEXT,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(entries=_ENTRIES, extra=st.lists(_LINE, max_size=1))
def test_config_gives_a_cptp_model_or_a_value_error(entries, extra):
    # the CLI turns a ValueError into exit code 2; nothing else may escape
    lines = [f"{key} = {value}" for key, value in entries.items()] + extra
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "noise.cfg"
        path.write_text("\n".join(lines))
        try:
            model = noise_model_from_config(parse_config_file(path))
        except ValueError:
            return
    assert isinstance(model, NoiseModel)
    choi = circuit_choi(toffoli_circuit(), model)
    tensor = choi.reshape(8, 8, 8, 8)
    assert np.linalg.eigvalsh(choi)[0] > -1e-12
    assert np.max(np.abs(np.einsum("iaja->ij", tensor) - np.eye(8) / 8)) < 1e-12
