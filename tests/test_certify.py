import functools
import itertools
import re
import warnings

import numpy as np
import pytest

from qutrit_toffoli.certify import (
    RELEVANCE_CUTOFF,
    _eigenstate_readout,
    _eigenstate_tables,
    _measured_correlations,
    _relevant_readout,
    enumerate_relevant_paulis,
    exhaustive_fidelity,
    ideal_toffoli_choi,
    monte_carlo_fidelity,
)
from qutrit_toffoli.gates import ideal_toffoli_unitary, toffoli_circuit
from qutrit_toffoli.noise import NoiseModel, circuit_choi
from qutrit_toffoli.register import PAULI, checked_choi, choi_of_unitary
from qutrit_toffoli.tomography import (
    _binomial_readout,
    _readout_probabilities,
    chi_of_choi,
    chi_of_unitary,
    choi_from_records,
    measure_output_records,
    ml_projection,
    pauli_labels,
    process_fidelity,
)

from _oracle import (
    CUSTOM_MODEL,
    choi_expectation_direct,
    choi_of_channel,
    device_channel8,
    eigenstate_readout_reference,
    per_draw_monte_carlo,
    product_eigenvectors,
)


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


def oracle_readout(channel, in_labels, out_labels):
    """Tr[B E(|v_k><v_k|)] and eigenvalue of each product eigenstate v_k of A."""
    a, b = pauli_product(in_labels), pauli_product(out_labels)
    readout, eigenvalues = [], []
    for v in product_eigenvectors(in_labels):
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
    assert np.trace(choi).real == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(choi, choi).real == pytest.approx(1.0, abs=1e-12)


def test_choi_of_channel_matches_ideal_construction():
    channel = unitary_channel8(ideal_toffoli_unitary())
    choi = choi_of_channel(channel)
    assert np.max(np.abs(choi - ideal_toffoli_choi())) < 1e-12


def test_choi_of_unitary_matches_choi_of_channel():
    rng = np.random.default_rng(35)
    for _ in range(3):
        unitary = random_unitary(8, rng)
        expected = choi_of_channel(unitary_channel8(unitary))
        assert np.max(np.abs(choi_of_unitary(unitary) - expected)) < 1e-12
    with pytest.raises(ValueError):
        choi_of_unitary(np.eye(4))
    # a contraction or a projector gives a Choi trace below one (0.25, 0.875)
    for matrix in (0.5 * np.eye(8), np.diag([1.0] * 7 + [0.0])):
        for build in (choi_of_unitary, chi_of_unitary):
            with pytest.raises(ValueError, match="not unitary"):
                build(matrix)


def test_choi_validation():
    with pytest.raises(ValueError):
        checked_choi(np.triu(np.ones((64, 64))))  # not Hermitian
    with pytest.raises(ValueError):
        checked_choi(-np.eye(64) / 64)  # negative
    with pytest.raises(ValueError):
        checked_choi(np.eye(64))  # trace 64
    for bad in (np.nan, np.inf, complex(0, np.inf)):
        matrix = np.eye(64, dtype=complex) / 64
        matrix[5, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            checked_choi(matrix)
    # the transpose is positive but not completely positive: its Choi
    # matrix is SWAP/8, with minimum eigenvalue -1/8
    with pytest.raises(ValueError, match="positive semidefinite"):
        choi_of_channel(lambda rho: rho.T)
    choi = ideal_toffoli_choi()
    with pytest.raises(ValueError):
        choi[0, 0] = 0.5  # read-only


def noisy_estimate():
    return choi_from_records(measure_output_records(device_choi(), shots=300, seed=3))


@pytest.mark.parametrize(
    "make",
    [
        lambda: circuit_choi(toffoli_circuit()),
        device_choi,
        lambda: circuit_choi(toffoli_circuit(), CUSTOM_MODEL),
        lambda: choi_of_unitary(ideal_toffoli_unitary()),
        ideal_toffoli_choi,
        lambda: choi_of_channel(unitary_channel8(ideal_toffoli_unitary())),
        noisy_estimate,
        lambda: ml_projection(noisy_estimate()),
    ],
    ids=[
        "circuit-ideal",
        "circuit-device",
        "circuit-custom",
        "choi-of-unitary",
        "ideal-toffoli",
        "choi-of-channel",
        "choi-from-records",
        "ml-projection",
    ],
)
def test_every_choi_matrix_is_a_read_only_complex_array(make):
    choi = make()
    assert type(choi) is np.ndarray
    assert choi.shape == (64, 64) and choi.dtype == complex
    assert not choi.flags.writeable


def nan_choi():
    matrix = np.eye(64, dtype=complex) / 64
    matrix[5, 5] = np.nan
    return matrix


@pytest.mark.parametrize(
    "read",
    [measure_output_records, enumerate_relevant_paulis, monte_carlo_fidelity, exhaustive_fidelity],
    ids=lambda read: read.__name__,
)
@pytest.mark.parametrize(
    "bad",
    [np.eye(8), np.eye(64).ravel() / 64, nan_choi()],
    ids=["8x8", "flat", "nan"],
)
def test_readers_reject_anything_but_a_finite_64x64_choi_matrix(read, bad):
    with pytest.raises(ValueError, match="Choi matrix"):
        read(bad)


def test_choi_trace_below_one_for_leaky_channel():
    def leaky(rho):  # loses a tenth of the weight
        return 0.9 * rho

    choi = choi_of_channel(leaky)
    assert np.trace(choi).real == pytest.approx(0.9, abs=1e-12)


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
    inputs, outputs, ideal = enumerate_relevant_paulis(ideal_toffoli_choi())
    assert len(inputs) == len(outputs) == len(ideal) == 232
    assert not any(arr.flags.writeable for arr in (inputs, outputs, ideal))
    # row-major (input, output) order
    assert np.all(np.diff(64 * inputs + outputs) > 0)
    magnitudes = np.abs(ideal)
    assert magnitudes.min() == pytest.approx(0.5, abs=1e-12)
    # correlations of a Clifford-like permutation sit on a 1/4 grid
    assert np.allclose(4 * magnitudes, np.round(4 * magnitudes), atol=1e-9)


def test_relevant_count_for_identity_is_64():
    inputs, outputs, ideal = enumerate_relevant_paulis(choi_of_channel(lambda rho: rho))
    assert len(ideal) == 64
    assert np.array_equal(inputs, outputs)
    assert np.allclose(ideal, 1.0)


def test_relevance_probabilities_sum_to_one():
    _, _, ideal = enumerate_relevant_paulis(ideal_toffoli_choi())
    total = np.sum(ideal**2) / 64.0
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("channel", ["random", "device"])
def test_correlation_table_matches_direct_contraction_entry_by_entry(channel):
    # every one of the 4096 entries: a kept pair carries its correlation,
    # a dropped pair has none above the cutoff
    if channel == "random":
        choi = choi_of_channel(random_cptp_channel(np.random.default_rng(36)))
    else:
        choi = device_choi()
    inputs, outputs, ideal = enumerate_relevant_paulis(choi)
    table = np.zeros((64, 64))
    table[inputs, outputs] = ideal
    kept = np.zeros((64, 64), dtype=bool)
    kept[inputs, outputs] = True
    labels = pauli_labels()
    for m, n in itertools.product(range(64), repeat=2):
        direct = choi_expectation_direct(choi, labels[m], labels[n])
        if kept[m, n]:
            assert abs(table[m, n] - direct) < 1e-12
        else:
            assert abs(direct) <= RELEVANCE_CUTOFF + 1e-12
    if channel == "random":
        # trace preservation zeroes Tr[E(A)] for the 63 traceless inputs A
        assert kept.sum() == 4096 - 63 and not kept[1:, 0].any()


def test_choi_expectation_direct_rejects_bad_labels():
    for bad in ("", "iii", "IIII", "XYW", "I Z", "IIQ", "II"):
        with pytest.raises(ValueError):
            choi_expectation_direct(ideal_toffoli_choi(), bad, "III")
        with pytest.raises(ValueError):
            choi_expectation_direct(ideal_toffoli_choi(), "III", bad)


def test_eigenstate_readout_matches_direct_contraction():
    rng = np.random.default_rng(32)
    labels = pauli_labels()
    for trial in range(5):
        channel = random_cptp_channel(np.random.default_rng(100 + trial))
        choi = choi_of_channel(channel)
        for _ in range(50):
            m, n = rng.integers(64), rng.integers(64)
            (eigenvalues,), (row,) = _eigenstate_readout(choi, [m], [n])
            oracle, oracle_eigenvalues = oracle_readout(channel, labels[m], labels[n])
            assert np.max(np.abs(row - oracle)) < 1e-9
            assert np.allclose(eigenvalues, oracle_eigenvalues, atol=1e-12)
            direct = choi_expectation_direct(choi, labels[m], labels[n])
            via_states = np.dot(eigenvalues, row) / 8.0
            assert abs(direct - via_states) < 1e-9


def test_eigenstate_readout_identity_factors():
    channel = device_channel8
    choi = device_choi()
    labels = pauli_labels()
    for in_labels, out_labels in [("III", "IZZ"), ("IZI", "IZI"), ("XII", "XII")]:
        m, n = labels.index(in_labels), labels.index(out_labels)
        (eigenvalues,), (row,) = _eigenstate_readout(choi, [m], [n])
        oracle, oracle_eigenvalues = oracle_readout(channel, in_labels, out_labels)
        assert np.max(np.abs(row - oracle)) < 1e-10
        assert np.allclose(eigenvalues, oracle_eigenvalues, atol=1e-12)
        direct = choi_expectation_direct(choi, in_labels, out_labels)
        assert np.dot(eigenvalues, row) / 8.0 == pytest.approx(
            direct, abs=1e-10
        )


def test_eigenstate_readout_shot_mode():
    m = n = pauli_labels().index("IIZ")
    (lam,), (row,) = _eigenstate_readout(device_choi(), [m], [n])
    probabilities = _readout_probabilities(row)
    # One batched readout of a repeated row draws what repeated readouts draw.
    batch = _binomial_readout(
        np.random.default_rng(33), 4000, np.broadcast_to(probabilities, (5, 8))
    )
    rng = np.random.default_rng(33)
    assert np.array_equal(
        batch, [_binomial_readout(rng, 4000, probabilities) for _ in range(5)]
    )
    exact_value = np.dot(lam, row) / 8.0
    for sampled in batch:
        assert abs(np.dot(lam, sampled) / 8.0 - exact_value) < 0.1


def test_monte_carlo_ideal_channel_is_exact():
    result = monte_carlo_fidelity(
        choi_of_channel(unitary_channel8(ideal_toffoli_unitary())), samples=500, seed=1
    )
    assert result.estimate == pytest.approx(1.0, abs=1e-12)
    assert result.stderr < 1e-12
    assert result.draws.sum() == 500
    assert np.array_equal(np.isnan(result.mean_values), result.draws == 0)


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


def test_monte_carlo_shot_readout_matches_integer_count_oracle():
    # replays the one stream, pair choice then one binomial over the drawn
    # pairs in (pair, eigenstate) order, each read in 1000 shots per draw,
    # and rebuilds each mean from its counts and the estimate and standard
    # error from the closed form
    choi = device_choi()
    result = monte_carlo_fidelity(choi, samples=3000, seed=5, shots=1000)
    inputs, outputs, ideal = enumerate_relevant_paulis(ideal_toffoli_choi())
    eigenvalues, rows = _eigenstate_readout(choi, inputs, outputs)
    rng = np.random.default_rng(5)
    probs = ideal**2 / np.sum(ideal**2)
    chosen = rng.choice(len(ideal), size=3000, p=probs)
    assert np.array_equal(result.draws, np.bincount(chosen, minlength=len(ideal)))
    drawn = np.flatnonzero(result.draws).tolist()
    probabilities = _readout_probabilities(rows)[drawn]
    pooled = [1000 * int(result.draws[i]) for i in drawn]
    counts = rng.binomial(np.repeat(pooled, 8), probabilities.ravel()).tolist()
    assert len(counts) == 8 * len(drawn)
    assert set(np.unique(eigenvalues)) == {-1.0, 1.0}
    terms = []  # (draws, X of the pair mean, expected squared spread of one X)
    for j, (index, n) in enumerate(zip(drawn, pooled)):
        lams = [int(lam) for lam in eigenvalues[index]]
        row = counts[8 * j : 8 * j + 8]
        total = sum(lam * c for lam, c in zip(lams, row))
        mean = (2.0 * total / n - sum(lams)) / 8.0
        assert result.mean_values[index] == mean
        within = sum(1000 * c / n * (1 - c / n) * (n - 1000) / max(n - 1, 1) for c in row)
        p = float(ideal[index])
        terms.append((n // 1000, mean / p, within / (16 * 1000**2) / p**2))
    assert all(np.isnan(result.mean_values[result.draws == 0]))
    assert result.draws.sum() == 3000
    estimate = sum(d * x for d, x, _ in terms) / 3000
    squares = sum(d * ((x - estimate) ** 2 + w) for d, x, w in terms)
    assert result.estimate == pytest.approx(estimate, rel=1e-13)
    assert result.stderr == pytest.approx(np.sqrt(squares / 2999 / 3000), rel=1e-12)
    assert not any(arr.flags.writeable for arr in _eigenstate_tables())
    assert not result.draws.flags.writeable and not result.mean_values.flags.writeable


def test_single_draws_replay_the_row_major_readout_stream():
    # with one draw per pair the pooled n is the shot count itself, so the
    # draw is one binomial over the (232, 8) probabilities in row-major order,
    # and a draw is its pair's mean, with no spread about it
    choi = device_choi()
    lams, rows = _relevant_readout(choi)
    ones = np.ones(len(rows), dtype=int)
    means, spread = _measured_correlations(choi, ones, 1000, np.random.default_rng(5))
    counts = np.random.default_rng(5).binomial(1000, _readout_probabilities(rows))
    signed = (counts * lams.astype(int)).sum(1)
    expected = (2.0 * signed / 1000 - lams.sum(1)) / 8.0
    assert means.tobytes() == expected.tobytes()
    assert np.all(spread == 0.0)
    _, _, ideal = enumerate_relevant_paulis(ideal_toffoli_choi())
    assert exhaustive_fidelity(choi, shots=1000, seed=5) == float(ideal @ expected / 64.0)


class _FixedCounts:
    """Stands in for a generator whose binomial returns the given counts."""

    def __init__(self, counts):
        self.counts = counts

    def binomial(self, n, p):
        assert np.all(self.counts <= n)
        return self.counts


def test_within_pair_spread_matches_explicit_hypergeometric_splits():
    # Given a pair's pooled counts, its d draws' counts are an even random
    # split of each eigenstate's count into d groups of `shots`.  The closed
    # form must give the mean of sum_j Q_j**2 over explicit splits.
    choi = device_choi()
    lams, rows = _relevant_readout(choi)
    shots, rng = 20, np.random.default_rng(11)
    draws = np.zeros(len(rows), dtype=int)
    pairs = [1, 2, 3, 40]
    draws[pairs] = [2, 3, 5, 2]
    n = shots * draws[pairs]
    counts = rng.binomial(n[:, None], _readout_probabilities(rows[pairs]))
    means, spread = _measured_correlations(choi, draws, shots, _FixedCounts(counts))
    assert np.all(spread[draws == 0] == 0.0) and np.all(np.isnan(means[draws == 0]))
    for pair, row in zip(pairs, counts):
        d = int(draws[pair])
        splits = np.stack(
            [rng.multivariate_hypergeometric([shots] * d, c, size=20000) for c in row],
            axis=-1,
        )  # (split, draw, eigenstate)
        q = (2.0 * (splits @ lams[pair]) / shots - lams[pair].sum()) / 8.0
        sums = (q**2).sum(1)
        closed = d * (spread[pair] + means[pair] ** 2)
        assert np.allclose(q.mean(1), means[pair])
        assert abs(sums.mean() - closed) < 5.0 * sums.std(ddof=1) / np.sqrt(len(sums))


def test_pooled_estimator_agrees_with_the_per_draw_oracle_over_seeds():
    # Each seed chooses the same pairs for both, so the paired differences
    # carry only the shot noise: their means must vanish within 5 standard
    # errors for the estimate and for the squared standard error.
    choi = device_choi()
    pooled, per_draw = [], []
    for seed in range(300):
        result = monte_carlo_fidelity(choi, samples=500, seed=seed, shots=100)
        estimate, stderr, draws = per_draw_monte_carlo(choi, 500, seed, 100)
        assert np.array_equal(result.draws, draws)
        pooled.append((result.estimate, result.stderr**2))
        per_draw.append((estimate, stderr**2))
    differences = np.array(pooled) - np.array(per_draw)
    errors = differences.std(0, ddof=1) / np.sqrt(len(differences))
    assert np.all(np.abs(differences.mean(0)) < 5.0 * errors)


def test_exact_mode_matches_the_per_draw_estimator_near_the_ideal_channel():
    # without shots a pair's draws all read its exact Q, so the pooled sums
    # are the per-draw ones regrouped; near the ideal channel every X is
    # within 1e-6 of 1, and only a sum of squares centered on the estimate
    # keeps their spread
    choi = (1.0 - 1e-6) * ideal_toffoli_choi() + 1e-6 * device_choi()
    for seed in range(3):
        result = monte_carlo_fidelity(choi, samples=2000, seed=seed)
        estimate, stderr, _ = per_draw_monte_carlo(choi, 2000, seed, 0)
        assert result.estimate == pytest.approx(estimate, rel=1e-14)
        assert result.stderr == pytest.approx(stderr, rel=1e-6)


def test_one_shot_single_draws_give_finite_values_without_warnings():
    # n = shots = 1 makes the (n - shots) / (n - 1) factor 0 / 0
    choi = device_choi()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means, spread = _measured_correlations(
            choi, np.ones(232, dtype=int), 1, np.random.default_rng(3)
        )
        result = monte_carlo_fidelity(choi, samples=50, seed=3, shots=1)
        exhaustive = exhaustive_fidelity(choi, shots=1, seed=3)
    assert np.all(np.isfinite(means)) and np.all(spread == 0.0)
    assert np.isfinite(result.estimate) and result.stderr > 0.0
    assert np.isfinite(exhaustive)


def test_shot_bounds_keep_the_count_sums_in_int64(monkeypatch):
    # shots=2**62 at 50 samples overflowed the signed sums to 0.5419 (exact
    # 0.7219); at each bound the estimate is the exact-mode one to 1e-6, and
    # every pooled shot count n = shots draws reaches the binomial unwrapped
    choi = device_choi()
    bound = (2**63 - 1) // (8 * 50)
    build, pooled = np.random.default_rng, []

    class RecordingGenerator:
        def __init__(self, *args):
            self.rng = build(*args)

        def choice(self, *args, **kwargs):
            return self.rng.choice(*args, **kwargs)

        def binomial(self, n, p):
            pooled.append(n)
            return self.rng.binomial(n, p)

    exact = monte_carlo_fidelity(choi, samples=50, seed=1)
    monkeypatch.setattr(np.random, "default_rng", RecordingGenerator)
    sampled = monte_carlo_fidelity(choi, samples=50, seed=1, shots=bound)
    exhaustive = exhaustive_fidelity(choi, shots=2**60 - 1, seed=1)
    assert [n.dtype for n in pooled] == [np.int64, np.int64]
    assert np.ravel(pooled[0]).tolist() == [bound * d for d in sampled.draws.tolist() if d]
    assert np.ravel(pooled[1]).tolist() == [2**60 - 1] * 232
    assert np.array_equal(sampled.draws, exact.draws)
    assert abs(sampled.estimate - exact.estimate) < 1e-6
    drawn = exact.draws > 0
    assert np.max(np.abs(sampled.mean_values[drawn] - exact.mean_values[drawn])) < 1e-6
    assert 2**60 - 1 == (2**63 - 1) // 8
    assert abs(exhaustive - exhaustive_fidelity(choi)) < 1e-6
    built = []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or build(*a))
    for shots in (bound + 1, 2**62, 2**63 - 1):
        with pytest.raises(ValueError, match=re.escape(f"// (8 * 50) = {bound},")):
            monte_carlo_fidelity(choi, samples=50, seed=1, shots=shots)
    with pytest.raises(ValueError, match=re.escape(f"// (8 * 1) = {2**60 - 1},")):
        exhaustive_fidelity(choi, shots=2**60, seed=1)
    assert built == []  # raised before any draw


def test_each_estimate_calls_choice_once_and_binomial_at_most_once(monkeypatch):
    # the pooled readout: one binomial call of at most 8 counts per drawn
    # pair, not one call per drawn pair nor 8 counts per draw
    build, calls, sizes = np.random.default_rng, [], []

    class CountingGenerator:
        def __init__(self, *args):
            self.rng = build(*args)

        def choice(self, *args, **kwargs):
            calls.append("choice")
            return self.rng.choice(*args, **kwargs)

        def binomial(self, *args, **kwargs):
            calls.append("binomial")
            values = self.rng.binomial(*args, **kwargs)
            sizes.append(np.size(values))
            return values

    choi = device_choi()
    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    for shots, expected in ((1000, ["choice", "binomial"]), (0, ["choice"])):
        calls.clear()
        sizes.clear()
        result = monte_carlo_fidelity(choi, samples=10000, seed=5, shots=shots)
        assert calls == expected
        assert sum(sizes) <= 8 * np.count_nonzero(result.draws)
    for shots, expected in ((1000, ["binomial"]), (0, [])):
        calls.clear()
        sizes.clear()
        exhaustive_fidelity(choi, shots=shots, seed=5)
        assert calls == expected
        assert sum(sizes) <= 8 * 232


def test_certification_builds_one_generator_per_call(monkeypatch):
    # one stream per estimate: the pair choice and every pair's readout share it
    choi = device_choi()
    build, built = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or build(*a))
    monte_carlo_fidelity(choi, samples=10000, seed=5, shots=1000)
    assert len(built) == 1
    exhaustive_fidelity(choi, shots=1000, seed=5)
    assert len(built) == 2


def test_readout_memo_reads_a_channel_changed_in_place():
    # the memo is keyed on the Choi matrix's content, so a writable array
    # changed between two estimates is read afresh, not served stale
    choi = np.array(device_choi())
    monte_carlo_fidelity(choi, samples=500, seed=1)
    choi[...] = (choi + ideal_toffoli_choi()) / 2.0
    result = monte_carlo_fidelity(choi, samples=500, seed=1)
    inputs, outputs, _ = enumerate_relevant_paulis(ideal_toffoli_choi())
    lams, rows = _eigenstate_readout(choi, inputs, outputs)  # uncached
    assert np.max(np.abs(rows - eigenstate_readout_reference(choi)[inputs, :, outputs])) < 1e-12
    cached_lams, cached_rows = _relevant_readout(choi)
    assert cached_lams.tobytes() == lams.tobytes()
    assert cached_rows.tobytes() == rows.tobytes()
    drawn = result.draws > 0
    fresh = (lams * rows).sum(1) / 8.0
    assert result.mean_values[drawn].tobytes() == fresh[drawn].tobytes()


def test_cached_readout_arrays_reject_writes():
    for array in _relevant_readout(device_choi()):
        assert array.shape == (232, 8)
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_monte_carlo_input_validation():
    choi = device_choi()
    with pytest.raises(ValueError):
        monte_carlo_fidelity(choi, samples=0)
    for samples in (2.5, 3.0):
        with pytest.raises(ValueError, match="samples must be a whole number"):
            monte_carlo_fidelity(choi, samples=samples)
    for shots in (-1, 2.5):
        with pytest.raises(ValueError, match="shots must be"):
            monte_carlo_fidelity(choi, samples=10, shots=shots)


@pytest.mark.parametrize("shots", [-1, 2.5, 1000.0])
def test_exhaustive_fidelity_rejects_bad_shot_counts(shots):
    # -1 used to reach numpy's binomial ("n < 0") and 2.5 read as a biased 0.573
    with pytest.raises(ValueError, match="shots must be"):
        exhaustive_fidelity(device_choi(), shots=shots)


def test_certification_reference_values():
    # Device-channel reference numbers: shot mode draws only integer counts
    # and sums them in a fixed order, so it must match bit for bit; exact
    # mode may differ in rounding.
    choi = device_choi()
    sampled = monte_carlo_fidelity(choi, samples=10000, seed=5, shots=1000)
    assert sampled.estimate == 0.7278840750000001
    assert sampled.stderr == 0.0010069185681712968
    assert exhaustive_fidelity(choi, shots=1000, seed=5) == 0.7273749999999999
    exact = monte_carlo_fidelity(choi, samples=10000, seed=0)
    assert exact.estimate == pytest.approx(0.7275412318962139, abs=1e-12)
    assert exhaustive_fidelity(choi) == pytest.approx(0.7272702017500594, abs=1e-12)


def test_exhaustive_fidelity_equals_tomographic_overlap():
    # certification and tomography measure the same number through
    # completely different pipelines
    choi = device_choi()
    chi_exp = chi_of_choi(choi_from_records(measure_output_records(choi))).matrix
    chi_ideal = chi_of_unitary(ideal_toffoli_unitary()).matrix
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
        choi_of_channel(unitary_channel8(u))
        @ choi_of_channel(unitary_channel8(v))
    ).real
    chi_overlap = process_fidelity(chi_of_unitary(u).matrix, chi_of_unitary(v).matrix)
    assert choi_overlap == pytest.approx(chi_overlap, abs=1e-10)
