"""Direct fidelity certification from sparse Pauli correlations.

For a target unitary U the quantity Tr[rho_T rho_E] between the normalized
input (x) output state representations of the target and of the channel under
test equals the process fidelity.  Expanding both in products of Pauli
operators on the input and output factors turns it into

    F = (1/64) sum_n P_n Q_n,

where P_n = (1/8) Tr[U A_n U^dag B_n] is the target correlation of the pair
(A_n, B_n) and Q_n the measured one.  Only pairs with P_n != 0 contribute;
for the Toffoli exactly 232 of the 4096 pairs survive, and the smallest
surviving |P_n| is 1/2, so membership is numerically unambiguous.

Q_n is measurable on hardware without tomography: expand the input Pauli in
its eigenbasis, prepare the eight product eigenstates, and measure B_n on
the channel output.  Sampling pairs with probability P_n^2 / 64 and
averaging X = Q_n / P_n gives an unbiased fidelity estimate whose error
shrinks with the sample count alone (direct fidelity estimation, Flammia &
Liu, PRL 106, 230501 (2011)).

Q_n is linear in the channel's Choi state, so the estimators take the
64x64 Choi matrix of the channel under test (``noise.circuit_choi`` for the
simulated gate, ``register.choi_of_unitary`` for a unitary) and read every
eigenstate output off its Pauli table (``tomography._pauli_table``): an
eigenstate is a signed sum of eight Pauli strings over 8, so its readout
is a signed sum of eight table entries.  A set of pairs is three aligned arrays: the
input and output Pauli indices into ``pauli_labels()`` and the target
correlations.  The relevant-pair readout of the last channel read is kept,
keyed on the Choi matrix's content, so repeated estimates on one channel
read it once.

Each estimate draws from one generator, ``default_rng(seed)``: the Monte
Carlo pair choice first, then one binomial call for the shot readouts, in
(pair, eigenstate) order over the drawn pairs.  A pair drawn d times reads
each eigenstate once in shots d pooled shots, since the sum of d
Binomial(shots, p) counts is one Binomial(shots d, p) count; with one draw
per pair, as in ``exhaustive_fidelity``, that is the per-draw readout.  Each
pair's mean Q comes from an exact int64 sum of its counts; a shot count
whose sums could overflow raises ValueError before anything is drawn.  The
pooled counts do not say how each draw's Q fell, so the standard error
takes the sample variance of the draws expected given the counts (a
Rao-Blackwellization: the same expectation, no larger variance).

The CLI imports this module only when ``certify`` runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gates import ideal_toffoli_choi
from .register import _check_count
from .tomography import _pauli_table, _readout_probabilities

RELEVANCE_CUTOFF = 1e-9


def enumerate_relevant_paulis(choi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(inputs, outputs, ideal)`` of the pairs above ``RELEVANCE_CUTOFF``.

    The correlation Tr[rho (A_m^T x B_n)] is Tr[B_n E(A_m)] / 8, entry (m, n)
    of the channel's Pauli table; pairs come in row-major (input, output) order.
    """
    table = _pauli_table(choi)
    inputs, outputs = np.nonzero(np.abs(table) > RELEVANCE_CUTOFF)
    ideal = table[inputs, outputs]
    for arr in (inputs, outputs, ideal):
        arr.setflags(write=False)
    return inputs, outputs, ideal


@functools.lru_cache(maxsize=1)
def _relevant_toffoli_paulis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return enumerate_relevant_paulis(ideal_toffoli_choi())


@functools.lru_cache(maxsize=1)
def _eigenstate_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only integer tables ``sub`` (64, 8), ``sign`` (8, 8) and ``eigenvalues`` (64, 8).

    Eigenstate k of input Pauli m is prod_s (I + mu_s tau_s) / 2 over sites
    s: tau_s is the site's Pauli, or Z where that is I, and mu_s = -1 where
    bit s of k is set, site A the high bit.  Over site subsets S, numbered
    likewise, that is sum_S sign[k, S] P_sub[m, S] / 8, ``sub[m, S]`` with
    tau_s on S and I elsewhere, ``sign[k, S] = (-1)^|k & S|``; the
    eigenvalue is sign[k, sites where m is not I].
    """
    digits = np.indices((4, 4, 4)).reshape(3, 64).T  # per site of m, A first
    bits = np.indices((2, 2, 2)).reshape(3, 8).T  # per site of k or S, A first
    sub = (np.where(digits == 0, 3, digits)[:, None, :] * bits) @ (16, 4, 1)
    sign = (-1) ** (bits @ bits.T)
    eigenvalues = sign[(digits > 0) @ (4, 2, 1)]  # sign is symmetric
    for table in (sub, sign, eigenvalues):
        table.setflags(write=False)
    return sub, sign, eigenvalues


def _eigenstate_readout(choi: np.ndarray, inputs, outputs) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam_k and exact readouts r_k, each ``(len(inputs), 8)``, of the given pairs.

    Row i is of input Pauli m = ``inputs[i]``'s product eigenstates and output
    Pauli n = ``outputs[i]``: r_k = Tr[P_n E(rho_mk)] = sum_S sign[k, S]
    R[sub[m, S], n] on the Pauli table R of ``choi`` (``_eigenstate_tables``).
    """
    sub, sign, eigenvalues = _eigenstate_tables()
    terms = _pauli_table(choi)[sub[inputs], np.asarray(outputs)[:, None]]
    return eigenvalues[inputs], terms @ sign.T


# One entry: the content key of the last channel read and its relevant-pair
# readout.  Keyed on the bytes, not the identity, of the Choi matrix, so a
# caller's array changed in place is read afresh.
_READOUT_MEMO: dict = {}


def _relevant_readout(choi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(232, 8)`` ``_eigenstate_readout`` of the relevant Toffoli pairs.

    The last channel's result is reused while its content is unchanged.
    """
    choi = np.asarray(choi)
    key = (choi.dtype.str, choi.shape, choi.tobytes())
    if key not in _READOUT_MEMO:
        inputs, outputs, _ = _relevant_toffoli_paulis()
        lams, rows = _eigenstate_readout(choi, inputs, outputs)
        lams.setflags(write=False)
        rows.setflags(write=False)
        _READOUT_MEMO.clear()
        _READOUT_MEMO[key] = lams, rows
    return _READOUT_MEMO[key]


def _check_shot_sums(shots: int, samples: int, name: str = "shots") -> None:
    """Raise ValueError unless every int64 sum of ``_measured_correlations`` fits.

    A pair drawn d times reads each eigenstate in n = shots d <= shots
    samples pooled shots, and its signed count total is at most 8 n in size,
    so shots <= (2**63 - 1) // (8 samples) keeps both exact.
    """
    limit = np.iinfo(np.int64).max // (8 * samples)
    if shots > limit:
        raise ValueError(
            f"{name} must be at most (2**63 - 1) // (8 * {samples}) = {limit},"
            " so the count sums fit int64"
        )


def _measured_correlations(
    choi: np.ndarray, draws: np.ndarray, shots: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's mean measured correlation Q and the variance of one draw's Q about it.

    Pair i is drawn ``draws[i]`` times; an undrawn pair's mean is NaN and
    its variance 0.  With ``shots=0`` every draw of a pair is its exact
    Q = sum_k lam_k r_k / 8, with r_k the output Pauli's readout on input
    eigenstate k and lam_k = +-1 its eigenvalue, and the variance is 0.
    Otherwise a pair drawn d times reads eigenstate k in n = shots d pooled
    shots, a count C_k of +1 outcomes drawn by one ``rng.binomial`` over the
    drawn pairs in (pair, eigenstate) order; the d draws' counts sum to
    exactly this Binomial(n, p_k).  The mean is (2 T / n - sum_k lam_k) / 8
    with the integer T = sum_k lam_k C_k, so it does not depend on a
    summation order.  The variance is the expected squared deviation of one
    draw's Q from the mean given the C_k: a draw's count is hypergeometric
    with variance shots f (1 - f) (n - shots) / (n - 1), f = C_k / n (0 when
    d = 1), and the eigenstates are independent.
    """
    lams, rows = _relevant_readout(choi)
    drawn = draws > 0
    spread = np.zeros(len(draws))
    if shots == 0:
        return np.where(drawn, (lams * rows).sum(1) / 8.0, np.nan), spread
    lams, n = lams[drawn], shots * draws[drawn]
    counts = rng.binomial(n[:, None], _readout_probabilities(rows[drawn]))
    means = np.full(len(draws), np.nan)
    means[drawn] = (2.0 * (counts * lams.astype(np.int8)).sum(1) / n - lams.sum(1)) / 8.0
    f = counts / n[:, None]
    # the variance of a draw's signed count sum over (4 shots)**2
    spread[drawn] = (f * (1.0 - f)).sum(1) * (n - shots) / np.maximum(n - 1, 1) / (16.0 * shots)
    return means, spread


@dataclass(frozen=True, eq=False)
class FidelityEstimate:
    """Monte Carlo certification result.

    ``draws`` and ``mean_values`` are aligned with the relevant Toffoli
    pairs: the draw count of each pair and its mean measured correlation,
    NaN where a pair was not drawn.  In exact mode the mean is the pair's
    exact correlation; with shots it comes from the pair's pooled counts.
    ``stderr`` is the square root of the sample variance of the draws'
    X = Q/P, expected given those counts, over sqrt(samples); in exact mode
    it is the sample deviation itself.
    """

    estimate: float
    stderr: float
    draws: np.ndarray
    mean_values: np.ndarray


def monte_carlo_fidelity(
    choi: np.ndarray,
    samples: int = 10000,
    seed: int = 0,
    shots: int = 0,
) -> FidelityEstimate:
    """Importance-sampled fidelity between the channel of ``choi`` and the Toffoli.

    Pairs are drawn with probability proportional to the squared target
    correlation; each draw contributes X = Q/P.  The estimate is the sample
    mean, the standard error as ``FidelityEstimate.stderr`` states.  More
    than (2**63 - 1) // (8 samples) shots raise ValueError before any draw,
    as the int64 count sums could overflow.
    """
    samples = _check_count(samples, "samples", 1)
    shots = _check_count(shots, "shots", 0)
    _check_shot_sums(shots, samples)
    _, _, ideal = _relevant_toffoli_paulis()
    probs = ideal**2 / 64.0
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = np.bincount(rng.choice(len(ideal), size=samples, p=probs), minlength=len(ideal))
    mean_values, spread = _measured_correlations(choi, draws, shots, rng)
    drawn = draws > 0
    d, x = draws[drawn], mean_values[drawn] / ideal[drawn]
    estimate = float((d * x).sum() / samples)
    # each draw's squared deviation from the estimate, expected given the
    # pooled counts: the pair's own, centered so that equal X give exactly
    # 0, plus the within-pair spread
    squares = (d * ((x - estimate) ** 2 + spread[drawn] / ideal[drawn] ** 2)).sum()
    stderr = float(np.sqrt(squares / (samples - 1)) / np.sqrt(samples)) if samples > 1 else 0.0
    draws.setflags(write=False)
    mean_values.setflags(write=False)
    return FidelityEstimate(estimate, stderr, draws, mean_values)


def exhaustive_fidelity(choi: np.ndarray, shots: int = 0, seed: int = 0) -> float:
    """Deterministic variant measuring every relevant pair exactly once.

    More than (2**63 - 1) // 8 = 2**60 - 1 shots raise ValueError before any
    draw, as the int64 count sums could overflow.
    """
    shots = _check_count(shots, "shots", 0)
    _check_shot_sums(shots, 1)
    _, _, ideal = _relevant_toffoli_paulis()
    rng = np.random.default_rng(seed)
    measured, _ = _measured_correlations(choi, np.ones(len(ideal), int), shots, rng)
    return float(ideal @ measured / 64.0)
