"""Property tests; skipped when hypothesis is not installed."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qutrit_toffoli.certify import choi_of_channel  # noqa: E402
from qutrit_toffoli.tomography import chi_of_choi, ml_projection  # noqa: E402


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_kraus=st.integers(1, 4),
    noise_norm=st.floats(0.0, 0.05),
)
def test_ml_projection_of_perturbed_cptp_chi_is_physical(seed, n_kraus, noise_norm):
    rng = np.random.default_rng(seed)
    big = rng.normal(size=(8 * n_kraus, 8)) + 1j * rng.normal(size=(8 * n_kraus, 8))
    isometry, _ = np.linalg.qr(big)
    kraus = [isometry[8 * k : 8 * (k + 1)] for k in range(n_kraus)]
    choi = choi_of_channel(lambda block: sum(k @ block @ k.conj().T for k in kraus))
    noise = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    noise = noise + noise.conj().T
    noise *= noise_norm / np.linalg.norm(noise)
    projected = ml_projection(chi_of_choi(choi.matrix).matrix + noise)
    assert projected.min_eigenvalue() > -1e-10
    assert projected.tp_residual() < 1e-8
