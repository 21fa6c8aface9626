import numpy as np

from qutrit_toffoli.gates import ideal_toffoli_unitary, toffoli_circuit
from qutrit_toffoli.noise import NoiseModel, circuit_choi
from qutrit_toffoli.tomography import (
    bootstrap_ci,
    chi_from_records,
    chi_of_unitary,
    measure_output_records,
    ml_projection,
    process_fidelity,
    process_tomography,
)

# Process tomography reconstructs the full chi matrix of the gate from 64
# input preparations crossed with 64 Pauli observables.  In exact mode the
# expectation values are computed without sampling, which is the cleanest
# way to see what the noise model does to the gate.  Every expectation is
# read off the gate's Choi matrix, compiled once from the pulse sequence.

choi = circuit_choi(toffoli_circuit(), NoiseModel.from_device())
chi_ideal = chi_of_unitary(ideal_toffoli_unitary())

chi_exact = process_tomography(choi)
print(f"exact-mode process fidelity: {process_fidelity(chi_exact, chi_ideal):.4f}")
print(f"trace deficit (leakage):     {chi_exact.trace_deficit:.2e}")
print()

# With a finite shot budget the linear-inversion estimate is noisy and
# usually leaves the physical set: some eigenvalues dip below zero.
shots = 1000
records = measure_output_records(choi, shots=shots, seed=7)
chi_raw = chi_from_records(records)
print(f"{shots} shots per setting:")
print(f"  raw fidelity:       {process_fidelity(chi_raw, chi_ideal):.4f}")
print(f"  raw min eigenvalue: {chi_raw.min_eigenvalue():+.4f}")

# The Frobenius-nearest completely positive trace-preserving map is the
# physical estimate: a least-squares projection, not a likelihood maximum.
chi_ml = ml_projection(chi_raw)
print(f"  ml fidelity:        {process_fidelity(chi_ml, chi_ideal):.4f}")
print(f"  ml min eigenvalue:  {chi_ml.min_eigenvalue():+.2e}")
print(f"  ml TP residual:     {chi_ml.tp_residual():.2e}")
print()

# Error bars come from parametric resampling of the measurement records.
# The raw fidelity weighs only 1120 of the 4096 settings, so each resample
# redraws those, in row-major order; the rest cannot move the score.  The
# resamples draw from a random stream of their own, so passing the records'
# seed again does not replay the noise already in them.
low, high = bootstrap_ci(records, resamples=100, seed=7)
print(f"90% bootstrap interval on the raw fidelity: [{low:.4f}, {high:.4f}]")
print()

# The chi matrix itself is dominated by one element: the weight of the
# ideal gate inside the reconstruction.  For this gate the leading value of
# a perfect run is 0.5625.
magnitudes = np.abs(chi_exact.matrix)
m, n = np.unravel_index(np.argmax(magnitudes), magnitudes.shape)
print(f"largest chi element: |chi[{m},{n}]| = {magnitudes[m, n]:.4f}")
print(f"ideal leading value: {chi_ideal.matrix[0, 0].real:.4f}")
