import numpy as np

from qutrit_toffoli.gates import ideal_toffoli_choi, toffoli_circuit
from qutrit_toffoli.noise import NoiseModel, circuit_choi
from qutrit_toffoli.tomography import (
    bootstrap_ci,
    chi_of_choi,
    choi_from_records,
    measure_output_records,
    ml_projection,
    process_fidelity,
)

# Process tomography reconstructs the gate's channel from 64 input
# preparations crossed with 64 Pauli observables.  In exact mode the
# expectation values are computed without sampling, which is the cleanest
# way to see what the noise model does to the gate.  Every expectation is
# read off the gate's Choi matrix, compiled once from the pulse sequence,
# and linear inversion of the records returns a Choi matrix again.

choi = circuit_choi(toffoli_circuit(), NoiseModel.from_device())
ideal = ideal_toffoli_choi()

exact = choi_from_records(measure_output_records(choi))
print(f"exact-mode process fidelity: {process_fidelity(exact, ideal):.4f}")
print(f"trace deficit (leakage):     {1.0 - np.trace(exact).real:.2e}")
print()

# With a finite shot budget the linear-inversion estimate is noisy and
# usually leaves the physical set: some eigenvalues dip below zero.
shots = 1000
records = measure_output_records(choi, shots=shots, seed=7)
raw = choi_from_records(records)
print(f"{shots} shots per setting:")
print(f"  raw fidelity:       {process_fidelity(raw, ideal):.4f}")
print(f"  raw min eigenvalue: {np.linalg.eigvalsh(raw)[0]:+.4f}")

# The Frobenius-nearest completely positive trace-preserving map is the
# physical estimate: a least-squares projection, not a likelihood maximum.
# Trace preservation reads 8 Tr_out J = I on the Choi matrix J.
projected = ml_projection(raw)
tp_residual = np.linalg.norm(
    8.0 * projected.reshape(8, 8, 8, 8).trace(axis1=1, axis2=3) - np.eye(8)
)
print(f"  ml fidelity:        {process_fidelity(projected, ideal):.4f}")
print(f"  ml min eigenvalue:  {np.linalg.eigvalsh(projected)[0]:+.2e}")
print(f"  ml TP residual:     {tp_residual:.2e}")
print()

# Error bars come from parametric resampling of the measurement records.
# The raw fidelity weighs only 1120 of the 4096 settings, so each resample
# redraws those; the rest cannot move the score.  Settings of equal weight
# and observed frequency are redrawn together, as one binomial count.  The
# resamples draw from a random stream of their own, so passing the records'
# seed again does not replay the noise already in them.
low, high = bootstrap_ci(records, resamples=100, seed=7)
print(f"90% bootstrap interval on the raw fidelity: [{low:.4f}, {high:.4f}]")
print()

# The process matrix chi, the form the paper reports, is one unitary change
# of basis away from the Choi matrix.  It is dominated by one element: the
# weight of the ideal gate inside the reconstruction.  For this gate the
# leading value of a perfect run is 0.5625.
magnitudes = np.abs(chi_of_choi(exact).matrix)
chi_ideal = chi_of_choi(ideal).matrix
m, n = np.unravel_index(np.argmax(magnitudes), magnitudes.shape)
print(f"largest chi element: |chi[{m},{n}]| = {magnitudes[m, n]:.4f}")
print(f"ideal leading value: {chi_ideal[0, 0].real:.4f}")
