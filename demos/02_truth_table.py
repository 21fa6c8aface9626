import numpy as np

from qutrit_toffoli.gates import (
    ideal_truth_table,
    toffoli_circuit,
    truth_table_fidelity,
)
from qutrit_toffoli.noise import NoiseModel, circuit_truth_table

# The truth table is the classical shadow of the gate: populate each
# computational input, run the channel, and record the output populations.
# Only the eight computational inputs run through the pulse sequence, and
# each output state's diagonal holds the populations.  Noiseless, the table is the exact
# permutation that flips C when A is low and B is high.

ideal = ideal_truth_table()
noiseless = circuit_truth_table(toffoli_circuit(), None)
print(f"noiseless fidelity: {truth_table_fidelity(noiseless):.12f}")
print()

# With the measured relaxation and dephasing times the picture changes.
# Every pulse window now leaks population, and the 8 ns preparation and
# readout windows are included by default.
device = circuit_truth_table(toffoli_circuit(), NoiseModel.from_device())
fidelity = truth_table_fidelity(device)
print(f"device fidelity: {fidelity:.4f}")
print()

labels = device.column_labels()
print("      " + "  ".join(f"{lab:>5}" for lab in labels))
for i, row in enumerate(device.matrix):
    print(f"{labels[i]:>5} " + "  ".join(f"{v:5.3f}" for v in row))
print()

# Ranking inputs by their probability of producing the correct output shows
# the asymmetry of the device: qubit A has the shortest relaxation time, and
# the |11x> inputs additionally ride through the fast-decaying second
# excited state.
perm = np.argmax(ideal, axis=0)
correct = np.array([device.matrix[perm[i], i] for i in range(8)])
print("input  correct-output probability")
for i in np.argsort(correct):
    print(f"{labels[i]}    {correct[i]:.4f}")

# Dropping the preparation and readout windows isolates the error budget of
# the pulses themselves.
bare = circuit_truth_table(toffoli_circuit(), NoiseModel.from_device(), spam_window_ns=0)
print()
print(f"fidelity without prep/readout windows: {truth_table_fidelity(bare):.4f}")
