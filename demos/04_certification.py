import numpy as np

from qutrit_toffoli.certify import (
    enumerate_relevant_paulis,
    exhaustive_fidelity,
    monte_carlo_fidelity,
)
from qutrit_toffoli.gates import ideal_toffoli_choi, toffoli_circuit
from qutrit_toffoli.noise import NoiseModel, circuit_choi
from qutrit_toffoli.tomography import pauli_labels

# Full tomography needs 64 x 64 settings.  Certification gets the same
# fidelity from far fewer measurements by only looking at Pauli pairs whose
# expectation is non-zero on the perfect gate, then importance-sampling
# those.

# Each pair is an input and an output index into the 64 Pauli labels,
# with its correlation on the perfect gate.
inputs, outputs, ideal = enumerate_relevant_paulis(ideal_toffoli_choi())
print(f"relevant Pauli pairs: {len(ideal)} of 4096")
magnitudes = sorted({round(abs(float(p)), 9) for p in ideal})
print(f"ideal correlation magnitudes: {magnitudes}")
print()

# The channel enters every estimator through its Choi matrix, compiled once
# from the noisy pulse sequence; each eigenstate readout is a signed sum of
# eight entries of the channel's Pauli table, read off that matrix.
choi = circuit_choi(toffoli_circuit(), NoiseModel.from_device())

# Measuring every relevant pair once gives the deterministic reference.
reference = exhaustive_fidelity(choi)
print(f"exhaustive estimate: {reference:.6f}")
print()

# The sampled estimator converges to the same number, with an error bar
# that shrinks as the square root of the sample count.
print("samples   estimate    stderr    pull")
for samples in (100, 1000, 10000):
    result = monte_carlo_fidelity(choi, samples=samples, seed=0)
    pull = (result.estimate - reference) / result.stderr
    print(
        f"{samples:>7}   {result.estimate:.6f}  {result.stderr:.6f}  {pull:+.2f} sigma"
    )
print()

# Each sampled string contributes a ratio of measured to ideal correlation.
# The heavy hitters are the strings the chooser visits most.
result = monte_carlo_fidelity(choi, samples=10000, seed=0)
top = np.argsort(-result.draws, kind="stable")[:5]
labels = pauli_labels()
print("most-sampled strings (input -> output, draws, measured/ideal):")
for i in top:
    print(
        f"  {labels[inputs[i]]} -> {labels[outputs[i]]}   {result.draws[i]:>4}"
        f"   {result.mean_values[i] / ideal[i]:+.4f}"
    )
