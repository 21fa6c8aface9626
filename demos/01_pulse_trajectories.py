import numpy as np

from qutrit_toffoli.gates import ccphase_circuit, toffoli_circuit
from qutrit_toffoli.register import QUBIT_KETS, basis_label

# The phase core of the gate is three exchange pulses: a pi rotation on the
# AB pair, a 2pi rotation on the BC pair, then a 3pi rotation on AB again.
# Inputs with A and B both excited are parked in the |20x> level during the
# middle pulse, so the 2pi phase only ever lands on |011>.

circuit = ccphase_circuit()
print("phase core:", " -> ".join(op.label for op in circuit.ops))
print(f"duration: {circuit.duration_ns} ns")
print()


def format_state(amplitudes):
    parts = []
    for i, amp in enumerate(amplitudes):
        if abs(amp) < 1e-12:
            continue
        label = basis_label(i)
        if abs(amp.imag) < 1e-12:
            parts.append(f"{amp.real:+.0f}|{label}>")
        else:
            parts.append(f"{amp.imag:+.0f}i|{label}>")
    return " ".join(parts)


# Follow each computational input through the pulse sequence: column k of
# each trajectory step is basis ket k after the pulses so far.  The |11x>
# rows pick up the factor i on the way into the hidden level and return
# with no net phase; |011> alone comes back negated.
steps = circuit.trajectory()
header = ["input", "after pi AB", "after 2pi BC", "after 3pi AB"]
print(f"{header[0]:<8}{header[1]:<16}{header[2]:<16}{header[3]:<16}")
for index, ket in enumerate(QUBIT_KETS):
    row = [f"{index:03b}"] + [format_state(column) for column in steps[1:, :, ket]]
    print(f"{row[0]:<8}{row[1]:<16}{row[2]:<16}{row[3]:<16}")

# The full gate wraps the core in a basis change on C, turning the
# conditional phase into a conditional flip with A low and B high.
print()
full = toffoli_circuit()
print("full gate:", " -> ".join(op.label for op in full.ops))
print(f"duration: {full.duration_ns} ns")
