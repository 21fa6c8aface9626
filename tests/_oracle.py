"""Full-register reference for the compiled noisy gate (not a test module).

``qubit_block_oracle`` evolves one 27x27 matrix through a circuit the slow
way: every pulse is its embedded 27x27 unitary sandwiched on both sides, and
every decoherence interval sandwiches each site's Kraus products D R embedded
in the full register.  It shares no code with ``noise.decohere``,
``noise._evolve`` or ``noise.circuit_choi``, so it checks all three.
"""

import numpy as np

from qutrit_toffoli.gates import QUTRIT3, XY_PULSE_NS, toffoli_circuit
from qutrit_toffoli.noise import NoiseModel
from qutrit_toffoli.register import LocalOperator, computational_indices, embed


def full_register_decohere(matrix, model, duration_ns):
    """Each site's Kraus products D R embedded in the register and sandwiched."""
    out = matrix
    for site in range(3):
        relax, deph = model.site_channels(site, duration_ns)
        ops = [
            embed(LocalOperator((site,), d @ r), QUTRIT3)
            for d in deph.operators
            for r in relax.operators
        ]
        out = sum(k @ out @ k.conj().T for k in ops)
    return out


def qubit_block_oracle(rho8, circuit, model, prep_window_ns, meas_window_ns):
    """Qubit block of the noisy cycle on the 8x8 input ``rho8``."""
    idx = computational_indices(QUTRIT3)
    out = np.zeros((27, 27), dtype=complex)
    out[np.ix_(idx, idx)] = rho8
    if model is not None:
        out = full_register_decohere(out, model, prep_window_ns)
    for op in circuit.ops:
        full = embed(op.unitary, QUTRIT3)
        out = full @ out @ full.conj().T
        if model is not None:
            out = full_register_decohere(out, model, op.duration_ns)
    if model is not None:
        out = full_register_decohere(out, model, meas_window_ns)
    return out[np.ix_(idx, idx)]


def device_channel8(rho8):
    """The device gate with its preparation and readout windows."""
    return qubit_block_oracle(
        rho8, toffoli_circuit(), NoiseModel.from_device(), XY_PULSE_NS, XY_PULSE_NS
    )
