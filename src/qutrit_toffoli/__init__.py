"""Simulation and characterization of a qutrit-assisted Toffoli gate.

The package covers the full experimental cycle of a three-transmon device
whose middle levels mediate a doubly-controlled phase: exact gate algebra on
its three-qutrit register, a Markovian decoherence model built from
measured coherence times, standard process tomography with a physicality
projection, and sampling-based fidelity certification that needs only a
handful of Pauli correlations.
"""

from .register import checked_choi
from .gates import (
    Circuit,
    GateOp,
    ccphase_circuit,
    ideal_toffoli_choi,
    ideal_toffoli_unitary,
    rotation_single,
    subspace_rotation,
    toffoli_circuit,
    truth_table_fidelity,
)
from .noise import (
    NoiseModel,
    circuit_choi,
    circuit_truth_table,
    tphi_from_t2star,
)
from .tomography import (
    ChiMatrix,
    ProjectionError,
    Records,
    bootstrap_ci,
    chi_of_unitary,
    choi_from_records,
    measure_output_records,
    ml_projection,
    process_fidelity,
)
from .certify import (
    FidelityEstimate,
    choi_of_channel,
    enumerate_relevant_paulis,
    exhaustive_fidelity,
    monte_carlo_fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "ChiMatrix",
    "FidelityEstimate",
    "GateOp",
    "NoiseModel",
    "ProjectionError",
    "Records",
    "bootstrap_ci",
    "ccphase_circuit",
    "checked_choi",
    "chi_of_unitary",
    "choi_from_records",
    "choi_of_channel",
    "circuit_choi",
    "circuit_truth_table",
    "enumerate_relevant_paulis",
    "exhaustive_fidelity",
    "ideal_toffoli_choi",
    "ideal_toffoli_unitary",
    "measure_output_records",
    "ml_projection",
    "monte_carlo_fidelity",
    "process_fidelity",
    "rotation_single",
    "subspace_rotation",
    "toffoli_circuit",
    "tphi_from_t2star",
    "truth_table_fidelity",
]
