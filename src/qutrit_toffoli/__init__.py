"""Simulation and characterization of a qutrit-assisted Toffoli gate.

The package covers the full experimental cycle of a three-transmon device
whose middle levels mediate a doubly-controlled phase: exact gate algebra on
mixed qubit/qutrit registers, a Markovian decoherence model built from
measured coherence times, standard process tomography with a physicality
projection, and sampling-based fidelity certification that needs only a
handful of Pauli correlations.
"""

from .register import (
    ChoiMatrix,
    LocalOperator,
    RegisterLayout,
    StateVector,
    computational_indices,
    embed,
)
from .gates import (
    Circuit,
    GateOp,
    TruthTable,
    align_global_phase,
    ccphase_circuit,
    computational_block,
    ideal_toffoli_unitary,
    rotation_single,
    subspace_rotation,
    toffoli_circuit,
    truth_table,
    truth_table_fidelity,
)
from .noise import (
    DeviceParams,
    KrausChannel,
    NoiseModel,
    amplitude_damping_qutrit,
    circuit_choi,
    dephasing_qutrit,
    tphi_from_t2star,
)
from .tomography import (
    ChiMatrix,
    ProjectionError,
    Records,
    bootstrap_ci,
    chi_of_unitary,
    chi_from_records,
    measure_output_records,
    ml_projection,
    process_fidelity,
    process_tomography,
)
from .certify import (
    FidelityEstimate,
    PauliString,
    choi_of_channel,
    enumerate_relevant_paulis,
    exhaustive_fidelity,
    ideal_toffoli_choi,
    monte_carlo_fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "ChiMatrix",
    "ChoiMatrix",
    "DeviceParams",
    "FidelityEstimate",
    "GateOp",
    "KrausChannel",
    "LocalOperator",
    "NoiseModel",
    "PauliString",
    "ProjectionError",
    "Records",
    "RegisterLayout",
    "StateVector",
    "TruthTable",
    "align_global_phase",
    "amplitude_damping_qutrit",
    "bootstrap_ci",
    "ccphase_circuit",
    "chi_from_records",
    "chi_of_unitary",
    "choi_of_channel",
    "circuit_choi",
    "computational_block",
    "computational_indices",
    "dephasing_qutrit",
    "embed",
    "enumerate_relevant_paulis",
    "exhaustive_fidelity",
    "ideal_toffoli_choi",
    "ideal_toffoli_unitary",
    "measure_output_records",
    "ml_projection",
    "monte_carlo_fidelity",
    "process_fidelity",
    "process_tomography",
    "rotation_single",
    "subspace_rotation",
    "toffoli_circuit",
    "tphi_from_t2star",
    "truth_table",
    "truth_table_fidelity",
]
