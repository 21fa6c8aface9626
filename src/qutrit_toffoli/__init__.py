"""Simulation and characterization of a qutrit-assisted Toffoli gate.

The package covers the full experimental cycle of a three-transmon device
whose middle levels mediate a doubly-controlled phase: exact gate algebra on
its three-qutrit register, a Markovian decoherence model built from
measured coherence times, standard process tomography with a physicality
projection, and sampling-based fidelity certification that needs only a
handful of Pauli correlations.

Importing the package loads none of its modules.  Each public name below,
and each module (``qutrit_toffoli.tomography``), is imported on its first
access (PEP 562), so a pipeline compiles only the modules it runs: a truth
table never loads ``tomography`` or ``certify``.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it, in the order of ``__all__``.
_EXPORTS = {
    "Circuit": "gates",
    "ChiMatrix": "tomography",
    "FidelityEstimate": "certify",
    "GateOp": "gates",
    "NoiseModel": "noise",
    "ProjectionError": "register",
    "Records": "tomography",
    "bootstrap_ci": "tomography",
    "ccphase_circuit": "gates",
    "checked_choi": "register",
    "chi_of_unitary": "tomography",
    "choi_from_records": "tomography",
    "circuit_choi": "noise",
    "circuit_truth_table": "noise",
    "enumerate_relevant_paulis": "certify",
    "exhaustive_fidelity": "certify",
    "ideal_toffoli_choi": "gates",
    "ideal_toffoli_unitary": "gates",
    "measure_output_records": "tomography",
    "ml_projection": "tomography",
    "monte_carlo_fidelity": "certify",
    "process_fidelity": "tomography",
    "rotation_single": "gates",
    "subspace_rotation": "gates",
    "toffoli_circuit": "gates",
    "tphi_from_t2star": "noise",
    "truth_table_fidelity": "gates",
}
_MODULES = ("register", "gates", "noise", "tomography", "certify")

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULES:  # importing a submodule binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULES))
