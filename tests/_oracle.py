"""Slow independent references for the package's fast paths (not a test module).

``embed`` builds the dense 27x27 matrix of a local operator by a kron with the
identity and an axis permutation.  It shares no code with the ``register``
module, so it checks ``GateOp.on_kets`` and everything built on it.

``amplitude_damping_kraus`` and ``dephasing_kraus`` build each site's
decoherence as Kraus operators: the relaxation cascade as four jump
operators weighted by the exponential of its rate generator
(``cascade_transfer``, scaling and squaring of a Taylor series), and
dephasing from the eigendecomposition of its correlation matrix.  The
package builds the same maps in closed form and owns no Kraus construction,
so these check ``noise._site_superoperator``.

``qubit_block_oracle`` evolves one 27x27 matrix through a circuit the slow
way: every pulse is its embedded 27x27 unitary sandwiched on both sides, and
every decoherence interval sandwiches each site's Kraus products D R embedded
in the full register.  It shares no code with ``noise.decohere``,
``noise._evolve``, ``noise._site_superoperator`` or ``noise.circuit_choi``,
so it checks all four.

``CUSTOM_MODEL`` is a noise model with both rate scales off their defaults,
so the level-2 terms of every map are exercised.

``choi_expectation_direct`` reads one pair correlation Tr[rho (A^T x B)] off a
Choi matrix by a direct four-index contraction, one label pair at a time.
It checks ``certify.enumerate_relevant_paulis`` and the eigenstate readout.

``basis_index``, ``computational_block`` and ``align_global_phase`` are the
indexing and phase helpers that only tests need: the flat index of a ket,
the qubit block of a 27x27 operator, and a rephasing onto a target.

``choi_truth_table`` reads a truth table off the diagonal of a Choi matrix.
It checks ``noise.circuit_truth_table``, which never builds one.

``input_prep_labels`` names the 64 tomography inputs in record order, such as
"x180.id.id" for x180 on site A alone; ``tomography.Records`` states that
order.

``dykstra_projection`` finds the Frobenius-nearest CPTP Choi matrix by
alternating projections, with its own partial trace and TP step.  It shares
no code with ``tomography.ml_projection``, which solves the dual by Newton.
"""

import itertools

import numpy as np

from qutrit_toffoli.gates import XY_PULSE_NS, toffoli_circuit
from qutrit_toffoli.noise import NoiseModel
from qutrit_toffoli.tomography import (
    PAULI_AXES,
    PREP_LABELS,
    pauli_labels,
    standard_pauli_stack,
)

CUSTOM_MODEL = NoiseModel((0.4, 0.9, 1.3), (0.5, 0.8, 1.1), relax_scale2=1.3, deph_scale2=2.5)

# Flat register indices 9a + 3b + c of the qubit kets |abc>, in qubit order.
QUBIT_KETS = [9 * a + 3 * b + c for a in range(2) for b in range(2) for c in range(2)]


def embed(targets, matrix):
    """27x27 matrix of ``matrix`` on sites ``targets`` (its factor order), identity elsewhere."""
    rest = [s for s in range(3) if s not in targets]
    full = np.kron(matrix, np.eye(3 ** len(rest)))
    # Axis k of the kron product belongs to site order[k]; permute into
    # register order on both the ket and bra sides.
    order = list(targets) + rest
    perm = [order.index(s) for s in range(3)]
    tensor = full.reshape((3,) * 6).transpose(perm + [p + 3 for p in perm])
    return tensor.reshape(27, 27)


def basis_index(digits):
    """Flat index 9a + 3b + c of the basis ket |abc>, with ``digits`` = (a, b, c)."""
    digits = tuple(int(d) for d in digits)
    if len(digits) != 3:
        raise ValueError("expected one digit per site")
    idx = 0
    for d in digits:
        if not 0 <= d < 3:
            raise ValueError(f"digit {d} out of range for dimension 3")
        idx = idx * 3 + d
    return idx


def computational_block(unitary27):
    """8x8 block of a 27x27 operator on the all-qubit basis kets."""
    if unitary27.shape != (27, 27):
        raise ValueError("expected a 27x27 matrix")
    return np.ascontiguousarray(unitary27[np.ix_(QUBIT_KETS, QUBIT_KETS)])


def align_global_phase(matrix, reference):
    """Rephase ``matrix`` to maximize overlap with ``reference``."""
    overlap = complex(np.trace(reference.conj().T @ matrix))
    if abs(overlap) < 1e-12:
        raise ValueError("matrices are orthogonal; no phase alignment exists")
    return matrix * (overlap.conjugate() / abs(overlap))


def cascade_transfer(duration_ns, t1_us, relax_scale2):
    """Population transfer matrix exp(Q t) of the cascade 2 -> 1 -> 0.

    ``Q`` is the 3x3 rate generator (column j holds the rates out of level
    j).  The exponential is a Taylor series on Q t / 2**s, with ||Q t|| / 2**s
    below 1/4, squared s times; every matrix in it is entrywise non-negative
    off the diagonal, so nearly equal rates need no special case.
    """
    g1 = 1.0 / (t1_us * 1e3)
    g2 = relax_scale2 * g1
    rates = np.array([[0.0, g1, 0.0], [0.0, -g1, g2], [0.0, 0.0, -g2]]) * float(duration_ns)
    squarings = max(0, np.frexp(np.abs(rates).sum(axis=0).max())[1] + 2)
    scaled = rates / 2.0**squarings
    term = out = np.eye(3)
    for k in range(1, 20):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def amplitude_damping_kraus(duration_ns, t1_us, relax_scale2):
    """Kraus operators of the relaxation cascade 2 -> 1 -> 0 over ``duration_ns``."""
    p = cascade_transfer(duration_ns, t1_us, relax_scale2)  # p[i, j]: level j -> i
    k0 = np.diag(np.sqrt([1.0, p[1, 1], p[2, 2]])).astype(complex)
    k1 = np.zeros((3, 3), dtype=complex)
    k1[0, 1] = np.sqrt(p[0, 1])
    k2 = np.zeros((3, 3), dtype=complex)
    k2[1, 2] = np.sqrt(p[1, 2])
    k3 = np.zeros((3, 3), dtype=complex)
    k3[0, 2] = np.sqrt(p[0, 2])
    return (k0, k1, k2, k3)


def dephasing_kraus(duration_ns, tphi_us, deph_scale2):
    """Diagonal Kraus operators from the eigendecomposition of the correlation matrix.

    The 0-1 coherence decays by exp(-t/Tphi), the 1-2 coherence by
    exp(-t deph_scale2/Tphi) and the 0-2 coherence by their product.
    """
    t = float(duration_ns) / (tphi_us * 1e3)
    x = np.exp(-t)
    y = np.exp(-t * deph_scale2)
    corr = np.array([[1.0, x, x * y], [x, 1.0, y], [x * y, y, 1.0]])
    vals, vecs = np.linalg.eigh(corr)
    return tuple(
        np.diag(np.sqrt(lam) * vecs[:, i]).astype(complex)
        for i, lam in enumerate(vals)
        if lam > 0
    )


def site_kraus(model, site, duration_ns):
    """Kraus products D R of one site's relaxation then dephasing."""
    relax = amplitude_damping_kraus(duration_ns, model.t1_us[site], model.relax_scale2)
    deph = dephasing_kraus(duration_ns, model.tphi_us[site], model.deph_scale2)
    return [d @ r for d in deph for r in relax]


def full_register_decohere(matrix, model, duration_ns):
    """Each site's Kraus products D R embedded in the register and sandwiched."""
    out = matrix
    for site in range(3):
        ops = [embed((site,), k) for k in site_kraus(model, site, duration_ns)]
        out = sum(k @ out @ k.conj().T for k in ops)
    return out


def qubit_block_oracle(rho8, circuit, model, spam_window_ns):
    """Qubit block of the noisy cycle, SPAM windows included, on the 8x8 input ``rho8``."""
    idx = QUBIT_KETS
    out = np.zeros((27, 27), dtype=complex)
    out[np.ix_(idx, idx)] = rho8
    if model is not None:
        out = full_register_decohere(out, model, spam_window_ns)
    for op in circuit.ops:
        full = embed(op.targets, op.matrix)
        out = full @ out @ full.conj().T
        if model is not None:
            out = full_register_decohere(out, model, op.duration_ns)
    if model is not None:
        out = full_register_decohere(out, model, spam_window_ns)
    return out[np.ix_(idx, idx)]


def device_channel8(rho8):
    """The device gate with its preparation and readout windows."""
    return qubit_block_oracle(rho8, toffoli_circuit(), NoiseModel.from_device(), XY_PULSE_NS)


def input_prep_labels():
    """Dot-joined site pulses of each tomography input, site A first and slowest."""
    return tuple(".".join(combo) for combo in itertools.product(PREP_LABELS, repeat=3))


def choi_truth_table(choi):
    """Output populations of every computational ket: entry 8j + i of the diagonal is <i|E(|j><j|)|i> / 8."""
    populations = 8.0 * np.real(np.diag(choi)).reshape(8, 8)
    return populations.T.clip(min=0.0)


def trace_out_oracle(choi_matrix):
    """Tr_out J by an explicit sum over the output index of J[8i + a, 8j + a]."""
    return sum(choi_matrix[a::8, a::8] for a in range(8))


def project_tp(choi_matrix):
    """Nearest J with Tr_out J = I/8: subtract (Tr_out J - I/8) (x) I/8."""
    excess = trace_out_oracle(choi_matrix) - np.eye(8) / 8.0
    return choi_matrix - np.kron(excess, np.eye(8) / 8.0)


def dykstra_projection(choi_matrix, tol=1e-13, max_iter=20000):
    """Frobenius-nearest CPTP Choi matrix by Dykstra's alternating projections.

    Alternates the positive part (an eigendecomposition) with ``project_tp``,
    carrying Dykstra's two correction terms, until both the step and the TP
    residual of the positive iterate fall below ``tol``, and returns that
    positive iterate.
    """
    x = (choi_matrix + choi_matrix.conj().T) / 2.0
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_iter):
        vals, vecs = np.linalg.eigh((x + p + (x + p).conj().T) / 2.0)
        y = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
        p = x + p - y
        z = project_tp(y + q)
        q = y + q - z
        step = np.linalg.norm(z - x)
        residual = np.linalg.norm(8.0 * trace_out_oracle(y) - np.eye(8))
        x = z
        if step < tol and residual < tol:
            return y
    raise RuntimeError(f"oracle did not converge in {max_iter} iterations")


_PAULI_INDEX = {labels: n for n, labels in enumerate(pauli_labels())}


def _check_labels(labels):
    if labels not in _PAULI_INDEX:
        raise ValueError(f"expected three letters from {PAULI_AXES}, got {labels!r}")
    return labels


def choi_expectation_direct(choi, in_labels, out_labels):
    """Single pair correlation by direct contraction."""
    stack = standard_pauli_stack()
    a = stack[_PAULI_INDEX[_check_labels(in_labels)]]
    b = stack[_PAULI_INDEX[_check_labels(out_labels)]]
    tensor = choi.reshape(8, 8, 8, 8)
    val = complex(np.einsum("abcd,ac,db->", tensor, a, b))
    return float(val.real)
