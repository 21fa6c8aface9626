"""Markovian decoherence model for the three-transmon register.

Each site decoheres independently through two single-site channels:

* **Relaxation.**  Level 1 decays to level 0 at rate 1/T1 and level 2 decays
  to level 1 at ``relax_scale2 / T1`` (default twice the 0-1 rate, the
  harmonic-ladder matrix-element scaling).  The channel is the exact
  exponential of that cascade generator, so over an interval t the level-1
  occupant has decayed with probability 1 - exp(-t/T1), the level-2 survival
  is exp(-relax_scale2 t/T1), and composing two intervals equals the single
  combined interval (semigroup property).

* **Pure dephasing.**  The 0-1 coherence decays at 1/Tphi with
  1/Tphi = 1/T2* - 1/(2 T1); the 1-2 coherence decays at ``deph_scale2``
  times that rate and the 0-2 coherence at the product of both factors.
  The correlation matrix of those factors is positive semidefinite, so its
  eigendecomposition yields a diagonal Kraus set.

Pulses are treated as instantaneous unitaries followed by the decoherence
accumulated over the pulse duration.  State preparation and measurement are
modelled as extra decoherence-only windows (one x/y pulse time each by
default) before and after the sequence.

Each site's relaxation then dephasing over one interval is applied as one
local 9x9 superoperator on that site's ket and bra axes (the vectorized
form of Wood, Biamonte & Cory, arXiv:1111.6950).  ``circuit_choi`` runs the
64 qubit matrix units through the noisy sequence as one batch, so the whole
gate is compiled once into its ``ChoiMatrix``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .register import (
    ATOL,
    ChoiMatrix,
    RegisterLayout,
    computational_indices,
    embed,
)
from .gates import XY_PULSE_NS, Circuit

# Measured coherence times, microseconds, sites (A, B, C).
DEVICE_T1_US = (0.55, 0.70, 1.10)
DEVICE_T2STAR_US = (0.45, 0.60, 0.65)

DEFAULT_RELAX_SCALE2 = 2.0
DEFAULT_DEPH_SCALE2 = 1.0

NS_PER_US = 1e3

_CONFIG_KEYS = (
    "t1_a_us",
    "t1_b_us",
    "t1_c_us",
    "t2star_a_us",
    "t2star_b_us",
    "t2star_c_us",
    "relax_scale2",
    "deph_scale2",
)


def tphi_from_t2star(t1_us: float, t2star_us: float) -> float:
    """Pure-dephasing time from the total and relaxation times.

    1/Tphi = 1/T2* - 1/(2 T1); T2* must be strictly below the 2 T1 limit.
    """
    if t1_us <= 0 or t2star_us <= 0:
        raise ValueError("coherence times must be positive")
    rate = 1.0 / t2star_us - 1.0 / (2.0 * t1_us)
    if rate <= 0:
        raise ValueError(f"T2* = {t2star_us} exceeds the 2*T1 = {2 * t1_us} limit")
    return 1.0 / rate


@dataclass(frozen=True)
class DeviceParams:
    """Per-site coherence times in microseconds, sites ordered (A, B, C)."""

    t1_us: tuple[float, float, float]
    t2star_us: tuple[float, float, float]

    def __post_init__(self) -> None:
        t1 = tuple(float(v) for v in self.t1_us)
        t2 = tuple(float(v) for v in self.t2star_us)
        if len(t1) != 3 or len(t2) != 3:
            raise ValueError("expected three sites")
        for a, b in zip(t1, t2):
            tphi_from_t2star(a, b)  # validates positivity and the 2*T1 limit
        object.__setattr__(self, "t1_us", t1)
        object.__setattr__(self, "t2star_us", t2)

    @classmethod
    def default(cls) -> "DeviceParams":
        return cls(DEVICE_T1_US, DEVICE_T2STAR_US)

    @property
    def tphi_us(self) -> tuple[float, float, float]:
        return tuple(tphi_from_t2star(a, b) for a, b in zip(self.t1_us, self.t2star_us))


def parse_config_file(path: str | Path) -> dict[str, float]:
    """Read ``key = value`` lines into a dict; '#' starts a comment.

    An unknown or duplicate key, or a value that is not a finite number,
    raises ValueError naming the file and line.
    """
    values: dict[str, float] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            number = float(val.strip())
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ValueError(f"{path}:{lineno}: invalid number {val.strip()!r}")
        values[key] = number
    return values


def device_params_from_config(values: dict[str, float]) -> tuple["DeviceParams", float, float]:
    """Device parameters plus the two rate scales, falling back to defaults."""
    t1 = tuple(
        values.get(f"t1_{s}_us", d) for s, d in zip("abc", DEVICE_T1_US)
    )
    t2 = tuple(
        values.get(f"t2star_{s}_us", d) for s, d in zip("abc", DEVICE_T2STAR_US)
    )
    relax2 = values.get("relax_scale2", DEFAULT_RELAX_SCALE2)
    deph2 = values.get("deph_scale2", DEFAULT_DEPH_SCALE2)
    if relax2 < 0 or deph2 < 0:
        raise ValueError("rate scales must be non-negative")
    return DeviceParams(t1, t2), relax2, deph2


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving channel on one three-level site."""

    operators: tuple[np.ndarray, ...]
    duration_ns: float

    def __post_init__(self) -> None:
        ops = []
        total = np.zeros((3, 3), dtype=complex)
        for op in self.operators:
            arr = np.array(op, dtype=complex)
            if arr.shape != (3, 3):
                raise ValueError("Kraus operators must be 3x3")
            arr.setflags(write=False)
            ops.append(arr)
            total += arr.conj().T @ arr
        if np.max(np.abs(total - np.eye(3))) >= ATOL:
            raise ValueError("Kraus operators do not resolve the identity")
        object.__setattr__(self, "operators", tuple(ops))


@functools.lru_cache(maxsize=4096)
def amplitude_damping_qutrit(
    duration_ns: float, t1_us: float, relax_scale2: float = DEFAULT_RELAX_SCALE2
) -> KrausChannel:
    """Relaxation cascade 2 -> 1 -> 0 accumulated over ``duration_ns``."""
    if duration_ns < 0:
        raise ValueError("duration must be non-negative")
    if t1_us <= 0:
        raise ValueError("T1 must be positive")
    g1 = 1.0 / (t1_us * NS_PER_US)
    g2 = relax_scale2 * g1
    t = float(duration_ns)
    e1 = np.exp(-g1 * t)
    e2 = np.exp(-g2 * t)
    # Weight that left level 2 and still sits in level 1 at time t.
    if abs(g2 - g1) < 1e-18:
        via1 = g2 * t * e1
    else:
        via1 = g2 * (e1 - e2) / (g2 - g1)
    to_ground = max(0.0, 1.0 - e2 - via1)
    k0 = np.diag([1.0, np.sqrt(e1), np.sqrt(e2)]).astype(complex)
    k1 = np.zeros((3, 3), dtype=complex)
    k1[0, 1] = np.sqrt(max(0.0, 1.0 - e1))
    k2 = np.zeros((3, 3), dtype=complex)
    k2[1, 2] = np.sqrt(max(0.0, via1))
    k3 = np.zeros((3, 3), dtype=complex)
    k3[0, 2] = np.sqrt(to_ground)
    ops = [k for k in (k0, k1, k2, k3) if np.max(np.abs(k)) > 1e-15]
    return KrausChannel(tuple(ops), duration_ns=t)


@functools.lru_cache(maxsize=4096)
def dephasing_qutrit(
    duration_ns: float, tphi_us: float, deph_scale2: float = DEFAULT_DEPH_SCALE2
) -> KrausChannel:
    """Diagonal channel damping coherences by per-pair decay factors.

    The 0-1 factor is exp(-t/Tphi), the 1-2 factor exp(-t deph_scale2/Tphi)
    and the 0-2 factor their product; eigendecomposing the resulting
    correlation matrix gives diagonal Kraus operators.
    """
    if duration_ns < 0:
        raise ValueError("duration must be non-negative")
    if tphi_us <= 0:
        raise ValueError("Tphi must be positive")
    t = float(duration_ns) / (tphi_us * NS_PER_US)
    x = np.exp(-t)
    y = np.exp(-t * deph_scale2)
    corr = np.array(
        [
            [1.0, x, x * y],
            [x, 1.0, y],
            [x * y, y, 1.0],
        ]
    )
    vals, vecs = np.linalg.eigh(corr)
    ops = []
    for i, lam in enumerate(vals):
        if lam < 1e-15:
            continue
        ops.append(np.diag(np.sqrt(lam) * vecs[:, i]).astype(complex))
    return KrausChannel(tuple(ops), duration_ns=float(duration_ns))


@dataclass(frozen=True)
class NoiseModel:
    """Independent per-site relaxation and dephasing rates."""

    t1_us: tuple[float, float, float]
    tphi_us: tuple[float, float, float]
    relax_scale2: float = DEFAULT_RELAX_SCALE2
    deph_scale2: float = DEFAULT_DEPH_SCALE2

    def __post_init__(self) -> None:
        t1 = tuple(float(v) for v in self.t1_us)
        tphi = tuple(float(v) for v in self.tphi_us)
        if len(t1) != 3 or len(tphi) != 3:
            raise ValueError("expected three sites")
        if any(v <= 0 for v in t1 + tphi):
            raise ValueError("decay times must be positive")
        if self.relax_scale2 < 0 or self.deph_scale2 < 0:
            raise ValueError("rate scales must be non-negative")
        object.__setattr__(self, "t1_us", t1)
        object.__setattr__(self, "tphi_us", tphi)

    @classmethod
    def from_device(
        cls,
        params: DeviceParams | None = None,
        *,
        relax_scale2: float = DEFAULT_RELAX_SCALE2,
        deph_scale2: float = DEFAULT_DEPH_SCALE2,
    ) -> "NoiseModel":
        params = params or DeviceParams.default()
        return cls(params.t1_us, params.tphi_us, relax_scale2, deph_scale2)

    def site_channels(self, site: int, duration_ns: float) -> tuple[KrausChannel, KrausChannel]:
        relax = amplitude_damping_qutrit(duration_ns, self.t1_us[site], self.relax_scale2)
        deph = dephasing_qutrit(duration_ns, self.tphi_us[site], self.deph_scale2)
        return relax, deph


def _site_superoperator(model: NoiseModel, site: int, duration_ns: float) -> np.ndarray:
    """Relaxation then dephasing of one site as a (3, 3, 3, 3) superoperator.

    ``sup[a, b, c, d] = sum_K K[a, c] K*[b, d]`` over the products K = D R
    of dephasing and relaxation Kraus operators: it maps input entry (c, d)
    to output entry (a, b).
    """
    relax, deph = model.site_channels(site, duration_ns)
    kraus = np.array([d @ r for d in deph.operators for r in relax.operators])
    return np.einsum("kac,kbd->abcd", kraus, kraus.conj())


def decohere(matrix: np.ndarray, layout: RegisterLayout, model: NoiseModel, duration_ns: float) -> np.ndarray:
    """Apply every site's relaxation then dephasing over one interval.

    ``matrix`` is one register matrix or a stack of them along leading axes.
    """
    if duration_ns == 0.0:
        return matrix
    n = layout.n_sites
    ket, bra = "abcdef"[:n], "ghijkl"[:n]
    out = matrix.reshape(matrix.shape[:-2] + layout.dims + layout.dims)
    for site in range(n):
        sup = _site_superoperator(model, site, float(duration_ns))
        new_ket = ket[:site] + "x" + ket[site + 1 :]
        new_bra = bra[:site] + "y" + bra[site + 1 :]
        sub = f"xy{ket[site]}{bra[site]},...{ket}{bra}->...{new_ket}{new_bra}"
        out = np.einsum(sub, sup, out, optimize=True)
    return out.reshape(matrix.shape)


def _evolve(
    matrix: np.ndarray,
    circuit: Circuit,
    model: NoiseModel | None,
    prep_window_ns: float,
    meas_window_ns: float,
) -> np.ndarray:
    out = matrix
    if model is not None:
        out = decohere(out, circuit.layout, model, prep_window_ns)
    for op in circuit.ops:
        full = embed(op.unitary, circuit.layout)
        out = full @ out @ full.conj().T
        if model is not None:
            out = decohere(out, circuit.layout, model, op.duration_ns)
    if model is not None:
        out = decohere(out, circuit.layout, model, meas_window_ns)
    return out


def circuit_choi(
    circuit: Circuit,
    model: NoiseModel | None = None,
    *,
    prep_window_ns: float = XY_PULSE_NS,
    meas_window_ns: float = XY_PULSE_NS,
) -> ChoiMatrix:
    """Choi matrix of the qubit block of the full experimental cycle.

    The 64 qubit matrix units |i><j| run through the sequence as one batch.
    With a noise model the preparation and measurement windows contribute
    decoherence-only intervals before and after the pulse sequence; without
    one the channel is the bare circuit unitary.  Weight left outside the
    qubit block at the end shows up as a Choi trace below one.
    """
    if prep_window_ns < 0 or meas_window_ns < 0:
        raise ValueError("windows must be non-negative")
    idx = computational_indices(circuit.layout)
    d, dim = len(idx), circuit.layout.dim
    units = np.zeros((d, d, dim, dim), dtype=complex)  # units[i, j] = |i><j|
    units[np.arange(d)[:, None], np.arange(d), idx[:, None], idx] = 1.0
    out = _evolve(units.reshape(-1, dim, dim), circuit, model, prep_window_ns, meas_window_ns)
    # Block (i, j) of the Choi matrix is E(|i><j|) / d.
    blocks = out[:, idx[:, None], idx].reshape(d, d, d, d)
    return ChoiMatrix(blocks.transpose(0, 2, 1, 3).reshape(d * d, d * d) / d)
