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
  The channel multiplies coherence (a, b) by entry (a, b) of the correlation
  matrix [[1, x, xy], [x, 1, y], [xy, y, 1]] of those factors, x for 0-1 and
  y for 1-2; the matrix is positive semidefinite, so the map is completely
  positive.

Pulses are treated as instantaneous unitaries followed by the decoherence
accumulated over the pulse duration.  State preparation and measurement are
modelled as two extra decoherence-only windows of equal length (one x/y
pulse time by default) before and after the sequence.

``_evolve`` runs a batch of qubit matrix units |i><j| through the sequence
in a site-pair layout, axes (a, a', b, b', c, c', batch), each site's ket
axis beside its bra axis: all 64 for ``circuit_choi``, only the 8 inputs
|j><j| for ``circuit_truth_table``; it alone applies decoherence.  A pulse
applies its ``GateOp.matrix`` to its target ket axes and the conjugate to
their bra axes.  An interval applies each site's relaxation then dephasing
as one real 9x9 superoperator on that site's axis pair, built in closed
form (the vectorized form of Wood, Biamonte & Cory, arXiv:1111.6950).

A site that no pulse of the circuit drives out of {0, 1} is carried with
two levels: its axes have size 2, and pulses and its 9x9 map alike are
restricted to its kept levels by ``_restrict``.  That is exact, because no
pulse moves weight into its level 2 and relaxation and dephasing never
raise a level.  In the Toffoli the exchange pulses send |11> to |20>, so
only A and B enter level 2 and target C is carried as a qubit.

What no noise model changes is the circuit's plan (``_plan``), built on
its first compile and kept for the process: the kept levels and, for each
pulse, its matrix on those levels, the conjugate, and the axis order it
acts in with its inverse.  A compile under a new model then builds only
its site maps, one per site and distinct interval length (12 for the
Toffoli with windows), and runs the same contractions, so every float is
the same as without the plan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .register import _check_states, checked_choi
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
    if not (t1_us > 0 and t2star_us > 0):
        raise ValueError("coherence times must be positive")
    rate = 1.0 / t2star_us - 1.0 / (2.0 * t1_us)
    if rate <= 0:
        raise ValueError(f"T2* = {t2star_us} exceeds the 2*T1 = {2 * t1_us} limit")
    return 1.0 / rate


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


def noise_model_from_config(values: dict[str, float]) -> "NoiseModel":
    """The device model with the values of a parsed config file in place of its defaults."""
    t1 = tuple(values.get(f"t1_{s}_us", d) for s, d in zip("abc", DEVICE_T1_US))
    t2 = tuple(values.get(f"t2star_{s}_us", d) for s, d in zip("abc", DEVICE_T2STAR_US))
    return NoiseModel.from_device(
        t1,
        t2,
        relax_scale2=values.get("relax_scale2", DEFAULT_RELAX_SCALE2),
        deph_scale2=values.get("deph_scale2", DEFAULT_DEPH_SCALE2),
    )


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
        if not all(v > 0 for v in t1 + tphi):
            raise ValueError("decay times must be positive")
        scales = (self.relax_scale2, self.deph_scale2)
        if not all(0 <= s < math.inf for s in scales):
            raise ValueError("rate scales must be finite and non-negative")
        for times, scale in zip((t1, tphi), scales):
            if not all(math.isfinite(g) for v in times for g in _rates_per_ns(v, scale)):
                raise ValueError("decay times too short for a finite decay rate")
        object.__setattr__(self, "t1_us", t1)
        object.__setattr__(self, "tphi_us", tphi)

    @classmethod
    def from_device(
        cls,
        t1_us: tuple[float, float, float] = DEVICE_T1_US,
        t2star_us: tuple[float, float, float] = DEVICE_T2STAR_US,
        *,
        relax_scale2: float = DEFAULT_RELAX_SCALE2,
        deph_scale2: float = DEFAULT_DEPH_SCALE2,
    ) -> "NoiseModel":
        """Model from measured T1 and T2* per site, Tphi by ``tphi_from_t2star``."""
        tphi = tuple(tphi_from_t2star(a, b) for a, b in zip(t1_us, t2star_us, strict=True))
        return cls(t1_us, tphi, relax_scale2, deph_scale2)


def _rates_per_ns(time_us: float, scale: float) -> tuple[float, float]:
    """The decay rate 1/T in 1/ns and its level-2 multiple ``scale / T``."""
    rate = 1.0 / (time_us * NS_PER_US)
    return rate, scale * rate


# Positions of the nonzero entries of a flattened site map, in the order
# _site_superoperator lists their values: the diagonal, then |1><1| -> |0><0|,
# then |2><2| -> |1><1| and |2><2| -> |0><0|.
_SITE_MAP_ENTRIES = np.array([0, 10, 20, 30, 40, 50, 60, 70, 80, 4, 44, 8])


def _site_superoperator(model: NoiseModel, site: int, duration_ns: float) -> np.ndarray:
    """Relaxation then dephasing of one site as a real, read-only 9x9 map.

    ``sup[3a + b, 3c + d]`` maps input entry (c, d) to output entry (a, b).
    Relaxation leaves level a occupied with probability e_a (e_0 = 1), so
    coherence (a, b) keeps sqrt(e_a e_b) and the decayed population moves
    down the ladder.  Dephasing then multiplies entry (a, b) by
    ``corr[a, b]``, the correlation matrix of the module docstring.
    """
    t = float(duration_ns)
    g1, g2 = _rates_per_ns(model.t1_us[site], model.relax_scale2)
    dx, dy = _rates_per_ns(model.tphi_us[site], model.deph_scale2)
    e1, e2 = math.exp(-g1 * t), math.exp(-g2 * t)
    x, y = math.exp(-dx * t), math.exp(-dy * t)
    # Weight that left level 2 and still sits in level 1 at time t,
    # g2 (e1 - e2) / (g2 - g1), with the difference taken by expm1 so that
    # nearly equal rates do not cancel.
    if g2 == g1:
        via1 = g2 * t * e1
    else:
        slow, gap = min(g1, g2), abs(g2 - g1)
        via1 = g2 * math.exp(-slow * t) * -math.expm1(-gap * t) / gap
    # diagonal entry (a, b) is corr[a, b] k_a k_b, with k_a = sqrt(e_a)
    k1, k2, xy = math.sqrt(e1), math.sqrt(e2), x * y
    sup = np.zeros(81)
    sup[_SITE_MAP_ENTRIES] = (
        1.0, x * k1, xy * k2, x * k1, k1 * k1, y * (k1 * k2), xy * k2, y * (k2 * k1), k2 * k2,
        1.0 - e1, via1, max(0.0, 1.0 - e2 - via1),
    )
    sup = sup.reshape(9, 9)
    sup.setflags(write=False)
    return sup


def _restrict(matrix: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """``matrix`` on three-level factors, restricted to the lowest ``sizes[k]`` levels of factor k.

    For a pulse on (B, C) with C carried on two levels, sizes (3, 2) give
    the 6x6 block on kets 3b + c with c in {0, 1}; a two-level site's 9x9
    map, sizes (2, 2), gives rows and columns [0, 1, 3, 4].
    """
    dim = math.prod(sizes)
    block = matrix.reshape((3,) * (2 * len(sizes)))[tuple(slice(n) for n in sizes * 2)]
    return block.reshape(dim, dim)


def _site_maps(model: NoiseModel, levels: tuple[int, ...], duration_ns: float) -> tuple:
    """One interval's 9x9 map for each site, restricted to two levels where the site carries two."""
    maps = (_site_superoperator(model, s, duration_ns) for s in range(len(levels)))
    return tuple(sup if n == 3 else _restrict(sup, (2, 2)) for sup, n in zip(maps, levels))


def _interval(pairs: np.ndarray, maps: tuple) -> np.ndarray:
    """Each site's map, in site order, as one real matmul on the float view of ``pairs``.

    The maps are ``_site_maps`` of the levels ``pairs.shape[0:6:2]`` carries.
    """
    real = np.ascontiguousarray(pairs).view(float)
    outer = 1  # entries of the axis pairs before this site's
    for sup in maps:
        real = np.matmul(sup, real.reshape(outer, sup.shape[0], -1))
        outer *= sup.shape[0]
    return real.view(complex).reshape(pairs.shape)


def _pulse(pairs: np.ndarray, matrix: np.ndarray, conj: np.ndarray, order, inverse) -> np.ndarray:
    """U on the target ket axes and conj(U) on the target bra axes of ``pairs``.

    ``order`` puts the target ket axes, then the target bra axes, in front
    of the rest, and ``inverse`` puts them back.
    """
    dim = matrix.shape[0]
    moved = pairs.transpose(order)
    out = matrix @ moved.reshape(dim, -1)
    out = np.matmul(conj, out.reshape(dim, dim, -1))
    return np.ascontiguousarray(out.reshape(moved.shape).transpose(inverse))


def _kept_levels(circuit: Circuit) -> tuple[int, int, int]:
    """Levels each site can reach from the qubit block: 3 or 2.

    A site keeps level 2 if some pulse has a nonzero entry between a ket
    with that site in level 2 and a ket with it in level 0 or 1.  Otherwise
    no pulse moves weight into its level 2, and relaxation and dephasing
    never raise a level, so that level stays empty.
    """
    levels = [2, 2, 2]
    for op in circuit.ops:
        n = len(op.targets)
        nonzero = op.matrix != 0
        for site, high in zip(op.targets, np.indices((3,) * n).reshape(n, -1) == 2):
            if np.any(nonzero & (high[:, None] != high[None, :])):
                levels[site] = 3
    return tuple(levels)


# Keyed on the circuit object: a Circuit and its GateOps are frozen and hold
# read-only matrices, so its plan never goes stale.
@functools.lru_cache(maxsize=4)
def _plan(circuit: Circuit) -> tuple[tuple[int, int, int], tuple[tuple, ...]]:
    """What no noise model changes in a compile: the kept levels and each pulse's layout.

    Each pulse is ``(matrix, conj, order, inverse, duration_ns)``: its
    ``GateOp.matrix`` restricted to the kept levels of its targets and the
    conjugate, both read-only, and the axis orders ``_pulse`` takes.
    """
    levels = _kept_levels(circuit)
    pulses = []
    for op in circuit.ops:
        matrix = _restrict(op.matrix, tuple(levels[s] for s in op.targets))
        front = [2 * s for s in op.targets] + [2 * s + 1 for s in op.targets]
        order = tuple(front + [k for k in range(7) if k not in front])
        inverse = tuple(order.index(k) for k in range(7))
        conj = matrix.conj()
        for part in (matrix, conj):
            part.setflags(write=False)
        pulses.append((matrix, conj, order, inverse, op.duration_ns))
    return levels, tuple(pulses)


# digits[:, k] are the site levels (a, b, c) of qubit ket k.
_KET_DIGITS = np.array(np.unravel_index(np.arange(8), (2, 2, 2)))


def _evolve(circuit: Circuit, model: NoiseModel | None, spam_window_ns: float, units) -> np.ndarray:
    """The noisy cycle on each qubit unit |rows[k]><cols[k]|, axes (a, a', b, b', c, c', k).

    ``units`` is the pair (rows, cols) of index arrays.  Each site's axes
    have ``_kept_levels(circuit)`` entries.  With a noise model the
    preparation and measurement windows, each ``spam_window_ns`` long, add
    decoherence-only intervals before and after the pulse sequence; without
    one the cycle is the bare circuit unitary.  The circuit's ``_plan`` is
    built on its first compile and reused; beyond it a compile builds only
    its model's site maps, once per distinct nonzero interval length.
    """
    if not (math.isfinite(spam_window_ns) and spam_window_ns >= 0):
        raise ValueError("windows must be finite and non-negative")
    levels, pulses = _plan(circuit)
    rows, cols = _KET_DIGITS[:, units[0]], _KET_DIGITS[:, units[1]]
    batch = len(units[0])
    out = np.zeros(tuple(n for n in levels for _ in range(2)) + (batch,), dtype=complex)
    out[rows[0], cols[0], rows[1], cols[1], rows[2], cols[2], np.arange(batch)] = 1.0
    durations = {spam_window_ns, *(pulse[-1] for pulse in pulses)} - {0.0}
    maps = {t: _site_maps(model, levels, t) for t in durations} if model is not None else {}

    def interval(pairs: np.ndarray, duration_ns: float) -> np.ndarray:
        return _interval(pairs, maps[duration_ns]) if duration_ns in maps else pairs

    # Rebinding ``out`` frees each input, so at most three batches are alive.
    out = interval(out, spam_window_ns)
    for matrix, conj, order, inverse, duration_ns in pulses:
        out = interval(_pulse(out, matrix, conj, order, inverse), duration_ns)
    return interval(out, spam_window_ns)


def circuit_choi(
    circuit: Circuit, model: NoiseModel | None = None, *, spam_window_ns: float = XY_PULSE_NS
) -> np.ndarray:
    """Read-only Choi matrix of the qubit block of the full experimental cycle.

    The 64 qubit matrix units |i><j| run through ``_evolve`` as one batch.
    Weight left outside the qubit block at the end shows up as a Choi trace
    below one.
    """
    out = _evolve(circuit, model, spam_window_ns, np.divmod(np.arange(64), 8))
    # Block (i, j) of the Choi matrix is E(|i><j|) / 8.
    blocks = out[:2, :2, :2, :2, :2, :2].reshape((2,) * 6 + (8, 8))
    return checked_choi(blocks.transpose(6, 0, 2, 4, 7, 1, 3, 5).reshape(64, 64) / 8)


def circuit_truth_table(
    circuit: Circuit, model: NoiseModel | None = None, *, spam_window_ns: float = XY_PULSE_NS
) -> np.ndarray:
    """Populations <i|E(|j><j|)|i> of the cycle ``circuit_choi`` compiles, as read-only ``[i, j]``.

    Only the 8 inputs |j><j| run through ``_evolve``.  Their qubit-block
    output states get the checks of the Choi matrix they are blocks of, so
    no entry is negative and no column sums to more than one (to ``ATOL``);
    weight that leaks out of the qubit block leaves a column short of one.
    """
    out = _evolve(circuit, model, spam_window_ns, (np.arange(8),) * 2)
    states = out[:2, :2, :2, :2, :2, :2].transpose(6, 0, 2, 4, 1, 3, 5).reshape(8, 8, 8)
    _check_states(states, "output state")
    table = np.diagonal(states, axis1=1, axis2=2).real.T.clip(min=0.0)
    table.setflags(write=False)
    return table
