"""Command-line pipelines over the simulator and characterization stack.

Every pipeline writes its artifacts into the output directory and prints a
single summary line.  Given the same arguments and seed the artifacts are
byte-identical.

Exit codes: 0 on success, 2 for invalid arguments or configuration files,
1 for runtime failures such as a non-convergent projection.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .gates import (
    XY_PULSE_NS,
    ccphase_circuit,
    ideal_toffoli_unitary,
    toffoli_circuit,
    truth_table,
    truth_table_fidelity,
)
from .noise import (
    NoiseModel,
    circuit_choi,
    noise_model_from_config,
    parse_config_file,
)
from .register import StateVector, basis_label
from .tomography import (
    bootstrap_ci,
    chi_of_unitary,
    chi_from_records,
    measure_output_records,
    ml_projection,
    pauli_labels,
    process_fidelity,
    ProjectionError,
)
from .certify import (
    enumerate_relevant_paulis,
    exhaustive_fidelity,
    ideal_toffoli_choi,
    monte_carlo_fidelity,
)

PIPELINES = ("truth-table", "process-tomo", "certify", "table1-trace")
NOISE_CHOICES = ("ideal", "device", "custom")


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments of one CLI invocation."""

    pipeline: str
    noise: str = "device"
    config_path: Path | None = None
    shots: int = 0
    samples: int = 10000
    seed: int = 0
    bootstrap: int = 0
    exhaustive: bool = False
    spam_windows: bool = True
    output_dir: Path = Path(".")

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        if self.noise not in NOISE_CHOICES:
            raise ValueError(f"unknown noise mode {self.noise!r}")
        if self.noise == "custom" and self.config_path is None:
            raise ValueError("--noise custom requires --config")
        if self.noise != "custom" and self.config_path is not None:
            raise ValueError("--config is only valid with --noise custom")
        if self.shots < 0:
            raise ValueError("--shots must be non-negative")
        if self.samples < 1:
            raise ValueError("--samples must be at least 1")
        if self.seed < 0:
            raise ValueError("--seed must be non-negative")
        if self.bootstrap < 0:
            raise ValueError("--bootstrap must be non-negative")
        if self.bootstrap and self.shots == 0:
            raise ValueError("--bootstrap requires --shots > 0")


def _noise_model(config: RunConfig) -> NoiseModel | None:
    if config.noise == "ideal":
        return None
    if config.noise == "device":
        return NoiseModel.from_device()
    return noise_model_from_config(parse_config_file(config.config_path))


def _toffoli_choi(config: RunConfig):
    window = XY_PULSE_NS if config.spam_windows else 0.0
    return circuit_choi(
        toffoli_circuit(),
        _noise_model(config),
        prep_window_ns=window,
        meas_window_ns=window,
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _common_meta(config: RunConfig) -> dict:
    return {
        "version": __version__,
        "noise": config.noise,
        "shots": config.shots,
        "seed": config.seed,
        "spam_windows": config.spam_windows,
    }


def _run_truth_table(config: RunConfig) -> str:
    table = truth_table(_toffoli_choi(config))
    fidelity = truth_table_fidelity(table)
    labels = table.column_labels()
    csv_lines = ["output\\input," + ",".join(labels)]
    for i, row in enumerate(table.matrix):
        csv_lines.append(labels[i] + "," + ",".join(f"{v:.12g}" for v in row))
    (config.output_dir / "truth_table.csv").write_text("\n".join(csv_lines) + "\n")
    payload = _common_meta(config) | {
        "fidelity": fidelity,
        "populations": [[float(v) for v in row] for row in table.matrix],
        "basis": list(labels),
    }
    _write_json(config.output_dir / "truth_table.json", payload)
    return f"truth-table: fidelity={fidelity:.6f} noise={config.noise}"


def _run_table1_trace(config: RunConfig) -> str:
    circuit = ccphase_circuit()
    steps = ["initial"] + [op.label for op in circuit.ops]
    inputs = {}
    for index in range(8):
        digits = [int(b) for b in f"{index:03b}"]
        state = StateVector.computational(digits)
        trajectory = (state,) + circuit.trajectory(state)
        entries = []
        for label, snap in zip(steps, trajectory):
            amps = {
                basis_label(i): [float(a.real), float(a.imag)]
                for i, a in enumerate(snap.amplitudes)
                if abs(a) > 1e-12
            }
            entries.append({"step": label, "amplitudes": amps})
        inputs["".join(str(d) for d in digits)] = entries
    payload = _common_meta(config) | {
        "circuit": circuit.to_json_dict(),
        "trajectories": inputs,
    }
    _write_json(config.output_dir / "trajectory.json", payload)
    return f"table1-trace: 8 inputs, {len(steps)} snapshots each"


def _run_process_tomo(config: RunConfig) -> str:
    records = measure_output_records(
        _toffoli_choi(config), shots=config.shots, seed=config.seed
    )
    raw = chi_from_records(records)
    projected = ml_projection(raw)
    ideal = chi_of_unitary(ideal_toffoli_unitary())
    fidelity_raw = process_fidelity(raw, ideal)
    fidelity_ml = process_fidelity(projected, ideal)
    payload = _common_meta(config) | {
        "basis": list(pauli_labels()),
        "fidelity_raw": fidelity_raw,
        "fidelity_ml": fidelity_ml,
        "trace_deficit": raw.trace_deficit,
        "chi_raw": {
            "real": [[float(v) for v in row] for row in raw.matrix.real],
            "imag": [[float(v) for v in row] for row in raw.matrix.imag],
        },
        "chi_ml": {
            "real": [[float(v) for v in row] for row in projected.matrix.real],
            "imag": [[float(v) for v in row] for row in projected.matrix.imag],
        },
    }
    summary = (
        f"process-tomo: fidelity_ml={fidelity_ml:.6f} fidelity_raw={fidelity_raw:.6f}"
    )
    if config.bootstrap:
        lo, hi = bootstrap_ci(records, resamples=config.bootstrap, seed=config.seed)
        payload["bootstrap"] = {
            "confidence": 0.90,
            "resamples": config.bootstrap,
            "low": lo,
            "high": hi,
        }
        summary += f" ci90=[{lo:.6f}, {hi:.6f}]"
    _write_json(config.output_dir / "process_tomo.json", payload)
    return summary


def _run_certify(config: RunConfig) -> str:
    choi = _toffoli_choi(config)
    payload = _common_meta(config)
    if config.exhaustive:
        fidelity = exhaustive_fidelity(choi, shots=config.shots, seed=config.seed)
        n_relevant = len(enumerate_relevant_paulis(ideal_toffoli_choi()))
        payload |= {
            "mode": "exhaustive",
            "estimate": fidelity,
            "relevant_strings": n_relevant,
        }
        summary = f"certify: estimate={fidelity:.6f} (exhaustive, {n_relevant} strings)"
    else:
        result = monte_carlo_fidelity(
            choi, samples=config.samples, seed=config.seed, shots=config.shots
        )
        payload |= {
            "mode": "monte-carlo",
            "estimate": result.estimate,
            "stderr": result.stderr,
            "samples": result.samples,
            "strings": [
                {
                    "in": c.pauli.in_labels,
                    "out": c.pauli.out_labels,
                    "ideal": c.pauli.ideal,
                    "draws": c.draws,
                    "mean_value": c.mean_value,
                }
                for c in result.contributions
            ],
        }
        summary = (
            f"certify: estimate={result.estimate:.6f} stderr={result.stderr:.6f}"
            f" samples={result.samples}"
        )
    _write_json(config.output_dir / "certification.json", payload)
    return summary


_RUNNERS = {
    "truth-table": _run_truth_table,
    "process-tomo": _run_process_tomo,
    "certify": _run_certify,
    "table1-trace": _run_table1_trace,
}


def run(config: RunConfig) -> str:
    """Execute one pipeline and return its summary line."""
    config.output_dir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[config.pipeline](config)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutrit-toffoli",
        description="Simulate and characterize the qutrit-assisted Toffoli gate.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="pipeline", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--noise",
            choices=NOISE_CHOICES,
            default="device",
            help="noise model: ideal (none), device constants, or custom --config",
        )
        p.add_argument("--config", type=Path, default=None, help="key = value noise file")
        p.add_argument("--shots", type=int, default=0, help="shots per setting; 0 = exact")
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument(
            "--no-spam",
            action="store_true",
            help="drop the preparation and measurement decoherence windows",
        )
        p.add_argument(
            "--output", type=Path, default=Path("."), help="artifact directory"
        )

    tt = sub.add_parser("truth-table", help="computational-basis population map")
    add_common(tt)

    pt = sub.add_parser("process-tomo", help="full process tomography")
    add_common(pt)
    pt.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        help="resample count for a 90%% confidence interval (needs --shots)",
    )

    ct = sub.add_parser("certify", help="Monte Carlo fidelity certification")
    add_common(ct)
    ct.add_argument("--samples", type=int, default=10000, help="Monte Carlo draws")
    ct.add_argument(
        "--exhaustive",
        action="store_true",
        help="measure every relevant observable once instead of sampling",
    )

    tr = sub.add_parser("table1-trace", help="per-pulse state trajectories")
    add_common(tr)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        pipeline=args.pipeline,
        noise=args.noise,
        config_path=args.config,
        shots=args.shots,
        samples=getattr(args, "samples", 10000),
        seed=args.seed,
        bootstrap=getattr(args, "bootstrap", 0),
        exhaustive=getattr(args, "exhaustive", False),
        spam_windows=not args.no_spam,
        output_dir=args.output,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = run(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProjectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
