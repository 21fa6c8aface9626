"""Command-line pipelines over the simulator and characterization stack.

Every pipeline writes its artifacts into the output directory and prints a
single summary line.  Given the same arguments and seed the artifacts are
byte-identical.  ``_check_args`` enforces the rules that argparse cannot
express, among them that no flag is accepted which its pipeline would
record without using, and ``main`` builds the noise model, reading and
validating any config file, before any pipeline runs.  The runners read the
parsed ``argparse.Namespace`` and that model.  Each runner returns its
summary and a ``{file name: payload}`` dict, text or a JSON object; ``main``
encodes them and creates the output directory only once the runner has
succeeded, so a failed run leaves no directory behind.

Each JSON object is written on one line, compact and with sorted keys, so
that CPython's C encoder writes it (an indented one takes the slower
pure-Python encoder).  Floats are written by ``repr`` and parse back bit for
bit; ``python -m json.tool FILE`` prints an artifact indented.  ``process-tomo``
writes each chi matrix by ``_hermitian_json``, one ``repr`` per mirrored pair
of entries, into the bytes ``json.dumps`` would write.

Within one process the noisy Toffoli is compiled once per distinct
``(noise model, spam window)``, as a Choi matrix or a truth table, and
``certify`` reads each distinct channel's eigenstate readout once; an op
that repeats a recent channel reuses both and writes the same bytes.

Only ``register``, ``gates`` and ``noise`` are imported with this module.
The ``process-tomo`` runner imports ``tomography``, and the ``certify``
runner ``certify`` (and through it ``tomography``), when it is called, so a
truth table or a trace loads neither; argument checks and the exit-1 path
read ``_check_count`` and ``ProjectionError`` from ``register``.  The
``process-tomo`` and ``certify`` runners reject a ``--shots`` whose integer
count sums could overflow before they compile or draw anything.

Exit codes: 0 on success, 2 for invalid arguments or configuration files,
1 for runtime failures such as a non-convergent projection.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .gates import (
    XY_PULSE_NS,
    ccphase_circuit,
    ideal_toffoli_choi,
    toffoli_circuit,
    truth_table_fidelity,
)
from .noise import (
    NoiseModel,
    circuit_choi,
    circuit_truth_table,
    noise_model_from_config,
    parse_config_file,
)
from .register import QUBIT_KETS, ProjectionError, _check_count, basis_label

NOISE_CHOICES = ("ideal", "device", "custom")
MONTE_CARLO_SAMPLES = 10000  # certify's draws when --samples is not given
# Pipelines that compute exact results and draw no shots; they still take
# --seed, which they record and ignore.
_EXACT_PIPELINES = ("truth-table", "table1-trace")


def _check_args(args: argparse.Namespace) -> None:
    """Raise ``ValueError`` for a combination of arguments that argparse accepts."""
    if args.noise == "custom" and args.config is None:
        raise ValueError("--noise custom requires --config")
    if args.noise != "custom" and args.config is not None:
        raise ValueError("--config is only valid with --noise custom")
    if args.noise == "ideal" and args.no_spam:
        raise ValueError("--no-spam is not used by --noise ideal, which has no decoherence windows")
    _check_count(args.shots, "--shots", 0)
    if args.shots and args.pipeline in _EXACT_PIPELINES:
        raise ValueError(f"--shots is not used by {args.pipeline}, which never samples")
    if args.pipeline == "table1-trace" and (args.config is not None or args.no_spam):
        flag = "--no-spam" if args.config is None else "--config"
        raise ValueError(
            f"{flag} is not used by table1-trace, which traces the noiseless phase core"
        )
    if args.samples is not None:
        if args.exhaustive:
            raise ValueError(
                "--samples is not used by certify --exhaustive, which measures each pair once"
            )
        _check_count(args.samples, "--samples", 1)
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    if args.bootstrap < 0 or args.bootstrap == 1:
        raise ValueError("--bootstrap must be 0 or at least 2")
    _check_count(args.bootstrap, "--bootstrap", 0)
    if args.bootstrap and args.shots == 0:
        raise ValueError("--bootstrap requires --shots > 0")


def _noise_model(args: argparse.Namespace) -> NoiseModel | None:
    if args.noise == "ideal":
        return None
    if args.noise == "device":
        return NoiseModel.from_device()
    return noise_model_from_config(parse_config_file(args.config))


def _spam_window(args: argparse.Namespace) -> float:
    return 0.0 if args.no_spam else XY_PULSE_NS


# Keyed by value on the frozen model and the window, so an op repeating the
# last few channels reuses their read-only compile and its checks.  The
# compilers are looked up by name at call time, so a wrapper put in their
# place is called on every miss.
@functools.lru_cache(maxsize=4)
def _toffoli_choi(model: NoiseModel | None, window: float) -> np.ndarray:
    return circuit_choi(toffoli_circuit(), model, spam_window_ns=window)


@functools.lru_cache(maxsize=4)
def _toffoli_truth_table(model: NoiseModel | None, window: float) -> np.ndarray:
    return circuit_truth_table(toffoli_circuit(), model, spam_window_ns=window)


@functools.lru_cache(maxsize=1)
def _ideal_chi() -> np.ndarray:
    """Read-only chi of the target, formed once per process."""
    from .tomography import chi_of_choi

    return chi_of_choi(ideal_toffoli_choi()).matrix


def _compact_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _hermitian_json(matrix: np.ndarray) -> str:
    """``_compact_json`` of ``{"real": ..., "imag": ...}`` for a finite complex matrix.

    Each part's magnitudes are written by ``repr`` on and above the diagonal;
    an entry below it reuses its mirror's text where the magnitudes are equal,
    as everywhere in a chi matrix (``chi_of_choi`` symmetrizes exactly).  A
    ``-`` goes where the sign bit is set, as ``repr(-x) == "-" + repr(x)``.
    """
    if not np.isfinite(matrix).all():
        raise ValueError("cannot write a non-finite matrix as JSON")
    parts = []
    for part in (matrix.imag, matrix.real):
        mags = np.abs(part)
        fresh = np.triu(np.ones(part.shape, dtype=bool)) | (mags != mags.T)
        texts = np.empty(part.shape, dtype=object)
        texts[fresh] = list(map(repr, mags[fresh].tolist()))
        texts[~fresh] = texts.T[~fresh]
        negative = np.signbit(part)
        texts[negative] = "-" + texts[negative]
        parts.append("[[" + "],[".join(map(",".join, texts.tolist())) + "]]")
    return '{"imag":%s,"real":%s}' % tuple(parts)


def _common_meta(args: argparse.Namespace) -> dict:
    return {
        "version": __version__,
        "noise": args.noise,
        "shots": args.shots,
        "seed": args.seed,
        "spam_windows": not args.no_spam,
    }


def _run_truth_table(args: argparse.Namespace, model: NoiseModel | None) -> tuple[str, dict]:
    table = _toffoli_truth_table(model, _spam_window(args))
    fidelity = truth_table_fidelity(table)
    labels = [basis_label(k) for k in QUBIT_KETS]
    csv_lines = ["output\\input," + ",".join(labels)]
    for label, row in zip(labels, table):
        csv_lines.append(label + "," + ",".join(f"{v:.12g}" for v in row))
    csv = "\n".join(csv_lines) + "\n"
    payload = _common_meta(args) | {
        "fidelity": fidelity,
        "populations": table.tolist(),
        "basis": labels,
    }
    summary = f"truth-table: fidelity={fidelity:.6f} noise={args.noise}"
    return summary, {"truth_table.csv": csv, "truth_table.json": payload}


def _run_table1_trace(args: argparse.Namespace, model: NoiseModel | None) -> tuple[str, dict]:
    circuit = ccphase_circuit()
    steps = ["initial"] + [op.label for op in circuit.ops]
    trajectory = circuit.trajectory()
    inputs = {}
    for index, ket in enumerate(QUBIT_KETS):
        entries = []
        for label, column in zip(steps, trajectory[:, :, ket]):
            amps = {
                basis_label(i): [float(a.real), float(a.imag)]
                for i, a in enumerate(column)
                if abs(a) > 1e-12
            }
            entries.append({"step": label, "amplitudes": amps})
        inputs[f"{index:03b}"] = entries
    payload = _common_meta(args) | {
        "circuit": circuit.to_json_dict(),
        "trajectories": inputs,
    }
    summary = f"table1-trace: 8 inputs, {len(steps)} snapshots each"
    return summary, {"trajectory.json": payload}


def _run_process_tomo(args: argparse.Namespace, model: NoiseModel | None) -> tuple[str, dict]:
    from .tomography import (
        BOOTSTRAP_CONFIDENCE,
        _check_bootstrap_shots,
        bootstrap_ci,
        chi_of_choi,
        choi_from_records,
        measure_output_records,
        ml_projection,
        pauli_labels,
        process_fidelity,
    )

    if args.bootstrap:  # before the records are drawn
        _check_bootstrap_shots(args.shots, "--shots")
    records = measure_output_records(
        _toffoli_choi(model, _spam_window(args)), shots=args.shots, seed=args.seed
    )
    raw_choi = choi_from_records(records)
    raw = chi_of_choi(raw_choi).matrix
    projected = chi_of_choi(ml_projection(raw_choi)).matrix
    ideal = _ideal_chi()
    fidelity_raw = process_fidelity(raw, ideal)
    fidelity_ml = process_fidelity(projected, ideal)
    payload = _common_meta(args) | {
        "basis": list(pauli_labels()),
        "fidelity_raw": fidelity_raw,
        "fidelity_ml": fidelity_ml,
        "trace_deficit": 1.0 - float(raw.trace().real),
    }
    summary = (
        f"process-tomo: fidelity_ml={fidelity_ml:.6f} fidelity_raw={fidelity_raw:.6f}"
    )
    if args.bootstrap:
        lo, hi = bootstrap_ci(records, resamples=args.bootstrap, seed=args.seed)
        payload["bootstrap"] = {
            "confidence": BOOTSTRAP_CONFIDENCE,
            "resamples": args.bootstrap,
            "low": lo,
            "high": hi,
        }
        summary += f" ci90=[{lo:.6f}, {hi:.6f}]"
    chis = {"chi_raw": _hermitian_json(raw), "chi_ml": _hermitian_json(projected)}
    fields = {key: _compact_json(value) for key, value in payload.items()} | chis
    text = ",".join(f"{json.dumps(key)}:{value}" for key, value in sorted(fields.items()))
    return summary, {"process_tomo.json": "{" + text + "}\n"}


def _run_certify(args: argparse.Namespace, model: NoiseModel | None) -> tuple[str, dict]:
    from .certify import (
        _check_shot_sums,
        _relevant_toffoli_paulis,
        exhaustive_fidelity,
        monte_carlo_fidelity,
    )
    from .tomography import pauli_labels

    samples = MONTE_CARLO_SAMPLES if args.samples is None else args.samples
    _check_shot_sums(args.shots, 1 if args.exhaustive else samples, "--shots")
    choi = _toffoli_choi(model, _spam_window(args))
    payload = _common_meta(args)
    inputs, outputs, ideal = _relevant_toffoli_paulis()
    if args.exhaustive:
        fidelity = exhaustive_fidelity(choi, shots=args.shots, seed=args.seed)
        n_relevant = len(ideal)
        payload |= {
            "mode": "exhaustive",
            "estimate": fidelity,
            "relevant_strings": n_relevant,
        }
        summary = f"certify: estimate={fidelity:.6f} (exhaustive, {n_relevant} strings)"
    else:
        result = monte_carlo_fidelity(choi, samples=samples, seed=args.seed, shots=args.shots)
        labels = pauli_labels()
        drawn = np.flatnonzero(result.draws)
        columns = (inputs, outputs, ideal, result.draws, result.mean_values)
        payload |= {
            "mode": "monte-carlo",
            "estimate": result.estimate,
            "stderr": result.stderr,
            "samples": samples,
            "strings": [
                {"in": labels[a], "out": labels[b], "ideal": p, "draws": d, "mean_value": q}
                for a, b, p, d, q in zip(*(column[drawn].tolist() for column in columns))
            ],
        }
        summary = (
            f"certify: estimate={result.estimate:.6f} stderr={result.stderr:.6f}"
            f" samples={samples}"
        )
    return summary, {"certification.json": payload}


_RUNNERS = {
    "truth-table": _run_truth_table,
    "process-tomo": _run_process_tomo,
    "certify": _run_certify,
    "table1-trace": _run_table1_trace,
}


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
        help="resample count for a 90%% confidence interval on fidelity_raw (needs --shots)",
    )

    ct = sub.add_parser("certify", help="Monte Carlo fidelity certification")
    add_common(ct)
    ct.add_argument(
        "--samples",
        type=int,
        default=None,
        help=f"Monte Carlo draws (default {MONTE_CARLO_SAMPLES}; not with --exhaustive)",
    )
    ct.add_argument(
        "--exhaustive",
        action="store_true",
        help="measure every relevant observable once instead of sampling",
    )

    tr = sub.add_parser("table1-trace", help="per-pulse state trajectories")
    add_common(tr)
    parser.set_defaults(samples=None, bootstrap=0, exhaustive=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        summary, artifacts = _RUNNERS[args.pipeline](args, _noise_model(args))
        texts = {
            name: payload if isinstance(payload, str) else _compact_json(payload) + "\n"
            for name, payload in artifacts.items()
        }
        args.output.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (args.output / name).write_text(text)
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
