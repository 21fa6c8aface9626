"""Benchmark of the qutrit-toffoli command-line pipelines.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify-mc --seed 1 --seconds 30 --trace 0

Each workload is a seed-generated stream of ops; an op is one in-process
call of ``qutrit_toffoli.cli.main`` (argv in, exit code out) with its own
seed.  One client drives them in a closed loop from one thread.  The run

1. imports the package from ``src/`` and runs op 0 cold, several times,
   each time from a fresh import, and reports the median as ``setup_s``;
2. runs ops 1, 2, ... until ``--seconds`` have passed (and at least the
   workload's ``min_ops`` ops are done) and reports throughput, median
   latency and peak RSS;
3. runs op 0 once more with warm caches, then checks every artifact (see
   ``README.md``), the device headline numbers, and that every repeat of
   op 0, cold or warm, wrote byte-identical artifacts.

Reported times are calibrated against a fixed reference kernel timed
between ops and sampled during them (see ``Speedometer``); the wall times
are kept in the results file.

With ``--trace 1`` every second op of the loop runs traced, and the run
reports the per-layer metrics of the traced ops.  The last line of
stdout is one JSON object; a failed check makes it ``"correct": false`` and
the exit code 1.  Full results go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PACKAGE = "qutrit_toffoli"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PACKAGE_THREAD_VAR = "QUTRIT_TOFFOLI_THREADS"

# Device headline numbers the package reproduces in exact mode, each
# checked to half a unit in its last quoted digit.
REFERENCE = {
    "truth_table_fidelity": (0.8291, 5e-5),
    "process_fidelity_raw": (0.72727, 5e-6),
    "process_fidelity_ml": (0.72727, 5e-6),
}

# Per-op accuracy tolerances against the exact-mode process fidelity.
CERTIFY_STDERRS = 6.0
TOMO_ML_TOLERANCE = 0.05  # the ML projection's bias at 1000 shots is about -0.027

CERTIFY_SAMPLES = 10000
SHOTS = 1000
BOOTSTRAP = 200

# Coherence times the noise-sweep models are drawn around, microseconds.
DEVICE_T1_US = (0.55, 0.70, 1.10)
DEVICE_T2STAR_US = (0.45, 0.60, 0.65)
SWEEP_LOG_SPREAD = 0.2  # each time is the device value times exp(U(-0.2, 0.2))
DEVICE_MODEL_OP = 1  # this noise-sweep op gets the device values, so its fidelity is known

# Machine-speed reference.  The speed of a shared machine drifts by up to
# 1.6x over tens of seconds, more than a run can average out, while the
# ratio of an op's time to this kernel's time, measured next to it, holds
# within a few percent.  Every reported time is therefore scaled by the
# kernel's nominal over its measured time per round, around and during it.
# The kernel is the simulator's dominant kind of work: rounds of twelve
# 27x27 complex Kraus sandwiches.
REFERENCE_ITERATIONS = 100  # rounds between ops
REFERENCE_NOMINAL_S = 0.0165  # their time on a 2-core x86 box at full speed
SAMPLE_PERIOD_S = 0.2  # an untraced op is interrupted this often ...
SAMPLE_ITERATIONS = 20  # ... to time this many rounds

# Ideal truth table of the gate: X on site C when A=0 and B=1.
IDEAL_OUTPUT = [0, 1, 3, 2, 4, 5, 6, 7]


# ---------------------------------------------------------------------------
# Workloads


def _certify_argv(rng: random.Random, index: int, op_dir: Path) -> list[str]:
    return [
        "certify", "--samples", str(CERTIFY_SAMPLES), "--shots", str(SHOTS),
        "--seed", str(rng.randrange(2**31)), "--output", str(op_dir),
    ]


def _tomo_argv(rng: random.Random, index: int, op_dir: Path) -> list[str]:
    return [
        "process-tomo", "--shots", str(SHOTS), "--bootstrap", str(BOOTSTRAP),
        "--seed", str(rng.randrange(2**31)), "--output", str(op_dir),
    ]


def _noise_config(t1_us, t2star_us) -> str:
    lines = []
    for site, t1, t2 in zip("abc", t1_us, t2star_us):
        lines += [f"t1_{site}_us = {t1:.6f}", f"t2star_{site}_us = {t2:.6f}"]
    return "\n".join(lines) + "\n"


DEVICE_CONFIG = _noise_config(DEVICE_T1_US, DEVICE_T2STAR_US)


def _sweep_argv(rng: random.Random, index: int, op_dir: Path) -> list[str]:
    t1s, t2s = [], []
    for t1, t2 in zip(DEVICE_T1_US, DEVICE_T2STAR_US):
        t1s.append(t1 * math.exp(rng.uniform(-SWEEP_LOG_SPREAD, SWEEP_LOG_SPREAD)))
        t2s.append(min(t2 * math.exp(rng.uniform(-SWEEP_LOG_SPREAD, SWEEP_LOG_SPREAD)), 1.9 * t1s[-1]))
    op_dir.mkdir(parents=True)
    config = op_dir / "noise.cfg"
    config.write_text(DEVICE_CONFIG if index == DEVICE_MODEL_OP else _noise_config(t1s, t2s))
    return [
        "truth-table", "--noise", "custom", "--config", str(config),
        "--seed", str(rng.randrange(2**31)), "--output", str(op_dir),
    ]


def _check_certify(payload: dict, exact: float) -> list[str]:
    problems = []
    if payload.get("mode") != "monte-carlo":
        problems.append(f"mode {payload.get('mode')!r}")
    if payload.get("samples") != CERTIFY_SAMPLES or payload.get("shots") != SHOTS:
        problems.append("samples or shots differ from the request")
    strings = payload.get("strings", [])
    if sum(s["draws"] for s in strings) != CERTIFY_SAMPLES:
        problems.append("draw counts do not add up to the sample count")
    if not all(-1.0 <= s["mean_value"] <= 1.0 for s in strings):
        problems.append("a mean Pauli value lies outside [-1, 1]")
    stderr = payload.get("stderr", 0.0)
    if not stderr > 0.0:
        problems.append(f"stderr {stderr} is not positive")
    elif abs(payload["estimate"] - exact) > CERTIFY_STDERRS * stderr:
        problems.append(
            f"estimate {payload['estimate']:.6f} is more than {CERTIFY_STDERRS:g}"
            f" stderr from the exact fidelity {exact:.6f}"
        )
    return problems


def _complex_matrix(part: dict):
    import numpy as np

    return np.array(part["real"]) + 1j * np.array(part["imag"])


def _check_tomo(payload: dict, exact: float) -> list[str]:
    import numpy as np

    tomography = sys.modules[f"{PACKAGE}.tomography"]
    gates = sys.modules[f"{PACKAGE}.gates"]
    problems = []
    chi_ml = _complex_matrix(payload["chi_ml"])
    chi_raw = _complex_matrix(payload["chi_raw"])
    if chi_ml.shape != (64, 64) or chi_raw.shape != (64, 64):
        return ["chi matrices are not 64x64"]
    for name, chi in (("chi_raw", chi_raw), ("chi_ml", chi_ml)):
        if np.max(np.abs(chi - chi.conj().T)) > 1e-9:
            problems.append(f"{name} is not Hermitian")
    if np.linalg.eigvalsh(chi_ml)[0] < -1e-9:
        problems.append("chi_ml is not positive semidefinite")
    if abs(np.trace(chi_ml).real - 1.0) > 1e-6:
        problems.append("chi_ml is not trace preserving")
    ideal = tomography.chi_of_unitary(gates.ideal_toffoli_unitary()).matrix
    if abs(np.trace(chi_ml @ ideal).real - payload["fidelity_ml"]) > 1e-9:
        problems.append("fidelity_ml does not match chi_ml")
    if abs(payload["fidelity_ml"] - exact) > TOMO_ML_TOLERANCE:
        problems.append(
            f"fidelity_ml {payload['fidelity_ml']:.6f} is more than"
            f" {TOMO_ML_TOLERANCE} from the exact fidelity {exact:.6f}"
        )
    boot = payload.get("bootstrap", {})
    if boot.get("resamples") != BOOTSTRAP:
        problems.append("bootstrap resample count differs from the request")
    elif not 0.0 <= boot["low"] <= boot["high"] <= 1.0:
        problems.append(f"bootstrap interval [{boot['low']}, {boot['high']}] is not ordered in [0, 1]")
    return problems


def _check_sweep(payload: dict, exact: float | None) -> list[str]:
    problems = []
    pops = payload.get("populations", [])
    if payload.get("noise") != "custom":
        problems.append(f"noise {payload.get('noise')!r}")
    if len(pops) != 8 or any(len(row) != 8 for row in pops):
        return problems + ["populations are not 8x8"]
    if min(min(row) for row in pops) < 0.0:
        problems.append("a population is negative")
    for j in range(8):
        total = sum(pops[i][j] for i in range(8))
        if not 1.0 - 1e-3 <= total <= 1.0 + 1e-9:
            problems.append(f"input column {j} sums to {total}")
    fidelity = sum(pops[IDEAL_OUTPUT[j]][j] for j in range(8)) / 8.0
    if abs(fidelity - payload.get("fidelity", math.nan)) > 1e-12:
        problems.append("fidelity does not match the populations")
    if not 0.5 < fidelity < 1.0:
        problems.append(f"fidelity {fidelity} is implausible for device-like noise")
    return problems


def check_models(results: list) -> None:
    """noise-sweep: each op's fidelity follows from the model it was given.

    An op given the device values must reproduce the device fidelity, and
    ops given different models must give different fidelities.  A config
    that is ignored, or a channel reused across models, fails one or both.
    """
    expected, tolerance = REFERENCE["truth_table_fidelity"]
    config_of = {}  # fidelity -> the config that gave it
    for result in results:
        if result.problems:
            continue
        config = Path(result.argv[result.argv.index("--config") + 1]).read_text()
        fidelity = _load(_op_dir(result.argv) / "truth_table.json")[0]["fidelity"]
        if config == DEVICE_CONFIG and abs(fidelity - expected) > tolerance:
            result.problems.append(
                f"fidelity {fidelity!r} for the device values, expected {expected} +- {tolerance}"
            )
        if config_of.setdefault(fidelity, config) != config:
            result.problems.append(f"fidelity {fidelity!r} repeats that of a different noise model")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: object  # (rng, op index, op_dir) -> argv; draws the op's seed and inputs from rng
    artifact: str
    headline: str | None  # artifact key compared with the exact fidelity
    check: object  # (payload, exact fidelity) -> list of problems
    min_ops: int  # ops done before the peak RSS is read, and at least per run
    setups: int  # cold starts whose median is setup_s; more where they are cheap
    check_run: object = None  # (results) -> None; cross-op checks, adds to their problems


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists is in BENCHMARK.json and README.md.
        Workload(
            "certify-mc",
            _certify_argv, "certification.json", "estimate", _check_certify, 4, 3,
        ),
        Workload(
            "tomo-bootstrap",
            _tomo_argv, "process_tomo.json", "fidelity_ml", _check_tomo, 4, 3,
        ),
        Workload(
            "noise-sweep",
            _sweep_argv, "truth_table.json", None, _check_sweep, 100, 9, check_models,
        ),
    )
}


class OpStream:
    """Op i of a workload, generated in order from the workload seed."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.rng = random.Random(seed)
        self.index = 0

    def next(self) -> tuple[int, list[str]]:
        index = self.index
        self.index += 1
        return index, self.workload.argv(self.rng, index, self.work_dir / f"op{index:05d}")


# ---------------------------------------------------------------------------
# Metrics

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (span name, aggregate, unit).  Counts and times are per
# timed op; the aggregate is "calls", "s" (busy) or "self_s" (busy minus
# child spans).
SPAN_METRICS = {
    "noise.channel.calls": ("noise.channel", "calls", "count"),
    "noise.channel.s": ("noise.channel", "s", "s"),
    "noise.decohere.calls": ("noise.decohere", "calls", "count"),
    "noise.decohere.self_s": ("noise.decohere", "self_s", "s"),
    "noise.parse_config_file.s": ("noise.parse_config_file", "s", "s"),
    "register.embed.calls": ("register.embed", "calls", "count"),
    "register.embed.s": ("register.embed", "s", "s"),
    "gates.truth_table.calls": ("gates.truth_table", "calls", "count"),
    "gates.truth_table.self_s": ("gates.truth_table", "self_s", "s"),
    "tomography.bootstrap_ci.s": ("tomography.bootstrap_ci", "s", "s"),
    "tomography.ml_projection.s": ("tomography.ml_projection", "s", "s"),
    "tomography.measure_output_records.s": ("tomography.measure_output_records", "s", "s"),
    "tomography.chi_from_records.s": ("tomography.chi_from_records", "s", "s"),
    "certify.correlation.calls": ("certify.correlation", "calls", "count"),
    "certify.correlation.self_s": ("certify.correlation", "self_s", "s"),
    "certify.monte_carlo_fidelity.self_s": ("certify.monte_carlo_fidelity", "self_s", "s"),
    "certify.enumerate_relevant_paulis.calls": ("certify.enumerate_relevant_paulis", "calls", "count"),
    "certify.enumerate_relevant_paulis.s": ("certify.enumerate_relevant_paulis", "s", "s"),
    "parallel.deterministic_map.calls": ("parallel.deterministic_map", "calls", "count"),
    "parallel.deterministic_map.self_s": ("parallel.deterministic_map", "self_s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}

DERIVED_METRICS = {
    "noise.kraus_cache.misses": "count",
    "noise.kraus_cache.hit_ratio": "ratio",
    "tomography.bootstrap_ci.resamples_per_s": "1/s",
    "tomography.ml_projection.iterations": "count",
    "cli.artifact_bytes": "bytes",
    "tracing.op_s": "s",
    "tracing.overhead_frac": "ratio",
}

PER_LAYER = {name: spec[2] for name, spec in SPAN_METRICS.items()} | DERIVED_METRICS


def make_reference_kernel():
    """A fixed timing kernel; returns a function giving its wall time."""
    import numpy as np

    rng = np.random.default_rng(0)
    rho = rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27))
    kraus = [rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27)) for _ in range(12)]

    def kernel(iterations: int = REFERENCE_ITERATIONS) -> float:
        start = time.perf_counter()
        for _ in range(iterations):
            acc = np.zeros_like(rho)
            for k in kraus:
                acc += k @ rho @ k.conj().T
        return time.perf_counter() - start

    kernel()  # first call allocates
    return kernel


class Speedometer:
    """Times ops and the machine's speed around and during each of them.

    The reference kernel runs after every op.  With ``sampling``, a SIGALRM
    handler also runs a short round of it every ``SAMPLE_PERIOD_S`` during
    the op, and its time is taken off the op's.  An op of several seconds
    spans changes of machine speed that the kernel runs at its two ends
    miss; the samples follow them.  Traced runs take no samples, so that
    their spans hold only the program's work.
    """

    def __init__(self, sampling: bool):
        self.kernel = make_reference_kernel()  # imports numpy
        self.sampling = sampling
        self.samples: list[float] = []
        self.before = self.kernel()
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(self.kernel(SAMPLE_ITERATIONS)))

    def time(self, fn) -> tuple[object, float, float]:
        """Runs fn(); returns its result, its wall time, and the speed scale."""
        self.samples.clear()
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        samples = list(self.samples)
        after = self.kernel()
        iterations = 2 * REFERENCE_ITERATIONS + SAMPLE_ITERATIONS * len(samples)
        nominal = REFERENCE_NOMINAL_S / REFERENCE_ITERATIONS * iterations
        scale = nominal / (self.before + after + sum(samples))
        self.before = after
        return result, elapsed - sum(samples), scale


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _kraus_cache_counts() -> tuple[int, int]:
    """Hits and misses summed over the noise module's cached constructors."""
    noise = sys.modules[f"{PACKAGE}.noise"]
    hits = misses = 0
    for obj in vars(noise).values():
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == noise.__name__:
            info = obj.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


# ---------------------------------------------------------------------------
# Running ops


@dataclass
class OpResult:
    argv: list
    exit_code: object
    stdout: str
    latency_s: float  # wall time
    scale: float  # nominal over measured time of the reference kernel around and in the op
    problems: list
    traced: bool = False
    kraus_cache: tuple = (0, 0)  # hits and misses of the Kraus caches during the op

    @property
    def calibrated_s(self) -> float:
        return self.latency_s * self.scale


def _invoke(argv: list[str]) -> tuple[object, str]:
    """One in-process pipeline call; returns its exit code and stdout."""
    cli = sys.modules[f"{PACKAGE}.cli"]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code
    except Exception:  # the loop keeps going; the failure is recorded
        code = "exception: " + traceback.format_exc()
    if code != 0 and err.getvalue():
        code = f"{code}: {err.getvalue().strip()}"
    return code, out.getvalue()


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()


def _cold_start(argv: list[str], speedometer: Speedometer) -> OpResult:
    """Import the package afresh and run one op; times both together."""
    _purge_package()

    def op():
        importlib.import_module(f"{PACKAGE}.cli")
        return _invoke(argv)

    (code, out), elapsed, scale = speedometer.time(op)
    return OpResult(argv, code, out, elapsed, scale, [])


def _timed_loop(ops, seconds, min_ops, speedometer, tracer=None):
    """Closed loop of ops, timed by the speedometer.

    With a tracer, every second op runs traced, so that the traced and the
    untraced ops share the machine's fast and slow phases.  Returns the
    results, the wall seconds, and the peak RSS after ``min_ops`` ops.
    """
    results: list[OpResult] = []
    start = time.perf_counter()
    while True:
        index, argv = ops.next()
        traced = tracer is not None and len(results) % 2 == 1
        cache_before = _kraus_cache_counts()
        if traced:
            tracer.op_id = index
            tracer.install()
        (code, out), elapsed, scale = speedometer.time(lambda: _invoke(argv))
        if traced:
            tracer.uninstall()
        cache = tuple(a - b for a, b in zip(_kraus_cache_counts(), cache_before))
        results.append(OpResult(argv, code, out, elapsed, scale, [], traced, cache))
        if len(results) == min_ops:
            rss = _peak_rss_mb()
        if len(results) >= min_ops and time.perf_counter() - start >= seconds:
            break
    return results, time.perf_counter() - start, rss


def _op_dir(argv: list[str]) -> Path:
    return Path(argv[argv.index("--output") + 1])


def _load(path: Path):
    try:
        return json.loads(path.read_text()), None
    except (OSError, ValueError) as exc:
        return None, f"{path.name} unreadable: {exc}"


def check_op(workload: Workload, result: OpResult, exact: float) -> list[str]:
    """Problems with one op's exit code, summary line and artifact."""
    if result.exit_code != 0:
        return [f"exit code {result.exit_code}"]
    if not result.stdout.startswith(result.argv[0] + ":"):
        return [f"summary line missing: {result.stdout!r}"]
    payload, error = _load(_op_dir(result.argv) / workload.artifact)
    if error:
        return [error]
    return workload.check(payload, exact)


def check_reference(truth_table: dict, process_tomo: dict) -> list[str]:
    """Device headline numbers against the values the seed reproduces."""
    measured = {
        "truth_table_fidelity": truth_table["fidelity"],
        "process_fidelity_raw": process_tomo["fidelity_raw"],
        "process_fidelity_ml": process_tomo["fidelity_ml"],
    }
    problems = []
    for key, (expected, tolerance) in REFERENCE.items():
        if abs(measured[key] - expected) > tolerance:
            problems.append(f"{key} = {measured[key]!r}, expected {expected} +- {tolerance}")
    return problems


def _reference_runs(work_dir: Path) -> tuple[list[OpResult], float]:
    """Exact-mode device truth table and tomography; returns the exact fidelity."""
    runs = []
    for argv, artifact in (
        (["truth-table", "--output", str(work_dir / "ref-tt")], "truth_table.json"),
        (["process-tomo", "--output", str(work_dir / "ref-pt")], "process_tomo.json"),
    ):
        code, out = _invoke(argv)
        result = OpResult(argv, code, out, 0.0, 1.0, [])
        if code != 0:
            result.problems.append(f"exit code {code}")
        runs.append((result, artifact))
    payloads = []
    for result, artifact in runs:
        payload, error = _load(_op_dir(result.argv) / artifact)
        if error:
            result.problems.append(error)
        payloads.append(payload)
    exact = math.nan
    if all(payloads):
        runs[1][0].problems.extend(check_reference(*payloads))
        exact = payloads[1]["fidelity_raw"]
    return [r for r, _ in runs], exact


def _artifact_bytes(argv: list[str]) -> dict[str, bytes]:
    d = _op_dir(argv)
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.name != "noise.cfg"}


# ---------------------------------------------------------------------------
# Environment record


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, thread_env: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env_before": thread_env,
        "thread_env_used": {k: os.environ.get(k) for k in BLAS_THREAD_VARS + (PACKAGE_THREAD_VAR,)},
        "git_sha": _git_sha(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_metrics(tracer, timed, ops_per_s, untraced_ops_per_s):
    """Per-layer metrics of the traced ops; counts and times are per op."""
    n = len(timed)
    agg = tracer.aggregate()
    metrics = {
        name: agg.get(span, {}).get(key, 0) / n
        for name, (span, key, _) in SPAN_METRICS.items()
    }
    boot = agg.get("tomography.bootstrap_ci", {"calls": 0, "s": 0.0})
    ml = agg.get("tomography.ml_projection", {"calls": 0})
    psd = agg.get("tomography._project_psd", {"calls": 0})
    hits = sum(r.kraus_cache[0] for r in timed)
    misses = sum(r.kraus_cache[1] for r in timed)
    return metrics | {
        "noise.kraus_cache.misses": misses / n,
        "noise.kraus_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "tomography.bootstrap_ci.resamples_per_s":
            BOOTSTRAP * boot["calls"] / boot["s"] if boot["s"] else 0.0,
        "tomography.ml_projection.iterations": psd["calls"] / ml["calls"] if ml["calls"] else 0.0,
        "cli.artifact_bytes": statistics.fmean(
            sum(len(b) for b in _artifact_bytes(r.argv).values()) for r in timed
        ),
        "tracing.op_s": statistics.fmean(r.latency_s for r in timed),
        "tracing.overhead_frac": 1.0 - ops_per_s / untraced_ops_per_s,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: {src / PACKAGE} not found; run from a checkout", file=sys.stderr)
        return 2

    # One thread everywhere; numpy is imported before set-up is timed, so
    # set-up measures the package alone.
    thread_env = {k: os.environ.get(k) for k in BLAS_THREAD_VARS + (PACKAGE_THREAD_VAR,)}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop(PACKAGE_THREAD_VAR, None)
    speedometer = Speedometer(sampling=not args.trace)

    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    run_name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"{run_name}.work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    ops = OpStream(workload, args.seed, work_dir)
    _, argv0 = ops.next()
    setups = []
    for k in range(workload.setups):
        setups.append(_cold_start([*argv0[:-1], str(work_dir / f"setup{k}")], speedometer))
    loaded = Path(sys.modules[PACKAGE].__file__).resolve()
    if src.resolve() not in loaded.parents:
        print(f"error: imported {loaded}, not the checkout's package", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    loop, wall, rss = _timed_loop(
        ops, args.seconds, 2 if tracer else workload.min_ops, speedometer, tracer
    )
    timed = [r for r in loop if r.traced] if tracer else loop
    untraced = [r for r in loop if not r.traced]

    # Op 0 once more, now with warm caches, for the determinism check.
    warm_argv = [*argv0[:-1], str(work_dir / "warm")]
    warm = OpResult(warm_argv, *_invoke(warm_argv), 0.0, 1.0, [])

    references, exact = _reference_runs(work_dir)
    for result in setups + loop + [warm]:
        result.problems = check_op(workload, result, exact)
    if workload.check_run:
        workload.check_run(setups + loop + [warm])
    first = _artifact_bytes(setups[0].argv) if setups[0].exit_code == 0 else None
    for result in setups[1:] + [warm]:
        if result.exit_code == 0 and _artifact_bytes(result.argv) != first:
            result.problems.append("artifacts differ from the first cold run of the same op")

    all_results = setups + loop + [warm] + references
    failed = [r for r in all_results if r.problems]
    latencies = [r.calibrated_s for r in timed]
    ops_per_s = len(timed) / sum(latencies)  # one client: 1 / mean latency
    headline = [
        abs(_load(_op_dir(r.argv) / workload.artifact)[0][workload.headline] - exact)
        for r in timed
        if workload.headline and not r.problems
    ]
    info = {
        "ops": len(timed),
        "wall_s": wall,
        "op_s_p90": _percentile(latencies, 90) if len(latencies) >= 100 else None,
        "wall_ops_per_s": len(loop) / wall,
        "wall_op_s_p50": statistics.median(r.latency_s for r in timed),
        "wall_setup_s": statistics.median(r.latency_s for r in setups),
        "failed_frac": len(failed) / len(all_results),
        "fid_abs_err": statistics.fmean(headline) if headline else None,
        "exact_process_fidelity": exact,
        "setup_samples_s": [r.calibrated_s for r in setups],
        "reference_scales": [r.scale for r in setups + loop],
    }

    if tracer is None:
        metrics = {
            "ops_per_s": ops_per_s,
            "op_s_p50": statistics.median(latencies),
            "setup_s": statistics.median(r.calibrated_s for r in setups),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
    else:
        untraced_ops_per_s = len(untraced) / sum(r.calibrated_s for r in untraced)
        metrics = _layer_metrics(tracer, timed, ops_per_s, untraced_ops_per_s)
        info["untraced_ops_per_s"] = untraced_ops_per_s
        info["untraced_latencies_s"] = [r.calibrated_s for r in untraced]
        info["traced_ops_per_s"] = ops_per_s
        units = PER_LAYER
        spans_path = OUT_DIR / f"{run_name}.spans.tsv"
        tracer.write(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, thread_env),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": info,
        "latencies_s": latencies,
        "wall_latencies_s": [r.latency_s for r in timed],
        "failures": [{"argv": r.argv, "problems": r.problems} for r in failed],
    }
    (OUT_DIR / f"{run_name}.json").write_text(json.dumps(report, indent=2) + "\n")
    if not failed:
        shutil.rmtree(work_dir)

    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6g} {units[name]}")
    for name in ("op_s_p90", "failed_frac", "fid_abs_err"):
        if info[name] is not None:
            print(f"{name:42s} {info[name]:14.6g} (not gated)")
    for result in failed:
        print(f"FAILED {' '.join(result.argv)}: {'; '.join(result.problems)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_results),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
