import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qutrit_toffoli.cli as cli
import qutrit_toffoli.noise as noise
from qutrit_toffoli import certify, gates, tomography
from qutrit_toffoli.tomography import ProjectionError

PIPELINES = ("truth-table", "table1-trace", "process-tomo", "certify")
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_truth_table_pipeline(tmp_path, capsys):
    out = tmp_path / "tt"
    code = run_cli(["truth-table", "--output", str(out), "--noise", "device"])
    assert code == 0
    assert (out / "truth_table.csv").exists()
    data = read_json(out / "truth_table.json")
    assert data["noise"] == "device"
    assert len(data["populations"]) == 8
    assert data["basis"][0] == "000"
    total = sum(data["populations"][i][i] for i in range(8))
    # diagonal of the ideal permutation moves 010/011, so compare via fidelity
    assert 0.70 < data["fidelity"] < 0.92
    assert total > 0.70 * 8 - 2.0
    assert "truth-table: fidelity=" in capsys.readouterr().out


def test_truth_table_csv_round_trips(tmp_path):
    out = tmp_path / "ttcsv"
    assert run_cli(["truth-table", "--output", str(out)]) == 0
    lines = (out / "truth_table.csv").read_text().strip().split("\n")
    assert lines[0] == "output\\input,000,001,010,011,100,101,110,111"
    assert len(lines) == 9
    data = read_json(out / "truth_table.json")
    parsed = [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    flat_csv = [v for row in parsed for v in row]
    flat_json = [v for row in data["populations"] for v in row]
    assert flat_csv == pytest.approx(flat_json, abs=1e-10)


def test_truth_table_noiseless(tmp_path, capsys):
    out = tmp_path / "tt0"
    assert run_cli(["truth-table", "--output", str(out), "--noise", "ideal"]) == 0
    summary = capsys.readouterr().out
    assert "fidelity=1.000000" in summary


def test_table1_trace_pipeline(tmp_path, capsys):
    out = tmp_path / "trace"
    assert run_cli(["table1-trace", "--output", str(out)]) == 0
    data = read_json(out / "trajectory.json")
    steps = data["trajectories"]["110"]
    assert [s["step"] for s in steps] == ["initial", "xxAB", "xxBC", "xxAB"]
    # |110> hops to i|200> after the first exchange and returns at the end
    assert steps[0]["amplitudes"] == {"110": [1.0, 0.0]}
    assert steps[1]["amplitudes"] == {"200": [0.0, 1.0]}
    assert steps[3]["amplitudes"] == {"110": [1.0, 0.0]}
    assert data["circuit"]["total_duration_ns"] == pytest.approx(51.0)
    assert "table1-trace:" in capsys.readouterr().out


def test_process_tomo_pipeline(tmp_path, capsys):
    out = tmp_path / "tomo"
    code = run_cli(
        [
            "process-tomo",
            "--output",
            str(out),
            "--shots",
            "200",
            "--seed",
            "4",
            "--bootstrap",
            "20",
        ]
    )
    assert code == 0
    data = read_json(out / "process_tomo.json")
    assert data["shots"] == 200
    assert 0.0 < data["fidelity_ml"] <= 1.0
    assert data["bootstrap"]["low"] < data["bootstrap"]["high"]
    assert data["bootstrap"]["confidence"] == 0.90
    assert len(data["chi_ml"]["real"]) == 64
    assert len(data["basis"]) == 64
    assert "process-tomo: fidelity_ml=" in capsys.readouterr().out


def test_process_tomo_accepts_a_projection_just_above_unit_trace(tmp_path):
    # at this seed the CPTP projection ends at trace 1 + 1.2e-10, inside its
    # 1e-9 tolerance but above what ``checked_choi`` accepts
    argv = ["process-tomo", "--shots", "1000", "--seed", "8", "--output", str(tmp_path)]
    assert run_cli(argv) == 0


def test_process_tomo_exact_mode(tmp_path):
    out = tmp_path / "tomo0"
    assert run_cli(["process-tomo", "--output", str(out), "--noise", "ideal"]) == 0
    data = read_json(out / "process_tomo.json")
    assert data["fidelity_raw"] == pytest.approx(1.0, abs=1e-8)
    assert "bootstrap" not in data


def test_certify_monte_carlo(tmp_path, capsys):
    out = tmp_path / "cert"
    code = run_cli(
        ["certify", "--output", str(out), "--samples", "500", "--seed", "9"]
    )
    assert code == 0
    data = read_json(out / "certification.json")
    assert data["mode"] == "monte-carlo"
    assert data["samples"] == 500
    assert sum(s["draws"] for s in data["strings"]) == 500
    assert 0.5 < data["estimate"] < 1.0
    assert "certify: estimate=" in capsys.readouterr().out


def test_certify_exhaustive(tmp_path):
    out = tmp_path / "certx"
    assert run_cli(["certify", "--output", str(out), "--exhaustive"]) == 0
    data = read_json(out / "certification.json")
    assert data["mode"] == "exhaustive"
    assert data["relevant_strings"] == 232


ARTIFACT_RUNS = {
    "truth-table": (["truth-table"], ["truth_table.csv", "truth_table.json"]),
    "table1-trace": (["table1-trace"], ["trajectory.json"]),
    "process-tomo exact": (["process-tomo"], ["process_tomo.json"]),
    "process-tomo shots": (
        ["process-tomo", "--shots", "1000", "--seed", "5", "--bootstrap", "20"],
        ["process_tomo.json"],
    ),
    "process-tomo ideal": (["process-tomo", "--noise", "ideal"], ["process_tomo.json"]),
    "process-tomo bootstrap": (
        ["process-tomo", "--shots", "20", "--seed", "3", "--bootstrap", "200"],
        ["process_tomo.json"],
    ),
    "certify": (["certify"], ["certification.json"]),
    "certify exhaustive": (["certify", "--exhaustive"], ["certification.json"]),
}


@pytest.mark.parametrize("name", ARTIFACT_RUNS)
def test_json_artifacts_are_compact_sorted_lines(name, tmp_path):
    argv, files = ARTIFACT_RUNS[name]
    assert run_cli(argv + ["--output", str(tmp_path)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == files
    for path in tmp_path.glob("*.json"):
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        compact = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert text == compact + "\n"
    if argv == ["certify"]:  # the Monte Carlo default is recorded
        assert read_json(tmp_path / "certification.json")["samples"] == cli.MONTE_CARLO_SAMPLES


@pytest.mark.parametrize(
    "shots, seed, extra",
    [(0, 0, []), (1000, 5, []), (0, 0, ["--noise", "ideal"]), (1000, 5, ["--bootstrap", "200"])],
    ids=["0-0", "1000-5", "0-0-ideal", "1000-5-bootstrap"],
)
def test_chi_parses_back_bit_for_bit(shots, seed, extra, tmp_path):
    argv = ["process-tomo", "--shots", str(shots), "--seed", str(seed)] + extra
    assert run_cli(argv + ["--output", str(tmp_path)]) == 0
    data = read_json(tmp_path / "process_tomo.json")
    model = None if "ideal" in extra else noise.NoiseModel.from_device()
    choi = noise.circuit_choi(gates.toffoli_circuit(), model, spam_window_ns=gates.XY_PULSE_NS)
    raw_choi = tomography.choi_from_records(
        tomography.measure_output_records(choi, shots=shots, seed=seed)
    )
    estimates = {
        "chi_raw": tomography.chi_of_choi(raw_choi).matrix,
        "chi_ml": tomography.chi_of_choi(tomography.ml_projection(raw_choi)).matrix,
    }
    for key, chi in estimates.items():
        for part in ("real", "imag"):
            parsed = np.array(data[key][part], dtype=np.float64)
            assert parsed.tobytes() == getattr(chi, part).tobytes(), (key, part)


def dumps_reference(matrix):
    return json.dumps(
        {"real": matrix.real.tolist(), "imag": matrix.imag.tolist()},
        sort_keys=True,
        separators=(",", ":"),
    )


def complex_matrix(real, imag):
    matrix = np.empty(np.shape(real), dtype=complex)  # not real + 1j * imag, which drops -0.0
    matrix.real, matrix.imag = real, imag
    return matrix


HERMITIAN_JSON_CASES = {
    "signed zeros": complex_matrix(
        [[-0.0, 0.0, -0.0], [-0.0, 0.0, 0.0], [0.0, -0.0, -0.0]],
        [[0.0, -0.0, 0.0], [0.0, -0.0, -0.0], [0.0, 0.0, 0.0]],
    ),
    "mirrors differ in magnitude": complex_matrix([[1.0, 0.5], [0.25, 3.0]], [[0, 2.0], [-3.0, 0]]),
    "mirrors differ in sign only": complex_matrix([[1.0, -0.5], [0.5, 2.0]], [[0, 0.75], [0.75, 0]]),
    "exponent forms": complex_matrix(
        [[1e-05, -1e16, 2.0], [-1e16, -2.0, 5e-324], [1e-05, 5e-324, 1e300]],
        [[-2.2250738585072014e-308, 1e-07, -1e22], [-1e-07, 0.0, 3.0], [1e22, -3.0, 0.1]],
    ),
    "size 1": complex_matrix([[-0.7]], [[1e-05]]),
    "size 2 hermitian": complex_matrix([[0.1, -1 / 3], [-1 / 3, 0.2]], [[0, 2 / 3], [-2 / 3, 0]]),
}


@pytest.mark.parametrize("case", HERMITIAN_JSON_CASES)
def test_hermitian_json_writes_the_text_of_json_dumps(case):
    matrix = HERMITIAN_JSON_CASES[case]
    assert cli._hermitian_json(matrix) == dumps_reference(matrix)


@pytest.mark.parametrize("hermitian", [True, False])
def test_hermitian_json_of_a_64x64_matrix(hermitian):
    rng = np.random.default_rng(64)
    matrix = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    matrix *= 10.0 ** rng.integers(-20, 20, size=(64, 64))
    matrix[rng.random((64, 64)) < 0.2] = -0.0
    if hermitian:
        matrix = tomography.chi_of_choi(matrix).matrix
    assert cli._hermitian_json(matrix) == dumps_reference(matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_hermitian_json_rejects_non_finite_entries(bad):
    matrix = np.zeros((2, 2), dtype=complex)
    matrix[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cli._hermitian_json(matrix)


def test_custom_noise_config(tmp_path, capsys):
    config = tmp_path / "device.cfg"
    config.write_text(
        "# weak decay\n"
        "t1_a_us = 50\nt1_b_us = 50\nt1_c_us = 50\n"
        "t2star_a_us = 40\nt2star_b_us = 40\nt2star_c_us = 40\n"
    )
    out = tmp_path / "custom"
    code = run_cli(
        [
            "truth-table",
            "--output",
            str(out),
            "--noise",
            "custom",
            "--config",
            str(config),
        ]
    )
    assert code == 0
    summary = capsys.readouterr().out
    fidelity = float(summary.split("fidelity=")[1].split()[0])
    assert fidelity > 0.99  # far gentler than the device numbers


def test_no_spam_raises_fidelity(tmp_path, capsys):
    fidelities = {}
    for name, extra in [("spam", []), ("nospam", ["--no-spam"])]:
        out = tmp_path / name
        assert run_cli(["truth-table", "--output", str(out)] + extra) == 0
        summary = capsys.readouterr().out
        fidelities[name] = float(summary.split("fidelity=")[1].split()[0])
    assert fidelities["nospam"] > fidelities["spam"]


@pytest.mark.parametrize(
    "argv",
    [
        ["truth-table", "--noise", "custom"],  # custom needs a config file
        ["truth-table", "--config", "x.cfg"],  # config only valid with custom
        ["process-tomo", "--bootstrap", "10"],  # bootstrap needs shots
        ["certify", "--samples", "0"],
        ["process-tomo", "--shots", "-5"],
        ["certify", "--seed", "-1"],
        ["process-tomo", "--shots", "10", "--bootstrap", "-1"],
        ["process-tomo", "--shots", "10", "--bootstrap", "1"],  # no spread to take
        # counts beyond int64 overflowed numpy's samplers or looped without end
        ["process-tomo", "--shots", "99999999999999999999"],
        ["certify", "--shots", "99999999999999999999"],
        ["certify", "--samples", "99999999999999999999"],
        ["process-tomo", "--shots", "10", "--bootstrap", "99999999999999999999"],
        # exact pipelines draw no shots, so a shot count would be recorded unused
        ["truth-table", "--shots", "100"],
        ["table1-trace", "--shots", "5"],
        # table1-trace traces the noiseless phase core, so a model would be recorded unused
        ["table1-trace", "--noise", "custom", "--config", "x.cfg"],
        ["table1-trace", "--no-spam"],
        # exhaustive certification measures every relevant pair once, drawing no samples
        ["certify", "--exhaustive", "--samples", "5"],
        # the ideal channel has no decoherence windows to drop
        *([pipeline, "--noise", "ideal", "--no-spam"] for pipeline in PIPELINES),
        # shot counts whose int64 count sums could overflow: certify wrote an
        # estimate of -0.268 at 2**63 - 1 shots
        ["certify", "--shots", str(2**63 - 1)],
        ["certify", "--shots", str(2**60), "--exhaustive"],
        ["certify", "--shots", str((2**63 - 1) // 80 + 1), "--samples", "10"],
        ["process-tomo", "--shots", str((2**63 - 1) // 1952 + 1), "--bootstrap", "2"],
    ],
)
def test_invalid_configuration_exits_2(argv, tmp_path, capsys):
    code = run_cli(argv + ["--output", str(tmp_path / "bad")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err.lower()
    # the message names the flag at fault, not the library argument it feeds
    assert err.startswith("error: --") and err.split()[1] in argv
    assert err.count("\n") == 1  # one line, no traceback
    if "--bootstrap" in argv and argv[-1] in ("-1", "1"):
        assert err == "error: --bootstrap must be 0 or at least 2\n"
    assert not (tmp_path / "bad").exists()


# table1-trace rejects --config before reading it, as it applies no model
UNUSED_CONFIG = "error: --config is not used by table1-trace"


def test_missing_config_file_exits_2(tmp_path, capsys):
    # every pipeline that applies a model reads its config before it runs
    for pipeline in PIPELINES:
        out = tmp_path / pipeline
        argv = [pipeline, "--output", str(out), "--noise", "custom"]
        assert run_cli(argv + ["--config", str(tmp_path / "absent.cfg")]) == 2
        err = capsys.readouterr().err
        if pipeline == "table1-trace":
            assert err.startswith(UNUSED_CONFIG)
        else:
            assert "absent.cfg" in err
        # the run failed, so no artifact directory was made
        assert not out.exists()


def test_bad_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("t1_q_us = 5\n")
    for pipeline in PIPELINES:
        out = tmp_path / pipeline
        argv = [pipeline, "--output", str(out), "--noise", "custom", "--config", str(config)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        if pipeline == "table1-trace":
            assert err.startswith(UNUSED_CONFIG)
        else:
            assert "t1_q_us" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("t1_a_us = nan\n", 1),
        ("t1_b_us = 0.7\nt2star_a_us = nan\n", 2),
        ("# rate scales\ndeph_scale2 = 1.0\nrelax_scale2 = inf\n", 3),
    ],
)
def test_non_finite_config_value_exits_2(text, lineno, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    code = run_cli(
        [
            "truth-table",
            "--output",
            str(tmp_path / "o"),
            "--noise",
            "custom",
            "--config",
            str(config),
        ]
    )
    assert code == 2
    assert f"{config}:{lineno}: invalid number" in capsys.readouterr().err


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _forget_channels():
    """Empty the per-process channel memos, as in a fresh process."""
    cli._toffoli_choi.cache_clear()
    cli._toffoli_truth_table.cache_clear()
    certify._READOUT_MEMO.clear()


def _artifacts(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _write_config(path, t1_us):
    path.write_text("".join(f"t1_{site}_us = {t1_us}\n" for site in "abc"))


def test_each_pipeline_compiles_the_channel_once(tmp_path, monkeypatch):
    # every compile, Choi matrix or truth table, is one batch through _evolve;
    # a cold op compiles its channel once and a warm repeat neither compiles
    # nor checks anything, and writes the cold op's bytes
    evolves = _count_calls(monkeypatch, noise, "_evolve")
    checks = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    runs = (
        ["truth-table"],
        ["process-tomo"],
        ["process-tomo", "--shots", "100", "--bootstrap", "10"],
        ["certify", "--samples", "500"],
        ["certify", "--samples", "500", "--shots", "100", "--seed", "3"],
        ["certify", "--exhaustive"],
    )
    for index, argv in enumerate(runs):
        _forget_channels()
        evolves.clear()
        assert run_cli(argv + ["--output", str(tmp_path / f"cold{index}")]) == 0
        assert len(evolves) == 1
        evolves.clear()
        checks.clear()
        assert run_cli(argv + ["--output", str(tmp_path / f"warm{index}")]) == 0
        assert (len(evolves), len(checks)) == (0, 0)
        assert _artifacts(tmp_path / f"warm{index}") == _artifacts(tmp_path / f"cold{index}")


def test_a_warm_op_checks_only_its_own_compile(tmp_path, monkeypatch):
    # the ideal target is built and checked once per process, so an op on a
    # channel this process has not compiled in that form makes one compile
    # and one eigvalsh call, the physicality check of that compile
    _forget_channels()
    for index, argv in enumerate((["process-tomo"], ["certify"])):
        assert run_cli(argv + ["--output", str(tmp_path / f"first{index}")]) == 0
    config = tmp_path / "b.cfg"
    _write_config(config, 5)
    runs = (
        ["truth-table"],  # after a Choi compile of the same model
        ["certify", "--no-spam"],
        ["truth-table", "--noise", "ideal"],
        ["truth-table", "--noise", "custom", "--config", str(config)],
        ["certify", "--noise", "custom", "--config", str(config)],
    )
    evolves = _count_calls(monkeypatch, noise, "_evolve")
    checks = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    for index, argv in enumerate(runs):
        for stage, expected in (("new", 1), ("again", 0)):
            evolves.clear()
            checks.clear()
            assert run_cli(argv + ["--output", str(tmp_path / f"{stage}{index}")]) == 0
            assert (len(evolves), len(checks)) == (expected, expected), argv
        assert _artifacts(tmp_path / f"again{index}") == _artifacts(tmp_path / f"new{index}")


def test_a_changed_config_is_compiled_afresh(tmp_path):
    # the compile memo is keyed on the model's values, not on the config path
    _forget_channels()
    config = tmp_path / "noise.cfg"
    fidelities = []
    for index, t1_us in enumerate((5, 0.5, 5)):
        _write_config(config, t1_us)
        argv = ["truth-table", "--noise", "custom", "--config", str(config), "--seed", "7"]
        assert run_cli(argv + ["--output", str(tmp_path / f"run{index}")]) == 0
        fidelities.append(read_json(tmp_path / f"run{index}" / "truth_table.json")["fidelity"])
        model = noise.noise_model_from_config(noise.parse_config_file(config))
        direct = noise.circuit_truth_table(gates.toffoli_circuit(), model)
        assert fidelities[-1] == gates.truth_table_fidelity(direct)
    assert fidelities[0] == fidelities[2] > fidelities[1]
    assert _artifacts(tmp_path / "run2") == _artifacts(tmp_path / "run0")


def test_cached_ideal_chi_is_bit_equal_to_chi_of_unitary():
    # bench/run.py::_check_tomo compares process_tomo.json against this reference
    reference = tomography.chi_of_unitary(gates.ideal_toffoli_unitary()).matrix
    cached = cli._ideal_chi()
    assert cli._ideal_chi() is cached
    assert not cached.flags.writeable
    assert (cached.dtype, cached.shape) == (reference.dtype, reference.shape)
    assert cached.tobytes() == reference.tobytes()


def test_parser_is_built_once_across_main_calls(tmp_path):
    runs = (
        ["process-tomo", "--shots", "100", "--bootstrap", "10", "--seed", "3"],
        ["truth-table"],
    )
    cli.build_parser.cache_clear()
    for index, argv in enumerate(runs):
        assert run_cli(argv + ["--output", str(tmp_path / f"cached{index}")]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    tomo = read_json(tmp_path / "cached0" / "process_tomo.json")
    table = read_json(tmp_path / "cached1" / "truth_table.json")
    assert (tomo["shots"], tomo["seed"], tomo["bootstrap"]["resamples"]) == (100, 3, 10)
    assert (table["shots"], table["seed"], "bootstrap" in table) == (0, 0, False)
    assert table["fidelity"] == pytest.approx(0.8291283143984639, abs=1e-12)
    for index, argv in enumerate(runs):  # a freshly built parser writes the same bytes
        cli.build_parser.cache_clear()
        assert run_cli(argv + ["--output", str(tmp_path / f"fresh{index}")]) == 0
        for cached in (tmp_path / f"cached{index}").iterdir():
            assert cached.read_bytes() == (tmp_path / f"fresh{index}" / cached.name).read_bytes()


def test_exact_mode_device_reference_values(tmp_path):
    # device-noise headline numbers of the closure-per-input implementation
    assert run_cli(["truth-table", "--output", str(tmp_path / "tt")]) == 0
    table = read_json(tmp_path / "tt" / "truth_table.json")
    assert table["fidelity"] == pytest.approx(0.8291283143984639, abs=1e-12)
    assert run_cli(["process-tomo", "--output", str(tmp_path / "pt")]) == 0
    tomo = read_json(tmp_path / "pt" / "process_tomo.json")
    assert tomo["fidelity_raw"] == pytest.approx(0.72727020175006, abs=1e-12)
    assert tomo["fidelity_ml"] == pytest.approx(0.7272702017500599, abs=1e-12)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["frobnicate"])
    assert excinfo.value.code == 2


def test_projection_failure_exits_1(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ProjectionError("did not converge")

    # the runner looks the projection up in ``tomography`` when it is called
    monkeypatch.setattr(tomography, "ml_projection", explode)
    code = run_cli(
        [
            "process-tomo",
            "--output",
            str(tmp_path / "o"),
            "--shots",
            "50",
            "--seed",
            "1",
        ]
    )
    assert code == 1
    assert "did not converge" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# Prints the package's loaded modules, after one pipeline run if given its argv.
_LOADED_MODULES = """
import json, sys
import qutrit_toffoli
if sys.argv[1:]:
    from qutrit_toffoli import cli
    assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "qutrit_toffoli")))
"""


@pytest.mark.parametrize(
    "pipeline, extra",
    [
        (None, None),
        ("truth-table", ()),
        ("table1-trace", ()),
        ("process-tomo", ("tomography",)),
        ("certify", ("tomography", "certify")),
    ],
    ids=["bare-import", "truth-table", "table1-trace", "process-tomo", "certify"],
)
def test_a_pipeline_loads_only_the_modules_it_runs(tmp_path, pipeline, extra):
    # A fresh interpreter: a module another test imported must not count.
    argv = [] if pipeline is None else [pipeline, "--output", str(tmp_path / "o")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    if pipeline is None:  # a bare import loads no submodule
        assert loaded == ["qutrit_toffoli"]
    else:
        modules = ("cli", "gates", "noise", "register") + extra
        assert loaded == sorted(["qutrit_toffoli"] + [f"qutrit_toffoli.{m}" for m in modules])


def test_a_bootstrap_run_never_loads_numpy_ma(tmp_path):
    # np.quantile and np.unique import numpy.ma (14-17 ms and 1.5 MB on first
    # use); a fresh interpreter shows whether either crept back in
    script = (
        "import sys\nfrom qutrit_toffoli import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\nprint('numpy.ma' in sys.modules)"
    )
    argv = ["process-tomo", "--shots", "100", "--bootstrap", "10", "--output", str(tmp_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["--version"])
    assert excinfo.value.code == 0
    assert "0.1.0" in capsys.readouterr().out
