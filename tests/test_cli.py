import json

import numpy as np
import pytest

import qutrit_toffoli.cli as cli
import qutrit_toffoli.noise as noise
from qutrit_toffoli import gates, tomography
from qutrit_toffoli.tomography import ProjectionError

PIPELINES = ("truth-table", "table1-trace", "process-tomo", "certify")


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


def test_missing_config_file_exits_2(tmp_path, capsys):
    # every pipeline reads its config, table1-trace too, though it runs no noise
    for pipeline in PIPELINES:
        out = tmp_path / pipeline
        argv = [pipeline, "--output", str(out), "--noise", "custom"]
        assert run_cli(argv + ["--config", str(tmp_path / "absent.cfg")]) == 2
        assert "absent.cfg" in capsys.readouterr().err
        # the run failed, so no artifact directory was made
        assert not out.exists()


def test_bad_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("t1_q_us = 5\n")
    for pipeline in PIPELINES:
        out = tmp_path / pipeline
        argv = [pipeline, "--output", str(out), "--noise", "custom", "--config", str(config)]
        assert run_cli(argv) == 2
        assert "t1_q_us" in capsys.readouterr().err
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


def test_each_pipeline_compiles_the_channel_once(tmp_path, monkeypatch):
    # every compile, Choi matrix or truth table, is one batch through _evolve
    calls = []
    evolve = noise._evolve

    def counting_evolve(*args, **kwargs):
        calls.append(1)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(noise, "_evolve", counting_evolve)
    runs = (
        ["truth-table"],
        ["process-tomo", "--shots", "100", "--bootstrap", "10"],
        ["certify", "--samples", "500"],
        ["certify", "--exhaustive"],
    )
    for index, argv in enumerate(runs):
        calls.clear()
        assert run_cli(argv + ["--output", str(tmp_path / f"run{index}")]) == 0
        assert len(calls) == 1


def test_a_warm_op_checks_only_its_own_compile(tmp_path, monkeypatch):
    # the ideal target is built and checked once per process, so after a first
    # run an op makes one eigvalsh call: the physicality check of its compile
    runs = (["process-tomo"], ["truth-table"])
    for index, argv in enumerate(runs):
        assert run_cli(argv + ["--output", str(tmp_path / f"cold{index}")]) == 0
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for index, argv in enumerate(runs):
        calls.clear()
        assert run_cli(argv + ["--output", str(tmp_path / f"warm{index}")]) == 0
        assert len(calls) == 1


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

    monkeypatch.setattr(cli, "ml_projection", explode)
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["--version"])
    assert excinfo.value.code == 0
    assert "0.1.0" in capsys.readouterr().out
