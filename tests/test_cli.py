import hashlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from nlsmarket import ConfigError, ModelConfig, StepControl
from nlsmarket.cli import (
    MARKET_FILES,
    OutputSet,
    _fmt,
    config_from_values,
    config_pairs,
    load_config,
    main,
    parse_config_text,
    run_ladder,
    write_table,
)

DATA_FILES = list(MARKET_FILES)


def read_csv_body(path):
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    return header, data


def test_parse_config_text():
    values = parse_config_text("n = 12\nt_end = 3.5  # horizon\n\n# comment\nseed=9\n")
    assert values == {"n": 12, "t_end": 3.5, "seed": 9}
    cfg = config_from_values(values)
    assert cfg.n == 12 and cfg.t_end == 3.5 and cfg.seed == 9

    with pytest.raises(ConfigError):
        parse_config_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("n = twelve\n")
    with pytest.raises(ConfigError):
        parse_config_text("n = 5\nn = 6\n")
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")


@pytest.mark.parametrize(
    "cfg",
    [ModelConfig(),
     ModelConfig(n=12, seed=7, snapshot_stride=0.25,
                 control=StepControl(abs_tol=1e-8, rel_tol=1e-7, h_max=0.05))],
    ids=["default", "explicit-h_max"],
)
def test_config_echo_parses_back_to_the_same_config(cfg):
    echo = "".join(f"{key} = {value}\n" for key, value in config_pairs(cfg))
    assert config_from_values(parse_config_text(echo)) == cfg


def test_absurd_horizon_fails_fast(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 1e12\nsnapshot_stride = 1\n")
    out = tmp_path / "out"
    started = time.perf_counter()
    assert main(["run-market", "--config", str(cfg), "--out", str(out)]) == 1
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/no/such/file.cfg")


def test_run_market_artifacts(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 4\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["run-market", "--config", str(cfg), "--out", str(out)]) == 0

    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(DATA_FILES + ["manifest.txt"])
    for name in DATA_FILES:
        text = (out / name).read_text()
        assert text.startswith("# schema=nlsmarket.")
        body = [l for l in text.splitlines() if not l.startswith("#")]
        values = [float(x) for row in body[1:] for x in row.split(",")]
        assert all(np.isfinite(values))

    header, vol = read_csv_body(out / "volatility_pdf.csv")
    assert header[0] == "t"
    assert len(header) == 31  # t plus 30 nodes
    assert vol.shape == (5, 31)
    assert np.array_equal(vol[:, 0], [0.0, 1.0, 2.0, 3.0, 4.0])

    # manifest digests must match the files on disk
    manifest = (out / "manifest.txt").read_text()
    assert "status: completed" in manifest
    assert "prng: numpy.random.default_rng(PCG64(seed))" in manifest
    assert "seed: 5" in manifest
    for name in DATA_FILES:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert f"{name}: sha256={digest}" in manifest


EDGE_VALUES = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1 / 3, 1e22]


@pytest.mark.parametrize("kind", [float, np.float64])
def test_write_table_matches_per_value_fmt(kind, tmp_path):
    rows = [[kind(x) for x in EDGE_VALUES], [kind(-x) for x in reversed(EDGE_VALUES)]]
    header = [f"c{i}" for i in range(len(EDGE_VALUES))]
    with OutputSet(tmp_path) as files:
        digest = write_table(files, "t.csv", "demo.v1", header, rows, comments=["note"])
    expected = "# schema=demo.v1\n# note\n" + ",".join(header) + "\n"
    expected += "".join(",".join(_fmt(x) for x in row) + "\n" for row in rows)
    data = (tmp_path / "t.csv").read_bytes()
    assert data == expected.encode()
    assert digest == hashlib.sha256(data).hexdigest()
    assert "-0,nan,inf,-inf,4.9406564584124654e-324,0.33333333333333331,1e+22" in expected


def test_failed_write_leaves_the_previous_run_intact(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 2\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["run-market", "--config", str(cfg), "--out", str(out)]) == 0
    names = sorted(DATA_FILES + ["manifest.txt"])
    assert sorted(p.name for p in out.iterdir()) == names  # no temp file left
    before = {name: (out / name).read_bytes() for name in names}

    # the third artifact of the next run is staged and then its write fails
    original = OutputSet.write
    calls = []

    def failing_write(self, name, text):
        digest = original(self, name, text)
        calls.append(name)
        if len(calls) == 3:
            raise OSError(f"no space left writing {name}")
        return digest

    monkeypatch.setattr(OutputSet, "write", failing_write)
    with pytest.raises(OSError, match="no space left"):
        main(["run-market", "--config", str(cfg), "--out", str(out), "--seed", "6"])
    assert calls == DATA_FILES[:3]
    assert sorted(p.name for p in out.iterdir()) == names
    assert {name: (out / name).read_bytes() for name in names} == before


def test_run_market_zero_horizon(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 0\n")
    out = tmp_path / "z"
    assert main(["run-market", "--config", str(cfg), "--out", str(out)]) == 0
    _, vol = read_csv_body(out / "volatility_pdf.csv")
    assert vol.shape[0] == 1
    assert np.all(vol[0, 1:] == 0.0625)
    _, price = read_csv_body(out / "price_pdf.csv")
    assert np.all(price[0, 1:] == 1.0)


def test_run_market_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 3\nseed = 21\n")
    assert main(["run-market", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run-market", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for name in DATA_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    strip = lambda p: [
        l for l in p.read_text().splitlines() if not l.startswith("duration_seconds")
    ]
    assert strip(tmp_path / "a" / "manifest.txt") == strip(tmp_path / "b" / "manifest.txt")


def test_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 2\nseed = 1\n")
    main(["run-market", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run-market", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2"])
    assert (
        (tmp_path / "a" / "weights_kernels.csv").read_bytes()
        != (tmp_path / "b" / "weights_kernels.csv").read_bytes()
    )


def test_run_market_budget_failure(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 5\nmax_steps = 40\n")
    out = tmp_path / "f"
    assert main(["run-market", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = (out / "manifest.txt").read_text()
    assert "status: failed: step budget of 40 exhausted" in manifest
    # partial outputs are retained
    _, vol = read_csv_body(out / "volatility_pdf.csv")
    assert vol.shape[0] >= 1


@pytest.mark.parametrize("stage", ["heat", "heat-potential", "linear"])
def test_fast_ladder_stages_pass(stage, tmp_path):
    assert main(["run-ladder", "--stage", stage, "--out", str(tmp_path)]) == 0
    report = (tmp_path / f"ladder_{stage}.csv").read_text()
    assert report.startswith("# schema=nlsmarket.ladder-report.v1")
    gate_rows = [l for l in report.splitlines()[3:] if l]
    assert all(",true," in row for row in gate_rows[-1:])


def test_nls_ladder_stage_passes(tmp_path):
    rc = run_ladder("nls", tmp_path, tolerances=(1e-8,))
    assert rc == 0
    report = (tmp_path / "ladder_nls.csv").read_text()
    dev = float(
        re.search(r"max_modulus_deviation,([0-9.e+-]+)", report).group(1)
    )
    assert dev < 1e-3


def test_ladder_gate_override_forces_failure(tmp_path, capsys):
    rc = main(["run-ladder", "--stage", "heat", "--out", str(tmp_path), "--tolerance", "1e-6"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "max_error" in err and "x=" in err  # failure names the location


def test_unknown_stage_is_usage_error(tmp_path):
    assert main(["run-ladder", "--stage", "warp", "--out", str(tmp_path)]) == 1


def test_price_call_output(capsys):
    rc = main([
        "price-call", "--spot", "100", "--strike", "100",
        "--rate", "0.05", "--sigma", "0.2", "--maturity", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert re.fullmatch(r"\d+\.\d{6}", out)
    assert out == "10.450584"


def test_price_call_bad_params():
    rc = main([
        "price-call", "--spot", "-1", "--strike", "100",
        "--rate", "0.05", "--sigma", "0.2", "--maturity", "1",
    ])
    assert rc == 1


def test_usage_error_exit_code():
    assert main(["run-market"]) == 1
    assert main(["no-such-command"]) == 1


def test_sweep_runs_each_seed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 2\n")
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--seeds", "3,4", "--workers", "2"])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["seed_3", "seed_4"]
    a = (out / "seed_3" / "weights_kernels.csv").read_bytes()
    b = (out / "seed_4" / "weights_kernels.csv").read_bytes()
    assert a != b
    assert main(["sweep", "--out", str(out), "--seeds", ""]) == 1


def test_sweep_rejects_repeated_seeds(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 1\n")
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--seeds", "1,2,1,1",
               "--workers", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "repeats seed(s) 1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("r", "nan"), ("c", "inf"), ("t_end", "nan"), ("t_end", "inf"),
     ("abs_tol", "nan"), ("h_max", "nan"), ("snapshot_stride", "nan")],
)
def test_non_finite_config_value_is_config_error(key, value, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["run-market", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_worker_count_below_one(workers, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 1\n")
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--seeds", "3",
               "--workers", workers])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nlsmarket.cli", "price-call", "--spot", "100",
         "--strike", "90", "--rate", "0.03", "--sigma", "0.25", "--maturity", "0.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert re.fullmatch(r"\d+\.\d{6}\n", proc.stdout)
