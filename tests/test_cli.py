import argparse
import hashlib
import itertools
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nlsmarket.cli as cli
from nlsmarket.cli import (
    CONFIG_KEYS,
    MARKET_FILES,
    STAGES,
    SURFACE_SCHEMA,
    TOLERANCES,
    TRACES_SCHEMA,
    OutputSet,
    _fmt,
    build_parser,
    config_from_values,
    config_pairs,
    load_config,
    main,
    parse_config_text,
    run_ladder,
    write_manifest,
    write_market_outputs,
    write_table,
)
from nlsmarket.errors import ConfigError, StiffnessError
from nlsmarket.grid import make_grid
from nlsmarket.integrator import StepControl, StepStats
from nlsmarket.market import ModelConfig, SimulationRecord, run_simulation

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
    assert load_config(None) == ModelConfig()


# finite and positive, from subnormal to near the top of the float range
positive = st.floats(min_value=5e-324, max_value=1e300)


@st.composite
def valid_configs(draw):
    """ModelConfigs that pass validation, each key drawn on its own."""
    h_min, h_init, h_max = sorted(draw(st.lists(positive, min_size=3, max_size=3)))
    stride = draw(positive)
    # bounds whose stencil coefficients s_k**2 / (2 ds**2) stay finite at any n <= 500
    s0 = draw(st.floats(min_value=-1e150, max_value=1e150))
    s1 = s0 + draw(st.floats(min_value=1e-150, max_value=1e150))
    assume(s1 > s0)
    control = StepControl(
        abs_tol=draw(positive),
        rel_tol=draw(positive),
        h_init=h_init,
        h_min=h_min,
        h_max=draw(st.sampled_from([None, h_max])),
        safety=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        max_steps=draw(st.integers(min_value=1, max_value=2**63)),
    )
    return ModelConfig(
        r=draw(st.floats(min_value=0.0, max_value=1e300)),
        c=draw(st.floats(min_value=0.0, max_value=1e300)),
        n=draw(st.integers(min_value=3, max_value=500)),
        s0=s0,
        s1=s1,
        # at most 1e4 strides, so snapshots x lines stays under the cell limit
        t_end=draw(st.floats(min_value=0.0, max_value=1e4)) * stride,
        seed=draw(st.integers(min_value=0, max_value=2**64)),
        control=control,
        snapshot_stride=stride,
    )


def assert_echo_round_trips(cfg):
    echo = "".join(f"{key} = {value}\n" for key, value in config_pairs(cfg))
    assert config_from_values(parse_config_text(echo)) == cfg


@pytest.mark.parametrize(
    "cfg",
    [ModelConfig(),
     ModelConfig(n=12, seed=7, snapshot_stride=0.25,
                 control=StepControl(abs_tol=1e-8, rel_tol=1e-7, h_max=0.05))],
    ids=["default", "explicit-h_max"],
)
def test_config_echo_parses_back_to_the_same_config(cfg):
    assert_echo_round_trips(cfg)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=valid_configs())
def test_config_echo_round_trips_any_valid_config(cfg):
    assert_echo_round_trips(cfg)


def test_readme_config_block_lists_every_key_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1]
    block = section.split("```", 2)[1]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
    assert tuple(keys) == CONFIG_KEYS


def manifest_section(text, name):
    """The indented lines under ``name:`` in a manifest, without their indent."""
    lines = text.split(f"\n{name}:\n", 1)[1].splitlines()
    return [l[2:] for l in itertools.takewhile(lambda l: l.startswith("  "), lines)]


def test_config_with_a_byte_order_mark_runs_like_one_without(tmp_path):
    text = b"t_end = 1\nn = 4\n"
    (tmp_path / "plain.cfg").write_bytes(text)
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text)
    echoes = []
    for name in ("plain", "bom"):
        out = tmp_path / name
        assert main(["run-market", "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(out)]) == 0
        echoes.append(manifest_section((out / "manifest.txt").read_text(), "config"))
    assert echoes[0] == echoes[1]
    assert "t_end: 1.0" in echoes[1] and "n: 4" in echoes[1]


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


def test_write_table_matches_per_value_fmt(tmp_path):
    rows = [EDGE_VALUES, [-x for x in reversed(EDGE_VALUES)]]
    table = np.array(rows)
    header = [f"c{i}" for i in range(len(EDGE_VALUES))]
    with OutputSet(tmp_path) as files:
        write_table(files, table[:, 0], "t.csv", "demo.v1", header,
                    lambda b: [table[b, 1:]], comments=["note"])
    digest = files.digests["t.csv"]
    expected = "# schema=demo.v1\n# note\n" + ",".join(header) + "\n"
    expected += "".join(",".join(_fmt(x) for x in row) + "\n" for row in rows)
    data = (tmp_path / "t.csv").read_bytes()
    assert data == expected.encode()
    assert digest == hashlib.sha256(data).hexdigest()
    assert "-0,nan,inf,-inf,4.9406564584124654e-324,0.33333333333333331,1e+22" in expected


def synthetic_record(n, rows):
    """A record of ``rows`` random snapshots laid out as run_simulation lays
    them out (sigma, psi and w are views of one packed store), with a zero
    in psi on every seventh row, whose log10 is -inf."""
    rng = np.random.default_rng(rows)
    store = rng.uniform(-1.0, 1.0, (rows, 5 * n))
    fields = store[:, : 4 * n].view(np.complex128)
    fields[::7, n] = 0.0
    return SimulationRecord(config=ModelConfig(n=n), times=np.arange(rows) * 0.5,
                            sigma=fields[:, :n], psi=fields[:, n:], w=store[:, 4 * n :],
                            g=rng.uniform(0.0, 1.0, (rows, n)), stats=StepStats())


def whole_table_texts(rec):
    """The six market tables formatted whole, one column_stack over the run
    and one join per table: the oracle for the streamed writer's bytes."""
    n = rec.config.n
    grid = make_grid(rec.config.s0, rec.config.s1, n)
    node_comment = "nodes=" + ",".join(_fmt(s) for s in grid.nodes)
    texts = {}

    def table(name, schema, header, columns, comments=()):
        lines = [f"# schema={schema}", *(f"# {c}" for c in comments), ",".join(header)]
        row_format = ",".join(["%.17g"] * len(header))
        lines += [row_format % tuple(row)
                  for row in np.column_stack((rec.times, *columns)).tolist()]
        texts[name] = "\n".join(lines) + "\n"

    surface_header = ["t"] + [_fmt(s) for s in grid.nodes]
    table("volatility_pdf.csv", SURFACE_SCHEMA, surface_header, [rec.sigma_pdf])
    psi_pdf = np.abs(rec.psi) ** 2
    table("price_pdf.csv", SURFACE_SCHEMA, surface_header, [psi_pdf])
    with np.errstate(divide="ignore"):
        log_pdf = np.log10(psi_pdf)
    table("price_pdf_log10.csv", SURFACE_SCHEMA, surface_header, [log_pdf])

    def traces(lines):
        header = ["t"] + [f"{part}_{k}" for k in lines for part in ("re", "im")]
        return header, [np.ascontiguousarray(rec.psi[:, lines]).view(np.float64)]

    table("psi_lines.csv", TRACES_SCHEMA, *traces(range(n)), comments=[node_comment])
    phase_lines = [n // 4, n // 2, (3 * n) // 4]
    table("psi_phase.csv", TRACES_SCHEMA, *traces(phase_lines),
          comments=[node_comment, "lines=" + ",".join(str(k) for k in phase_lines)])
    header = ["t"] + [f"w_{i}" for i in range(n)] + [f"g_{i}" for i in range(n)]
    table("weights_kernels.csv", TRACES_SCHEMA, header, [rec.w, rec.g])
    return texts


def test_market_writer_memory_does_not_grow_with_the_run(tmp_path):
    # traced peaks of the writer alone, n = 4: 0.09 MB at both 2,000 and
    # 20,000 rows when streamed, 2.0 and 20.0 MB when every table was held
    # whole (as rows, lines, joined text and encoded bytes)
    peaks = []
    for rows in (2_000, 20_000):
        rec = synthetic_record(4, rows)
        out = tmp_path / str(rows)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with OutputSet(out) as files:
                write_market_outputs(rec, files)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        digests = files.digests
        expected = whole_table_texts(rec)
        assert sorted(digests) == sorted(expected) == sorted(MARKET_FILES)
        for name, text in expected.items():
            data = (out / name).read_bytes()
            assert data == text.encode()
            assert digests[name] == hashlib.sha256(data).hexdigest()
    assert peaks[1] - peaks[0] < 1_000_000


def test_manifest_lists_exactly_the_files_staged_before_it(tmp_path):
    rec = synthetic_record(4, 3)
    with OutputSet(tmp_path) as files:
        write_market_outputs(rec, files)
        files.write("extra.txt", ["not a market table\n"])
        write_manifest(files, rec, "completed", 0.0)
    names = sorted(MARKET_FILES + ("extra.txt",))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["manifest.txt"])
    manifest = (tmp_path / "manifest.txt").read_text()
    assert manifest_section(manifest, "files") == [
        f"{name}: sha256={hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}"
        for name in names
    ]
    assert manifest_section(manifest, "config") == [
        f"{key}: {value}" for key, value in config_pairs(rec.config)
    ]


def test_failed_write_leaves_the_previous_run_intact(tmp_path, monkeypatch, capsys):
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
    capsys.readouterr()
    assert main(["run-market", "--config", str(cfg), "--out", str(out), "--seed", "6"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs: ")
    assert "no space left writing price_pdf_log10.csv" in err
    assert calls == DATA_FILES[:3]
    assert sorted(p.name for p in out.iterdir()) == names
    assert {name: (out / name).read_bytes() for name in names} == before


def test_failed_move_leaves_no_stale_manifest(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 2\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["run-market", "--config", str(cfg), "--out", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in DATA_FILES}

    # the next run's first file moves into place and its second move fails
    original = os.replace
    moved = []

    def failing_replace(src, dst):
        if moved:
            raise OSError(f"cannot replace {Path(dst).name}")
        original(src, dst)
        moved.append(Path(dst).name)

    monkeypatch.setattr(os, "replace", failing_replace)
    capsys.readouterr()
    assert main(["run-market", "--config", str(cfg), "--out", str(out), "--seed", "6"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs: ")
    assert f"cannot replace {DATA_FILES[1]}" in err
    assert moved == DATA_FILES[:1]
    # no manifest describes the mix, and the unmoved files are the old run's
    assert sorted(p.name for p in out.iterdir()) == sorted(DATA_FILES)
    assert (out / DATA_FILES[0]).read_bytes() != before[DATA_FILES[0]]
    assert all((out / name).read_bytes() == before[name] for name in DATA_FILES[1:])


def test_single_file_set_keeps_its_target_when_the_move_fails(tmp_path, monkeypatch):
    (tmp_path / "report.csv").write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("cannot replace")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        with OutputSet(tmp_path) as files:
            files.write("report.csv", "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
    assert (tmp_path / "report.csv").read_text() == "old\n"


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


def assert_same_run(a, b):
    """Directories a and b hold the same run: equal data files, and equal
    manifests apart from the wall-clock duration_seconds line."""
    for name in DATA_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    strip = lambda p: [
        l for l in p.read_text().splitlines() if not l.startswith("duration_seconds")
    ]
    assert strip(a / "manifest.txt") == strip(b / "manifest.txt")


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


def test_run_market_non_finite_derivative_fails_at_h_min(tmp_path, capsys):
    # a learning rate of 1e300 drives the derivative out of the float range
    # from the first step, so every attempt down to h_min is rejected
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 8\nt_end = 2\nc = 1e300\n")
    out = tmp_path / "f"
    assert main(["run-market", "--config", str(cfg), "--out", str(out)]) == 2
    message = "error norm inf not satisfiable at h_min=1e-10 (t=0.0)"
    assert capsys.readouterr().err == f"integration failure: {message}\n"
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert f"status: failed: {message}" in manifest
    for line in ("accepted: 0", "rejected: 9", "rhs_evaluations: 54"):
        assert f"  {line}" in manifest
    for name in DATA_FILES:
        _, data = read_csv_body(out / name)
        assert data.shape[0] == 1


def test_run_market_stiffness_failure_mid_run(tmp_path, capsys, stiff_third_segment):
    # three stops land before the third segment fails at h_min
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 8\nt_end = 5\n")
    out = tmp_path / "f"
    assert main(["run-market", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("integration failure: error norm ")
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert any(re.fullmatch(r"status: failed: error norm .* \(t=2\.0\)", l) for l in manifest)
    # the failed attempt counts on top of the two-day run's steps
    two_days = run_simulation(ModelConfig(n=8, t_end=2.0)).stats
    assert f"  accepted: {two_days.accepted}" in manifest
    assert f"  rejected: {two_days.rejected + 1}" in manifest
    for name in DATA_FILES:
        _, data = read_csv_body(out / name)
        assert data.shape[0] == 3


@pytest.mark.parametrize("stage", ["heat", "heat-potential", "linear"])
def test_fast_ladder_stages_pass(stage, tmp_path):
    assert main(["run-ladder", "--stage", stage, "--out", str(tmp_path)]) == 0
    report = (tmp_path / f"ladder_{stage}.csv").read_text()
    assert report.startswith("# schema=nlsmarket.ladder-report.v1")
    gate_rows = [l for l in report.splitlines() if l and not l.startswith("#")][1:]
    assert all(",true," in row for row in gate_rows[-1:])
    # every row is judged against the stage's one gate
    assert {float(row.split(",")[3]) for row in gate_rows} == {STAGES[stage][1]}


@pytest.mark.parametrize("stage", ["heat", "heat-potential", "linear"])
def test_ladder_report_counts_the_steps_of_each_tolerance(stage, tmp_path, monkeypatch):
    # the report's "# tolerance=" lines carry the StepStats of plain
    # integrate_adaptive runs of the stage's integrations, one per tolerance,
    # whether the stage runs its tolerances as members of one call or not
    calls = []
    real_members, real_adaptive = cli.integrate_members, cli.integrate_adaptive

    def members(rhs, t0, t1, y0s, controls):
        calls.extend((rhs, t0, t1, y0, ctl) for y0, ctl in zip(y0s, controls))
        return real_members(rhs, t0, t1, y0s, controls)

    def adaptive(rhs, t0, t1, y0, ctl, observer=None):
        calls.append((rhs, t0, t1, y0, ctl))
        return real_adaptive(rhs, t0, t1, y0, ctl, observer=observer)

    monkeypatch.setattr(cli, "integrate_members", members)
    monkeypatch.setattr(cli, "integrate_adaptive", adaptive)
    assert main(["run-ladder", "--stage", stage, "--out", str(tmp_path)]) == 0
    assert [ctl.abs_tol for *_, ctl in calls] == list(TOLERANCES)
    expected = []
    for rhs, t0, t1, y0, ctl in calls:
        stats = real_adaptive(rhs, t0, t1, y0, ctl)[1]
        expected.append(f"# tolerance={ctl.abs_tol:.10g} accepted={stats.accepted} "
                        f"rejected={stats.rejected} rhs_evaluations={stats.rhs_evaluations}")
    report = (tmp_path / f"ladder_{stage}.csv").read_text().splitlines()
    assert [l for l in report if l.startswith("# tolerance=")] == expected


def _stub_stage(*values):
    """A runner whose one metric reads values[i] at the i-th tolerance."""
    return lambda tolerances: [([("err", v, "x=0")], StepStats()) for v in values]


@pytest.mark.parametrize("runner, gate, code, passed, error", [
    # a heat gate below the stage's 5.5e-5 error fails it at both tolerances
    pytest.param(STAGES["heat"][0], 1e-6, 3, ["false", "false"],
                 r"stage heat: max_error=\S+ exceeds 1e-06 at x=\S+", id="heat-fails-both"),
    # only the tightest tolerance, the last of TOLERANCES, decides the exit code
    pytest.param(_stub_stage(2.0, 0.5), 1.0, 0, ["false", "true"], None,
                 id="loose-fails-tight-passes"),
    pytest.param(_stub_stage(0.5, 2.0), 1.0, 3, ["true", "false"],
                 r"stage heat: err=2 exceeds 1 at x=0", id="loose-passes-tight-fails"),
])
def test_ladder_exit_code_is_the_gate_at_the_tightest_tolerance(
        runner, gate, code, passed, error, tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(STAGES, "heat", (runner, gate))
    assert main(["run-ladder", "--stage", "heat", "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err.splitlines()
    if error is None:
        assert err == []
    else:
        assert len(err) == 1 and re.fullmatch(error, err[0])
    rows = [l.split(",") for l in (tmp_path / "ladder_heat.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    assert [row[0] for row in rows] == [f"{tol:.10g}" for tol in TOLERANCES]
    assert [row[3] for row in rows] == [f"{gate:.10g}"] * len(TOLERANCES)
    assert [row[4] for row in rows] == passed


def test_run_ladder_rejects_an_unknown_stage(tmp_path):
    # argparse's choices keep an unknown stage from the CLI; a direct call
    # meets run_ladder's own guard, which names every stage
    with pytest.raises(ConfigError, match="unknown ladder stage 'warp'") as info:
        run_ladder("warp", tmp_path / "out")
    assert all(repr(stage) in str(info.value) for stage in STAGES)
    assert not (tmp_path / "out").exists()


def test_ladder_integration_failure_exits_2_without_a_report(tmp_path, capsys, monkeypatch):
    def runner(tolerances):
        raise StiffnessError("error norm 3.5 not satisfiable at h_min=1e-10 (t=0.25)", t=0.25)

    monkeypatch.setitem(STAGES, "heat", (runner, STAGES["heat"][1]))
    out = tmp_path / "out"
    assert main(["run-ladder", "--stage", "heat", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "integration failure: error norm 3.5 not satisfiable at h_min=1e-10 (t=0.25)\n")
    assert not out.exists()


def test_price_call_output(capsys):
    rc = main([
        "price-call", "--spot", "100", "--strike", "100",
        "--rate", "0.05", "--sigma", "0.2", "--maturity", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert re.fullmatch(r"\d+\.\d{6}", out)
    assert out == "10.450584"


@pytest.mark.parametrize("rate", [["--rate", "-1e-3"], ["--rate=-1e-3"]],
                         ids=["two-tokens", "equals"])
def test_negative_exponent_is_the_flags_value(rate, capsys):
    assert main(["price-call", "--spot", "100", "--strike", "100", *rate,
                 "--sigma", "0.2", "--maturity", "1"]) == 0
    assert capsys.readouterr().out == "7.919627\n"


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


@pytest.mark.parametrize("failing", [("seed_2",), ("seed_2", "seed_3")],
                         ids=["one", "two"])
def test_sweep_tries_every_seed_and_raises_the_first_write_error(failing, tmp_path,
                                                                 monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 1\n")
    out = tmp_path / "sw"
    original = OutputSet.write
    tried = []

    def failing_write(self, name, text):
        # every write of a failing seed raises, so it leaves no file behind
        seed = self.outdir.name
        if seed not in tried:
            tried.append(seed)
        if seed in failing:
            raise OSError(f"no space left writing {seed}/{name}")
        return original(self, name, text)

    monkeypatch.setattr(OutputSet, "write", failing_write)
    rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--seeds", "1,2,3"])
    assert rc == 4
    # a failed seed does not stop the seeds after it
    assert tried == ["seed_1", "seed_2", "seed_3"]
    names = sorted(DATA_FILES + ["manifest.txt"])
    for seed in tried:
        written = sorted(p.name for p in (out / seed).iterdir())
        assert written == ([] if seed in failing else names)
    # the error reported is the first one in seed order
    err = capsys.readouterr().err
    assert err == ("error: cannot write outputs: no space left writing "
                   "seed_2/volatility_pdf.csv\n")


def test_sweep_exits_with_the_largest_code_over_its_seeds(tmp_path, capsys):
    # measured step attempts over t_end = 2: seed 1 87, seed 2 69, seed 3 66,
    # so only seed 1 exhausts a budget of 70; it runs second of three
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 2\nmax_steps = 70\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--seeds", "2,1,3"]) == 2
    status = {
        seed: [l for l in (out / f"seed_{seed}" / "manifest.txt").read_text().splitlines()
               if l.startswith("status: ")]
        for seed in (1, 2, 3)
    }
    assert status[1][0].startswith("status: failed: step budget of 70 exhausted")
    assert status[2] == status[3] == ["status: completed"]
    assert capsys.readouterr().err.startswith("integration failure: step budget of 70")


def test_sweep_seed_matches_a_standalone_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 2\nsnapshot_stride = 0.5\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--seeds", "7,3",
                 "--workers", "2"]) == 0
    for seed in ("7", "3"):
        alone = tmp_path / f"alone_{seed}"
        assert main(["run-market", "--config", str(cfg), "--out", str(alone),
                     "--seed", seed]) == 0
        assert_same_run(out / f"seed_{seed}", alone)


RUN = ["run-market", "--config", "{cfg}", "--out", "{out}"]
SWEEP = ["sweep", "--config", "{cfg}", "--out", "{out}"]


def price_call(**flags):
    """price-call argv for the 100/100/0.05/0.2/1 call with ``flags`` replaced,
    each written as the two tokens --flag value."""
    values = {"spot": 100, "strike": 100, "rate": 0.05, "sigma": 0.2, "maturity": 1, **flags}
    return ["price-call", *(token for key, value in values.items()
                            for token in (f"--{key.replace('_', '-')}", str(value)))]


NON_FINITE = [("r", "nan"), ("c", "inf"), ("t_end", "nan"), ("t_end", "inf"),
              ("abs_tol", "nan"), ("h_max", "nan"), ("snapshot_stride", "nan")]
PRICE_NON_FINITE = [("spot", "nan"), ("spot", "inf"), ("strike", "nan"), ("rate", "nan"),
                    ("rate", "-inf"), ("sigma", "nan"), ("valuation_time", "nan"),
                    ("maturity", "inf")]

case = pytest.param
# (config file bytes or None, argv with {cfg} and {out} placeholders, message)
REFUSALS = [
    case(b"h_max = 1e-4\n", RUN, "need h_init <= h_max",  # below the default h_init
         id="h_max-below-h_init"),
    case(b"max_steps = 0\n", RUN, "max_steps must be at least 1", id="max_steps-zero"),
    case(b"s0 = 10\ns1 = 5\n", RUN, "price bounds must satisfy s1 > s0", id="price-bounds"),
    case(b"t_end = 1\n", SWEEP + ["--seeds", "1,x"], "bad --seeds list", id="bad-seeds"),
    case(b"n = 30 # caf\xe9\n", RUN, "can't decode byte 0xe9",  # Latin-1, not UTF-8
         id="not-utf8"),
    case(b"n = 30 # caf\xe9\n", SWEEP + ["--seeds", "1"], "can't decode byte 0xe9",
         id="not-utf8-sweep"),
    # stencil coefficients 0.5 / ds**2 or s_k**2 * (0.5 / ds**2) that are not finite
    case(b"s0 = 0\ns1 = 1e-300\nt_end = 2\n", RUN, "[0.0, 1e-300] at n=30 give a non-finite",
         id="ds-squared-underflows"),
    case(b"s0 = 0\ns1 = 1e160\nt_end = 2\n", RUN, "[0.0, 1e+160] at n=30 give a non-finite",
         id="ds-squared-overflows"),
    case(b"s0 = -1e200\ns1 = 1e200\nt_end = 2\n", RUN, "[-1e+200, 1e+200] at n=30",
         id="wide-bounds"),
    case(b"s0 = 0\ns1 = 1e-160\nt_end = 2\n", RUN, "[0.0, 1e-160] at n=30 give a non-finite",
         id="coefficient-overflows"),
    case(b"s0 = -1e308\ns1 = 1e308\nt_end = 2\n", RUN, "[-1e+308, 1e+308] at n=30",
         id="width-overflows"),
    case(b"t_end = 1\nseed = -1\n", RUN, "seed must be non-negative", id="negative-seed-config"),
    case(b"t_end = 1\n", RUN + ["--seed", "-1"], "seed must be non-negative",
         id="negative-seed-flag"),
    case(b"t_end = 1\n", SWEEP + ["--seeds", "1,-2"], "seed must be non-negative",
         id="negative-seed-sweep"),
    case(b"t_end = 1\n", SWEEP + ["--seeds", "-1,2"], "seed must be non-negative",
         id="negative-first-seed"),
    case(b"t_end = 1\n", SWEEP + ["--seeds", "1,2,1,1", "--workers", "4"], "repeats seed(s) 1",
         id="repeated-seeds"),
    case(b"t_end = 1\n", SWEEP + ["--seeds", ",".join(map(str, [*range(50000), 0]))],
         "repeats seed(s) 0", id="repeat-among-50000-seeds"),
    case(b"t_end = 1\n", SWEEP + ["--seeds", "3", "--workers", "0"],
         "--workers must be at least 1", id="workers-0"),
    case(b"t_end = 1\n", SWEEP + ["--seeds", "3", "--workers", "-1"],
         "--workers must be at least 1", id="workers--1"),
    *(case(f"{key} = {value}\n".encode(), RUN, f"{key} must be finite", id=f"{key}-{value}")
      for key, value in NON_FINITE),
    # 1e12 daily snapshots: refused before the first step, not after a doomed
    # integration has filled memory with them
    case(b"t_end = 1e12\nsnapshot_stride = 1\n", RUN, "output cell limit", id="absurd-horizon"),
    case(None, ["run-market", "--config", "/no/such/file.cfg", "--out", "{out}"],
         "cannot read config /no/such/file.cfg", id="missing-config"),
    case(b"bogus = 1\n", RUN, "line 1: unknown config key 'bogus'", id="unknown-key"),
    case(b"n = twelve\n", RUN, "line 1: bad value for 'n'", id="bad-value"),
    case(b"n = 5\nn = 6\n", RUN, "line 2: duplicate config key 'n'", id="duplicate-key"),
    case(b"just words\n", RUN, "line 1: expected 'key = value'", id="no-equals-sign"),
    case(b"r = -0.1\n", RUN, "interest rate must be non-negative", id="negative-rate"),
    case(b"c = -1\n", RUN, "learning rate must be non-negative", id="negative-learning-rate"),
    case(b"n = 2\n", RUN, "need at least 3 lines, got n=2", id="two-lines"),
    case(b"t_end = -1\n", RUN, "horizon must be non-negative", id="negative-horizon"),
    case(b"snapshot_stride = 0\n", RUN, "snapshot stride must be positive", id="stride-zero"),
    case(b"abs_tol = 0\n", RUN, "tolerances must be positive", id="abs_tol-zero"),
    case(b"h_min = 1e-2\n", RUN, "need 0 < h_min <= h_init", id="h_min-above-h_init"),
    case(b"safety = 1.5\n", RUN, "safety factor must lie in (0, 1)", id="safety-above-1"),
    case(b"t_end = 1\n", SWEEP + ["--seeds", ""], "--seeds must name at least one seed",
         id="no-seeds"),
    case(None, ["run-market"], "required: --out", id="no-out"),
    case(None, ["no-such-command"], "invalid choice: 'no-such-command'", id="unknown-command"),
    # run-ladder runs its own tolerance ladder and gate, and reads no config
    case(b"abs_tol = 1e-7\n", ["run-ladder", "--stage", "heat", "--out", "{out}",
                                "--config", "{cfg}"],
         "unrecognized arguments: --config", id="ladder-config"),
    case(None, ["run-ladder", "--stage", "heat", "--out", "{out}", "--tolerance", "1e-3"],
         "unrecognized arguments: --tolerance", id="ladder-tolerance"),
    case(None, ["run-ladder", "--stage", "warp", "--out", "{out}"], "invalid choice: 'warp'",
         id="unknown-stage"),
    case(None, price_call(spot=-1), "spot must be positive", id="price-negative-spot"),
    case(None, price_call(strike=0), "strike must be positive", id="price-zero-strike"),
    case(None, price_call(sigma=-0.2), "sigma must be positive", id="price-negative-sigma"),
    case(None, price_call(valuation_time=2), "maturity 1.0 must exceed valuation time 2.0",
         id="price-valuation-after-maturity"),
    *(case(None, price_call(**{key: value}), f"{key} must be finite",
           id=f"price-{key}-{value}")
      for key, value in PRICE_NON_FINITE),
    # finite inputs whose closed form overflows, takes the log of an
    # underflowed ratio, or has an infinite tau (and so a NaN price)
    *(case(None, price_call(**flags), "leaves the float range", id=f"price-{name}")
      for name, flags in [
          ("exp-overflow", {"rate": -1000}),
          ("sigma-squared-overflow", {"sigma": 1e300}),
          ("log-of-underflow", {"spot": 1e-300, "strike": 1e300, "sigma": 1e-300}),
          ("infinite-tau", {"maturity": 1e308, "valuation_time": -1e308})]),
]


@pytest.mark.parametrize("config, argv, message", REFUSALS)
def test_config_error_exits_1_with_one_error_line(config, argv, message, tmp_path, capsys):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    if config is not None:
        cfg.write_bytes(config)
    started = time.perf_counter()
    assert main([arg.format(cfg=cfg, out=out) for arg in argv]) == 1
    # each refusal comes before any integration, so it takes milliseconds
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""
    assert not out.exists()


def _subcommands():
    """Subcommand name -> its long options, --help aside."""
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {opt for a in sub._actions for opt in a.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, sub in action.choices.items()
    }


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_readme_command_line_shows_every_flag(command):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    usage = [line for line in block.splitlines() if line.startswith("nlsmarket ")]
    assert sorted(line.split()[1] for line in usage) == sorted(_subcommands())
    (line,) = [line for line in usage if line.split()[1] == command]
    assert set(re.findall(r"--[a-z][a-z-]*", line)) == _subcommands()[command]


def test_sweep_runs_on_one_worker_by_default():
    # the seeds always run one after another on the calling thread; --workers
    # is accepted and validated, and its default stays 1 for existing commands
    args = build_parser().parse_args(["sweep", "--out", "sw", "--seeds", "1,2"])
    assert args.workers == 1


def test_console_entry_point(tmp_path):
    # the child imports nlsmarket from this checkout, installed or not
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nlsmarket.cli", "price-call", "--spot", "100",
         "--strike", "90", "--rate", "0.03", "--sigma", "0.25", "--maturity", "0.5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert re.fullmatch(r"\d+\.\d{6}\n", proc.stdout)


def test_package_version_is_defined_once():
    # pyproject takes the version that the manifest and --version print
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "nlsmarket.__version__"
    }
