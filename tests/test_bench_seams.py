"""The benchmark's tracer (perfbench/spans.py) patches module attributes by
name, and its set-up probe (perfbench/run.py) imports and calls the
program's start-up path. A refactor that drops or renames one of those
names breaks the benchmark but no other test, and the benchmark's own tests
(``python -m pytest perfbench``) take about 18 s outside this suite. These
fast checks read both files and change neither."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import nlsmarket.cli as cli
import nlsmarket.market as market
from nlsmarket import ModelConfig, run_simulation

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    spans = load_spans()
    missing = [f"{module}.{attr}" for module, attr, _ in spans.LAYER_SPANS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []

    # the market.adapter span is required of a traced market run: the run
    # packs its start state once, through the module attribute
    calls = []
    original = market.pack_state

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(market, "pack_state", counting)
    run_simulation(ModelConfig(n=8, t_end=1.0))
    assert len(calls) == 1


def test_market_run_calls_the_rhs_and_stencil_through_the_market_module(monkeypatch):
    # the traced market workloads require the market.coupled_rhs and
    # grid.second_difference spans, which the tracer opens by patching these
    # two attributes of nlsmarket.market: a run that inlines the stencil or
    # binds the rhs before the patch records neither
    calls = {"coupled_rhs": 0, "second_difference": 0}

    def counting(name):
        original = getattr(market, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(market, name, counting(name))
    run_simulation(ModelConfig(n=8, t_end=1.0))
    assert calls["coupled_rhs"] > 0
    assert calls["second_difference"] == calls["coupled_rhs"]


def run_fresh(script, tmp_path):
    """Run ``script`` in a fresh interpreter that imports nlsmarket from
    this checkout, with a small config file as its one argument."""
    config = tmp_path / "small.cfg"
    config.write_text("n = 8\nt_end = 1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, str(config)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)


def setup_probe():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SETUP_PROBE" for t in node.targets))


def test_setup_probe_runs(tmp_path):
    proc = run_fresh(setup_probe(), tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_runs_never_import_numpy_random(tmp_path):
    # init_state draws from its own PCG64; importing numpy.random raised a
    # fresh interpreter's peak RSS by 6.3 MB
    script = ("import sys\nfrom nlsmarket import cli\n"
              "assert cli.main(['run-market', '--config', sys.argv[1], '--out', 'run']) == 0\n"
              + setup_probe()
              + "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n")
    proc = run_fresh(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def manifest_counters(outdir):
    """The tracer's counter names read from one run directory: the
    manifest's step statistics, and one segment per snapshot row after
    the first of volatility_pdf.csv."""
    lines = (outdir / "manifest.txt").read_text().splitlines()
    stats = dict(l.strip().split(": ", 1) for l in lines[lines.index("stats:") + 1:]
                 if l.startswith("  "))
    rows = [l for l in (outdir / "volatility_pdf.csv").read_text().splitlines()
            if not l.startswith("#")]
    return {"accepted": int(stats["accepted"]), "rejected": int(stats["rejected"]),
            "rhs_evals": int(stats["rhs_evaluations"]), "segments": len(rows) - 2}


def test_traced_counters_agree_with_the_manifests(tmp_path):
    # perfbench reads a traced run's per-layer counts at the driver
    # boundary and checks them against the manifests; a run that counts
    # steps, RHS calls or snapshot segments past that boundary breaks it
    spans = load_spans()
    config = tmp_path / "small.cfg"
    config.write_text("n = 8\nt_end = 2\n")
    tracer, counters = spans.Tracer(), spans.Counters()
    with spans.Instrumented(tracer, counters):
        assert cli.main(["run-market", "--config", str(config),
                         "--out", str(tmp_path / "run")]) == 0
        run = counters.take()
        assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "sweep"),
                         "--seeds", "1,2"]) == 0
        sweep = counters.take()
    # residue_steps has no manifest counterpart
    expected = manifest_counters(tmp_path / "run")
    assert {key: run[key] for key in expected} == expected
    seeds = [manifest_counters(tmp_path / "sweep" / f"seed_{s}") for s in (1, 2)]
    assert {key: sweep[key] for key in expected} == {
        key: sum(c[key] for c in seeds) for key in expected}
    assert tracer.by_name()["cli.write"][0] == 3
