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

import nlsmarket.market as market
from nlsmarket import ModelConfig, run_simulation

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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


def test_setup_probe_runs(tmp_path):
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    probe = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SETUP_PROBE" for t in node.targets))
    config = tmp_path / "small.cfg"
    config.write_text("n = 8\nt_end = 1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe, str(config)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
