"""Tests of the benchmark itself: python3 -m pytest perfbench

They run every workload in smoke mode (tiny horizons), so they check the
machinery and the output contract, not performance.
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer, _union_length  # noqa: E402
from workloads import SWEEP_POOL, WORKLOADS, stored_reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=root)


def test_self_time_subtracts_children():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        child()
        child()

    tracer.wrap("parent", body)()
    spans = tracer.spans()
    calls, total, self_s = spans[("parent", None)]
    assert calls == 1 and total >= 0.05
    assert spans[("child", "parent")][0] == 2
    assert self_s == pytest.approx(total - spans[("child", "parent")][1], abs=1e-9)


def test_worker_thread_spans_attach_to_the_outer_span():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: time.sleep(0.05))

    def fan_out():
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.wrap("main", fan_out)()
    spans = tracer.spans()
    assert spans[("work", "main")][0] == 2
    # the two workers overlap, so the parent subtracts their union, not their sum
    assert 0.0 <= spans[("main", None)][2] < 0.03


def test_union_length():
    assert _union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.3",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".perfbench_out").exists()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, "--workload", "ladder", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_stored_references_match_the_workloads():
    market = WORKLOADS["market-default"](0, False)
    sweep = WORKLOADS["sweep-dense"](0, False)
    jobs = [(market.values, s, market.every) for s in market.seeds]
    jobs += [(sweep.values, s, sweep.every) for s in SWEEP_POOL]
    for values, seed, every in jobs:
        ref = stored_reference(values, seed, every)
        assert ref is not None, f"rerun make_refs.py: no stored reference for seed {seed}"
        assert ref["times"][0] == 0.0 and ref["times"][-1] == values["t_end"]
