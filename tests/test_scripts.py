"""The measuring scripts under scripts/, loaded by path: bench_pairs.py's
clean copy of a source tree and its verdicts, which carry every perf claim,
compare_artifacts.py's per-file verdicts, which carry every byte claim, and
work_precision.py's frontier rows."""

import functools
import importlib.util
import shutil
from pathlib import Path

import pytest

import nlsmarket.market
from nlsmarket import cli
from nlsmarket.integrator import StepControl

from oracles import oracle_errors

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_copies_source_without_caches_or_output(tmp_path):
    bench_pairs = load_script("bench_pairs")
    tree = tmp_path / "tree"
    package = tree / "src" / "nlsmarket"
    (package / "__pycache__").mkdir(parents=True)
    (package / "cli.py").write_text("X = 1\n")
    (package / "__pycache__" / "x.pyc").write_bytes(b"\0")
    (package / "stray.pyc").write_bytes(b"\0")
    (tree / "perfbench" / ".perfbench_out").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text("print()\n")
    (tree / "perfbench" / ".perfbench_out" / "manifest.txt").write_text("old run\n")
    (tree / "BENCHMARK.json").write_text("{}\n")
    (tree / "README.md").write_text("not read by run.py\n")

    copy = bench_pairs.clean_copy(tree, tmp_path / "copy")
    copied = sorted(p.relative_to(copy).as_posix() for p in copy.rglob("*"))
    assert copied == ["BENCHMARK.json", "perfbench", "perfbench/run.py", "src",
                      "src/nlsmarket", "src/nlsmarket/cli.py"]
    assert (copy / "src" / "nlsmarket" / "cli.py").read_text() == "X = 1\n"


def test_compare_artifacts_runs_every_ladder_stage():
    assert load_script("compare_artifacts").STAGES == tuple(sorted(cli.STAGES))


def test_compare_artifacts_writes_no_bytecode_into_the_tree(tmp_path, monkeypatch):
    compare_artifacts = load_script("compare_artifacts")
    tree = tmp_path / "tree"
    shutil.copytree(SCRIPTS.parent / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setattr(compare_artifacts, "RUNS",
                        {"ladder-linear": (None, ["run-ladder", "--stage", "linear"])})
    (tmp_path / "work").mkdir()
    assert compare_artifacts.run_all(tree, tmp_path / "work") == {"ladder-linear": 0}
    assert (tmp_path / "work" / "ladder-linear" / "ladder_linear.csv").is_file()
    assert not list(tree.rglob("__pycache__"))


def test_work_precision_row_holds_the_oracle_errors_of_its_run(monkeypatch):
    monkeypatch.setattr(nlsmarket.market, "ModelConfig",
                        functools.partial(nlsmarket.market.ModelConfig, t_end=2.0))
    row = load_script("work_precision").measure(1e-6)
    rec = nlsmarket.market.run_simulation(
        nlsmarket.market.ModelConfig(control=StepControl(abs_tol=1e-6, rel_tol=1e-6)))
    assert row == {"tol": 1e-6, "rhs_evaluations": rec.stats.rhs_evaluations,
                   "accepted": rec.stats.accepted, "rejected": rec.stats.rejected,
                   **{f"{field}_err": err for field, err in oracle_errors(rec).items()}}


@pytest.fixture(scope="module")
def compare_file():
    return load_script("compare_artifacts").compare_file


def write_pair(tmp_path, name, parent_text, change_text):
    paths = []
    for side, text in (("parent", parent_text), ("change", change_text)):
        (tmp_path / side).mkdir(exist_ok=True)
        paths.append(tmp_path / side / name)
        if text is not None:
            paths[-1].write_text(text)
    return paths


TABLE = "# schema=demo.v1\nt,x\n0,1.0\n1,2.0\n"
MANIFEST = "status: completed\nduration_seconds: 1.25\nseed: 42\n"


@pytest.mark.parametrize("name, parent_text, change_text, verdict, same", [
    ("t.csv", TABLE, TABLE, "identical", True),
    ("manifest.txt", MANIFEST, MANIFEST.replace("1.25", "3.5"),
     "identical without duration_seconds", True),
    ("manifest.txt", MANIFEST, MANIFEST.replace("42", "43"),
     "differs: 'seed: 42' -> 'seed: 43'", False),
    ("t.csv", TABLE, TABLE.replace("0,1.0", "0,1.5"), "max |delta| 0.5", False),
    ("t.csv", TABLE, TABLE.replace("t,x", "t,y"), "max |delta| 0, text differs", False),
    ("t.csv", TABLE, TABLE + "2,3.0\n", "data rows 3 -> 4", False),
    ("t.csv", TABLE, TABLE.replace("t,x", "# a=1\n# b=2\nt,x"),
     "comment lines +2 -0, data rows identical", False),
    ("t.csv", TABLE, TABLE.replace("demo.v1", "demo.v2").replace("0,1.0", "0,1.5"),
     "comment lines +1 -1, max |delta| 0.5", False),
    ("t.csv", None, TABLE, "missing in parent", False),
    ("t.csv", TABLE, None, "missing in change", False),
])
def test_compare_file_verdicts(compare_file, tmp_path, name, parent_text, change_text,
                               verdict, same):
    parent, change = write_pair(tmp_path, name, parent_text, change_text)
    assert compare_file(parent, change) == (verdict, same)


def synthetic_pairs(parent, change, failed=(0, 0)):
    """Pairs of runs that each attempted 10 operations and read one metric
    ``m``; the first pair carries the (parent, change) failures."""
    return [{side: {"attempted": 10, "failed": failed[k] if i == 0 else 0,
                    "metrics": {"m": {"value": value}}}
             for k, (side, value) in enumerate((("parent", p), ("change", c)))}
            for i, (p, c) in enumerate(zip(parent, change))]


STEADY = [1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.01]  # IQR 0.02
SPREAD = [1.0, 1.2] * 5  # IQR 0.2, under the bound 0.25 x median 1.1
WIDE = [1.0, 1.6] * 5  # IQR 0.6, over the bound 0.25 x median 1.3


@pytest.mark.parametrize("parent, change, better, failed, markers, better_pairs", [
    (STEADY, [0.8] * 9 + [1.05], "lower", (0, 0), ["CLAIM MET"], 9),
    (STEADY, [0.8] * 8 + [1.05] * 2, "lower", (0, 0), ["CLAIM NOT MET"], 8),
    (SPREAD, [v - 0.05 for v in SPREAD], "lower", (0, 0), ["CLAIM NOT MET"], 10),
    (STEADY, [0.8] * 9 + STEADY[9:], "lower", (0, 0), ["CLAIM MET"], 9),
    (STEADY, [0.8] * 8 + STEADY[8:], "lower", (0, 0), ["CLAIM NOT MET"], 8),
    (STEADY, STEADY, "lower", (0, 0), ["CLAIM NOT MET"], 0),
    (STEADY, [1.3 * v for v in STEADY], "lower", (0, 0), ["WORSE", "CLAIM NOT MET"], 0),
    (WIDE, [v - 0.1 for v in WIDE], "lower", (0, 0), ["UNRESOLVED", "CLAIM NOT MET"], 10),
    (WIDE, [0.5] * 10, "lower", (0, 0), ["CLAIM MET"], 10),
    (STEADY, [1.3] * 10, "higher", (0, 0), ["CLAIM MET"], 10),
    (STEADY, [0.7] * 10, "higher", (0, 0), ["WORSE", "CLAIM NOT MET"], 0),
    (STEADY, [0.8] * 10, "lower", (0, 1), ["MORE FAILURES", "CLAIM NOT MET"], 10),
    (STEADY, [0.8] * 10, "lower", (1, 1), ["CLAIM MET"], 10),
    (STEADY[:3], [0.8] * 3, "lower", (0, 0), ["FEWER THAN 10 PAIRS", "CLAIM NOT MET"], 3),
], ids=["9-of-10-met", "8-of-10", "gain-within-iqr", "one-tie", "two-ties", "all-tied",
        "worse", "unresolved", "disjoint-not-unresolved", "higher-met", "higher-worse",
        "more-failures", "same-failures", "three-pairs"])
def test_bench_pairs_verdicts(parent, change, better, failed, markers, better_pairs):
    bench_pairs = load_script("bench_pairs")
    summary = bench_pairs.summarize(synthetic_pairs(parent, change, failed), {"m": better})
    (line,) = bench_pairs.end_to_end_lines(
        "w", summary, [{"name": "m", "better": better, "bound": 0.25}])
    verdicts = ("WORSE", "UNRESOLVED", "MORE FAILURES", "FEWER THAN 10 PAIRS", "CLAIM MET",
                "CLAIM NOT MET")
    assert [m for m in verdicts if f" {m}" in line] == markers
    assert line.endswith(f" ({better_pairs}/{len(parent)} pairs better)")
    if "MORE FAILURES" in markers:
        assert f"MORE FAILURES (change {failed[1]}/100, parent {failed[0]}/100)" in line
