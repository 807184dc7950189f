"""The measuring scripts under scripts/, loaded by path: bench_pairs.py's
clean copy of a source tree, compare_artifacts.py's per-file verdicts,
which carry every byte claim, and work_precision.py's frontier rows."""

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
    row = load_script("work_precision").measure(1e-6, None)
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
    ("t.csv", TABLE, TABLE + "2,3.0\n", "differs: 4 -> 5 lines", False),
    ("t.csv", None, TABLE, "missing in parent", False),
    ("t.csv", TABLE, None, "missing in change", False),
])
def test_compare_file_verdicts(compare_file, tmp_path, name, parent_text, change_text,
                               verdict, same):
    parent, change = write_pair(tmp_path, name, parent_text, change_text)
    assert compare_file(parent, change) == (verdict, same)
