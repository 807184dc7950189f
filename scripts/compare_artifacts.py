"""Compare the output files of two source trees, command by command.

Runs the same nlsmarket commands from two checkouts (the parent commit and
the change), each with its own ``src/`` on the path, and prints one line
per output file: ``identical`` when the bytes agree. Otherwise a table's
``#`` comment lines and its data rows are compared apart: a changed set of
comment lines reads ``comment lines +<gained> -<lost>``, and the data rows
read ``data rows identical``, ``data rows <count> -> <count>``, or the
largest |delta| over the numeric cells (and ``text differs`` when a
non-numeric cell does). Manifests are compared without their
``duration_seconds`` line. The commands are the default ``run-market``,
the sweep-dense config (t_end 10 d, stride 0.05 d) over seeds 1-8, a run
that fails on its step budget (t_end 5 d, max_steps 40, exit code 2) and
the four ladder stages.

    python3 scripts/compare_artifacts.py --parent ../parent --change .

The exit code is 0 when every data file is identical and every manifest
differs at most in ``duration_seconds``, and 1 otherwise, so a data file
that gained only comment lines also exits 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SIDES = ("parent", "change")
STAGES = ("heat", "heat-potential", "linear", "nls")

# run name -> (config file text or None, nlsmarket argv after --out DIR)
RUNS = {
    "default": (None, ["run-market"]),
    "sweep-dense": ("t_end = 10\nsnapshot_stride = 0.05\n",
                    ["sweep", "--seeds", "1,2,3,4,5,6,7,8"]),
    "budget": ("t_end = 5\nmax_steps = 40\n", ["run-market"]),
    **{f"ladder-{stage}": (None, ["run-ladder", "--stage", stage]) for stage in STAGES},
}


def run_all(tree: Path, work: Path) -> dict:
    """Every command of RUNS from ``tree``; returns run name -> exit code."""
    # no bytecode in either tree: a later run from it must not start from a cache
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    codes = {}
    for name, (config, argv) in RUNS.items():
        out = work / name
        argv = [sys.executable, "-m", "nlsmarket.cli", *argv, "--out", str(out)]
        if config is not None:
            path = work / f"{name}.cfg"
            path.write_text(config)
            argv += ["--config", str(path)]
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
        codes[name] = done.returncode
    return codes


def without_duration(text: str) -> list:
    return [line for line in text.splitlines() if not line.startswith("duration_seconds:")]


def cell_delta(a: str, b: str):
    """|a - b| for two numeric cells, or None when either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    return 0.0 if x == y else abs(x - y)


def split_comments(text: str) -> tuple:
    """(comment lines, data rows) of a table: comment lines start with ``#``."""
    lines = text.splitlines()
    return ([x for x in lines if x.startswith("#")],
            [x for x in lines if not x.startswith("#")])


def comment_verdict(lines_a: list, lines_b: list) -> str:
    """``comment lines +gained -lost``, counting repeated lines as often as they occur."""
    gained, lost = Counter(lines_b) - Counter(lines_a), Counter(lines_a) - Counter(lines_b)
    return f"comment lines +{sum(gained.values())} -{sum(lost.values())}"


def data_verdict(rows_a: list, rows_b: list) -> str:
    """How the data rows of change's table differ from parent's."""
    if rows_a == rows_b:
        return "data rows identical"
    if len(rows_a) != len(rows_b):
        return f"data rows {len(rows_a)} -> {len(rows_b)}"
    worst, text = 0.0, False
    for row_a, row_b in zip(rows_a, rows_b):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if len(cells_a) != len(cells_b):
            text = True
            continue
        for x, y in zip(cells_a, cells_b):
            delta = cell_delta(x, y)
            if delta is None:
                text = text or x != y
            else:
                worst = max(worst, delta)
    return f"max |delta| {worst:.3g}" + (", text differs" if text else "")


def compare_file(parent: Path, change: Path) -> tuple:
    """(verdict, same): how change's file differs from parent's."""
    for side, path in zip(SIDES, (parent, change)):
        if not path.is_file():
            return f"missing in {side}", False
    a, b = parent.read_bytes(), change.read_bytes()
    if a == b:
        return "identical", True
    if parent.name == "manifest.txt":
        lines_a, lines_b = (without_duration(x.decode()) for x in (a, b))
        if lines_a == lines_b:
            return "identical without duration_seconds", True
        changed = [f"{x!r} -> {y!r}" for x, y in zip(lines_a, lines_b) if x != y]
        return "differs: " + "; ".join(changed or ["line count"]), False
    (notes_a, rows_a), (notes_b, rows_b) = (split_comments(x.decode()) for x in (a, b))
    verdict = data_verdict(rows_a, rows_b)
    if notes_a != notes_b:
        verdict = f"{comment_verdict(notes_a, notes_b)}, {verdict}"
    return verdict, False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent source tree")
    parser.add_argument("--change", required=True, help="root of the changed source tree")
    args = parser.parse_args(argv)
    trees = {side: Path(getattr(args, side)).resolve() for side in SIDES}
    for tree in trees.values():
        if not (tree / "src" / "nlsmarket").is_dir():
            parser.error(f"{tree} holds no src/nlsmarket")

    all_same = True
    with tempfile.TemporaryDirectory() as tmp:
        work = {side: Path(tmp) / side for side in SIDES}
        codes = {}
        for side in SIDES:
            work[side].mkdir()
            codes[side] = run_all(trees[side], work[side])
        for name in RUNS:
            same_code = codes["parent"][name] == codes["change"][name]
            all_same &= same_code
            print(f"# {name}: exit {codes['parent'][name]} -> {codes['change'][name]}"
                  + ("" if same_code else " DIFFERS"))
            dirs = [work[side] / name for side in SIDES]
            files = set().union(*({p.relative_to(d) for p in d.rglob("*") if p.is_file()}
                                  for d in dirs))
            for rel in sorted(files):
                verdict, same = compare_file(dirs[0] / rel, dirs[1] / rel)
                all_same &= same
                print(f"{name}/{rel}: {verdict}")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
