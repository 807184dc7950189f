"""Paired benchmark runs of two source trees, recorded in a BENCH_<n>.json.

Runs ``perfbench/run.py`` of two checkouts (the parent commit and the
change) one after the other, alternating which side goes first in each
pair, and stores every run's JSON object, as run.py prints it on its last
line, together with a median/quartile summary per end-to-end metric.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload ladder --pairs 10 --seconds 30 --out BENCH_7.json
    python3 scripts/bench_pairs.py --parent ../parent --change ../parent-copy \\
        --workload ladder --pairs 10 --seconds 30 --out BENCH_7.json --key ladder-control
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload ladder --pairs 1 --trace 1 --out BENCH_7.json

With ``--trace 0`` the pairs are appended to ``workloads[KEY]`` (KEY
defaults to the workload name) and its summary is recomputed over all of
them, so a record can be grown by later calls. With ``--trace 1`` one pair
is run and stored as ``traced[KEY]``. Each tree's src/, perfbench/ and
BENCHMARK.json are first copied into a temporary directory without
``__pycache__``, ``*.pyc`` or ``.perfbench_out``, and every run.py runs
from its clean copy with PYTHONDONTWRITEBYTECODE=1, so neither side starts
from cached bytecode; the runs of a pair use the same ``--seed``, and
seeds count up from ``--seed-base``. A pair takes about 2 x (S + 10)
seconds. After the pairs it prints one line per end-to-end metric of
BENCHMARK.json: the parent's and the change's medians and their ratio,
marked WORSE when the change's median is worse than the parent's by more
than the metric's bound (a share of the parent's median), UNRESOLVED when
the parent's interquartile range is wider than that bound and the change's
worst run does not beat the parent's best, and MORE FAILURES when the
change failed a larger share of its operations than the parent (failed /
attempted, summed over the pairs). Each line ends in CLAIM MET when there
are at least 10 pairs, the change is better in at least nine tenths of
them (a tie counts for neither side), its median beats the parent's by
more than the parent's interquartile range and the line has no MORE
FAILURES mark, and in CLAIM NOT MET otherwise; a line over fewer than 10
pairs is also marked FEWER THAN 10 PAIRS.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# what run.py reads of a tree, and what a copy of it leaves out
COPIED = ("src", "perfbench", "BENCHMARK.json")
LEFT_OUT = shutil.ignore_patterns("__pycache__", "*.pyc", ".perfbench_out")
# the fewest pairs from which "better in 9 of 10 pairs" can be judged
MIN_PAIRS = 10


def machine(env: dict) -> str:
    """The BENCH ``machine`` line, from the environment note run.py prints."""
    return (f"{env['cpu']}, {env['nproc']} vCPUs, Python {env['python']}, "
            f"numpy {env['numpy']}, {env['blas']}")


def clean_copy(tree: Path, dest: Path) -> Path:
    """Copy what run.py reads of ``tree`` into ``dest``, without bytecode
    caches or earlier benchmark output; returns ``dest``."""
    dest.mkdir(parents=True)
    for name in COPIED:
        if (tree / name).is_dir():
            shutil.copytree(tree / name, dest / name, ignore=LEFT_OUT)
        else:
            shutil.copy2(tree / name, dest / name)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """One run.py run from ``tree``, writing no bytecode: (result object, its
    environment note)."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=20 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or lines[-1].startswith("#"):
        raise RuntimeError(f"{tree}: run.py exited {done.returncode}\n{done.stderr[-2000:]}")
    env = next(json.loads(line[len("# environment: "):]) for line in lines
               if line.startswith("# environment: "))
    return json.loads(lines[-1]), env


def run_pair(trees: dict, workload: str, seed: int, seconds: float, trace: int,
             first: str) -> tuple:
    """One pair of runs: (the pair's record, the machine line)."""
    pair = {"seed": seed, "first": first}
    order = SIDES if first == "parent" else SIDES[::-1]
    for side in order:
        started = time.time()
        pair[side], env = run_once(trees[side], workload, seed, seconds, trace)
        pair[f"{side}_source_sha256"] = env["source_sha256"]
        wall = pair[side]["metrics"].get("wall_s", {}).get("value")
        print(f"# {workload} seed {seed} {side}: {time.time() - started:.0f} s"
              + (f", wall_s {wall:.4f}" if wall is not None else ""), flush=True)
    return pair, machine(env)


def summarize(pairs: list, better: dict) -> dict:
    """Operations failed and attempted per side; median, quartiles and range
    per side and metric, and in how many pairs the change was better
    (strictly, in the metric's declared direction)."""
    summary = {count: {side: sum(p[side][count] for p in pairs) for side in SIDES}
               for count in ("failed", "attempted")}
    names = sorted(set(pairs[0]["parent"]["metrics"]) & set(pairs[0]["change"]["metrics"]))
    for name in names:
        values = {side: np.array([p[side]["metrics"][name]["value"] for p in pairs])
                  for side in SIDES}
        entry = {"pairs": len(pairs)}
        for side in SIDES:
            q1, med, q3 = np.percentile(values[side], [25, 50, 75])
            entry[side] = {"median": float(med), "q1": float(q1), "q3": float(q3),
                           "min": float(values[side].min()), "max": float(values[side].max())}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        entry["change_better_pairs"] = int(np.sum(sign * (values["change"]
                                                          - values["parent"]) > 0))
        if entry["parent"]["median"]:
            entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        summary[name] = entry
    return summary


def end_to_end_lines(key: str, summary: dict, end_to_end: list) -> list:
    """One line per end-to-end metric of ``summary``, with the marks and the
    claim verdict that the module docstring states."""
    failed, attempted = summary["failed"], summary["attempted"]
    # change's failed share > parent's, multiplied out: a side may have attempted none
    more_failures = failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]
    lines = []
    for metric in end_to_end:
        entry = summary.get(metric["name"])
        if not entry:
            continue
        parent, change = entry["parent"], entry["change"]
        bound = metric["bound"] * abs(parent["median"])
        if metric["better"] == "lower":
            gain = parent["median"] - change["median"]
            overlap = change["max"] >= parent["min"]
        else:
            gain = change["median"] - parent["median"]
            overlap = change["min"] <= parent["max"]
        iqr = parent["q3"] - parent["q1"]
        unresolved = iqr > bound and overlap
        few = entry["pairs"] < MIN_PAIRS
        claim = (not few and 10 * entry["change_better_pairs"] >= 9 * entry["pairs"]
                 and gain > iqr and not more_failures)
        ratio = f" ({entry['ratio']:.3f}x)" if "ratio" in entry else ""
        lines.append(f"# {key} {metric['name']} median {parent['median']:.6g} -> "
                     f"{change['median']:.6g}{ratio}"
                     + (f" WORSE (bound {metric['bound']:g})" if -gain > bound else "")
                     + (f" UNRESOLVED (parent IQR over bound {metric['bound']:g})"
                        if unresolved else "")
                     + (f" MORE FAILURES (change {failed['change']}/{attempted['change']}, "
                        f"parent {failed['parent']}/{attempted['parent']})"
                        if more_failures else "")
                     + (f" FEWER THAN {MIN_PAIRS} PAIRS" if few else "")
                     + (" CLAIM MET" if claim else " CLAIM NOT MET")
                     + f" ({entry['change_better_pairs']}/{entry['pairs']} pairs better)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent source tree")
    parser.add_argument("--change", required=True, help="root of the changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--key", help="record key (default: the workload name)")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write or merge into")
    args = parser.parse_args(argv)
    if args.pairs < 1 or (args.trace and args.pairs != 1):
        parser.error("--pairs must be at least 1, and exactly 1 with --trace 1")

    given = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for tree in given.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} holds no perfbench/run.py")
    spec = json.loads((given["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    key = args.key or args.workload

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {}
    doc.setdefault("what", (
        f"perfbench/run.py --trace 0 --seconds {args.seconds:g}, parent commit and "
        "change, each run from its own copy of the source tree, alternating which "
        "side runs first in each pair; one JSON object per run as run.py prints it "
        "on its last line; summary gives median and quartiles over the pairs; "
        "traced holds one --trace 1 run per side"))

    # the copies are removed when the interpreter exits
    copies = tempfile.TemporaryDirectory(prefix="bench_pairs_")
    trees = {side: clean_copy(tree, Path(copies.name) / side) for side, tree in given.items()}

    if args.trace:
        pair, doc["machine"] = run_pair(trees, args.workload, args.seed_base, args.seconds,
                                        1, "parent")
        doc.setdefault("traced", {})[key] = {side: pair[side] for side in SIDES}
    else:
        record = doc.setdefault("workloads", {}).setdefault(key, {"pairs": []})
        start = len(record["pairs"])
        for i in range(args.pairs):
            first = SIDES[(start + i) % 2]
            pair, doc["machine"] = run_pair(trees, args.workload, args.seed_base + start + i,
                                            args.seconds, 0, first)
            record["pairs"].append(pair)
            record["summary"] = summarize(record["pairs"], better)
            out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        for line in end_to_end_lines(key, record["summary"], spec["end_to_end"]):
            print(line)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
