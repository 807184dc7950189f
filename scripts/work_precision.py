"""Work-precision frontier of the paper's run, measured against its exact solution.

Runs the default market config (n=30, 360 d, stride 1 d, seed 42) at tol
1e-5, 1e-6, 1e-7 and 1e-8 (abs_tol = rel_tol) and records for each the
step counters and the largest error of the recorded psi, |sigma|^2, w and
sigma against the exact solution of the uniform start, as
``oracle_errors`` of tests/oracles.py measures them for the tests (psi, w
and sigma in closed form).

    python3 scripts/work_precision.py --label change --variant "this tree"
    python3 scripts/work_precision.py --src ../parent/src --label parent \\
        --variant "the parent commit"

Each call measures the nlsmarket package found under ``--src`` (default:
this checkout's src/) and stores its row under ``--label`` in the output
JSON (default BENCH_6_wp.json at the repository root), keeping the rows
of other labels. Every name is imported from the module that defines it
(``nlsmarket.market``, ``nlsmarket.integrator``), never from the package
root, so ``--src`` measures a tree with or without root re-exports.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOLERANCES = (1e-5, 1e-6, 1e-7, 1e-8)


def machine_line(seed: int) -> str:
    """The ``machine`` line as bench_pairs.py writes it into BENCH_*.json,
    from the environment note of perfbench/run.py (imported, not run)."""
    from bench_pairs import machine

    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return machine(run.environment(seed))


def measure(tol: float) -> dict:
    from nlsmarket.integrator import StepControl
    from nlsmarket.market import ModelConfig, run_simulation
    from oracles import oracle_errors

    rec = run_simulation(ModelConfig(control=StepControl(abs_tol=tol, rel_tol=tol)))
    return {
        "tol": tol,
        "rhs_evaluations": rec.stats.rhs_evaluations,
        "accepted": rec.stats.accepted,
        "rejected": rec.stats.rejected,
        **{f"{field}_err": float(err) for field, err in oracle_errors(rec).items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the nlsmarket package to measure")
    parser.add_argument("--label", required=True, help="row name, e.g. parent or change")
    parser.add_argument("--variant", default="", help="what the measured tree is")
    parser.add_argument("--out", default=str(ROOT / "BENCH_6_wp.json"))
    args = parser.parse_args(argv)

    # the package under test first, then the oracle, which imports it
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(1, str(ROOT / "tests"))
    from nlsmarket.market import ModelConfig

    rows = []
    for tol in TOLERANCES:
        rows.append(measure(tol))
        print(json.dumps(rows[-1]), flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {}
    doc["what"] = ("paper run (n=30, 360 d, stride 1 d, seed 42) per tol = abs_tol = "
                   "rel_tol; *_err is the largest deviation over all 361 snapshots "
                   "from the exact uniform-start solution; ref_err, the benchmark's "
                   "market-default metric against perfbench/refs, appears only in rows "
                   "written before the script stopped recording it")
    doc["machine"] = machine_line(ModelConfig().seed)
    doc.setdefault("rows", {})[args.label] = {"variant": args.variant, "frontier": rows}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
