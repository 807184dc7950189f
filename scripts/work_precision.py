"""Work-precision frontier of the paper's run, measured against its exact solution.

Runs the default market config (n=30, 360 d, stride 1 d, seed 42) at tol
1e-5, 1e-6, 1e-7 and 1e-8 (abs_tol = rel_tol) and records for each the
step counters and the largest error of the recorded psi, |sigma|^2, w and
sigma against the exact solution of the uniform start (tests/oracles.py:
psi, w and sigma in closed form). When the stored benchmark reference of
that run exists, it also records ``ref_err``, the benchmark's
market-default accuracy metric, for comparison.

    python3 scripts/work_precision.py --label change --variant "this tree"
    python3 scripts/work_precision.py --src ../parent/src --label parent \\
        --variant "the parent commit"

Each call measures the nlsmarket package found under ``--src`` (default:
this checkout's src/) and stores its row under ``--label`` in the output
JSON (default BENCH_6_wp.json at the repository root), keeping the rows
of other labels.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOLERANCES = (1e-5, 1e-6, 1e-7, 1e-8)
REFERENCE = ROOT / "perfbench" / "refs" / "seed42-t360-stride1.npz"
REFERENCE_EVERY = 12


def machine_line(seed: int) -> str:
    """The ``machine`` line as bench_pairs.py writes it into BENCH_*.json,
    from the environment note of perfbench/run.py (imported, not run)."""
    from bench_pairs import machine

    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return machine(run.environment(seed))


def measure(tol: float, exact: dict, reference) -> dict:
    from nlsmarket import ModelConfig, StepControl, run_simulation

    rec = run_simulation(ModelConfig(control=StepControl(abs_tol=tol, rel_tol=tol)))
    assert rec.completed and np.array_equal(rec.times, exact["times"])
    row = {
        "tol": tol,
        "rhs_evaluations": rec.stats.rhs_evaluations,
        "accepted": rec.stats.accepted,
        "rejected": rec.stats.rejected,
        "psi_err": float(np.max(np.abs(rec.psi - exact["psi"][:, None]))),
        "sigma_sq_err": float(np.max(np.abs(rec.sigma_pdf - 1.0 / 16.0))),
        "w_err": float(np.max(np.abs(rec.w - exact["w"]))),
        "sigma_err": float(np.max(np.abs(rec.sigma - exact["sigma"][:, None]))),
    }
    if reference is not None:
        rows = slice(None, None, REFERENCE_EVERY)
        row["ref_err"] = max(
            float(np.max(np.abs(rec.sigma_pdf[rows] - reference["sigma_pdf"]))),
            float(np.max(np.abs(rec.psi[rows] - reference["psi"]))),
            float(np.max(np.abs(rec.w[rows] - reference["w"]))),
        )
    return row


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
    from nlsmarket import ModelConfig
    from nlsmarket.market import _snapshot_times
    from oracles import uniform_start_psi, uniform_start_reduction

    cfg = ModelConfig()
    times = np.array(_snapshot_times(cfg.t_end, cfg.snapshot_stride))
    w, sigma = uniform_start_reduction(cfg.n, cfg.s0, cfg.s1, cfg.c, cfg.seed, times)
    exact = {"times": times, "psi": uniform_start_psi(times, cfg.r), "w": w, "sigma": sigma}
    reference = None
    if REFERENCE.is_file():
        with np.load(REFERENCE) as stored:
            reference = {key: stored[key] for key in ("sigma_pdf", "psi", "w")}

    rows = []
    for tol in TOLERANCES:
        rows.append(measure(tol, exact, reference))
        print(json.dumps(rows[-1]), flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {}
    doc["what"] = ("paper run (n=30, 360 d, stride 1 d, seed 42) per tol = abs_tol = "
                   "rel_tol; *_err is the largest deviation over all 361 snapshots "
                   "from the exact uniform-start solution; ref_err is the benchmark's "
                   "market-default metric against perfbench/refs")
    doc["machine"] = machine_line(cfg.seed)
    doc.setdefault("rows", {})[args.label] = {"variant": args.variant, "frontier": rows}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
