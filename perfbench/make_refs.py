"""Regenerate the stored tol-1e-9 references of the benchmark workloads.

    python3 perfbench/make_refs.py

Writes perfbench/refs/*.npz: for market-default, every 12th daily snapshot
of seed 42; for sweep-dense, every 10th snapshot of each seed in the sweep
pool. Each file records the spec it was made for, and run.py computes a
reference itself (before timing) when no stored one matches. Takes about
two minutes.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import SWEEP_POOL, MarketDefault, SweepDense, save_reference  # noqa: E402


def main() -> None:
    market = MarketDefault(seed=0, smoke=False)
    sweep = SweepDense(seed=0, smoke=False)
    jobs = [(market.values, seed, market.every) for seed in market.seeds]
    jobs += [(sweep.values, seed, sweep.every) for seed in SWEEP_POOL]
    for values, seed, every in jobs:
        print(save_reference(values, seed, every), flush=True)


if __name__ == "__main__":
    main()
