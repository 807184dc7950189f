"""Benchmark workloads: generated inputs, the operation, and output checks.

Each operation is one batch job run through the public command surface
(``nlsmarket.cli.main``) and waited for, as a user at a shell would. The
program sees only the config file and arguments generated here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "refs"

# References are the same model at tol 1e-9 with h_max = stride / 50. The
# finer h_max matters on sweep-dense: there the auto h_max (stride / 10)
# already bounds every step, so a tol-1e-9 run with the same h_max takes
# the identical step sequence and differs from the measured run by zero.
REF_TOL = 1e-9
REF_STEPS_PER_SNAPSHOT = 50

# The paper's run, every key written out (h_max omitted means auto).
PAPER_CONFIG = {
    "r": 0.05 / 360.0,
    "c": 1.0,
    "n": 30,
    "s0": 10.0,
    "s1": 20.0,
    "t_end": 360.0,
    "abs_tol": 1e-6,
    "rel_tol": 1e-6,
    "h_init": 1e-3,
    "h_min": 1e-10,
    "safety": 0.9,
    "max_steps": 10_000_000,
    "snapshot_stride": 1.0,
}
PAPER_SEED = 42

# Model seeds of the sweep, with stored references (see make_refs.py).
SWEEP_POOL = tuple(range(1, 9))
SWEEP_SIZE = 4
SWEEP_WORKERS = 2

# Simulated time per ladder stage; the report does not state it.
STAGE_HORIZONS = {"heat": 1.0, "heat-potential": 0.5, "linear": 1.0, "nls": 5.0}


class CheckFailed(Exception):
    """An operation's outputs failed a correctness check."""


@dataclass
class Outcome:
    """What the checks read from one operation's outputs."""

    digests: Dict[str, str]
    counters: Dict[str, int]
    ref_err: float
    sim_days: float
    rows: int = 0
    bytes: int = 0
    busy: float = 0.0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def config_text(values: Dict[str, object]) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in values.items())


def read_table(path: Path) -> np.ndarray:
    """Numeric body of a CSV artifact; every value must be finite."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path}: non-finite value")
    return data


def parse_manifest(text: str):
    """Top-level 'key: value' pairs and indented sections of a run manifest."""
    top: Dict[str, str] = {}
    sections: Dict[str, Dict[str, str]] = {}
    section = None
    for line in text.splitlines():
        if line.startswith("  "):
            key, _, value = line.strip().partition(": ")
            sections.setdefault(section, {})[key] = value
        else:
            key, _, value = line.partition(":")
            if value.strip():
                top[key] = value.strip()
            else:
                section = key
    return top, sections


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


def reference_spec(values: Dict[str, object], seed: int, every: int) -> Dict[str, object]:
    return {"config": values, "seed": seed, "every": every,
            "tol": REF_TOL, "steps_per_snapshot": REF_STEPS_PER_SNAPSHOT}


def reference_path(values: Dict[str, object], seed: int) -> Path:
    return REF_DIR / f"seed{seed}-t{values['t_end']:g}-stride{values['snapshot_stride']:g}.npz"


def compute_reference(values: Dict[str, object], seed: int, every: int) -> Dict[str, np.ndarray]:
    """Every ``every``-th snapshot of the tol-1e-9 run for one seed."""
    from nlsmarket.cli import config_from_values
    from nlsmarket.market import run_simulation

    h_max = values["snapshot_stride"] / REF_STEPS_PER_SNAPSHOT
    ref_values = dict(values, seed=seed, abs_tol=REF_TOL, rel_tol=REF_TOL, h_max=h_max,
                      h_init=min(values["h_init"], h_max))
    rec = run_simulation(config_from_values(ref_values))
    rows = slice(None, None, every)
    return {"times": rec.times[rows], "sigma_pdf": rec.sigma_pdf[rows],
            "psi": rec.psi[rows], "w": rec.w[rows]}


def stored_reference(values: Dict[str, object], seed: int,
                     every: int) -> Optional[Dict[str, np.ndarray]]:
    """The stored reference made for exactly this spec, if there is one."""
    spec = json.dumps(reference_spec(values, seed, every), sort_keys=True)
    path = reference_path(values, seed)
    if not path.is_file():
        return None
    with np.load(path) as stored:
        if str(stored["spec"]) != spec:
            return None
        return {key: stored[key] for key in ("times", "sigma_pdf", "psi", "w")}


def load_reference(values: Dict[str, object], seed: int, every: int) -> Dict[str, np.ndarray]:
    """The stored reference when one matches, else one computed now.

    Callers load references before any timed region.
    """
    ref = stored_reference(values, seed, every)
    return ref if ref is not None else compute_reference(values, seed, every)


def save_reference(values: Dict[str, object], seed: int, every: int) -> Path:
    spec = json.dumps(reference_spec(values, seed, every), sort_keys=True)
    ref = compute_reference(values, seed, every)
    path = reference_path(values, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, spec=np.array(spec), **ref)
    return path


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def check_market_dir(outdir: Path, ref: Dict[str, np.ndarray], every: int, n: int,
                     prefix: str = "") -> Outcome:
    """Check one run-market output directory against its manifest and reference."""
    from nlsmarket.cli import MARKET_FILES

    top, sections = parse_manifest((outdir / "manifest.txt").read_text())
    if top.get("status") != "completed":
        raise CheckFailed(f"{outdir}: status {top.get('status')!r}")
    listed = sections.get("files", {})
    digests = {}
    tables = {}
    for name in MARKET_FILES:
        path = outdir / name
        digest = sha256_file(path)
        if listed.get(name) != f"sha256={digest}":
            raise CheckFailed(f"{path}: digest does not match the manifest")
        digests[prefix + name] = digest
        tables[name] = read_table(path)

    vol = tables["volatility_pdf.csv"]
    rows = slice(None, None, every)
    if not np.array_equal(vol[rows, 0], ref["times"]):
        raise CheckFailed(f"{outdir}: snapshot times differ from the reference")
    psi_lines = tables["psi_lines.csv"][rows]
    psi = psi_lines[:, 1::2] + 1j * psi_lines[:, 2::2]
    w = tables["weights_kernels.csv"][rows, 1 : n + 1]
    ref_err = max(
        float(np.max(np.abs(vol[rows, 1:] - ref["sigma_pdf"]))),
        float(np.max(np.abs(psi - ref["psi"]))),
        float(np.max(np.abs(w - ref["w"]))),
    )
    stats = sections.get("stats", {})
    counters = {
        "accepted": int(stats["accepted"]),
        "rejected": int(stats["rejected"]),
        "rhs_evals": int(stats["rhs_evaluations"]),
        "segments": len(vol) - 1,
    }
    return Outcome(
        digests=digests,
        counters=counters,
        ref_err=ref_err,
        sim_days=float(vol[-1, 0]),
        rows=len(vol),
        bytes=sum((outdir / name).stat().st_size for name in MARKET_FILES),
        busy=float(top["duration_seconds"]),
    )


def merge_outcomes(parts: List[Outcome]) -> Outcome:
    counters: Dict[str, int] = {}
    digests: Dict[str, str] = {}
    for part in parts:
        digests.update(part.digests)
        for key, value in part.counters.items():
            counters[key] = counters.get(key, 0) + value
    return Outcome(
        digests=digests,
        counters=counters,
        ref_err=max(p.ref_err for p in parts),
        sim_days=sum(p.sim_days for p in parts),
        rows=sum(p.rows for p in parts),
        bytes=sum(p.bytes for p in parts),
        busy=sum(p.busy for p in parts),
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    """One benchmark workload. ``argvs`` is the operation: the command
    lines run back to back, each expected to exit 0."""

    name = ""
    # layers the traced run must see called at least once
    exercised = ("cli.main",)
    # ref_err must stay at or under this gate
    ref_err_gate = 0.0
    values: Dict[str, object] = PAPER_CONFIG

    def setup(self, workdir: Path) -> None:
        """Write the config file; subclasses also load references here,
        before any timing."""
        self.config = workdir / f"{self.name}.cfg"
        self.config.write_text(config_text(self.values))

    def argvs(self, outdir: Path) -> List[List[str]]:
        raise NotImplementedError

    def check(self, outdir: Path) -> Outcome:
        raise NotImplementedError


class _MarketWorkload(Workload):
    exercised = (
        "cli.main", "cli.run_market", "cli.write", "cli.manifest", "market.simulation",
        "integrator.driver", "integrator.step", "market.coupled_rhs", "market.adapter",
        "grid.second_difference", "ladder.pack",
    )
    values: Dict[str, object]
    seeds: List[int]
    every: int

    def setup(self, workdir: Path) -> None:
        super().setup(workdir)
        self.refs = {seed: load_reference(self.values, seed, self.every) for seed in self.seeds}


class MarketDefault(_MarketWorkload):
    """The paper's run. Its config, seed included, is fixed: across model
    seeds the default run's RHS count spans 72k-100k and its error against
    the reference spans 1.8e-5 to 6.9e-5, so a seed-drawn model would make
    run-to-run spread exceed any usable bound. Seed variety is carried by
    sweep-dense, whose work does not depend on the model seed."""

    name = "market-default"
    ref_err_gate = 1e-3  # absolute deviation from the reference

    def __init__(self, seed: int, smoke: bool) -> None:
        self.values = dict(PAPER_CONFIG, seed=PAPER_SEED)
        if smoke:
            self.values["t_end"] = 2.0
        self.seeds = [PAPER_SEED]
        self.every = 1 if smoke else 12

    def argvs(self, outdir: Path) -> List[List[str]]:
        return [["run-market", "--config", str(self.config), "--out", str(outdir)]]

    def check(self, outdir: Path) -> Outcome:
        return check_market_dir(outdir, self.refs[PAPER_SEED], self.every, self.values["n"])


class SweepDense(_MarketWorkload):
    """A 4-seed sweep on 2 workers at a 0.05-day snapshot stride."""

    name = "sweep-dense"
    ref_err_gate = 1e-6  # absolute deviation from the reference
    # The seeds run on the sweep's workers. Their spans are seen only while
    # the workers are threads of this process, so only the front end is
    # required; the sweep's own numbers come from the seeds' manifests.
    exercised = ("cli.main",)

    def __init__(self, seed: int, smoke: bool) -> None:
        self.values = dict(PAPER_CONFIG, t_end=0.2 if smoke else 10.0, snapshot_stride=0.05)
        self.seeds = sorted(random.Random(seed).sample(SWEEP_POOL, SWEEP_SIZE))
        self.every = 1 if smoke else 10
        self.workers = SWEEP_WORKERS

    def argvs(self, outdir: Path, workers: int = SWEEP_WORKERS) -> List[List[str]]:
        return [["sweep", "--config", str(self.config), "--out", str(outdir),
                 "--seeds", ",".join(str(s) for s in self.seeds), "--workers", str(workers)]]

    def standalone_argvs(self, outdir: Path) -> List[List[str]]:
        """One run-market per seed, laid out like a sweep's output."""
        return [["run-market", "--config", str(self.config), "--seed", str(seed),
                 "--out", str(outdir / f"seed_{seed}")] for seed in self.seeds]

    def check(self, outdir: Path) -> Outcome:
        return merge_outcomes([
            check_market_dir(outdir / f"seed_{seed}", self.refs[seed], self.every,
                             self.values["n"], prefix=f"seed_{seed}/")
            for seed in self.seeds
        ])


class Ladder(Workload):
    """The four run-ladder stages over their default tolerance ladders.

    The stages have no random input; the seed only sets their order.
    """

    name = "ladder"
    ref_err_gate = 1.0  # worst metric / threshold at the tightest tolerance
    exercised = ("cli.main", "integrator.driver", "integrator.step", "ladder.rhs",
                 "ladder.pack", "grid.second_difference")

    def __init__(self, seed: int, smoke: bool) -> None:
        stages = [s for s in STAGE_HORIZONS if not (smoke and s == "nls")]
        random.Random(seed).shuffle(stages)
        self.stages = stages

    def argvs(self, outdir: Path) -> List[List[str]]:
        return [["run-ladder", "--stage", stage, "--out", str(outdir)] for stage in self.stages]

    def check(self, outdir: Path) -> Outcome:
        digests = {}
        ratios = []
        sim_days = 0.0
        for stage in self.stages:
            path = outdir / f"ladder_{stage}.csv"
            digests[path.name] = sha256_file(path)
            lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
            rows = [line.split(",") for line in lines[1:]]
            tolerances = {float(row[0]) for row in rows}
            sim_days += STAGE_HORIZONS[stage] * len(tolerances)
            tightest = min(tolerances)
            for tol, metric, value, threshold, passed, _location in rows:
                value, threshold = float(value), float(threshold)
                if not math.isfinite(value):
                    raise CheckFailed(f"{path}: {metric} is not finite")
                if float(tol) == tightest:
                    if passed != "true" or not value <= threshold:
                        raise CheckFailed(f"{path}: {metric}={value:g} fails {threshold:g}")
                    ratios.append(value / threshold)
        return Outcome(digests=digests, counters={}, ref_err=max(ratios), sim_days=sim_days)


WORKLOADS = {cls.name: cls for cls in (MarketDefault, Ladder, SweepDense)}
