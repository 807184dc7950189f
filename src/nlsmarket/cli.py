"""Batch front end: run simulations and verification stages, export data.

Subcommands:
    run-market   integrate the coupled model, write figure-ready CSV data
    run-ladder   run one verification stage against its analytic oracle
    price-call   closed-form European call price
    sweep        independent seeded runs on worker threads (default 1; the
                 runs share one interpreter lock, so more workers add no
                 speed at these sizes)

Exit codes: 0 success, 1 usage or configuration error, 2 integration
failure, 3 oracle tolerance failure, 4 outputs could not be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .errors import ConfigError, IntegrationError
from .grid import BoundaryPolicy, Grid, make_grid
from .integrator import StepControl, integrate_adaptive
from .ladder import (
    complex_system,
    energy,
    heat_potential_rhs,
    heat_rhs,
    linear_schrodinger_rhs,
    mass,
    nls_rhs,
    pack_complex,
    unpack_complex,
)
from .market import PRNG_SPEC, ModelConfig, SimulationRecord, run_simulation
from .reference import VanillaCall, call_price

SURFACE_SCHEMA = "nlsmarket.surface.v1"
TRACES_SCHEMA = "nlsmarket.traces.v1"
LADDER_SCHEMA = "nlsmarket.ladder-report.v1"
MANIFEST_SCHEMA = "nlsmarket.manifest.v1"

MARKET_FILES = (
    "volatility_pdf.csv",
    "price_pdf.csv",
    "price_pdf_log10.csv",
    "psi_lines.csv",
    "psi_phase.csv",
    "weights_kernels.csv",
)


# ----------------------------------------------------------------------
# config files: flat "key = value" text, unknown keys are hard errors
# ----------------------------------------------------------------------

_INT_KEYS = ("n", "seed", "max_steps")
_FLOAT_KEYS = (
    "r",
    "c",
    "s0",
    "s1",
    "t_end",
    "abs_tol",
    "rel_tol",
    "h_init",
    "h_min",
    "h_max",
    "safety",
    "snapshot_stride",
)
CONFIG_KEYS = _INT_KEYS + _FLOAT_KEYS


def parse_config_text(text: str) -> Dict[str, object]:
    """Parse key = value lines; '#' starts a comment."""
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        if key == "h_max" and val == "auto":
            # config_pairs echoes an unset h_max as "auto"
            values[key] = None
            continue
        try:
            values[key] = int(val) if key in _INT_KEYS else float(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from None
    return values


def config_from_values(values: Dict[str, object]) -> ModelConfig:
    control_fields = {
        "abs_tol": 1e-6,
        "rel_tol": 1e-6,
        "h_init": 1e-3,
        "h_min": 1e-10,
        "h_max": None,
        "safety": 0.9,
        "max_steps": 10_000_000,
    }
    model_fields: Dict[str, object] = {}
    for key, val in values.items():
        if key in control_fields:
            control_fields[key] = val
        else:
            model_fields[key] = val
    control = StepControl(**control_fields)
    return ModelConfig(control=control, **model_fields)


def load_config(path: Optional[str]) -> ModelConfig:
    if path is None:
        return ModelConfig()
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return config_from_values(parse_config_text(text))


def config_pairs(config: ModelConfig) -> List[Tuple[str, object]]:
    """Flat (key, value) echo of a config, config-file key names."""
    ctl = config.control
    return [
        ("r", config.r),
        ("c", config.c),
        ("n", config.n),
        ("s0", config.s0),
        ("s1", config.s1),
        ("t_end", config.t_end),
        ("seed", config.seed),
        ("abs_tol", ctl.abs_tol),
        ("rel_tol", ctl.rel_tol),
        ("h_init", ctl.h_init),
        ("h_min", ctl.h_min),
        ("h_max", "auto" if ctl.h_max is None else ctl.h_max),
        ("safety", ctl.safety),
        ("max_steps", ctl.max_steps),
        ("snapshot_stride", config.snapshot_stride),
    ]


# ----------------------------------------------------------------------
# output writers
# ----------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


class OutputSet:
    """Files of one directory that appear together or not at all.

    ``write`` stages each file under a hidden temporary name in the target
    directory. Leaving the ``with`` block normally moves every staged file
    into place with os.replace, in the order written; leaving it by an
    exception deletes them, so the directory keeps what it held before.
    """

    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self._staged: List[Tuple[Path, Path]] = []

    def write(self, name: str, text: str) -> str:
        """Stage ``text`` as outdir/name; returns the sha256 of its bytes."""
        data = text.encode()
        path = self.outdir / name
        tmp = path.with_name(f".{name}.{uuid.uuid4().hex}.tmp")
        self._staged.append((tmp, path))
        with open(tmp, "xb") as fh:
            fh.write(data)
        return hashlib.sha256(data).hexdigest()

    def __enter__(self) -> "OutputSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                for tmp, path in self._staged:
                    os.replace(tmp, path)
        finally:
            # whatever was not moved into place; all of it after an exception
            for tmp, _ in self._staged:
                tmp.unlink(missing_ok=True)


def write_table(files: OutputSet, name: str, schema: str, header: Sequence[str], rows,
                comments=()) -> str:
    """Stage one CSV table of float rows; returns its sha256.

    Each value is written as "%.17g", the same text as _fmt gives a float.
    """
    lines = [f"# schema={schema}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    row_format = ",".join(["%.17g"] * len(header))
    lines.extend(row_format % tuple(row) for row in rows)
    return files.write(name, "\n".join(lines) + "\n")


def write_market_outputs(rec: SimulationRecord, files: OutputSet) -> Dict[str, str]:
    """Stage the six data artifacts; returns file name -> sha256."""
    n = rec.config.n
    grid = make_grid(rec.config.s0, rec.config.s1, n)
    node_comment = "nodes=" + ",".join(_fmt(s) for s in grid.nodes)
    t = rec.times
    digests = {}

    def table(name, schema, header, columns, comments=()):
        # one float row per snapshot; tolist() hands "%" exact Python floats
        rows = np.column_stack((t, *columns)).tolist()
        digests[name] = write_table(files, name, schema, header, rows, comments)

    surface_header = ["t"] + [_fmt(s) for s in grid.nodes]
    table("volatility_pdf.csv", SURFACE_SCHEMA, surface_header, [rec.sigma_pdf])
    table("price_pdf.csv", SURFACE_SCHEMA, surface_header, [rec.psi_pdf])
    with np.errstate(divide="ignore"):
        log_pdf = np.log10(rec.psi_pdf)
    table("price_pdf_log10.csv", SURFACE_SCHEMA, surface_header, [log_pdf])

    def traces(lines):
        # header and (re, im) columns of the psi lines, interleaved per line
        header = ["t"] + [f"{part}_{k}" for k in lines for part in ("re", "im")]
        return header, [np.ascontiguousarray(rec.psi[:, lines]).view(np.float64)]

    table("psi_lines.csv", TRACES_SCHEMA, *traces(range(n)), comments=[node_comment])
    phase_lines = [n // 4, n // 2, (3 * n) // 4]
    table("psi_phase.csv", TRACES_SCHEMA, *traces(phase_lines),
          comments=[node_comment, "lines=" + ",".join(str(k) for k in phase_lines)])

    header = ["t"] + [f"w_{i}" for i in range(n)] + [f"g_{i}" for i in range(n)]
    table("weights_kernels.csv", TRACES_SCHEMA, header, [rec.w, rec.g])
    return digests


def write_manifest(
    files: OutputSet,
    config: ModelConfig,
    status: str,
    duration: float,
    stats,
    digests: Dict[str, str],
) -> None:
    lines = [
        f"schema: {MANIFEST_SCHEMA}",
        f"version: {__version__}",
        f"status: {status}",
        f"duration_seconds: {duration:.3f}",
        f"seed: {config.seed}",
        f"prng: {PRNG_SPEC}",
        "config:",
    ]
    lines += [f"  {k}: {v}" for k, v in config_pairs(config)]
    lines.append("stats:")
    lines += [
        f"  accepted: {stats.accepted}",
        f"  rejected: {stats.rejected}",
        f"  min_h_used: {_fmt(stats.min_h_used)}",
        f"  max_h_used: {_fmt(stats.max_h_used)}",
        f"  rhs_evaluations: {stats.rhs_evaluations}",
    ]
    lines.append("files:")
    lines += [f"  {name}: sha256={digest}" for name, digest in sorted(digests.items())]
    files.write("manifest.txt", "\n".join(lines) + "\n")


def run_market(config: ModelConfig, outdir: Path) -> int:
    """Run the coupled simulation and export all artifacts."""
    outdir = Path(outdir)
    started = time.perf_counter()
    try:
        rec = run_simulation(config)
        status = "completed"
        code = 0
    except IntegrationError as err:
        rec = err.record
        status = f"failed: {err}"
        code = 2
        print(f"integration failure: {err}", file=sys.stderr)
    # the six data files and then the manifest move into place together
    with OutputSet(outdir) as files:
        digests = write_market_outputs(rec, files)
        write_manifest(files, config, status, time.perf_counter() - started, rec.stats,
                       digests)
    return code


# ----------------------------------------------------------------------
# verification ladder stages
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StageMetric:
    name: str
    value: float
    threshold: float
    location: str

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


def _integrate_field(rhs_fn, grid: Grid, field0: np.ndarray, t_end: float, tol: float,
                     observer=None):
    system = complex_system(rhs_fn, grid.n)
    ctl = StepControl(abs_tol=tol, rel_tol=tol)
    y, _ = integrate_adaptive(system, 0.0, t_end, pack_complex(field0), ctl,
                              observer=observer)
    return unpack_complex(y)


def _stage_heat(tol: float, threshold: float) -> List[StageMetric]:
    grid = make_grid(-10.0, 10.0, 401)
    x = grid.nodes
    u0 = np.exp(-(x**2) / 2.0).astype(complex)
    u1 = _integrate_field(
        lambda f: heat_rhs(f, grid, BoundaryPolicy.PERIODIC), grid, u0, 1.0, tol
    )
    exact = (1.0 + 1.0) ** -0.5 * np.exp(-(x**2) / (2.0 * (1.0 + 1.0)))
    err = np.abs(u1.real - exact)
    k = int(np.argmax(err))
    return [StageMetric("max_error", float(err[k]), threshold, f"x={x[k]:g}")]


def _stage_heat_potential(tol: float, threshold: float) -> List[StageMetric]:
    grid = make_grid(-10.0, 10.0, 501)
    x = grid.nodes
    u0 = np.exp(-(x**2) / 2.0).astype(complex)
    t_end = 0.5
    u1 = _integrate_field(
        lambda f: heat_potential_rhs(f, grid, BoundaryPolicy.PERIODIC, 1.0),
        grid, u0, t_end, tol,
    )
    exact = np.exp(t_end) * (1.0 + t_end) ** -0.5 * np.exp(-(x**2) / (2.0 * (1.0 + t_end)))
    err = np.abs(u1.real - exact)
    k = int(np.argmax(err))
    return [StageMetric("max_error", float(err[k]), threshold, f"x={x[k]:g}")]


def _stage_linear(tol: float, threshold: float) -> List[StageMetric]:
    grid = make_grid(-10.0, 10.0, 201)
    x = grid.nodes
    psi0 = np.exp(-(x**2) / 2.0).astype(complex)
    mass0 = mass(psi0, grid)
    worst = {"drift": 0.0, "t": 0.0}

    def watch(t, y):
        drift = abs(mass(unpack_complex(y), grid) - mass0)
        if drift > worst["drift"]:
            worst["drift"] = drift
            worst["t"] = t

    _integrate_field(
        lambda f: linear_schrodinger_rhs(f, grid, BoundaryPolicy.PERIODIC, 1.0),
        grid, psi0, 1.0, tol, observer=watch,
    )
    return [StageMetric("mass_drift", worst["drift"], threshold, f"t={worst['t']:g}")]


def _stage_nls(tol: float, threshold: float) -> List[StageMetric]:
    grid = make_grid(-20.0, 20.0, 801)
    x = grid.nodes
    psi0 = (1.0 / np.cosh(x)).astype(complex)
    v = -1.0
    h0 = energy(psi0, grid, v)
    psi1 = _integrate_field(
        lambda f: nls_rhs(f, grid, BoundaryPolicy.PERIODIC, v), grid, psi0, 5.0, tol
    )
    dev = np.abs(np.abs(psi1) - np.abs(psi0))
    k = int(np.argmax(dev))
    h1 = energy(psi1, grid, v)
    drift = abs(h1 - h0) / abs(h0)
    return [
        StageMetric("max_modulus_deviation", float(dev[k]), threshold, f"x={x[k]:g}"),
        StageMetric("energy_drift_rel", drift, threshold, "t=5"),
    ]


# stage name -> (runner, default oracle threshold, integrator tolerance ladder)
STAGES = {
    "heat": (_stage_heat, 1e-4, (1e-6, 1e-8)),
    "heat-potential": (_stage_heat_potential, 1e-4, (1e-6, 1e-8)),
    "linear": (_stage_linear, 1e-6, (1e-6, 1e-8)),
    "nls": (_stage_nls, 1e-3, (1e-6, 1e-8)),
}


def run_ladder(stage: str, outdir: Path, threshold: Optional[float] = None,
               tolerances: Optional[Sequence[float]] = None) -> int:
    """Run one verification stage over its tolerance ladder, write a report.

    The gate is the stage's oracle threshold applied at the tightest
    integrator tolerance; ``threshold`` overrides the default gate.
    """
    if stage not in STAGES:
        raise ConfigError(f"unknown ladder stage {stage!r}; choose from {sorted(STAGES)}")
    runner, default_threshold, default_ladder = STAGES[stage]
    gate = default_threshold if threshold is None else float(threshold)
    ladder = tuple(tolerances) if tolerances else default_ladder

    rows = []
    gate_metrics: List[StageMetric] = []
    for tol in ladder:
        metrics = runner(tol, gate)
        for m in metrics:
            rows.append([tol, m.name, m.value, m.threshold, str(m.passed).lower(), m.location])
        gate_metrics = metrics
    header = ["tolerance", "metric", "value", "threshold", "passed", "location"]
    lines = [f"# schema={LADDER_SCHEMA}", f"# stage={stage}", ",".join(header)]
    for row in rows:
        lines.append(
            ",".join(format(x, ".10g") if isinstance(x, (float, np.floating)) else str(x)
                     for x in row)
        )
    with OutputSet(outdir) as files:
        files.write(f"ladder_{stage}.csv", "\n".join(lines) + "\n")

    failed = [m for m in gate_metrics if not m.passed]
    for m in failed:
        print(
            f"stage {stage}: {m.name}={m.value:.6g} exceeds {m.threshold:g} at {m.location}",
            file=sys.stderr,
        )
    return 3 if failed else 0


# ----------------------------------------------------------------------
# command surface
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage problems must map to exit code 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def _cmd_run_market(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return run_market(config, Path(args.out))


def _cmd_run_ladder(args) -> int:
    tolerances = None
    if args.config is not None:
        ctl = load_config(args.config).control
        tolerances = (ctl.abs_tol,)
    return run_ladder(args.stage, Path(args.out), threshold=args.tolerance,
                      tolerances=tolerances)


def _cmd_price_call(args) -> int:
    opt = VanillaCall(
        spot=args.spot,
        strike=args.strike,
        rate=args.rate,
        sigma=args.sigma,
        t=args.valuation_time,
        maturity=args.maturity,
    )
    print(f"{call_price(opt):.6f}")
    return 0


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    config = load_config(args.config)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"bad --seeds list: {args.seeds!r}") from None
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        # every seed writes to out/seed_<seed>, so a repeat would race itself
        raise ConfigError(f"--seeds repeats seed(s) {','.join(map(str, repeated))}")
    out = Path(args.out)

    def one(seed: int) -> int:
        cfg = dataclasses.replace(config, seed=seed)
        return run_market(cfg, out / f"seed_{seed}")

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        codes = list(pool.map(one, seeds))
    return max(codes) if codes else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlsmarket", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-market", help="run the coupled simulation and export CSV data")
    p.add_argument("--config", help="config file (key = value lines)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_run_market)

    p = sub.add_parser("run-ladder", help="run a verification stage against its oracle")
    p.add_argument("--stage", required=True, choices=sorted(STAGES))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="config file; its abs_tol becomes the integrator tolerance")
    p.add_argument("--tolerance", type=float, help="override the stage's oracle threshold")
    p.set_defaults(func=_cmd_run_ladder)

    p = sub.add_parser("price-call", help="closed-form European call price")
    p.add_argument("--spot", type=float, required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--maturity", type=float, required=True, help="maturity in years")
    p.add_argument("--valuation-time", type=float, default=0.0, help="valuation time in years")
    p.set_defaults(func=_cmd_price_call)

    p = sub.add_parser("sweep", help="independent seeded runs in worker threads")
    p.add_argument("--config", help="config file shared by all runs")
    p.add_argument("--out", required=True, help="parent output directory")
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads (default 1; the runs share one interpreter "
                        "lock, so more workers add no speed at these sizes)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except IntegrationError as err:
        print(f"integration failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        # a config that cannot be read is a ConfigError already, so what
        # reaches here failed while creating or writing outputs
        print(f"error: cannot write outputs: {err}", file=sys.stderr)
        return 4


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
