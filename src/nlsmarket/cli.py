"""Batch front end: run simulations and verification stages, export data.

Subcommands:
    run-market   integrate the coupled model, write figure-ready CSV data
    run-ladder   run one verification stage against its analytic oracle
    price-call   closed-form European call price
    sweep        independent seeded runs, one after another on one thread
                 (--workers is accepted and validated but does not change
                 the schedule)

Exit codes: 0 success, 1 usage or configuration error, 2 integration
failure, 3 oracle tolerance failure, 4 outputs could not be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import os
import re
import sys
import time
import typing
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .errors import ConfigError, IntegrationError
from .grid import make_grid
from .integrator import StepControl, StepStats, integrate_adaptive, integrate_members
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

# CSV tables are built and written this many snapshot rows at a time
ROW_BLOCK = 64
# the text of every market table value, node label and manifest step size
FLOAT_FORMAT = "%.17g"


# ----------------------------------------------------------------------
# config files: flat "key = value" text, unknown keys are hard errors
# ----------------------------------------------------------------------

# One key per ModelConfig field, in field order, with ``control`` expanded in
# place into the StepControl fields; names, types and defaults are the
# dataclasses'. The one Optional key, h_max, reads and echoes None as "auto".
_CONTROL_KEYS = tuple(f.name for f in dataclasses.fields(StepControl))
CONFIG_KEYS = tuple(
    key
    for f in dataclasses.fields(ModelConfig)
    for key in (_CONTROL_KEYS if f.name == "control" else (f.name,))
)
_KEY_TYPES = {**typing.get_type_hints(ModelConfig), **typing.get_type_hints(StepControl)}


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
        kind = _KEY_TYPES[key]
        if val == "auto" and type(None) in typing.get_args(kind):
            values[key] = None
            continue
        try:
            values[key] = int(val) if kind is int else float(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from None
    return values


def config_from_values(values: Dict[str, object]) -> ModelConfig:
    """ModelConfig() with the given keys replaced; the rest keep their defaults."""
    base = ModelConfig()
    control = dataclasses.replace(
        base.control, **{k: v for k, v in values.items() if k in _CONTROL_KEYS}
    )
    model = {k: v for k, v in values.items() if k not in _CONTROL_KEYS}
    return dataclasses.replace(base, control=control, **model)


def load_config(path: Optional[str]) -> ModelConfig:
    if path is None:
        return ModelConfig()
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return config_from_values(parse_config_text(text))


def config_pairs(config: ModelConfig) -> List[Tuple[str, object]]:
    """Flat (key, value) echo of a config in CONFIG_KEYS order."""
    values = {**dataclasses.asdict(config), **dataclasses.asdict(config.control)}
    return [(key, "auto" if values[key] is None else values[key]) for key in CONFIG_KEYS]


# ----------------------------------------------------------------------
# output writers
# ----------------------------------------------------------------------


def _fmt(x) -> str:
    return FLOAT_FORMAT % float(x)


class OutputSet:
    """Files of one directory that appear together or not at all.

    ``write`` stages each file under a hidden temporary name in the target
    directory. Leaving the ``with`` block normally moves every staged file
    into place with os.replace, in the order written; leaving it by an
    exception deletes them, so the directory keeps what it held before.
    A set of several files first removes the old target of its last file,
    a run's manifest, so a move that fails part-way leaves no manifest that
    describes another run's data. ``digests`` maps the name of each file
    staged so far to the sha256 of its bytes.
    """

    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self._staged: List[Tuple[Path, Path]] = []
        self.digests: Dict[str, str] = {}

    def write(self, name: str, pieces: Iterable[str]) -> None:
        """Stage the joined text ``pieces`` as outdir/name, each piece
        encoded, hashed and written as it arrives."""
        path = self.outdir / name
        tmp = path.with_name(f".{name}.{os.urandom(16).hex()}.tmp")
        self._staged.append((tmp, path))
        digest = hashlib.sha256()
        with open(tmp, "xb") as fh:
            for piece in pieces:
                data = piece.encode()
                digest.update(data)
                fh.write(data)
        self.digests[name] = digest.hexdigest()

    def __enter__(self) -> "OutputSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                if len(self._staged) > 1:
                    self._staged[-1][1].unlink(missing_ok=True)
                for tmp, path in self._staged:
                    os.replace(tmp, path)
        finally:
            # whatever was not moved into place; all of it after an exception
            for tmp, _ in self._staged:
                tmp.unlink(missing_ok=True)


def write_table(files: OutputSet, times: np.ndarray, name: str, schema: str,
                header: Sequence[str], columns, comments=()) -> None:
    """Stage one CSV table with one row of floats per snapshot: its time
    in ``times``, then its values, which ``columns(b)`` gives as columns
    for the snapshots in slice b. The rows are built and written ROW_BLOCK
    snapshots at a time, so no table is held whole. Each value is written
    in FLOAT_FORMAT, the same text as _fmt gives a float.
    """
    head = [f"# schema={schema}", *(f"# {c}" for c in comments), ",".join(header)]
    row_format = ",".join([FLOAT_FORMAT] * len(header)) + "\n"

    def pieces():
        yield "\n".join(head) + "\n"
        for i in range(0, len(times), ROW_BLOCK):
            b = slice(i, i + ROW_BLOCK)
            # tolist() hands "%" exact Python floats
            block = np.column_stack((times[b], *columns(b))).tolist()
            yield "".join([row_format % tuple(row) for row in block])

    files.write(name, pieces())


def write_market_outputs(rec: SimulationRecord, files: OutputSet) -> None:
    """Stage the six data artifacts."""
    n = rec.config.n
    grid = make_grid(rec.config.s0, rec.config.s1, n)
    node_comment = "nodes=" + ",".join(_fmt(s) for s in grid.nodes)
    table = functools.partial(write_table, files, rec.times)

    surface_header = ["t"] + [_fmt(s) for s in grid.nodes]
    psi_pdf = lambda b: np.abs(rec.psi[b]) ** 2
    table("volatility_pdf.csv", SURFACE_SCHEMA, surface_header,
          lambda b: [np.abs(rec.sigma[b]) ** 2])
    table("price_pdf.csv", SURFACE_SCHEMA, surface_header, lambda b: [psi_pdf(b)])
    with np.errstate(divide="ignore"):
        table("price_pdf_log10.csv", SURFACE_SCHEMA, surface_header,
              lambda b: [np.log10(psi_pdf(b))])

    def traces(lines):
        # header and (re, im) columns of the psi lines, interleaved per line
        header = ["t"] + [f"{part}_{k}" for k in lines for part in ("re", "im")]
        return header, lambda b: [np.ascontiguousarray(rec.psi[b, lines]).view(np.float64)]

    table("psi_lines.csv", TRACES_SCHEMA, *traces(range(n)), comments=[node_comment])
    phase_lines = [n // 4, n // 2, (3 * n) // 4]
    table("psi_phase.csv", TRACES_SCHEMA, *traces(phase_lines),
          comments=[node_comment, "lines=" + ",".join(str(k) for k in phase_lines)])

    header = ["t"] + [f"w_{i}" for i in range(n)] + [f"g_{i}" for i in range(n)]
    table("weights_kernels.csv", TRACES_SCHEMA, header, lambda b: [rec.w[b], rec.g[b]])


def write_manifest(files: OutputSet, rec: SimulationRecord, status: str, duration: float) -> None:
    """Stage the run's manifest: its config and step statistics from rec,
    and the sha256 of every file staged in files before it."""
    config, stats = rec.config, rec.stats
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
    lines += [f"  {name}: sha256={digest}" for name, digest in sorted(files.digests.items())]
    files.write("manifest.txt", ["\n".join(lines) + "\n"])


def run_market(config: ModelConfig, outdir: Path) -> int:
    """Run the coupled simulation and export all artifacts."""
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
        write_market_outputs(rec, files)
        write_manifest(files, rec, status, time.perf_counter() - started)
    return code


# ----------------------------------------------------------------------
# verification ladder stages
# ----------------------------------------------------------------------


# integrator tolerances every stage runs at; the gate applies at the last
TOLERANCES = (1e-6, 1e-8)

# a stage runs at a tuple of integrator tolerances and returns, per
# tolerance, its metrics as (name, value, location) triples and the
# integration's StepStats
Metric = Tuple[str, float, str]
StageResult = Tuple[List[Metric], StepStats]


def _controls(tolerances: Sequence[float]) -> List[StepControl]:
    return [StepControl(abs_tol=tol, rel_tol=tol) for tol in tolerances]


def _integrate_field(rhs_fn, field0: np.ndarray, t_end: float, tol: float, observer=None):
    """The field at t_end under one tolerance, and the run's StepStats."""
    ctl = StepControl(abs_tol=tol, rel_tol=tol)
    y, stats = integrate_adaptive(complex_system(rhs_fn), 0.0, t_end, pack_complex(field0),
                                  ctl, observer=observer)
    return unpack_complex(y), stats


def _peak(values: np.ndarray, at: Sequence[float], axis: str) -> Tuple[float, str]:
    """The largest of values (the first, on a tie) and "axis=<where>"."""
    k = int(np.argmax(values))
    return float(values[k]), f"{axis}={at[k]:g}"


def _stage_gaussian(n: int, v: float, t_end: float,
                    tolerances: Sequence[float]) -> List[StageResult]:
    """A unit Gaussian under u_t = (1/2) u_xx + V u, against the exact
    exp(Vt) (1+t)^-1/2 exp(-x^2 / (2 (1+t))); V = 0 is the plain heat
    equation. The tolerances are members of one integration."""
    grid = make_grid(-10.0, 10.0, n)
    x = grid.nodes
    u0 = np.exp(-(x**2) / 2.0)
    # the field is real, so the state is the field itself: no packing
    if v:
        rhs = lambda t, u: heat_potential_rhs(u, grid, v)
    else:
        rhs = lambda t, u: heat_rhs(u, grid)
    finals, stats = integrate_members(rhs, 0.0, t_end, [u0] * len(tolerances),
                                      _controls(tolerances))
    exact = np.exp(v * t_end) * (1.0 + t_end) ** -0.5 * np.exp(-(x**2) / (2.0 * (1.0 + t_end)))
    return [([("max_error", *_peak(np.abs(u1 - exact), x, "x"))], s)
            for u1, s in zip(finals, stats)]


def _stage_linear(tolerances: Sequence[float]) -> List[StageResult]:
    """Mass drift of a Gaussian under the linear Schrodinger equation,
    watched at every accepted step: one integration per tolerance."""
    grid = make_grid(-10.0, 10.0, 201)
    psi0 = np.exp(-(grid.nodes**2) / 2.0).astype(complex)
    mass0 = mass(psi0, grid)
    results = []
    for tol in tolerances:
        times, drifts = [0.0], [0.0]

        def watch(t, y):
            times.append(t)
            drifts.append(abs(mass(unpack_complex(y), grid) - mass0))

        _, stats = _integrate_field(lambda f: linear_schrodinger_rhs(f, grid, 1.0), psi0, 1.0,
                                    tol, observer=watch)
        results.append(([("mass_drift", *_peak(np.array(drifts), times, "t"))], stats))
    return results


def _stage_nls(tolerances: Sequence[float]) -> List[StageResult]:
    """The sech soliton of the focusing cubic NLS over t = 5: its modulus
    and energy. The tolerances are members of one integration."""
    grid = make_grid(-20.0, 20.0, 801)
    x = grid.nodes
    psi0 = (1.0 / np.cosh(x)).astype(complex)
    v = -1.0
    h0 = energy(psi0, grid, v)
    y0 = pack_complex(psi0)
    finals, stats = integrate_members(complex_system(lambda f: nls_rhs(f, grid, v)), 0.0, 5.0,
                                      [y0] * len(tolerances), _controls(tolerances))
    results = []
    for y1, s in zip(finals, stats):
        psi1 = unpack_complex(y1)
        h1 = energy(psi1, grid, v)
        results.append(([
            ("max_modulus_deviation", *_peak(np.abs(np.abs(psi1) - np.abs(psi0)), x, "x")),
            ("energy_drift_rel", abs(h1 - h0) / abs(h0), "t=5"),
        ], s))
    return results


# stage name -> (runner, oracle threshold)
STAGES = {
    "heat": (functools.partial(_stage_gaussian, 401, 0.0, 1.0), 1e-4),
    "heat-potential": (functools.partial(_stage_gaussian, 501, 1.0, 0.5), 1e-4),
    "linear": (_stage_linear, 1e-6),
    "nls": (_stage_nls, 1e-3),
}


def run_ladder(stage: str, outdir: Path) -> int:
    """Run one verification stage at each of TOLERANCES, write a report.

    The report's head has one "# tolerance=<tol> accepted=… rejected=…
    rhs_evaluations=…" line per tolerance, with the step counts of that
    tolerance's integration; then come one row per tolerance and metric.
    The gate is the stage's oracle threshold in STAGES, applied at the
    tightest integrator tolerance.
    """
    if stage not in STAGES:
        raise ConfigError(f"unknown ladder stage {stage!r}; choose from {sorted(STAGES)}")
    runner, gate = STAGES[stage]
    results = runner(TOLERANCES)
    lines = [f"# schema={LADDER_SCHEMA}", f"# stage={stage}"]
    lines += [f"# tolerance={tol:.10g} accepted={stats.accepted} rejected={stats.rejected} "
              f"rhs_evaluations={stats.rhs_evaluations}"
              for tol, (_, stats) in zip(TOLERANCES, results)]
    lines.append("tolerance,metric,value,threshold,passed,location")
    for tol, (metrics, _) in zip(TOLERANCES, results):
        lines += [f"{tol:.10g},{name},{value:.10g},{gate:.10g},"
                  f"{str(value <= gate).lower()},{where}" for name, value, where in metrics]
    with OutputSet(outdir) as files:
        files.write(f"ladder_{stage}.csv", ["\n".join(lines) + "\n"])

    # the exit code is the gate at the tightest tolerance, the last of TOLERANCES
    failed = [(name, value, where) for name, value, where in results[-1][0] if not value <= gate]
    for name, value, where in failed:
        print(f"stage {stage}: {name}={value:.6g} exceeds {gate:g} at {where}", file=sys.stderr)
    return 3 if failed else 0


# ----------------------------------------------------------------------
# command surface
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -12 and -1.5 as negative numbers, so -1e-3, -inf
        # or -1,2 would be taken for an option that leaves its flag without a
        # value. No option here looks like those, so they are values; the
        # subparsers are built as type(parser) and share this rule.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    # usage problems must map to exit code 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def _cmd_run_market(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return run_market(config, Path(args.out))


def _cmd_run_ladder(args) -> int:
    return run_ladder(args.stage, Path(args.out))


def _cmd_price_call(args) -> int:
    opt = VanillaCall(
        spot=args.spot,
        strike=args.strike,
        rate=args.rate,
        sigma=args.sigma,
        valuation_time=args.valuation_time,
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
    repeated = sorted(s for s, count in Counter(seeds).items() if count > 1)
    if repeated:
        # every seed writes to out/seed_<seed>, so a repeat would race itself
        raise ConfigError(f"--seeds repeats seed(s) {','.join(map(str, repeated))}")
    # every config is checked before the first run writes anything
    configs = [dataclasses.replace(config, seed=seed) for seed in seeds]
    out = Path(args.out)
    # Seeds run in order on this thread. Each is an independent run, so one
    # that raises does not cost the rest their outputs; the first error is
    # raised once every seed has been tried.
    codes, first_error = [], None
    for cfg in configs:
        try:
            codes.append(run_market(cfg, out / f"seed_{cfg.seed}"))
        except Exception as err:
            first_error = first_error or err
    if first_error is not None:
        raise first_error
    return max(codes)


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
    p.set_defaults(func=_cmd_run_ladder)

    p = sub.add_parser("price-call", help="closed-form European call price")
    p.add_argument("--spot", type=float, required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--maturity", type=float, required=True, help="maturity in years")
    p.add_argument("--valuation-time", type=float, default=0.0, help="valuation time in years")
    p.set_defaults(func=_cmd_price_call)

    p = sub.add_parser("sweep", help="independent seeded runs, one after another")
    p.add_argument("--config", help="config file shared by all runs")
    p.add_argument("--out", required=True, help="parent output directory")
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and validated (at least 1), but the seeds always "
                        "run one after another on one thread")
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
