"""Command-line entry point: coefficient tables, verification suites,
simulations and convergence studies, all reproducible from (config, seed).

Exit codes: 0 success, 1 check failure, 2 configuration error (a bad config
field or command-line value, or an unwritable output path).  The output root
may be overridden with the SHEARWAVES_OUTPUT_ROOT environment variable.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import queue
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .checks import DEFAULT_SUITES, MIN_ORDER, MIN_RATIO, SUITES, spatial_error_ratio, temporal_order
from .coeffs import (
    GeneralCoefficients,
    ModelCoefficients,
    derived_intermediates,
    identity_suite,
    model_coefficients,
    normalize,
    perturbed,
)
from .solver import SimConfig, Trajectory, breaking_crossing, breaking_monitor, integrate
from .spectral import (
    DEALIAS_FRACTIONS,
    Field,
    Grid,
    csv_text,
    random_mode_coefficients,
    trig_field,
)

SCHEMA_VERSION = 1
# snapshot texts formatted ahead of the file writer; bounds the text held at once
WRITE_AHEAD = 4
OUTPUT_ROOT_ENV = "SHEARWAVES_OUTPUT_ROOT"
COEFFICIENT_NAMES = [f.name for f in fields(GeneralCoefficients)]

DISPERSION_NOTE = ("linear phase: omega(k) = k*(c + (beta0/beta)*k^2)/(1 + k^2) "
                   "for the rescaled form; sign fixed by one-time symbolic derivation")


class ConfigError(Exception):
    """Raised for malformed run configurations or command-line values, and for
    unwritable output paths; reports the offending field or path."""


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def vorticity_coefficients(a: float, name: str) -> GeneralCoefficients:
    """Nonlocal-form constants of ``a``; ConfigError if a < 0, not finite, or one overflows."""
    if not 0 <= a < math.inf:
        raise ConfigError(f"{name} must be a finite vorticity >= 0, got {a}")
    try:
        g = normalize(model_coefficients(a))
    except OverflowError:
        g = None
    if g is None or not all(map(math.isfinite, g.to_dict().values())):
        raise ConfigError(f"{name} = {a!r} is too large: the model coefficients overflow")
    return g


def _null_nonfinite(value):
    """``value`` with every non-finite float replaced by None, in nested
    dicts, lists and tuples."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _null_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(item) for item in value]
    return value


def _strict_json(payload) -> str:
    """Report text that strict JSON parsers accept: a non-finite float (a
    failed study's NaN, an unbounded tolerance) is written as null."""
    return json.dumps(_null_nonfinite(payload), indent=2, allow_nan=False)


def _check_writable(path) -> None:
    """Fail before any check runs if ``path`` cannot take a file: it must not
    be a directory, and its parent must be an existing, writable directory."""
    target = Path(path)
    if target.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    parent = target.resolve().parent
    if not (parent.is_dir() and os.access(parent, os.W_OK)):
        raise ConfigError(f"cannot write {path}: {parent} is not a writable directory")


# ---------------------------------------------------------------------------
# coeffs command
# ---------------------------------------------------------------------------

def _print_table(title: str, mapping: dict) -> None:
    print(f"# {title}")
    width = max(len(k) for k in mapping)
    for key, value in mapping.items():
        print(f"  {key.ljust(width)}  {value:.17g}")


def _parse_sweep(arg: str):
    try:
        lo_s, hi_s, count_s = arg.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ConfigError(f"sweep must be lo:hi:count, got {arg!r}") from exc
    if not (0 < lo < hi < math.inf and count >= 2):
        raise ConfigError(f"sweep needs 0 < lo < hi < inf and count >= 2, got {arg!r}")
    vorticity_coefficients(hi, "--sweep hi")  # the constants grow with A
    return np.geomspace(lo, hi, count)


def cmd_coeffs(args) -> int:
    if args.sweep is None and args.out is not None:
        raise ConfigError("--out writes the sweep CSV and needs --sweep")
    if args.sweep is not None and args.json:
        raise ConfigError("--json does not apply to --sweep, which writes CSV")
    if args.out is not None:
        _check_writable(args.out)
    g = vorticity_coefficients(args.A, "--A")
    if args.sweep is not None:
        header = [f.name for f in fields(ModelCoefficients)] + ["identities_pass", "max_residual"]
        lines = [",".join(header)]
        all_ok = True
        for a in _parse_sweep(args.sweep):
            checks = identity_suite(a)
            ok = all(c.passed for c in checks)
            all_ok &= ok
            cells = [f"{v:.17g}" for v in model_coefficients(a).to_dict().values()]
            cells += [str(int(ok)), f"{max(c.residual for c in checks):.3e}"]
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            _write_text(args.out, text)
        if not all_ok:
            print("identity failures in sweep", file=sys.stderr)
            return 1
        return 0

    a = args.A
    m = model_coefficients(a)
    d = derived_intermediates(a)
    checks = identity_suite(a)
    if args.json:
        payload = {
            "model": m.to_dict(),
            "derived": d.to_dict(),
            "general": g.to_dict(),
            "identities": [c.to_dict() for c in checks],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_table(f"model coefficients (A = {a:g})", m.to_dict())
        if a == 0:
            print("  note: omega1..omega4 vanish in the irrotational limit (c = 1)")
        _print_table("derived intermediates", d.to_dict())
        _print_table("normalized (nonlocal form)", g.to_dict())
        print("# identities")
        width = max(len(c.name) for c in checks)
        for c in checks:
            flag = "PASS" if c.passed else "FAIL"
            print(f"  {c.name.ljust(width)}  residual={c.residual:.3e}  "
                  f"tol={c.tolerance:.1e}  {flag}")
    return 0 if all(c.passed for c in checks) else 1


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    g = vorticity_coefficients(args.A, "--A")
    m = model_coefficients(args.A)
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    fault, g_override = args.inject_fault, None
    if fault is not None:
        if fault not in COEFFICIENT_NAMES:
            raise ConfigError(f"unknown coefficient for fault injection: {fault!r}; "
                              f"options: {sorted(COEFFICIENT_NAMES)}")
        if getattr(g, fault) == 0:  # a relative perturbation leaves it 0
            raise ConfigError(f"--inject-fault {fault} injects nothing: {fault} is 0 at A = {args.A:g}")
        g_override = perturbed(g, fault)
    if args.only is not None and args.only not in SUITES:
        raise ConfigError(f"unknown suite {args.only!r}; options: {sorted(SUITES)}")
    if fault is not None and args.only not in (None, "form_equivalence"):  # the suite that reads it
        raise ConfigError(f"--inject-fault injects nothing into --only {args.only}")
    if args.json is not None:
        _check_writable(args.json)
    names = DEFAULT_SUITES if args.only is None else [args.only]
    entries = [e for name in names for e in SUITES[name](args.seed, m, g_override)]
    for e in entries:
        flag = "PASS" if e["pass"] else "FAIL"
        print(f"  {e['check']:<34} n={e['n']:<5} residual={e['residual']:.3e} "
              f"tol={e['tolerance']:.1e}  {flag}")
    if args.json is not None:
        _write_text(args.json, _strict_json(entries))
    failing = [e["check"] for e in entries if not e["pass"]]
    if failing:
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
    return 1 if failing else 0


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------

_REQUIRED, _UNSET = object(), object()

# Every top-level run-configuration field, once: (JSON type, default[, range test on
# (value, h = n/2), range text, {0} = h]).  A range holds whenever its field is present,
# and on the default its initial kind reads.  _UNSET leaves the default to the reader
# (center: length/2) or to SimConfig, which gets its fields present and checks their ranges.
CONFIG_SCHEMA = {
    "schema_version": (int, _REQUIRED),
    "n": (int, _REQUIRED),
    "length": (float, _REQUIRED),
    "t_end": (float, _REQUIRED),
    "dt": (float, _UNSET),
    "cfl": (float, _UNSET),
    "dealias": (object, _UNSET),  # Grid.retained_bins checks it; null keeps every bin
    "snapshot_stride": (int, _UNSET),
    "breaking_stop": (float, _UNSET),
    "sobolev_s": (float, _UNSET),
    "vorticity": (float, _UNSET),
    "coefficients": (dict, _UNSET),
    "initial": (str, _REQUIRED),
    "amplitude": (float, 0.1),
    "mode": (int, 1, lambda v, h: abs(v) < h, "lie in (-n/2, n/2) = (-{0}, {0})"),
    "width": (float, 1.0, lambda v, h: v > 0, "be > 0"),
    "center": (float, _UNSET),
    "seed": (int, 0, lambda v, h: v >= 0, "be >= 0"),
    "max_mode": (int, 8, lambda v, h: 1 <= v < h, "lie in [1, n/2) = [1, {0})"),
}


def _read(cfg: dict, key: str, n: int = 0, row: tuple | None = None, context: str = "config"):
    """Field ``key`` of ``cfg`` checked against ``row`` (default: its CONFIG_SCHEMA row):
    int takes a JSON integer, float a finite JSON number (returned as float), neither a
    boolean.  An absent field, or a null one in a typed row, takes the row's default."""
    json_type, default, *bound = row or CONFIG_SCHEMA[key]
    if json_type is object:
        return cfg.get(key, default)
    value = cfg.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{context}: missing field {key!r}")
        value = default
    elif json_type in (str, dict) and not isinstance(value, json_type):
        raise ConfigError(f"{context}: field {key!r} has type {type(value).__name__}")
    elif isinstance(value, bool) or not isinstance(value, (int, json_type)):
        kind = "an integer" if json_type is int else "a finite number"
        raise ConfigError(f"{context}: field {key!r} must be {kind}, got {value!r}")
    elif json_type is float:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{context}: field {key!r} must be a finite number, got {value!r}")
    if bound and not bound[0](value, n // 2):
        raise ConfigError(f"{context}: field {key!r} must {bound[1].format(n // 2)}, got {value!r}")
    return value


def initial_condition(cfg: dict, grid: Grid) -> Field:
    """The initial state of ``cfg`` on ``grid``; ConfigError if out of range or not finite."""
    kind = _read(cfg, "initial")
    amp = _read(cfg, "amplitude")
    with np.errstate(all="ignore"):  # a sample that overflows is refused below, not printed
        if kind == "zero":
            u0 = np.zeros(grid.n)
        elif kind in ("sine", "cosine"):
            wave = np.sin if kind == "sine" else np.cos
            u0 = amp * wave(2 * np.pi * _read(cfg, "mode", grid.n) * grid.x / grid.length)
        elif kind in ("sech2", "gaussian"):
            width = _read(cfg, "width", grid.n)
            center = grid.length / 2 if (center := _read(cfg, "center")) is _UNSET else center
            if kind == "sech2":  # amp / inf = 0 where cosh overflows
                u0 = amp / np.cosh((grid.x - center) / width) ** 2
            else:
                u0 = amp * np.exp(-(((grid.x - center) / width) ** 2) / 2)  # width**2 underflows
        elif kind == "random_bandlimited":
            rng = np.random.default_rng(_read(cfg, "seed", grid.n))
            a, b = random_mode_coefficients(rng, max_mode=_read(cfg, "max_mode", grid.n))
            u0 = trig_field(grid, a, b, amplitude=amp).values
        else:
            raise ConfigError(f"config: unknown initial condition kind {kind!r}")
    if not np.isfinite(u0).all():
        raise ConfigError(f"config: initial state {kind!r} has a non-finite sample")
    return Field(grid, u0)


def coefficients_from_config(cfg: dict):
    a, raw = _read(cfg, "vorticity"), _read(cfg, "coefficients")
    if (a is _UNSET) == (raw is _UNSET):
        raise ConfigError("config: exactly one of 'vorticity' / 'coefficients' required")
    if raw is _UNSET:
        return vorticity_coefficients(a, "config: field 'vorticity'"), {"vorticity": a}
    unknown = sorted(set(raw) - set(COEFFICIENT_NAMES))
    if unknown:
        raise ConfigError(f"config: unknown coefficient fields {unknown}")
    missing = sorted(set(COEFFICIENT_NAMES) - set(raw))
    if missing:
        raise ConfigError(f"config: coefficients object missing {missing}")
    g = GeneralCoefficients(**{k: _read(raw, k, 0, (float, _REQUIRED), "config: coefficients")
                               for k in COEFFICIENT_NAMES})
    return g, {"explicit_coefficients": True}


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} line {exc.lineno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    if (version := _read(cfg, "schema_version")) != SCHEMA_VERSION:
        raise ConfigError(f"config: schema_version {version} unsupported (want {SCHEMA_VERSION})")
    unknown = sorted(set(cfg) - set(CONFIG_SCHEMA))
    if unknown:
        raise ConfigError(f"config: unknown fields {unknown}")
    return cfg


def sim_config_from_dict(cfg: dict):
    try:  # Grid and SimConfig check their own ranges and raise ValueError
        grid = Grid(_read(cfg, "n"), _read(cfg, "length"))
        value = {key: _read(cfg, key, grid.n) for key, row in CONFIG_SCHEMA.items()
                 if len(row) == 2 or cfg.get(key) is not None}  # a range: only when present
        g, provenance = coefficients_from_config(cfg)
        stepping = {f.name: value[f.name] for f in fields(SimConfig)
                    if f.name != "coefficients" and value.get(f.name, _UNSET) is not _UNSET}
        if (policy := value["dealias"]) is not _UNSET:
            try:
                grid.retained_bins(policy)
            except ValueError:
                raise ConfigError(f"config: field 'dealias' must be "
                                  f"{'|'.join(DEALIAS_FRACTIONS)}|null, got {policy!r}") from None
            stepping["dealias_policy"] = policy
        return SimConfig(grid=grid, coefficients=g, **stepping), provenance
    except ValueError as exc:
        raise ConfigError(f"config: {exc}")


PLOT_SCRIPT = """\
# gnuplot script generated alongside the run outputs
set datafile separator ','
set key autotitle columnhead
set terminal pngcairo size 1400,900
set output 'run.png'
set multiplot layout 2,2
set title 'final state'
plot 'snapshots/final.csv' using 1:2 with lines title 'u(t_end,x)'
set title 'amplitude and slope extrema'
plot 'diagnostics.csv' using 1:2 with lines title 'sup|u|', \\
     'diagnostics.csv' using 1:3 with lines title 'min u_x', \\
     'diagnostics.csv' using 1:4 with lines title 'max u_x'
set title 'breaking integral'
plot 'diagnostics.csv' using 1:7 with lines title 'int ||u_x||^2 dt'
set title 'norms'
plot 'diagnostics.csv' using 1:5 with lines title 'H1', \\
     'diagnostics.csv' using 1:6 with lines title 'Hs', \\
     'diagnostics.csv' using 1:8 with lines title 'energy'
unset multiplot
"""


def output_dir(args, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    return root / default_name


def _write_files(jobs: queue.Queue, failures: list) -> None:
    """The writer thread of ``write_run_outputs``: create each queued
    ``(path, text)`` file, in queue order, until None arrives.  It only opens,
    writes and closes.  After the first OSError, kept in ``failures``, it
    writes nothing more and only drains the queue."""
    while (job := jobs.get()) is not None:
        if not failures:
            path, text = job
            try:
                with open(path, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                failures.append((path, exc))


def write_run_outputs(outdir: Path, cfg: dict, sim: SimConfig, provenance: dict,
                      traj: Trajectory, wall_time: float) -> None:
    """Fill the run directory that ``cmd_simulate`` created; ConfigError if a
    file cannot be written.

    This thread formats each snapshot while one writer thread creates the
    files of the ones before it, at most ``WRITE_AHEAD`` texts behind.  The
    writer is joined before the other files are written, also on an error.
    """
    start = time.perf_counter()
    snapshots = outdir / "snapshots"
    jobs = queue.Queue(WRITE_AHEAD)
    failures: list = []
    writer = threading.Thread(target=_write_files, args=(jobs, failures))
    writer.start()
    try:
        for i, snap in enumerate(traj.snapshots):
            if failures:
                break
            text = csv_text(snap)
            jobs.put((snapshots / f"snap_{i:06d}.csv", text))
        else:  # traj.final() is the last snapshot: final.csv gets its text
            jobs.put((snapshots / "final.csv", text))
    finally:
        jobs.put(None)
        writer.join()
    if failures:
        path, exc = failures[0]
        raise ConfigError(f"cannot write {path}: {exc}")
    _write_text(outdir / "diagnostics.csv", traj.diagnostics_csv())
    _write_text(outdir / "plot.gnuplot", PLOT_SCRIPT)
    output_time = time.perf_counter() - start
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "grid": {"n": sim.grid.n, "length": sim.grid.length},
        "coefficients": sim.coefficients.to_dict(),
        "provenance": provenance,
        "termination": traj.termination,
        "t_final": traj.t_final,
        "breaking_verdict": breaking_monitor(traj.series),
        "records": len(traj.records),
        "steps": traj.steps,
        "rejected_steps": traj.rejected_steps,
        "wall_time_s": wall_time,
        "output_time_s": output_time,
        "dispersion_note": DISPERSION_NOTE,
    }
    if traj.termination == "breaking_detected":  # the stop between the last two steps
        manifest["t_stop"], manifest["breaking_integral_at_stop"] = breaking_crossing(
            traj.series, sim.breaking_stop)
    _write_text(outdir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    sim, provenance = sim_config_from_dict(cfg)
    u0 = initial_condition(cfg, sim.grid)
    outdir = output_dir(args, Path(args.config).stem)
    try:  # before the first step, so a bad --out costs no run
        (outdir / "snapshots").mkdir(parents=True, exist_ok=True)
        for stale in (outdir / "snapshots").glob("snap_*.csv"):  # left by an earlier run
            stale.unlink()
    except OSError as exc:
        raise ConfigError(f"cannot create run directory {outdir}: {exc}") from None
    start = time.perf_counter()
    traj = integrate(sim, u0)
    wall = time.perf_counter() - start
    write_run_outputs(outdir, cfg, sim, provenance, traj, wall)
    print(f"run complete: termination={traj.termination} records={len(traj.records)} "
          f"outdir={outdir}")
    return 0 if traj.termination in ("completed", "breaking_detected") else 1


# ---------------------------------------------------------------------------
# convergence command
# ---------------------------------------------------------------------------

def cmd_convergence(args) -> int:
    g = vorticity_coefficients(args.A, "--A")
    if args.json is not None:
        _check_writable(args.json)
    order, errs = temporal_order(g)
    print(f"temporal Richardson order: {order:.3f}  (mms errors: "
          + ", ".join(f"{e:.3e}" for e in errs) + ")")
    ratio, errors = spatial_error_ratio(g)
    print(f"spatial error ratio n=64 vs n=128: {ratio:.3e}  "
          f"(errors: {errors[64]:.3e}, {errors[128]:.3e})")
    ok = order >= MIN_ORDER and ratio > MIN_RATIO
    if args.json is not None:
        _write_text(args.json, _strict_json({
            "temporal_order": order,
            "mms_errors": errs,
            "spatial_ratio": ratio,
            "spatial_errors": errors,
            "pass": ok,
        }))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shearwaves",
        description="coefficient verification and simulation for shallow-water "
                    "waves over constant-vorticity shear",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="coefficient tables and identity report")
    p.add_argument("--A", type=float, default=1.5, help="vorticity parameter")
    p.add_argument("--sweep", help="log-spaced sweep lo:hi:count, CSV output")
    p.add_argument("--out", help="write sweep CSV here instead of stdout")
    p.add_argument("--json", action="store_true", help="JSON instead of tables")
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("verify", help="cross-check suites (oracle comparisons)")
    p.add_argument("--A", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--only", help=f"run a single suite: {', '.join(SUITES)}")
    p.add_argument("--json", help="write per-check JSON here")
    p.add_argument("--inject-fault", help="perturb one model coefficient (test mode)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="run a configured simulation")
    p.add_argument("config", help="flat JSON config file")
    p.add_argument("--out", help="output directory (default: ./<config stem>)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("convergence", help="manufactured-solution refinement study")
    p.add_argument("--A", type=float, default=1.5)
    p.add_argument("--json", help="write results JSON here")
    p.set_defaults(fn=cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
